"""The benchmark's traced run wraps package functions by name.

``perfbench/tracing.py`` lists them in ``SPANNED`` and also counts
Gauss-Kronrod panels through ``quadrature._gk15_panel``.  A rename or a
deletion in the package would make the traced benchmark run fail, so
every listed name must stay a callable of its ``fermi_rpa`` module.  The
tracer is loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_package_callable():
    names = [
        (module, function)
        for module, functions in load_tracing().SPANNED.items()
        for function in functions
    ]
    names.append(("quadrature", "_gk15_panel"))
    missing = [
        f"{module}.{function}"
        for module, function in names
        if not callable(getattr(importlib.import_module(f"fermi_rpa.{module}"), function, None))
    ]
    assert missing == []
