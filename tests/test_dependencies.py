"""The package imports only the standard library, numpy and itself.

pyproject.toml declares numpy as the one runtime dependency.  Other
packages (scipy, mpmath, hypothesis) may be installed for the tests, so
an accidental import of one of them would still run here; this walk of
the source catches it, function-local imports included.  Within the
package, a module loads only the modules it imports: ``__init__.py``
re-exports nothing.  Every ``raise`` in the package raises one of the five
classes of ``errors.py``, so the exception type alone decides the CLI exit
code, and any other exception is a bug.  Only ``cli.main`` writes to
stdout, and no module calls ``print``, so one place owns the printed bytes.
Each command runs only the modules it calls into: ``ratio`` runs none of
them and loads neither numpy nor ``inspect``, ``shells`` runs only
``lattice``, and only ``oracle`` runs the Fock oracle, which draws its
trial states without ``numpy.random`` and never loads ``numpy.ma``.  The
package's records are NamedTuples and plain classes, so no command loads
``dataclasses`` or ``copy``.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fermi_rpa"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "fermi_rpa"}


def imported_modules(source):
    """Top-level module names of every import statement, at any depth."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import (level > 0) stays inside the package
            names.append(node.module.split(".")[0] if node.level == 0 else "fermi_rpa")
    return names


def test_walker_sees_local_and_relative_imports():
    source = "from . import cli\n\ndef f():\n    import scipy.linalg\n    from mpmath import mp\n"
    assert imported_modules(source) == ["fermi_rpa", "scipy", "mpmath"]


def test_package_imports_only_stdlib_and_numpy():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = {}
    for path in files:
        for name in imported_modules(path.read_text()):
            found.setdefault(name, []).append(path.name)
    assert "numpy" in found
    undeclared = {name: where for name, where in found.items() if name not in ALLOWED}
    assert undeclared == {}


def test_importing_a_module_loads_only_its_own_imports():
    # a fresh interpreter: this one has loaded the whole package already
    probe = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import fermi_rpa.lattice; "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'fermi_rpa'))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["fermi_rpa", "fermi_rpa.errors", "fermi_rpa.lattice"]


def modules_run_by(argv):
    """The package modules a fresh interpreter has run, and the other modules
    it has loaded, after ``cli.main(argv)`` exits 0.

    ``cli`` registers every package module lazily: it is in ``sys.modules``
    from the start, but runs only when an attribute is first read.  Reading
    any attribute (``vars()`` too) would run it, so the probe tells a module
    that ran from one that is only registered by its type alone: a module
    that ran is a plain ``ModuleType``, a registered one a lazy subclass.
    A module counts as loaded only if it was not in ``sys.modules`` when
    the interpreter handed over to the probe.
    """
    probe = (
        "import sys; before = set(sys.modules)\n"
        f"import contextlib, io, types; sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        "from fermi_rpa.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    rc = main({argv!r})\n"
        "ran = [n for n, m in sys.modules.items() if n.split('.')[0] == 'fermi_rpa'"
        " and type(m) is types.ModuleType]\n"
        "loaded = [n for n in sys.modules if n not in before and n.split('.')[0] != 'fermi_rpa']\n"
        "print(rc, *sorted(ran), '|', *sorted(loaded))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    head, tail = result.stdout.split("|")
    rc, *ran = head.split()
    assert rc == "0", result.stderr
    return {name.removeprefix("fermi_rpa.") for name in ran}, set(tail.split())


def test_ratio_runs_no_module_and_loads_no_numpy():
    ran, loaded = modules_run_by(["ratio"])
    assert ran == {"fermi_rpa", "cli", "errors"}
    assert "numpy" not in loaded


def test_ratio_loads_neither_dataclasses_nor_inspect():
    # numpy loads inspect, so only ratio can skip it
    _, loaded = modules_run_by(["ratio"])
    assert loaded.isdisjoint({"dataclasses", "inspect"})


LATTICE_COMMANDS = [
    "hf --n 33",
    "corr --n 33 --method delocalized-exact",
    "errors --n 33 --backend exact",
    "compare --n-list 33",
    "scan --n 33 --scales 3:4",
]


@pytest.mark.parametrize("argv", [*LATTICE_COMMANDS, "shells --shells 4", "oracle --trials 1"])
def test_no_command_loads_dataclasses(argv):
    # every record is a NamedTuple or a plain class, and JSON reads records through _asdict
    _, loaded = modules_run_by(argv.split())
    assert loaded.isdisjoint({"dataclasses", "copy"})


@pytest.mark.parametrize("argv", LATTICE_COMMANDS)
def test_lattice_commands_run_no_fock_oracle(argv):
    ran, _ = modules_run_by(argv.split())
    assert "lattice" in ran and "fock_oracle" not in ran


def test_shells_runs_only_the_lattice():
    # the kinetic density is the closed-form ball sum: no table, no Hartree-Fock,
    # no frequency integral
    ran, _ = modules_run_by(["shells", "--shells", "4"])
    assert ran == {"fermi_rpa", "cli", "errors", "lattice"}


def test_oracle_runs_none_of_the_energy_modules():
    ran, _ = modules_run_by(["oracle", "--trials", "1"])
    assert "fock_oracle" in ran
    assert ran.isdisjoint({"quadrature", "rpa_optimal", "report", "error_budget", "hf"})


def test_oracle_loads_no_numpy_random():
    # the trial states come from the stdlib generator: numpy.random would
    # pull in its bit generators and, through secrets, OpenSSL's hashlib;
    # and no np.unique call, whose first call imports numpy.ma
    _, loaded = modules_run_by(["oracle", "--trials", "1"])
    assert "numpy" in loaded
    assert loaded.isdisjoint({"numpy.random", "secrets", "hashlib", "_hashlib", "numpy.ma"})


def raised_names(source):
    """The class name of every ``raise``: None for a bare re-raise, "?" for another expression."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.append(None if exc is None else exc.id if isinstance(exc, ast.Name) else "?")
    return names


def test_raise_walker_sees_calls_names_and_re_raises():
    source = "def f(e):\n    raise A('x') from e\n    raise B\n    raise\n    raise e.inner\n"
    assert raised_names(source) == ["A", "B", None, "?"]


def test_package_raises_only_its_own_error_types():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert defined == {"FermiRpaError", "DomainError", "ParseError", "NumericalFailure", "BoundViolation"}
    foreign = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name in raised_names(path.read_text()):
            if name is not None and name not in defined:
                foreign.setdefault(path.name, []).append(name)
    assert foreign == {}


def stdout_sites(source):
    """(enclosing top-level function or None, what) for each ``sys.stdout``
    reference, ``from sys import stdout`` and ``print`` call."""
    sites = []
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "stdout"
                and isinstance(node.value, ast.Name)
                and node.value.id == "sys"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "sys"
                and any(alias.name == "stdout" for alias in node.names)
            ):
                sites.append((name, "sys.stdout"))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
                sites.append((name, "print"))
    return sites


def test_stdout_walker_sees_references_imports_and_print():
    source = (
        "import sys\nfrom sys import stdout\n\ndef main():\n    sys.stdout.write('x')\n\n"
        "def f():\n    print(1)\n    w = sys.stdout\n"
    )
    assert sorted(stdout_sites(source), key=str) == [
        ("f", "print"),
        ("f", "sys.stdout"),
        ("main", "sys.stdout"),
        (None, "sys.stdout"),
    ]


def test_only_cli_main_writes_stdout():
    found = [
        (path.name, *site)
        for path in sorted(PACKAGE.glob("*.py"))
        for site in stdout_sites(path.read_text())
    ]
    assert found == [("cli.py", "main", "sys.stdout")]
