"""The benchmark's traced run must pass its own self-check on every workload.

``perfbench/run.py --trace 1`` wraps the functions that
``perfbench/tracing.py`` lists in ``SPANNED`` in every ``fermi_rpa``
namespace that binds them, runs the workload's operations through
``cli.main``, and then requires each per-layer metric of
``perfbench/layers.json`` to fire (> 0) or read zero on that workload.
A call that bypasses a module binding, a renamed function, or a module
that ``fermi_rpa.cli`` no longer imports makes a metric read zero, and
that run exits 3.  This test does the same traced pass in process, on
the workload's seed-1 inputs, and asserts the same self-check.  The
benchmark files are loaded from their paths and only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import fermi_rpa.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py as the module ``name``, registered in sys.modules
    (dataclasses look their module up there, and run.py imports workloads by name)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path  # run.py puts perfbench/ first on the path
    return module


@pytest.fixture(scope="module")
def perfbench():
    tracing = load_perfbench("tracing")
    workloads = load_perfbench("workloads")
    run = load_perfbench("run")
    layers = json.loads((PERFBENCH / "layers.json").read_text())["metrics"]
    return tracing, workloads, run, layers


@pytest.mark.parametrize("name", ["radial-sweep", "lattice-bulk", "fock-oracle"])
def test_traced_workload_passes_the_benchmark_self_check(perfbench, tmp_path, name):
    tracing, workloads, run, layers = perfbench
    workload = workloads.make_workload(name, 1, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        for label, argv in workload.ops:
            assert run.run_in_process(cli.main, argv).rc == 0, label
    totals = tracer.totals()
    metrics = {
        entry["name"]: 0.0 if entry["name"] == "trace.overhead_s" else tracer.metric(entry["name"], totals)
        for entry in layers
    }
    assert run.self_check(name, metrics, layers) == []
