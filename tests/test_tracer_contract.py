"""The benchmark's traced run must pass its own self-check on every workload.

``perfbench/run.py --trace 1`` wraps the functions that
``perfbench/tracing.py`` lists in ``SPANNED`` in every ``fermi_rpa``
namespace that binds them, runs the workload's operations through
``cli.main``, and then requires each per-layer metric of
``perfbench/layers.json`` to fire (> 0) or read zero on that workload.
A call that bypasses a module binding, or a renamed function, makes a
metric read zero, and that run exits 3.  The tracer looks up
``sys.modules["fermi_rpa.<module>"]`` for every module it spans right
after ``import fermi_rpa.cli``, so a spanned module that ``cli`` does not
register raises ``KeyError`` and the run exits 1.  ``cli`` registers each
module lazily, so the key is there even when the workload never runs it.
This test does the same traced pass in process, on the workload's seed-1
inputs, and asserts the same self-check; the last test checks the lookup
in a fresh interpreter, since ``tests/conftest.py`` has already imported
the oracle into this one.  The benchmark files are loaded from their
paths and only read.
"""

import json
import subprocess
import sys

import pytest

import fermi_rpa.cli as cli
from conftest import PERFBENCH, load_perfbench


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


def test_importing_cli_registers_every_spanned_module(perfbench):
    tracing = perfbench[0]
    names = sorted(f"fermi_rpa.{module}" for module in tracing.SPANNED)
    probe = (
        f"import sys; sys.path.insert(0, {str(PERFBENCH.parent / 'src')!r}); import fermi_rpa.cli; "
        f"print(*[name for name in {names!r} if name not in sys.modules])"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
