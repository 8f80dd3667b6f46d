"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _perturb_first_digit_run(text: str, column: int) -> str:
    """Change one significant digit of one CSV cell in the first data row."""
    header, row, *rest = text.split("\n")
    cells = row.split(",")
    cell = cells[column]
    pos = next(i for i in range(6, len(cell)) if cell[i].isdigit())
    cells[column] = cell[:pos] + str((int(cell[pos]) + 1) % 10) + cell[pos + 1 :]
    return "\n".join([header, ",".join(cells), *rest])


@pytest.fixture(scope="module")
def radial_case(tmp_path_factory):
    from fermi_rpa.cli import main

    coeffs = workloads.radial_potential(random.Random("test"))
    path = tmp_path_factory.mktemp("inputs") / "radial.json"
    workloads.write_potential(path, coeffs)
    out = run.run_in_process(main, ["compare", "--potential", str(path), "--n-list", "257"])
    assert out.rc == 0
    return reference.Reference(coeffs, workloads.SUPPORT_RADIUS_SQ), out.stdout.decode()


def test_program_output_matches_reference(radial_case):
    ref, text = radial_case
    assert reference.check_compare_csv(text, ref, [257]) == []


@pytest.mark.parametrize("column", [3, 5, 7, 9, 13])
def test_perturbed_output_counts_as_failure(radial_case, column):
    ref, text = radial_case
    bad = _perturb_first_digit_run(text, column)
    checker = run.Checker({"compare": lambda t: reference.check_compare_csv(t, ref, [257])})
    assert checker.record("compare", run.OpResult(0, text.encode(), 1.0))
    assert not checker.record("compare", run.OpResult(0, bad.encode(), 1.0))
    assert (checker.attempted, checker.failed) == (2, 1)


def test_changed_bytes_and_exit_codes_count_as_failures(radial_case):
    ref, text = radial_case
    checker = run.Checker({"compare": lambda t: reference.check_compare_csv(t, ref, [257])})
    checker.record("compare", run.OpResult(0, text.encode(), 1.0))
    # same numbers, different bytes: breaks the byte-identity contract
    checker.record("compare", run.OpResult(0, text.replace("\n", "\r\n").encode(), 1.0))
    checker.record("compare", run.OpResult(1, text.encode(), 1.0))
    assert (checker.attempted, checker.failed) == (3, 2)


def test_oracle_violation_counts_as_failure():
    from fermi_rpa.cli import main

    out = run.run_in_process(main, ["oracle", "--seed", "5", "--trials", "1"])
    expect = reference.oracle_expectations(7, 2, 2)
    text = out.stdout.decode()
    assert reference.check_oracle(text, expect, 5, 1) == []
    docs = [json.loads("{" + part) for part in text.strip()[1:].split("\n{")]
    docs[0]["violations"] = ["trial 0: made up"]
    bad = "".join(json.dumps(d, sort_keys=True, indent=2) + "\n" for d in docs)
    assert reference.check_oracle(bad, expect, 5, 1)


@pytest.mark.parametrize("a", [-0.5, 0.01, 0.1, 0.3, 0.9])
def test_reference_quadrature_against_mpmath(a):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    x = mpmath.mpf(a)

    def f(lam):
        return mpmath.log(1 + x * (1 - lam * mpmath.atan(1 / lam))) if lam else mpmath.log(1 + x)

    want = float(mpmath.quad(f, [0, 1, 10, mpmath.inf]) / mpmath.pi)
    got = reference.frequency_integral(reference.np.array([a]))[0]
    assert abs(got - want) <= 1e-14


@pytest.mark.parametrize("n", [33, 257, 2109])
def test_reference_lattice_counts_against_brute_force(n):
    r2 = reference.closed_shell_radius_sq(n)
    ball = set(reference._ball_points(r2))
    assert len(ball) == n
    support = workloads.support_momenta(6)
    table = reference.lattice_table(n, support)
    for k in support:
        lune = [h for h in ball if (h[0] + k[0], h[1] + k[1], h[2] + k[2]) not in ball]
        numerator = sum(k[i] * (2 * h[i] + k[i]) for h in lune for i in range(3))
        assert table[k] == (len(lune), numerator / len(lune))


def test_tracer_patches_every_namespace_and_restores():
    import fermi_rpa
    import fermi_rpa.cli
    import fermi_rpa.error_budget
    import fermi_rpa.lattice
    import fermi_rpa.rpa_delocalized

    original = fermi_rpa.lattice.lune_count
    holders = [fermi_rpa, fermi_rpa.cli, fermi_rpa.error_budget, fermi_rpa.lattice, fermi_rpa.rpa_delocalized]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(m.lune_count is not original for m in holders)
        ball = fermi_rpa.cli.build_fermi_ball(33)
        fermi_rpa.rpa_delocalized.correlation_delocalized(
            ball, fermi_rpa.make_potential({(1, 0, 0): 0.1}), backend="exact"
        )
    assert all(m.lune_count is original for m in holders)
    assert tracer.bindings["fermi_rpa.lattice.lune_count"] == len(holders)
    totals = tracer.totals()
    assert tracer.metric("lattice.lune_count.calls", totals) == 2
    assert tracer.metric("lattice.points_scanned", totals) == 4 * 33
    assert tracer.metric("rpa_delocalized.correlation_delocalized.self_s", totals) > 0


def test_benchmark_declares_every_layer_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    assert [m["name"] for m in bench["per_layer"]] == [e["name"] for e in layers]
    tracer = tracing.Tracer()
    totals = tracer.totals()
    for entry in layers:
        if entry["name"] != "trace.overhead_s":
            assert tracer.metric(entry["name"], totals) == 0


def test_speed_probe_is_independent_of_the_program():
    assert "fermi_rpa" not in run.SPEED_PROBE
    result = run.CliRunner(run.pinned_environment()).run_python(["-c", run.SPEED_PROBE])
    assert result.rc == 0 and result.wall > 0 and result.cpu > 0
