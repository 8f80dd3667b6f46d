import ast
import gc
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fermi_rpa.cli as cli
import fermi_rpa.fock_oracle as fock_oracle
import fermi_rpa.lattice as lattice
from fermi_rpa.cli import main
from fermi_rpa.error_budget import ErrorBudget
from fermi_rpa.errors import BoundViolation, DomainError, FermiRpaError, NumericalFailure, ParseError
from fermi_rpa.fock_oracle import VerificationReport
from fermi_rpa.hf import HFEnergy
from fermi_rpa.lattice import ModelParams
from fermi_rpa.potential import make_potential, serialize_potential
from fermi_rpa.report import EnergyReport

CORR_METHODS = ("delocalized-exact", "delocalized-asym", "optimal", "so-deloc", "so-opt")


@pytest.fixture()
def potential_file(tmp_path, demo_potential):
    path = tmp_path / "potential.json"
    path.write_text(serialize_potential(demo_potential))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ratio_prints_window(capsys):
    code, out, _ = run_cli(capsys, "ratio")
    assert code == 0
    assert 0.91 < float(out.strip()) < 0.92


def test_ratio_deterministic(capsys):
    _, first, _ = run_cli(capsys, "ratio")
    _, second, _ = run_cli(capsys, "ratio")
    assert first == second


def test_ball_info(capsys):
    code, out, _ = run_cli(capsys, "ball", "--n", "33")
    assert code == 0
    payload = json.loads(out)
    assert payload["shell_radius_sq"] == 4
    assert payload["hbar"] == pytest.approx(33 ** (-1 / 3))


@pytest.mark.parametrize("n", [10**10, 10**28])
def test_ball_beyond_the_level_cap_exits_one_fast(capsys, n):
    # 10^10 once ran 3.2 s at 309 MB, 10^28 died in numpy's allocator
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "ball", "--n", str(n))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    cap = "LEVEL_CAP = 1000000"
    assert err == f"error: {n} modes need a closed shell of radius^2 above the cap {cap}\n"


def test_exact_correlation_below_the_level_cap_still_runs(capsys):
    # N = 1000003353 has radius^2 384834, inside the cap
    code, out, err = run_cli(capsys, "corr", "--n", "1000003353", "--method", "delocalized-exact")
    assert (code, err) == (0, "")
    assert float(out) < 0.0


def test_ball_open_shell_exits_one(capsys):
    code, _, err = run_cli(capsys, "ball", "--n", "2")
    assert code == 1
    assert "closed shell" in err


def test_nk_csv(capsys, potential_file):
    code, out, _ = run_cli(capsys, "nk", "--n", "33", "--potential", potential_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,n_exact,n_asym,rel_err"
    assert len(lines) == 1 + 8  # six |k|^2=1 plus... support has 8 nonzero modes
    cells = lines[1].split(",")
    assert len(cells) == 4


def test_hf_json(capsys, potential_file):
    code, out, _ = run_cli(capsys, "hf", "--n", "33", "--potential", potential_file)
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == sorted(HFEnergy._fields)
    assert payload["total"] == pytest.approx(
        payload["kinetic"] + payload["direct"] - payload["exchange"]
    )


def test_corr_zero_potential(capsys, tmp_path):
    zero = make_potential({(1, 0, 0): 0.0})
    path = tmp_path / "zero.json"
    path.write_text(serialize_potential(zero))
    code, out, _ = run_cli(
        capsys,
        "corr",
        "--n",
        "33",
        "--potential",
        str(path),
        "--method",
        "delocalized-exact",
    )
    assert code == 0
    assert float(out.strip()) == 0.0


def test_corr_methods_agree_on_sign(capsys, potential_file):
    values = {}
    for method in ("delocalized-exact", "delocalized-asym", "optimal", "so-deloc", "so-opt"):
        code, out, _ = run_cli(
            capsys, "corr", "--n", "33", "--potential", potential_file, "--method", method
        )
        assert code == 0
        values[method] = float(out.strip())
    assert all(val < 0.0 for val in values.values())
    # the delocalized bound cannot beat the optimal correlation energy
    assert values["so-deloc"] > values["so-opt"]


def test_compare_csv_deterministic(capsys, potential_file):
    args = ("compare", "--potential", potential_file, "--n-list", "33,257")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    lines = first.strip().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[0] == "n"
    assert "so_ratio" in header


def test_compare_json(capsys, potential_file):
    code, out, _ = run_cli(
        capsys,
        "compare",
        "--potential",
        potential_file,
        "--n-list",
        "33",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert [sorted(row) for row in payload] == [sorted(EnergyReport._fields)]
    assert payload[0]["n"] == 33
    assert payload[0]["so_ratio"] == pytest.approx(0.9165631931074489, abs=1e-12)


def test_csv_floats_round_trip(capsys, potential_file):
    code, out, _ = run_cli(capsys, "compare", "--potential", potential_file, "--n-list", "33")
    row = out.strip().splitlines()[1].split(",")
    for cell in row[3:]:
        value = float(cell)
        assert f"{value:.17g}" == cell


def test_errors_budget_json(capsys, potential_file):
    code, out, _ = run_cli(capsys, "errors", "--n", "33", "--potential", potential_file)
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == sorted(ErrorBudget._fields)
    assert isinstance(payload["a_constants"], list) and len(payload["a_constants"]) == 5
    assert payload["n"] == 33
    assert payload["log_total_times_n"] == pytest.approx(
        payload["log_total"] + math.log(33)
    )


def test_errors_budget_exact_backend(capsys, potential_file):
    code, out, _ = run_cli(
        capsys,
        "errors",
        "--n",
        "33",
        "--potential",
        potential_file,
        "--backend",
        "exact",
    )
    assert code == 0
    payload = json.loads(out)
    assert math.isfinite(payload["log_total"])


def strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""

    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_non_finite_logs_print_as_strict_json_null(capsys, tmp_path):
    # V vanishes on the support minus {0}: every bound and the signal are 0
    path = tmp_path / "zero.json"
    path.write_text('{"support_radius_sq": 1, "coeffs": [{"k": [1, 0, 0], "v": 0.0}]}')
    code, out, _ = run_cli(capsys, "errors", "--n", "33", "--potential", str(path))
    assert code == 0
    budget = strict_json(out)
    logs = [key for key in budget if key.startswith("log_")]
    assert len(logs) == 7 and all(budget[key] is None for key in logs)
    code, out, _ = run_cli(
        capsys, "compare", "--n-list", "33", "--format", "json", "--potential", str(path)
    )
    assert code == 0
    (row,) = strict_json(out)
    assert row["log_error_total"] is None and row["log_error_total_times_n"] is None
    assert row["corr_delocalized_exact"] == 0.0
    # the CSV leaves those cells empty
    code, out, _ = run_cli(capsys, "compare", "--n-list", "33", "--potential", str(path))
    assert code == 0
    assert out.splitlines()[1].endswith(",0.91656319310744883,,")


def test_oracle_reports(capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle",
        "--holes-n",
        "7",
        "--lambda-sq",
        "2",
        "--pairs",
        "2",
        "--seed",
        "42",
        "--trials",
        "5",
    )
    assert code == 0
    # stream of JSON objects, one per check
    chunks = out.replace("}\n{", "}\n\x00{").split("\x00")
    reports = [json.loads(c) for c in chunks]
    assert all(sorted(r) == sorted(VerificationReport._fields) for r in reports)
    assert [r["check"] for r in reports] == [
        "almost_ccr",
        "almost_ccr",
        "c_commutator",
        "c_commutator",
        "quadratic_interaction",
    ]
    assert all(r["violations"] == [] for r in reports)
    assert all(r["seed"] == 42 for r in reports)


def test_oracle_deterministic(capsys):
    args = ("oracle", "--trials", "3", "--seed", "7")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_oracle_bound_violation_exits_one_with_its_report(capsys, monkeypatch):
    # a bound constant far below the true one makes the first c-commutator
    # check fail: main prints that report alone and names the violation
    monkeypatch.setattr(fock_oracle, "honest_c_bound_constant", lambda *args: 1e-9)
    code, out, err = run_cli(capsys, "oracle", "--trials", "2")
    assert code == 1
    report = strict_json(out)
    assert report["check"] == "c_commutator"
    assert report["trials"] == 2
    assert report["details"]["bound_constant"] == 1e-9
    assert report["violations"] and all(
        "residual ratio" in violation for violation in report["violations"]
    )
    assert err.count("\n") == 1
    assert err.startswith("error: c_commutator: trial 0: residual ratio ")


def test_oracle_tolerances_scale_with_the_interaction(capsys, tmp_path, demo_potential):
    # with every V(k) = 1e5 the entries of Q reach about 1e4, and the rounding
    # of its sums exceeds the unscaled 1e-13: that used to exit 1
    path = tmp_path / "large.json"
    path.write_text(serialize_potential(make_potential({k: 1e5 for k in demo_potential.coeffs}, 2)))
    code, out, err = run_cli(capsys, "oracle", "--trials", "2", "--potential", str(path))
    assert (code, err) == (0, "")
    quadratic = strict_json(out[out.rindex("}\n{") + 2 :])
    assert quadratic["check"] == "quadratic_interaction"
    assert quadratic["details"]["matrix_vs_direct"] > 1e-13
    assert quadratic["violations"] == []


def test_invalid_potential_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"support_radius_sq": 1, "coeffs": [{"k": [1,0,0], "v": 0.5}, {"k": [-1,0,0], "v": 0.4}]}')
    code, _, err = run_cli(capsys, "hf", "--n", "33", "--potential", str(bad))
    assert code == 1
    assert "disagree" in err


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            '{"support_radius_sq": 2.9, "coeffs": [{"k": [1, 0, 0], "v": 0.5}]}',
            "support_radius_sq must be an integer, got 2.9",
        ),
        (
            '{"support_radius_sq": 2, "coeffs": [{"k": [1.7, 0, 0], "v": 0.5}]}',
            "coeffs[0].k[0] must be an integer, got 1.7",
        ),
        (
            '{"support_radius_sq": 2, "coeffs": [{"k": [0, 1, 0], "v": true}]}',
            "coeffs[0].v must be a number, got true",
        ),
        ('{"coeffs": [{"k": [1, 0, 0], "v": 0.5}]}', "no 'support_radius_sq'"),
        (
            '{"support_radius_sq": 2, "coeffs": [3]}',
            "coeffs[0] must be an object with 'k' and 'v', got 3",
        ),
        (
            '{"support_radius_sq": 2, "coeffs": [{"k": [1, 0], "v": 0.5}]}',
            "coeffs[0].k must have three components, got [1, 0]",
        ),
        (None, "unreadable potential document"),
    ],
    ids=[
        "radius_sq-2.9", "k-1.7", "v-true", "no-radius_sq", "item-3", "k-two-components",
        "unreadable",
    ],
)
def test_mistyped_potential_exits_one(capsys, tmp_path, doc, message):
    # never truncated or coerced: 2.9 is not radius^2 2, 1.7 not 1, true not 1.0
    bad = tmp_path / "bad.json"
    if doc is None:
        bad.mkdir()  # a path that cannot be read as a file
    else:
        bad.write_text(doc)
    argv = ["corr", "--n", "33", "--method", "so-opt", "--potential", str(bad)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, prefix, message",
    [
        (["corr", "--n", "abc", "--method", "optimal"], "usage: fermi-rpa", "error:"),
        (["ball"], "usage: fermi-rpa", "error:"),
        (["corr", "--n", "33", "--method", "bogus"], "usage: fermi-rpa", "error:"),
        # the list is split after parsing, so no usage line precedes the error
        (["compare", "--n-list", "33,x"], "error: invalid --n-list: ", "'x'"),
        (["scan", "--n", "x"], "usage: fermi-rpa scan", "argument --n: invalid int value: 'x'"),
        (["shells", "--bogus"], "usage: fermi-rpa", "unrecognized arguments: --bogus"),
    ],
    ids=["n-abc", "ball-no-n", "method-bogus", "n-list-x", "scan-n-x", "shells-bogus"],
)
def test_usage_error_exits_one(capsys, argv, prefix, message):
    # argparse's own code 2 would read as a numerical failure
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(prefix) and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["scan", "--n", "2"], "no closed shell with exactly 2 modes; "),
        (["scan", "--scales", "3"], "--scales must be two integers lo:hi, got '3'"),
        (["scan", "--scales", "3:x"], "--scales must be two integers lo:hi, got '3:x'"),
        (["shells", "--k", "0,0,0"], "no particle-hole pair with transfer momentum (0, 0, 0)"),
        (["shells", "--k", "1,0"], "--k must be 3 comma-separated integers, got '1,0'"),
        (["shells", "--shells", "4,a"], "--shells must be comma-separated integers, got '4,a'"),
        # 10^320 overflows a double: the lattice formulas would raise OverflowError
        (["shells", "--k", f"{10**160},0,0"], "|k|^2 of --k does not fit in a double"),
    ],
    ids=["scan-n-2", "scales-3", "scales-3-x", "k-0-0-0", "k-1-0", "shells-4-a", "k-beyond-double"],
)
def test_bad_flag_value_is_one_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["hf", "--n=--"],
        ["compare", "--n-list=--"],
        ["corr", "--n", "33", "--method=--"],
        ["corr", "--n", "33", "--method", "optimal", "--tol=--"],
        ["nk", "--n", "33", "--potential=--"],
        ["oracle", "--holes-n=--"],
        ["shells", "--k=--"],
    ],
    ids=lambda argv: argv[-1],
)
def test_a_lone_double_dash_value_exits_one(capsys, argv):
    # argparse reads --flag=-- as a flag with an empty list for its value; it
    # once raised a TypeError or AttributeError, or read the demo potential
    flag = argv[-1].removesuffix("=--")
    assert run_cli(capsys, *argv) == (1, "", f"error: {flag} needs a value, got '--'\n")


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_zero(capsys, flag):
    code, out, err = run_cli(capsys, flag)
    assert code == 0
    assert out and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["corr", "--n", "33", "--method", "delocalized-asym"],
        ["corr", "--n", "33", "--method", "so-deloc"],
        ["errors", "--n", "33"],
        ["compare", "--n-list", "33"],
        ["nk", "--n", "33"],
    ],
    ids=["delocalized-asym", "so-deloc", "errors", "compare", "nk"],
)
def test_continuum_forms_beyond_the_lens_domain_exit_one(capsys, tmp_path, argv):
    # |k| = sqrt(30) > 2 k_F = 3.98 at N = 33: the continuum counts do not exist
    path = tmp_path / "wide.json"
    path.write_text(serialize_potential(make_potential({(5, 2, 1): 0.01}, 30)))
    code, out, err = run_cli(capsys, *argv, "--potential", str(path))
    assert code == 1
    assert out == ""
    assert "exceeds the lens-formula domain" in err


@pytest.mark.parametrize("k", [(0, 0, 2**63 - 1), (10**19, 0, 0)], ids=["int64-max", "beyond-int64"])
def test_support_momentum_beyond_the_ball_has_no_exchange(capsys, tmp_path, k):
    path = tmp_path / "far.json"
    path.write_text(serialize_potential(make_potential({k: 0.01})))
    code, out, err = run_cli(capsys, "hf", "--n", "257", "--potential", str(path))
    assert (code, err) == (0, "")
    assert '"exchange": 0.0,' in out
    code, out, err = run_cli(
        capsys, "corr", "--n", "257", "--method", "delocalized-exact", "--potential", str(path)
    )
    assert (code, err) == (0, "")
    assert math.isfinite(float(out))


def test_oracle_ignores_a_support_momentum_beyond_the_cutoff(capsys, tmp_path, demo_potential):
    path = tmp_path / "far.json"
    far = make_potential({**demo_potential.coeffs, (10**19, 0, 0): 0.1})
    path.write_text(serialize_potential(far))
    demo = run_cli(capsys, "oracle", "--trials", "2")
    assert run_cli(capsys, "oracle", "--trials", "2", "--potential", str(path)) == demo
    assert demo[0] == 0


@pytest.mark.parametrize("tol", ["1e-30", "1e-200", "1e-300", "1e-310"])
def test_tolerance_below_the_floor_exits_two_fast(capsys, potential_file, tol):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "corr", "--n", "33", "--potential", potential_file,
        "--method", "optimal", "--tol", tol,
    )
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert out == ""
    # the message states the tolerance in --tol units
    assert f"tol {float(tol):.3e}, which is below the rounding floor" in err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "-1e-10", "-inf", "-1E+3"])
def test_invalid_tolerance_flag_exits_one(capsys, potential_file, tol):
    # checked for every corr method, not only the one that integrates; argparse
    # alone reads a separate -1e-10 as an option ("expected one argument")
    for argv in (
        *(["corr", "--n", "33", "--potential", potential_file, "--method", method]
          for method in CORR_METHODS),
        ["compare", "--potential", potential_file, "--n-list", "33"],
    ):
        for flag in (["--tol", tol], [f"--tol={tol}"]):
            code, out, err = run_cli(capsys, *argv, *flag)
            assert code == 1
            assert out == ""
            assert err == f"error: tolerance must be finite and > 0, got {float(tol)!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["hf", "--n", "33"],
        ["nk", "--n", "33"],
        ["corr", "--n", "33", "--method", "delocalized-exact"],
        ["compare", "--n-list", "33"],
        ["corr", "--n", "33", "--method", "optimal"],
        ["corr", "--n", "33", "--method", "so-opt"],
        ["errors", "--n", "33", "--backend", "exact"],
    ],
    ids=["hf", "nk", "delocalized-exact", "compare", "optimal", "so-opt", "errors-exact"],
)
def test_momentum_whose_norm_overflows_a_double_exits_one(capsys, tmp_path, argv):
    # |k|^2 = 10^400 is inside the support radius, but no float holds it
    path = tmp_path / "huge.json"
    path.write_text(
        json.dumps({"support_radius_sq": 10**401, "coeffs": [{"k": [10**200, 0, 0], "v": 0.1}]})
    )
    code, out, err = run_cli(capsys, *argv, "--potential", str(path))
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value, name",
    [("--trials", "0", "trials"), ("--trials", "-3", "trials"),
     ("--pairs", "0", "max_pairs"), ("--pairs", "-1", "max_pairs")],
)
def test_invalid_oracle_count_flag_exits_one(capsys, flag, value, name):
    code, out, err = run_cli(capsys, "oracle", flag, value)
    assert code == 1
    assert out == ""
    assert f"{name} must be >= 1, got {value}" in err


def test_negative_seed_exits_one(capsys):
    code, out, err = run_cli(capsys, "oracle", "--seed", "-1")
    assert (code, out, err) == (1, "", "error: seed must be >= 0, got -1\n")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999"])
def test_non_finite_coefficient_names_its_key(capsys, tmp_path, literal):
    # Python's json reads all three as floats; 1e999 is inf
    path = tmp_path / "nan.json"
    path.write_text('{"support_radius_sq": 2, "coeffs": [{"k": [1, 0, 0], "v": %s}]}' % literal)
    shown = "NaN" if literal == "NaN" else "Infinity"
    code, out, err = run_cli(capsys, "hf", "--n", "33", "--potential", str(path))
    assert (code, out, err) == (1, "", f"error: coeffs[0].v is non-finite, got {shown}\n")


@pytest.mark.parametrize(
    "argv",
    [
        *([command, "--n", str(10**400)] for command in ("ball", "hf", "nk", "errors")),
        ["compare", "--n-list", str(10**400)],
        *(["corr", "--n", str(10**400), "--method", method] for method in CORR_METHODS),
        ["ball", "--n", str(10**308)],
        *(["corr", "--n", str(10**308), "--method", method]
          for method in ("optimal", "so-opt", "delocalized-asym")),
    ],
    ids=lambda argv: "-".join(a if len(a) < 20 else f"1e{len(a) - 1}" for a in argv),
)
def test_particle_count_beyond_double_range_exits_one(capsys, argv):
    # 10^400 does not convert to a float; at 10^308 the float k_F is inf
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("error: particle count n is too large")
    assert "Traceback" not in err


V_1E160 = {"support_radius_sq": 2, "coeffs": [{"k": [1, 0, 0], "v": 1e160}]}
V_1E308 = {"support_radius_sq": 27, "coeffs": [{"k": [1, 0, 0], "v": 1e308}]}
V0_1E308 = {"support_radius_sq": 1, "coeffs": [{"k": [0, 0, 0], "v": 1e308}]}
# at N = 7: direct = 7 V(0) is finite, exchange is finite and negative, and
# their difference is not
HF_TOTAL = {
    "support_radius_sq": 1,
    "coeffs": [{"k": [0, 0, 0], "v": 2.557e307}, {"k": [1, 0, 0], "v": -0.85e308}],
}
# every term of the budget's sums is finite, but a partial sum of A2..A4
# (one momentum) or of the quadratic remainder (three) is not
V_1P2E205 = {"support_radius_sq": 1, "coeffs": [{"k": [1, 0, 0], "v": 1.2e205}]}
V_THREE_1P5E202 = {
    "support_radius_sq": 2,
    "coeffs": [{"k": k, "v": 1.5e202} for k in ([1, 0, 0], [0, 1, 0], [1, 1, 0])],
}
# each frequency bracket is finite, but the sum of |k| times the six brackets
# of the three unit momenta (and their mirrors) is not
V_THREE_4E307 = {
    "support_radius_sq": 1,
    "coeffs": [{"k": k, "v": 4e307} for k in ([1, 0, 0], [0, 1, 0], [0, 0, 1])],
}
# |k| = 1e150 times a bracket of about -4e199 is not
V_FAR_1E200 = {"support_radius_sq": 10**300, "coeffs": [{"k": [10**150, 0, 0], "v": 1e200}]}


@pytest.mark.parametrize(
    "doc, argv, quantity",
    [
        (V_1E160, ["corr", "--n", "33", "--method", "so-opt"], "sum_k |k| V(k)^2"),
        (V_1E160, ["corr", "--n", "33", "--method", "so-deloc"], "sum_k |k| V(k)^2"),
        (V_1E308, ["errors", "--n", "33", "--backend", "asymptotic"], "sum_k |V(k)|"),
        (V_1E308, ["errors", "--n", "33", "--backend", "exact"], "sum_k |V(k)|"),
        (V0_1E308, ["errors", "--n", "33"], "error bound eps1 + 2*eps2 + quartic"),
        (V_1P2E205, ["errors", "--n", "257"], "error bound eps1 + 2*eps2 + quartic"),
        (V_1P2E205, ["errors", "--n", "257", "--backend", "exact"], "error bound eps1 + 2*eps2 + quartic"),
        (V_THREE_1P5E202, ["errors", "--n", "257"], "error bound eps1 + 2*eps2 + quartic"),
        (
            V_THREE_1P5E202,
            ["errors", "--n", "257", "--backend", "exact"],
            "error bound eps1 + 2*eps2 + quartic",
        ),
        (V_1E308, ["hf", "--n", "33"], "Hartree-Fock exchange sum"),
        (V0_1E308, ["hf", "--n", "33"], "Hartree-Fock exchange sum"),
        (HF_TOTAL, ["hf", "--n", "7"], "Hartree-Fock total energy"),
        (V_1E308, ["corr", "--n", "33", "--method", "optimal"], "the coupling a = 2 pi kappa V(k)"),
        (V_1E308, ["compare", "--n-list", "33"], "the coupling a = 2 pi kappa V(k)"),
        (
            V_THREE_4E307,
            ["corr", "--n", "33", "--method", "optimal", "--tol", "1e305"],
            "sum_k |k| bracket(k)",
        ),
        (V_THREE_4E307, ["compare", "--n-list", "33", "--tol", "1e305"], "sum_k |k| bracket(k)"),
        (
            V_FAR_1E200,
            ["corr", "--n", "33", "--method", "optimal", "--tol", "1e200"],
            "sum_k |k| bracket(k)",
        ),
    ],
    ids=[
        "so-opt", "so-deloc", "errors", "errors-exact", "errors-v0", "errors-a-sums",
        "errors-a-sums-exact", "errors-remainder-sum", "errors-remainder-sum-exact", "hf", "hf-v0",
        "hf-total", "optimal", "compare", "optimal-bracket-sum", "compare-bracket-sum",
        "optimal-bracket-term",
    ],
)
@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning escapes main as an exception
def test_a_quantity_beyond_the_double_range_exits_two(capsys, tmp_path, doc, argv, quantity):
    # never an OverflowError traceback, and never an inf printed as null
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *argv, "--potential", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"error: {quantity} overflows a double"
    assert "Traceback" not in err


V_MINUS_1E308 = {"support_radius_sq": 1, "coeffs": [{"k": [1, 0, 0], "v": -1e308}]}
LOST = "alpha - beta = hbar^2 k.f(k) > 0 is lost to rounding at k = (-1, 0, 0): alpha = beta = "


@pytest.mark.parametrize(
    "doc, argv, code, message",
    [
        # V(k) n_k^2 / N overflows to inf on the exact rows, so alpha = beta = inf
        (V_1E308, ["corr", "--method", "delocalized-exact"], 2, LOST + "inf"),
        (V_1E308, ["corr", "--method", "delocalized-asym"], 2, LOST + "3.769231568953856e+307"),
        (V_MINUS_1E308, ["corr", "--method", "delocalized-exact"], 1, "|beta| = inf >= alpha = -inf at k = (-1, 0, 0)"),
        (
            V_MINUS_1E308,
            ["corr", "--method", "delocalized-asym"],
            1,
            "|beta| = 3.769231568953856e+307 >= alpha = -3.769231568953856e+307 at k = (-1, 0, 0)",
        ),
        # 1 + c V(k) is -inf: the first A-constant row refuses it
        (V_MINUS_1E308, ["errors", "--backend", "exact"], 1, "1 + c*V(k) = -inf <= 0 at k = (-1, 0, 0)"),
        (V_MINUS_1E308, ["errors"], 1, "1 + c*V(k) = -inf <= 0 at k = (-1, 0, 0)"),
        (V_MINUS_1E308, ["hf"], 2, "Hartree-Fock exchange sum overflows a double"),
    ],
    ids=["exact-beta", "asym-beta", "exact-minus", "asym-minus", "errors-exact-arg", "errors-arg", "hf-minus"],
)
@pytest.mark.filterwarnings("error")
def test_a_row_beyond_the_double_range_keeps_its_exit_and_message(capsys, tmp_path, doc, argv, code, message):
    # the rows are Python floats: an overflow to inf stays silent, as it was on
    # float64 columns, and the first row outside a formula's domain is named
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, *argv, "--n", "33", "--potential", str(path)) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "coeffs",
    [
        [{"k": [2, 0, 0], "v": 1e200}, {"k": [3, 0, 0], "v": 0.1}],
        [{"k": [3, 0, 0], "v": 1e200}, {"k": [4, 0, 0], "v": 0.1}],
    ],
    ids=["square-inside", "square-beyond"],
)
def test_so_deloc_reads_the_lens_domain_before_the_squares(capsys, tmp_path, coeffs):
    # V(k)^2 = 1e400 overflows, but |k| = 3 lies beyond 2 k_F at N = 7: the
    # second order fails as the continuum minimum does, with exit 1
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"support_radius_sq": 16, "coeffs": coeffs}))
    lines = [
        run_cli(capsys, "corr", "--n", "7", "--method", method, "--potential", str(path))
        for method in ("so-deloc", "delocalized-asym")
    ]
    message = "error: |k| = 3 exceeds the lens-formula domain 2*k_F = 2.37338\n"
    assert lines == [(1, "", message)] * 2


@pytest.mark.parametrize(
    "argv",
    [
        ["corr", "--n", "33", "--method", "delocalized-exact"],
        ["corr", "--n", "33", "--method", "delocalized-asym"],
        ["errors", "--n", "33"],
    ],
    ids=["delocalized-exact", "delocalized-asym", "errors"],
)
@pytest.mark.filterwarnings("error")
def test_a_kinetic_term_lost_to_rounding_exits_two(capsys, tmp_path, argv):
    # alpha - beta = hbar^2 k.f(k) > 0 exactly, but at V = 1e160 alpha rounds to beta
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(V_1E160))
    code, out, err = run_cli(capsys, *argv, "--potential", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith(
        "error: alpha - beta = hbar^2 k.f(k) > 0 is lost to rounding at k = "
    )
    assert "Traceback" not in err


@pytest.mark.parametrize("method", ["delocalized-exact", "delocalized-asym"])
def test_a_strongly_attractive_potential_exits_one(capsys, tmp_path, method):
    # beta < 0 with |beta| >= alpha is outside the domain of the minimum
    path = tmp_path / "attractive.json"
    path.write_text(json.dumps({"support_radius_sq": 1, "coeffs": [{"k": [1, 0, 0], "v": -50.0}]}))
    code, out, err = run_cli(
        capsys, "corr", "--n", "33", "--method", method, "--potential", str(path)
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: |beta| = ")
    assert " >= alpha = " in err


@pytest.mark.parametrize(
    "error, exit_code",
    [
        (FermiRpaError("boom"), 1),
        (DomainError("boom"), 1),
        (ParseError("boom"), 1),
        (NumericalFailure("boom"), 2),
        (BoundViolation("boom", {"check": "stub"}), 1),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else str(value),
)
def test_the_error_type_decides_the_exit_code(capsys, monkeypatch, error, exit_code):
    def failing(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_ratio", failing)
    code, out, err = run_cli(capsys, "ratio")
    assert (code, err) == (exit_code, "error: boom\n")
    # only a bound violation carries a report, printed before the error line
    assert out == ('{\n  "check": "stub"\n}\n' if isinstance(error, BoundViolation) else "")


@pytest.mark.parametrize("error", [RuntimeError, ValueError, TypeError])
def test_any_other_exception_escapes_main(monkeypatch, error):
    # not a package error: a bug, shown with its traceback
    def failing(args):
        raise error("bug")

    monkeypatch.setattr(cli, "_cmd_ratio", failing)
    with pytest.raises(error, match="^bug$"):
        main(["ratio"])


@pytest.mark.parametrize(
    "command, header",
    [
        ("shells --shells 4,16", "shell_radius_sq,n,nk_exact,nk_asym,nk_rel_err,kdotf_exact,kdotf_asym,"
         "kdotf_rel_err,kinetic_density_rel_err"),
        ("scan --n 33 --scales 3:5 --tol 1e-10", "s,min_energy_over_s2,so_delocalized,deloc_dev,"
         "gmb_over_s2,so_optimal,gmb_dev"),
    ],
    ids=["shells", "scan"],
)
def test_scan_and_shells_csv_shape(capsys, command, header):
    code, out, _ = run_cli(capsys, *command.split())
    lines = out.splitlines()
    assert (code, lines[0], len(lines)) == (0, header, 3)  # two shells or two scales
    assert all(len(line.split(",")) == len(header.split(",")) for line in lines)


def test_scan_deviation_falls_at_the_default_tol(capsys):
    # the optimal energy meets its second order linearly in the coupling
    # scale, down to s = 2^-11, at the package's default tolerance
    code, out, _ = run_cli(capsys, "scan", "--n", "33", "--scales", "3:12")
    assert code == 0
    lines = out.splitlines()
    column = lines[0].split(",").index("gmb_dev")
    deviations = [float(line.split(",")[column]) for line in lines[1:]]
    assert len(deviations) == 9
    assert all(later < earlier for earlier, later in zip(deviations, deviations[1:]))


def test_scan_zero_second_order_is_one_error_line(capsys, tmp_path):
    # every deviation divides by the second orders; a potential that is 0
    # on its whole support makes both 0 at every scale
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"support_radius_sq": 1, "coeffs": [{"k": [1, 0, 0], "v": 0.0}]}))
    argv = ["scan", "--n", "33", "--scales", "3:4", "--potential", str(path)]
    assert run_cli(capsys, *argv) == (
        1, "", "error: zero second order at s = 0.125: so_delocalized = 0, so_optimal = 0\n"
    )


SCALES_MESSAGE = "error: --scales exponents must lie in -511:538, where s^2 = 4^-j is a nonzero finite double"


def test_scan_refuses_a_scale_whose_square_underflows(capsys, tmp_path):
    # s^2 = 2^-1080 is 0 while both second orders of V = 1e10 are not:
    # this once died in ZeroDivisionError at deloc / s^2
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"support_radius_sq": 1, "coeffs": [{"k": [1, 0, 0], "v": 1e10}]}))
    argv = ["scan", "--n", "33", "--scales", "540:541", "--potential", str(path)]
    assert run_cli(capsys, *argv) == (1, "", f"{SCALES_MESSAGE}, got '540:541'\n")
    # the last exponent whose square is a double (2^-1074) still runs
    code, out, _ = run_cli(capsys, *argv[:3], "--scales", "537:538", *argv[5:])
    assert code == 0 and len(out.splitlines()) == 2


def test_scan_refuses_a_scale_that_overflows(capsys):
    # 2.0 ** 1100 once died in OverflowError; the range is refused before any table is built
    assert run_cli(capsys, "scan", "--n", "33", "--scales=-1100:-1099") == (
        1, "", f"{SCALES_MESSAGE}, got '-1100:-1099'\n"
    )


def test_shells_refuses_levels_above_the_cap(capsys, monkeypatch):
    # --shells 100000000 would ask for a level table of 400 MB: it is
    # refused before any is allocated
    def no_table(radius_sq):
        raise AssertionError(f"level table of radius^2 {radius_sq} allocated")

    monkeypatch.setattr(lattice, "_level_counts", no_table)
    cap = lattice.LEVEL_CAP
    assert run_cli(capsys, "shells", "--shells", f"4,{cap + 1}") == (
        1, "", f"error: closed-shell levels up to {cap + 1} exceed the cap LEVEL_CAP = {cap}\n"
    )


def test_shells_skips_a_level_no_lattice_point_attains(capsys):
    # 7 = x^2 + y^2 + z^2 has no solution: a note on stderr, no row
    code, out, err = run_cli(capsys, "shells", "--shells", "4,7")
    assert (code, err) == (0, "skipping 7: not an attained level\n")
    assert [line.split(",")[0] for line in out.splitlines()] == ["shell_radius_sq", "4"]


@pytest.mark.parametrize("shells, rows", [("-4", []), ("-4,4", ["4"])])
def test_shells_skips_a_negative_level(capsys, shells, rows):
    # no lattice point has a negative |h|^2: skipped as level 7 is, even when alone
    code, out, err = run_cli(capsys, "shells", f"--shells={shells}")
    assert (code, err) == (0, "skipping -4: not an attained level\n")
    assert [line.split(",")[0] for line in out.splitlines()] == ["shell_radius_sq", *rows]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["shells", "--k", "-1,0,0"], 0),
        (["shells", "--shells", "-4,16", "--k", "-2,1,-1"], 0),
        (["scan", "--n", "33", "--scales", "-1:1"], 0),
        (["compare", "--n-list", "-33,257"], 1),
        (["corr", "--n", "33", "--method", "optimal", "--tol", "-1e-10"], 1),
    ],
    ids=["k", "shells-and-k", "scales", "n-list", "tol"],
)
def test_a_negative_value_reads_alike_joined_or_as_the_next_token(capsys, argv, code):
    # argparse alone reads a separate -1,0,0 as an option ("expected one argument")
    joined = list(argv)
    for i in reversed(range(len(joined) - 1)):
        if joined[i] in ("--k", "--shells", "--scales", "--n-list", "--tol"):
            joined[i : i + 2] = [f"{joined[i]}={joined[i + 1]}"]
    separate = run_cli(capsys, *argv)
    assert separate[0] == code
    assert separate == run_cli(capsys, *joined)


# stdout of each command recorded once, byte for byte; every listed command
# that reads a potential must print it both on the built-in demo potential and
# on the same potential read from a file.  Re-record the file only for a deliberate change of
# printed bits, from each command's stdout on the demo potential.
GOLDEN_PATH = Path(__file__).parent / "data" / "cli_golden.json"
GOLDEN_NS = ("33", "257", "2109")
GOLDEN_COMMANDS = [
    f"compare --n-list {','.join(GOLDEN_NS)} --format {fmt}" for fmt in ("csv", "json")
] + [
    cmd
    for n in GOLDEN_NS
    for cmd in (
        *(f"corr --n {n} --method {method}" for method in CORR_METHODS),
        *(f"errors --n {n} --backend {backend}" for backend in ("exact", "asymptotic")),
    )
] + [
    "nk --n 33",
    "nk --n 2109",
    "hf --n 2109",
    "hf --n 2109 --hf-half-prefactor",
    "oracle --trials 3 --seed 7",
    "oracle --holes-n 1 --lambda-sq 1 --pairs 1 --trials 25 --seed 9",
    "oracle --pairs 3 --trials 2 --seed 3",
    "oracle --trials 10 --seed 5",
    "oracle --pairs 3 --trials 40 --seed 11",
    "oracle --holes-n 7 --lambda-sq 3 --pairs 3 --trials 1 --seed 5",
    "corr --n 257 --method optimal --tol 1e-12",
    "compare --n-list 33,257 --tol 1e-12 --format csv",
    "ball --n 2109",
    "ratio",
    "scan --n 33 --scales 3:12",
    "scan --n 33 --scales 3:5 --tol 1e-10",
    "shells",
    "shells --shells 4,16",
]
# subcommands that read no potential run once, without --potential
NO_POTENTIAL = ("ball", "ratio", "shells")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("command", GOLDEN_COMMANDS)
def test_golden_stdout(capsys, potential_file, golden, command):
    argv = command.split()
    extras = [[]] if argv[0] in NO_POTENTIAL else [[], ["--potential", potential_file]]
    for extra in extras:
        code, out, err = run_cli(capsys, *argv, *extra)
        assert (code, err) == (0, "")
        assert out == golden[command]


@pytest.mark.parametrize("command", [c for c in GOLDEN_COMMANDS if c.startswith("oracle ")])
def test_golden_oracle_commands_keep_the_unit_tolerance_scale(command):
    # a scale of 1 keeps the oracle's tolerances, and so its bytes, unscaled
    args = cli.build_parser().parse_args(command.split())
    modes = fock_oracle.build_mode_set(args.holes_n, args.lambda_sq)
    _, _, values = fock_oracle.assemble_quadratic_interaction(
        modes, cli.read_potential(None), ModelParams(args.holes_n), args.pairs,
        fock_oracle.sector_basis(modes, args.pairs),
    )
    assert fock_oracle.tolerance_scale(values) == 1.0


@pytest.mark.parametrize("command", [c for c in GOLDEN_COMMANDS if c.startswith("oracle ")])
def test_golden_oracle_bytes_do_not_depend_on_the_budgets(capsys, monkeypatch, golden, command):
    # a column budget of zero: one block per check group
    monkeypatch.setattr(fock_oracle, "COLUMN_BUDGET", 0)
    assert run_cli(capsys, *command.split()) == (0, golden[command], "")


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "command, exit_code",
    [
        ("ratio", 0),
        ("hf --n 33", 0),
        ("ball", 1),
        ("corr --n 33 --method optimal --tol 1e-30", 2),
        ("oracle --holes-n 1 --lambda-sq 1 --pairs 1 --trials 2", 0),
    ],
)
def test_process_entry_prints_what_main_prints(capsys, command, exit_code):
    argv = command.split()
    expected = run_cli(capsys, *argv)
    assert expected[0] == exit_code
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "fermi_rpa.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert (result.returncode, result.stdout, result.stderr) == expected


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_gc_as_it_finds_it(capsys, enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        for argv in (["ratio"], ["hf", "--n", "33"], ["ball"]):
            main(argv)
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_run_turns_the_gc_off_and_freezes_what_main_left():
    # in a fresh interpreter: run() changes the GC of the process it runs in
    probe = (
        f"import gc, sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "from fermi_rpa.cli import run\n"
        "sys.argv = ['fermi-rpa', 'ratio']\n"
        "code = run()\n"
        "print(code, gc.isenabled(), gc.get_freeze_count() > 0)"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 False True"


def test_the_script_entry_is_the_function_the_main_block_calls():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    blocks = [
        node
        for node in ast.parse(Path(cli.__file__).read_text()).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert len(blocks) == 1
    (statement,) = blocks[0].body
    # the block is exactly sys.exit(<entry>())
    assert ast.unparse(statement.value.func) == "sys.exit"
    (call,) = statement.value.args
    assert isinstance(call, ast.Call) and not call.args
    entry = call.func.id
    assert callable(getattr(cli, entry))
    assert scripts == {"fermi-rpa": f"fermi_rpa.cli:{entry}"}
