"""Smoke tests of the scripts in scripts/, which import the package modules."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# stdout of each command recorded once, byte for byte; re-record only for a
# deliberate change of printed bits
GOLDEN_PATH = Path(__file__).parent / "data" / "scripts_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv, header, rows",
    [
        (
            "shell_convergence",
            ["--shells", "4,16"],
            "shell_radius_sq,n,nk_exact,nk_asym,nk_rel_err,"
            "kdotf_exact,kdotf_asym,kdotf_rel_err,kinetic_density_rel_err",
            2,
        ),
        (
            "coupling_scan",
            ["--n", "33", "--scales", "3:5", "--tol", "1e-10"],
            "s,min_energy_over_s2,so_delocalized,deloc_dev,gmb_over_s2,so_optimal,gmb_dev",
            2,
        ),
    ],
)
def test_script_csv(capsys, name, argv, header, rows):
    code = load_script(name).main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == header
    assert len(lines) == 1 + rows
    assert all(len(line.split(",")) == len(header.split(",")) for line in lines)


def test_coupling_scan_deviation_falls_at_the_default_tol(capsys):
    # the optimal energy meets its second order linearly in the coupling
    # scale, down to s = 2^-11, at the package's default tolerance
    code = load_script("coupling_scan").main(["--n", "33", "--scales", "3:12"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    column = lines[0].split(",").index("gmb_dev")
    deviations = [float(line.split(",")[column]) for line in lines[1:]]
    assert len(deviations) == 9
    assert all(later < earlier for earlier, later in zip(deviations, deviations[1:]))


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_script_golden_stdout(capsys, command):
    name, *argv = command.split()
    code = load_script(name).main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == GOLDEN[command]


@pytest.mark.parametrize(
    "name, argv, code, message",
    [
        ("coupling_scan", ["--n", "2"], 1, "no closed shell with exactly 2 modes; "),
        ("coupling_scan", ["--scales", "3"], 1, "--scales must be two integers lo:hi, got '3'"),
        ("coupling_scan", ["--scales", "3:x"], 1, "--scales must be two integers lo:hi, got '3:x'"),
        ("shell_convergence", ["--k", "0,0,0"], 1, "no particle-hole pair with transfer momentum (0, 0, 0)"),
        ("shell_convergence", ["--k", "1,0"], 1, "--k must be 3 comma-separated integers, got '1,0'"),
        ("shell_convergence", ["--shells", "4,a"], 1, "--shells must be comma-separated integers, got '4,a'"),
    ],
)
def test_script_bad_input_is_one_error_line(capsys, name, argv, code, message):
    # as the CLI does: the error's exit code, one ``error:`` line, no stdout
    assert load_script(name).main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_coupling_scan_zero_second_order_is_one_error_line(capsys, tmp_path):
    # every deviation divides by the second orders; a potential that is 0
    # on its whole support makes both 0 at every scale
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"support_radius_sq": 1, "coeffs": [{"k": [1, 0, 0], "v": 0.0}]}))
    argv = ["--n", "33", "--scales", "3:4", "--potential", str(path)]
    assert load_script("coupling_scan").main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: zero second order at s = 0.125: so_delocalized = 0, so_optimal = 0\n"
    )
