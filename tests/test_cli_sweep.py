"""Domain-guard sweep: random closed shells, potentials and tolerances through the CLI.

Every run exits 0, 1 or 2 and lets no exception escape.  A success prints
only finite numbers: its JSON passes a parser that rejects NaN and
Infinity, and a CSV cell is empty or a finite number.  A failure prints
exactly one ``error: ...`` line on stderr, after any ``warning: ...``
lines.  The same argv prints the same bytes twice.  Some draws give
``corr`` or ``compare`` a ``--tol`` that is not finite and > 0, or
``oracle`` a ``--trials`` or ``--pairs`` below 1 or a negative ``--seed``;
each of those exits 1.
A ``--tol`` value comes as its own token or as ``--tol=VALUE``.

The document fuzz turns this around: fixed flags, drawn documents.  Its
coefficients are log-uniform in magnitude over [1e-320, 1e308], of both
signs, at |k|^2 <= 30, and each document goes through every subcommand
at N = 257 (2 k_F = 7.9, so the whole support lies in the lens domain).
Besides the checks above, no numpy warning may reach stderr.

``scan`` and ``shells`` are swept only on malformed ``--scales``,
``--shells`` and ``--k`` values: a token that is no integer (a lone
``--`` among them, which argparse reads as no value), the wrong number of
them, or a ``--scales`` exponent whose s^2 is no nonzero finite double.
Each exits 1 with one ``error:`` line that names the flag.

``oracle`` is swept on its own, with fewer examples, and ``--pairs`` up
to 3 on every mode set.  The largest draw, 7 holes at cutoff 3 with 3
pairs (sector dimension 44031), 3 trials and 8 potential momenta, takes
about 1.4 s in process, and every example runs twice.
"""

import io
import itertools
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings, strategies as st

from fermi_rpa.cli import main
from fermi_rpa.lattice import closed_shell_sizes
from fermi_rpa.potential import make_potential, serialize_potential

SHELLS = [n for _, n in closed_shell_sizes(16) if n <= 257]
# one momentum per +-k pair on |k|^2 <= 6, and the zero mode
MOMENTA = [(0, 0, 0)] + [
    k
    for k in itertools.product(range(-2, 3), repeat=3)
    if 0 < sum(c * c for c in k) <= 6 and k > (0, 0, 0)
]
COUPLINGS = st.one_of(st.just(0.0), st.floats(-0.3, 5.0), st.floats(-0.3, 0.3))
TOLS = st.sampled_from([None, "1e-17", "1e-300", "1e-13", "1e-10", "1e-6", "0.01"])
INVALID_TOLS = ("0", "-1e-10", "-inf", "nan", "inf")
CORR_METHODS = ("delocalized-exact", "delocalized-asym", "optimal", "so-deloc", "so-opt")
JSON_COMMANDS = ("hf", "errors")
# CSV columns that hold no number
TEXT_COLUMNS = ("k", "potential")


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["nk", "hf", "corr", "compare", "errors"]))
    if command == "compare":
        ns = draw(st.lists(st.sampled_from(SHELLS), min_size=1, max_size=3))
        argv = ["compare", "--n-list", ",".join(map(str, ns))]
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    else:
        argv = [command, "--n", str(draw(st.sampled_from(SHELLS)))]
    if command == "hf" and draw(st.booleans()):
        argv.append("--hf-half-prefactor")
    if command == "corr":
        argv += ["--method", draw(st.sampled_from(CORR_METHODS))]
    if command == "errors":
        argv += ["--backend", draw(st.sampled_from(["exact", "asymptotic"]))]
    invalid = False
    if command in ("corr", "compare"):
        invalid = draw(st.integers(0, 3)) == 0  # one run in four
        tol = draw(st.sampled_from(INVALID_TOLS) if invalid else TOLS)
        if tol is not None:
            argv += draw(st.sampled_from([["--tol", tol], [f"--tol={tol}"]]))
    return argv, draw(potentials()), invalid


@st.composite
def oracle_invocations(draw):
    holes_n = draw(st.sampled_from([1, 2, 7]))
    lambda_sq = draw(st.integers(1, 3))
    argv = ["oracle", "--holes-n", str(holes_n), "--lambda-sq", str(lambda_sq)]
    counts = {"--trials": draw(st.integers(1, 3))}
    if draw(st.booleans()):
        counts["--pairs"] = draw(st.integers(1, 3))
    invalid = draw(st.integers(0, 3)) == 0  # one run in four
    if invalid:
        flag = draw(st.sampled_from(["--trials", "--pairs", "--seed"]))
        counts[flag] = draw(st.integers(-3, -1 if flag == "--seed" else 0))
    for flag, count in counts.items():
        argv += [flag, str(count)]
    return argv, draw(potentials()), invalid


# tokens int() refuses
NOT_INTEGERS = st.sampled_from(["", "x", "1.5", "1e3", "nan", "0x10", "1__0", "3 3", "--"])
INTEGERS = st.integers(-10**6, 10**6).map(str)


@st.composite
def malformed_lists(draw, sep, size=None):
    """Tokens joined by ``sep``: one that is no integer, or, for a fixed
    ``size``, the wrong number of integers."""
    tokens = draw(st.lists(INTEGERS, max_size=4))
    if size is None or len(tokens) == size or draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(NOT_INTEGERS))
    return sep.join(tokens)


@st.composite
def malformed_flags(draw):
    flag = draw(st.sampled_from(["--scales", "--shells", "--k"]))
    if flag == "--shells":
        return ["shells", f"--shells={draw(malformed_lists(','))}"]
    if flag == "--k":
        return ["shells", f"--k={draw(malformed_lists(',', 3))}"]
    if draw(st.booleans()):
        value = draw(malformed_lists(":", 2))
    else:
        # well-formed, but some exponent j in lo..hi-1 has s^2 = 4^-j outside the doubles
        j = draw(st.one_of(st.integers(-10**400, -512), st.integers(538, 10**400)))
        width = draw(st.integers(1, 3))
        lo = j - draw(st.integers(0, width - 1))
        value = f"{lo}:{lo + width}"
    return ["scan", "--n", "33", f"--scales={value}"]


@st.composite
def potentials(draw):
    coeffs = draw(st.dictionaries(st.sampled_from(MOMENTA), COUPLINGS, min_size=1, max_size=8))
    return make_potential(coeffs, support_radius_sq=6)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def reject_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


def assert_finite(obj):
    if isinstance(obj, float):
        assert math.isfinite(obj), obj
    elif isinstance(obj, dict):
        for value in obj.values():
            assert_finite(value)
    elif isinstance(obj, list):
        for value in obj:
            assert_finite(value)


def assert_finite_csv(text):
    header, *rows = text.splitlines()
    columns = header.split(",")
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(columns)
        for column, cell in zip(columns, cells):
            # an empty cell is a missing value, as null is in JSON
            if column not in TEXT_COLUMNS and cell:
                assert math.isfinite(float(cell)), (column, cell)


def json_stream(text):
    """The JSON values printed one after another, each ending its line, parsed strictly."""
    decoder = json.JSONDecoder(parse_constant=reject_constant)
    values, end = [], 0
    while end < len(text):
        value, end = decoder.raw_decode(text, end)
        assert text[end] == "\n", text
        values.append(value)
        end += 1
    return values


@given(invocations())
@settings(max_examples=150, deadline=None)
def test_cli_domain_guards(tmp_path_factory, invocation):
    check_invocation(tmp_path_factory, *invocation)


@given(oracle_invocations())
@settings(max_examples=25, deadline=None)
def test_oracle_domain_guards(tmp_path_factory, invocation):
    check_invocation(tmp_path_factory, *invocation)


@given(malformed_flags())
@settings(max_examples=100, deadline=None)
def test_malformed_scan_and_shells_flags_exit_one(argv):
    flag = argv[-1].split("=")[0]
    code, out, err = run(argv)
    assert (code, out) == (1, ""), (argv, err)
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1, (argv, err)


def check_invocation(tmp_path_factory, argv, v, invalid):
    command = argv[0]
    path = tmp_path_factory.mktemp("sweep") / "v.json"
    path.write_text(serialize_potential(v))
    argv = [*argv, "--potential", str(path)]
    code, out, err = run(argv)
    if invalid:
        assert code == 1, (argv, code, err)
    check_outcome(argv, code, out, err)
    assert run(argv) == (code, out, err)


def check_outcome(argv, code, out, err):
    """Exit 0 with finite numbers only, or 1 or 2 with one last ``error: `` line."""
    command = argv[0]
    assert code in (0, 1, 2), (argv, code, err)
    if code == 0:
        if command == "oracle":
            reports = json_stream(out)
            assert len(reports) == 5
            assert_finite(reports)
        elif command in JSON_COMMANDS or "json" in argv:
            assert_finite(json.loads(out, parse_constant=reject_constant))
        elif command == "corr":
            assert math.isfinite(float(out))
        else:
            assert_finite_csv(out)
    else:
        *notes, last = err.splitlines()
        assert last.startswith("error: "), err
        assert all(line.startswith("warning: ") for line in notes), err


FUZZ_N = "257"
FUZZ_RADIUS_SQ = 30
# one momentum per +-k pair on |k|^2 <= 30, and the zero mode
FUZZ_MOMENTA = [
    k
    for k in itertools.product(range(-5, 6), repeat=3)
    if sum(c * c for c in k) <= FUZZ_RADIUS_SQ and k >= (0, 0, 0)
]
FUZZ_COMMANDS = [
    ["nk", "--n", FUZZ_N],
    ["hf", "--n", FUZZ_N],
    *(["corr", "--n", FUZZ_N, "--method", method] for method in CORR_METHODS),
    *(["compare", "--n-list", FUZZ_N, "--format", fmt] for fmt in ("csv", "json")),
    *(["errors", "--n", FUZZ_N, "--backend", backend] for backend in ("asymptotic", "exact")),
    ["oracle", "--trials", "1"],
]
# log-uniform magnitude over [1e-320, 1e308], either sign
MAGNITUDES = st.builds(
    lambda sign, exponent: sign * 10.0 ** exponent,
    st.sampled_from([1.0, -1.0]),
    st.floats(-320.0, 308.0),
)


def document(coeffs):
    return {
        "support_radius_sq": FUZZ_RADIUS_SQ,
        "coeffs": [{"k": list(k), "v": v} for k, v in coeffs.items()],
    }


@given(st.dictionaries(st.sampled_from(FUZZ_MOMENTA), MAGNITUDES, min_size=1, max_size=4).map(document))
@example(document({(1, 0, 0): 5e-324}))
@example(document({(1, 0, 0): 1e160}))
@example(document({(1, 0, 0): 3e307}))
@example(document({(1, 0, 0): 1e308}))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_documents_across_the_double_range(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "v.json"
    path.write_text(json.dumps(doc))
    for argv in FUZZ_COMMANDS:
        argv = [*argv, "--potential", str(path)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(argv)
        assert [str(w.message) for w in caught] == [], argv
        assert "Traceback" not in err
        check_outcome(argv, code, out, err)
