"""Domain-guard sweep: random closed shells, potentials and tolerances through the CLI.

Every run exits 0, 1 or 2 and lets no exception escape.  A success prints
only finite numbers: its JSON passes a parser that rejects NaN and
Infinity, and a CSV cell is empty or a finite number.  A failure prints
exactly one ``error: ...`` line on stderr, after any ``warning: ...``
lines.  The same argv prints the same bytes twice.  ``corr``, ``compare``
and ``oracle`` may also read a ``--config`` file; one with an invalid
``tol``, ``version`` or ``max_pairs`` exits 1, whatever flag overrides it.

``oracle`` is swept on its own, with fewer examples.  On 7 holes at
cutoff 3 it always gets a ``--pairs`` flag of at most 2: the 3-pair sector
there has dimension 44031 and one run takes about 1.3 s (1.0 s in process).
"""

import io
import itertools
import json
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from fermi_rpa import closed_shell_sizes, make_potential, serialize_potential
from fermi_rpa.cli import main

SHELLS = [n for _, n in closed_shell_sizes(16) if n <= 257]
# one momentum per +-k pair on |k|^2 <= 6, and the zero mode
MOMENTA = [(0, 0, 0)] + [
    k
    for k in itertools.product(range(-2, 3), repeat=3)
    if 0 < sum(c * c for c in k) <= 6 and k > (0, 0, 0)
]
COUPLINGS = st.one_of(st.just(0.0), st.floats(-0.3, 5.0), st.floats(-0.3, 0.3))
TOLS = st.sampled_from([None, "1e-17", "1e-300", "1e-13", "1e-10", "1e-6", "0.01"])
# config tol values: JSON numbers (0, negatives, 1e-300, NaN, Infinity, an
# integer beyond double range) and values that are not numbers at all
CONFIG_TOLS = st.one_of(
    st.floats(),
    st.integers(-3, 3),
    st.sampled_from([1e-300, -1e-10, 10**300, 10**400, True, False, "1e-8", None]),
)
CONFIG_VERSIONS = st.sampled_from([1, 2, 2.9])
# config pair caps of every JSON kind; a valid one stays at most 3
CONFIG_PAIRS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2.9, 1.0, math.nan, math.inf, True, "2", None, [2], {"n": 2}]),
)
CONFIG_KEYS = {"tol": CONFIG_TOLS, "version": CONFIG_VERSIONS, "max_pairs": CONFIG_PAIRS}
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
        methods = ["delocalized-exact", "delocalized-asym", "optimal", "so-deloc", "so-opt"]
        argv += ["--method", draw(st.sampled_from(methods))]
    if command == "errors":
        argv += ["--backend", draw(st.sampled_from(["exact", "asymptotic"]))]
    if command in ("corr", "compare"):
        tol = draw(TOLS)
        if tol is not None:
            argv += ["--tol", tol]
    return argv, draw(potentials()), draw(configs(command in ("corr", "compare")))


@st.composite
def oracle_invocations(draw):
    holes_n = draw(st.sampled_from([1, 2, 7]))
    lambda_sq = draw(st.integers(1, 3))
    argv = ["oracle", "--holes-n", str(holes_n), "--lambda-sq", str(lambda_sq)]
    argv += ["--trials", str(draw(st.integers(1, 3)))]
    if (holes_n, lambda_sq) == (7, 3):
        argv += ["--pairs", str(draw(st.integers(1, 2)))]
    elif draw(st.booleans()):
        argv += ["--pairs", str(draw(st.integers(1, 3)))]
    return argv, draw(potentials()), draw(configs(True))


@st.composite
def potentials(draw):
    coeffs = draw(st.dictionaries(st.sampled_from(MOMENTA), COUPLINGS, min_size=1, max_size=8))
    return make_potential(coeffs, support_radius_sq=6)


@st.composite
def configs(draw, allowed):
    if allowed and draw(st.booleans()):
        return draw(st.fixed_dictionaries({}, optional=CONFIG_KEYS))
    return None


def valid_config(config):
    tol = config.get("tol", 1.0)
    number = isinstance(tol, (int, float)) and not isinstance(tol, bool)
    in_range = number and abs(tol) < 10**308 and math.isfinite(tol) and tol > 0
    pairs = config.get("max_pairs", 1)
    count = isinstance(pairs, int) and not isinstance(pairs, bool) and pairs >= 1
    return in_range and count and config.get("version", 1) == 1


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


def check_invocation(tmp_path_factory, argv, v, config):
    command = argv[0]
    directory = tmp_path_factory.mktemp("sweep")
    path = directory / "v.json"
    path.write_text(serialize_potential(v))
    argv = [*argv, "--potential", str(path)]
    if config is not None:
        config_path = directory / "config.json"
        config_path.write_text(json.dumps(config))
        argv = ["--config", str(config_path), *argv]
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if config is not None and not valid_config(config):
        assert code == 1, (config, argv, code, err)
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
        *warnings, last = err.splitlines()
        assert last.startswith("error: "), err
        assert all(line.startswith("warning: ") for line in warnings), err
    assert run(argv) == (code, out, err)
