import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from fermi_rpa.errors import NumericalFailure, ParseError
from fermi_rpa.potential import (
    finite_fsum,
    l1_norm,
    load_potential,
    make_potential,
    serialize_potential,
)

from conftest import scaled_potential
from oracles import outcome, potential_layout, potential_reference


@pytest.fixture()
def load(tmp_path):
    """load_potential of a document written to a file: a dict as JSON, a str as is."""

    def load(doc):
        path = tmp_path / "v.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return load_potential(str(path))

    return load


def test_load_single_zero_mode(load):
    v = load({"support_radius_sq": 0, "coeffs": [{"k": [0, 0, 0], "v": 1.0}]})
    assert v.coeffs == {(0, 0, 0): 1.0}


def test_load_completes_evenness(load):
    v = load({"support_radius_sq": 1, "coeffs": [{"k": [1, 0, 0], "v": 0.5}]})
    assert v.value((1, 0, 0)) == 0.5
    assert v.value((-1, 0, 0)) == 0.5
    assert len(v.coeffs) == 2


def test_load_rejects_symmetry_violation(load):
    with pytest.raises(ParseError, match="^evenness violated: .* disagree$"):
        load(
            {
                "support_radius_sq": 1,
                "coeffs": [
                    {"k": [1, 0, 0], "v": 0.5},
                    {"k": [-1, 0, 0], "v": 0.4},
                ],
            }
        )


def test_load_rejects_duplicates(load):
    with pytest.raises(ParseError):
        load(
            {
                "support_radius_sq": 1,
                "coeffs": [
                    {"k": [1, 0, 0], "v": 0.5},
                    {"k": [1, 0, 0], "v": 0.5},
                ],
            }
        )


def test_load_rejects_garbage(load):
    with pytest.raises(ParseError):
        load("not json")
    with pytest.raises(ParseError):
        load({"support_radius_sq": 1})
    with pytest.raises(ParseError):
        load({"support_radius_sq": 0, "coeffs": [{"k": [1, 0, 0], "v": 1.0}]})


def test_momentum_whose_norm_overflows_a_double_is_rejected(load):
    huge = {"support_radius_sq": 10**401, "coeffs": [{"k": [10**200, 0, 0], "v": 0.1}]}
    with pytest.raises(ParseError, match=r"\|k\|\^2 of the coefficient at \(10{200}, 0, 0\)"):
        load(huge)
    # 10^300 still fits in a double
    v = load({"support_radius_sq": 10**300, "coeffs": [{"k": [10**150, 0, 0], "v": 0.1}]})
    assert v.value((-(10**150), 0, 0)) == 0.1


def test_load_rejects_nonfinite(load):
    # the reader names the key: Python's json reads NaN, Infinity and 1e999
    for literal, shown in (("NaN", "NaN"), ("Infinity", "Infinity"), ("-Infinity", "-Infinity"),
                           ("1e999", "Infinity")):
        doc = '{"support_radius_sq": 1, "coeffs": [{"k": [1, 0, 0], "v": %s}]}' % literal
        with pytest.raises(ParseError, match=rf"^coeffs\[0\]\.v is non-finite, got {shown}$"):
            load(doc)
    # a non-finite mirror pair is reported as non-finite, not as disagreeing
    pair = [{"k": [1, 0, 0], "v": float("nan")}, {"k": [-1, 0, 0], "v": float("nan")}]
    with pytest.raises(ParseError, match=r"^coeffs\[0\]\.v is non-finite, got NaN$"):
        load({"support_radius_sq": 1, "coeffs": pair})
    # and so is a coefficient built in code
    with pytest.raises(ParseError, match=r"^non-finite coefficient at \(-?1, 0, 0\): nan$"):
        make_potential({(1, 0, 0): float("nan")})


def test_round_trip(load, demo_potential):
    assert load(serialize_potential(demo_potential)) == demo_potential


def test_potential_compares_coefficients_and_radius_and_has_no_hash(demo_potential):
    coeffs, radius_sq = dict(demo_potential.coeffs), demo_potential.support_radius_sq
    assert make_potential(coeffs, radius_sq) == demo_potential
    assert make_potential(coeffs, radius_sq + 1) != demo_potential
    with pytest.raises(TypeError):
        hash(demo_potential)


@pytest.mark.parametrize(
    "terms",
    [
        lambda: [1e308, 1e308],  # the sum overflows
        lambda: [1.0, float("inf")],  # a term is inf
        lambda: [1e308, -float("inf"), float("inf")],  # fsum would raise ValueError
        lambda: (x ** 2 for x in [1.0, 1e160]),  # a term raises OverflowError
    ],
    ids=["sum", "inf-term", "inf-minus-inf", "power"],
)
def test_finite_fsum_names_the_quantity_that_overflows(terms):
    with pytest.raises(NumericalFailure, match=r"^sum_k x_k overflows a double$"):
        finite_fsum(terms(), "sum_k x_k")


def test_finite_fsum_is_fsum_on_finite_terms():
    terms = [1e308, -1e308, 0.1, 0.2, 1e-300]
    assert finite_fsum(iter(terms), "unused") == math.fsum(terms)


def test_l1_norm_examples(demo_potential):
    assert l1_norm(scaled_potential(demo_potential, 0.0)) == 0.0
    v = make_potential({(1, 0, 0): 0.5})
    assert l1_norm(v) == 1.0
    assert l1_norm(scaled_potential(demo_potential, 2.0)) == pytest.approx(
        2.0 * l1_norm(demo_potential), rel=1e-15
    )


@st.composite
def random_potentials(draw):
    n_entries = draw(st.integers(1, 6))
    entries = {}
    for _ in range(n_entries):
        k = tuple(draw(st.integers(-2, 2)) for _ in range(3))
        val = draw(
            st.floats(-4, 4, allow_nan=False, allow_infinity=False).filter(
                lambda x: x == 0.0 or abs(x) > 1e-30
            )
        )
        entries[k] = val
        entries[tuple(-c for c in k)] = val
    return make_potential(entries, support_radius_sq=12)


@given(random_potentials())
@settings(max_examples=50, deadline=None)
def test_round_trip_random(tmp_path_factory, v):
    # hypothesis runs every example in one test call, so no function-scoped tmp_path
    path = tmp_path_factory.mktemp("round_trip") / "v.json"
    path.write_text(serialize_potential(v))
    assert load_potential(str(path)) == v


# components near the origin and up to 10**200, where |k|^2 leaves the double
# range; values of every kind a code-built dict may hold
COMPONENTS = st.one_of(st.integers(-3, 3), st.integers(-(10**200), 10**200))
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, math.nan, math.inf, -math.inf]),
    st.floats(),
)
RADII = st.one_of(st.none(), st.integers(0, 30), st.sampled_from([10**300, 10**401]))


@st.composite
def entry_dicts(draw):
    """{k: v} with each -k absent, equal, of the opposite sign or drawn apart, in any order."""
    items = []
    drawn = draw(st.dictionaries(st.tuples(*[COMPONENTS] * 3), VALUES, max_size=5))
    for (x, y, z), value in drawn.items():
        items.append(((x, y, z), value))
        mirror = draw(st.sampled_from(["absent", "equal", "negated", "drawn"]))
        if mirror == "equal":
            items.append(((-x, -y, -z), value))
        elif mirror == "negated":
            items.append(((-x, -y, -z), -value))
        elif mirror == "drawn":
            items.append(((-x, -y, -z), draw(VALUES)))
    return dict(draw(st.permutations(items)))


@given(entry_dicts(), RADII)
# an explicit mirror keeps its own sign bit
@example({(1, 2, 1): -0.0, (-1, -2, -1): 0.0}, None)
# a disagreeing mirror after a radius fault, and before one
@example({(3, 0, 0): 0.1, (1, 0, 0): 0.2, (-1, 0, 0): 0.3}, 2)
@example({(1, 0, 0): 0.2, (-1, 0, 0): 0.3, (3, 0, 0): 0.1}, 2)
# NaN in an entry and in its mirror
@example({(1, 0, 0): math.nan}, None)
@example({(1, 0, 0): 0.5, (-1, 0, 0): math.nan}, None)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_make_potential_matches_the_three_pass_reference(entries, radius_sq):
    # the same ParseError, or the same coefficients in the same order with the
    # same bits, and the same bytes in every column
    def layout(build):
        return potential_layout(build(entries, radius_sq))

    assert outcome(layout, make_potential) == outcome(layout, potential_reference)
