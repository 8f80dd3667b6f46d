import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from fermi_rpa.errors import DomainError, NumericalFailure, ParseError
from fermi_rpa.potential import (
    finite_fsum,
    l1_norm,
    load_potential,
    make_potential,
    scale_coupling,
    serialize_potential,
)


def doc_bytes(obj) -> io.BytesIO:
    return io.BytesIO(json.dumps(obj).encode("utf-8"))


def test_load_single_zero_mode():
    v = load_potential(
        doc_bytes({"support_radius_sq": 0, "coeffs": [{"k": [0, 0, 0], "v": 1.0}]})
    )
    assert v.coeffs == {(0, 0, 0): 1.0}


def test_load_completes_evenness():
    v = load_potential(
        doc_bytes({"support_radius_sq": 1, "coeffs": [{"k": [1, 0, 0], "v": 0.5}]})
    )
    assert v.value((1, 0, 0)) == 0.5
    assert v.value((-1, 0, 0)) == 0.5
    assert len(v.coeffs) == 2


def test_load_rejects_symmetry_violation():
    with pytest.raises(ParseError, match="^evenness violated: .* disagree$"):
        load_potential(
            doc_bytes(
                {
                    "support_radius_sq": 1,
                    "coeffs": [
                        {"k": [1, 0, 0], "v": 0.5},
                        {"k": [-1, 0, 0], "v": 0.4},
                    ],
                }
            )
        )


def test_load_rejects_duplicates():
    with pytest.raises(ParseError):
        load_potential(
            doc_bytes(
                {
                    "support_radius_sq": 1,
                    "coeffs": [
                        {"k": [1, 0, 0], "v": 0.5},
                        {"k": [1, 0, 0], "v": 0.5},
                    ],
                }
            )
        )


def test_load_rejects_garbage():
    with pytest.raises(ParseError):
        load_potential(io.BytesIO(b"not json"))
    with pytest.raises(ParseError):
        load_potential(doc_bytes({"support_radius_sq": 1}))
    with pytest.raises(ParseError):
        load_potential(
            doc_bytes({"support_radius_sq": 0, "coeffs": [{"k": [1, 0, 0], "v": 1.0}]})
        )


def test_momentum_whose_norm_overflows_a_double_is_rejected():
    huge = {"support_radius_sq": 10**401, "coeffs": [{"k": [10**200, 0, 0], "v": 0.1}]}
    with pytest.raises(ParseError, match=r"\|k\|\^2 of the coefficient at \(10{200}, 0, 0\)"):
        load_potential(doc_bytes(huge))
    # 10^300 still fits in a double
    v = load_potential(
        doc_bytes({"support_radius_sq": 10**300, "coeffs": [{"k": [10**150, 0, 0], "v": 0.1}]})
    )
    assert v.value((-(10**150), 0, 0)) == 0.1


def test_load_rejects_nonfinite():
    # the reader names the key: Python's json reads NaN, Infinity and 1e999
    for literal, shown in (("NaN", "NaN"), ("Infinity", "Infinity"), ("-Infinity", "-Infinity"),
                           ("1e999", "Infinity")):
        doc = '{"support_radius_sq": 1, "coeffs": [{"k": [1, 0, 0], "v": %s}]}' % literal
        with pytest.raises(ParseError, match=rf"^coeffs\[0\]\.v is non-finite, got {shown}$"):
            load_potential(doc.encode("utf-8"))
    # a non-finite mirror pair is reported as non-finite, not as disagreeing
    pair = [{"k": [1, 0, 0], "v": float("nan")}, {"k": [-1, 0, 0], "v": float("nan")}]
    with pytest.raises(ParseError, match=r"^coeffs\[0\]\.v is non-finite, got NaN$"):
        load_potential(doc_bytes({"support_radius_sq": 1, "coeffs": pair}))
    # and so is a coefficient built in code
    with pytest.raises(ParseError, match=r"^non-finite coefficient at \(-?1, 0, 0\): nan$"):
        make_potential({(1, 0, 0): float("nan")})


def test_round_trip(demo_potential):
    again = load_potential(serialize_potential(demo_potential).encode("utf-8"))
    assert again == demo_potential


def test_scale_identity(demo_potential):
    assert scale_coupling(demo_potential, 1.0) == demo_potential


def test_scale_zero_keeps_support(demo_potential):
    zero = scale_coupling(demo_potential, 0.0)
    assert set(zero.coeffs) == set(demo_potential.coeffs)
    assert all(val == 0.0 for val in zero.coeffs.values())


def test_scale_rejects_nonfinite(demo_potential):
    with pytest.raises(DomainError, match="^coupling scale must be finite, got inf$"):
        scale_coupling(demo_potential, float("inf"))


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
    assert l1_norm(scale_coupling(demo_potential, 0.0)) == 0.0
    v = make_potential({(1, 0, 0): 0.5})
    assert l1_norm(v) == 1.0
    assert l1_norm(scale_coupling(demo_potential, 2.0)) == pytest.approx(
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
def test_round_trip_random(v):
    assert load_potential(serialize_potential(v).encode("utf-8")) == v


@given(random_potentials(), st.floats(-3, 3, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_evenness_preserved_under_scaling(v, s):
    scaled = scale_coupling(v, s)
    for k in scaled.support():
        assert scaled.value(k) == scaled.value(tuple(-c for c in k))
