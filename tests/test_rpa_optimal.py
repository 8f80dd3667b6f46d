import itertools
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fermi_rpa.quadrature as quadrature
import fermi_rpa.rpa_optimal as rpa_optimal
from fermi_rpa.cli import main
from fermi_rpa.errors import DomainError, NumericalFailure
from fermi_rpa.lattice import (
    KINETIC_SHAPE_CONSTANT,
    LUNE_SHAPE_CONSTANT,
    ModelParams,
    norm_sq,
)
from fermi_rpa.potential import make_potential, serialize_potential
from fermi_rpa.quadrature import IntegralResult, integrate_adaptive
from fermi_rpa.report import energy_report, potential_digest
from fermi_rpa import DEFAULT_TOL, second_order_ratio
from fermi_rpa.rpa_optimal import (
    KAPPA,
    _inner_factor,
    _log1p_minus_identity,
    frequency_brackets,
    gmb_correlation,
    gmb_integral,
    gmb_integrand,
    second_order_optimal,
)
from conftest import scaled_potential


def test_integrand_zero_coupling():
    for lam in (0.0, 0.3, 2.0, 50.0):
        assert gmb_integrand(0.0, lam) == 0.0


def test_integrand_at_zero_frequency():
    # g(0) = 1, so the integrand is log1p(a) - a there
    assert gmb_integrand(1.0, 0.0) == pytest.approx(math.log(2.0) - 1.0, rel=1e-15)


def test_integrand_large_frequency_decay():
    # ~ -a^2/(18 lambda^4) for large lambda
    for lam in (1e3, 1e5, 1e7):
        assert gmb_integrand(2.0, lam) == pytest.approx(-4.0 / (18 * lam**4), rel=1e-4)


def test_integrand_domain_error():
    with pytest.raises(DomainError):
        gmb_integrand(-1.5, 0.0)


def test_integrand_is_elementwise():
    a = np.array([[-0.5], [1e-6], [3.0]])
    lam = np.array([0.0, 0.7, 1.999, 2.0, 40.0, 1e6])
    grid = gmb_integrand(a, lam)
    assert grid.shape == (3, 6)
    for i in range(3):
        for j in range(6):
            assert grid[i, j] == gmb_integrand(a[i, 0], lam[j])


def test_inner_factor_series_matches_direct_at_crossover():
    # both branches are accurate near the switch, so they must agree there
    for lam in (1.999999, 2.0, 2.000001, 3.0):
        u = 1.0 / lam
        direct = 1.0 - lam * math.atan(u)
        assert _inner_factor(lam) == pytest.approx(direct, rel=1e-12)


def test_inner_factor_bounds():
    for lam in (0.0, 0.2, 1.0, 7.0, 1e4):
        g = _inner_factor(lam)
        assert 0.0 <= g <= 1.0
        if lam >= 1.0:
            assert g <= 1.0 / (3.0 * lam * lam)


def test_log1p_series_matches_direct_at_crossover():
    for x in (-0.125, -0.12499999, 0.12499999, 0.125):
        assert _log1p_minus_identity(x) == pytest.approx(math.log1p(x) - x, rel=1e-13)
    # the series keeps full relative accuracy where log1p(x) - x cancels
    assert _log1p_minus_identity(1e-9) == pytest.approx(-5e-19 + 1e-27 / 3, rel=1e-15)


def test_integral_zero():
    assert gmb_integral((0.0,)) == [IntegralResult(0.0, 0.0)]


def test_integral_error_estimate_respected():
    for a in (0.5, 2.0, 7.0):
        (res,) = gmb_integral((a,), tol=1e-10)
        assert res.error <= 1e-10
        (finer,) = gmb_integral((a,), tol=5e-11)
        assert abs(res.value - finer.value) <= res.error


def test_integral_linear_coefficient():
    # (1/pi) I(a)/a -> 1/4 as a -> 0 (the lambda integral of the inner
    # factor is pi/4): the bracket over a, (1/pi) I(a)/a - 1/4, vanishes
    couplings = (1e-3, 1e-4, 1e-5)
    deviations = [abs(r.value / a) for a, r in zip(couplings, gmb_integral(couplings, tol=1e-14))]
    assert deviations[0] > deviations[1] > deviations[2]
    assert deviations[-1] < 1e-6


def test_integral_quadratic_coefficient():
    # bracket/a^2 = ((1/pi) I(a) - a/4)/a^2 -> -(1 - log 2)/6
    target = -(1.0 - math.log(2.0)) / 6.0
    couplings = (1e-3, 1e-4)
    values = [r.value / (a * a) for a, r in zip(couplings, gmb_integral(couplings, tol=1e-15))]
    assert values[-1] == pytest.approx(target, rel=1e-3)


# 50-digit quadrature references of (1/pi) I(a) with analytic tails (error < 1e-19)
FROZEN_INTEGRALS = [
    (1.0, 0.2133639048250704062480335),
    (0.9744442724301884897408677, 0.2085867614123441319878434),  # 2 pi kappa / 4
    (1.948888544860376979481735, 0.3750181323753130689995501),  # 2 pi kappa / 2
]


@pytest.mark.parametrize("a,reference", FROZEN_INTEGRALS)
def test_integral_frozen_references(a, reference):
    (res,) = gmb_integral((a,), tol=1e-12)
    assert res.error <= 1e-12
    assert abs(res.value - (reference - a / 4.0)) <= res.error


def test_integral_rejects_bad_coupling():
    with pytest.raises(DomainError):
        gmb_integral((0.5, -1.0))


def test_convergence_failure_budget(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
    with pytest.raises(NumericalFailure, match="after 8 panels"):
        integrate_adaptive(lambda nodes: np.sin(1e6 * nodes.x), 1, 0.0, 1000.0, 1e-6)


@pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
def test_integral_rejects_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(DomainError, match=r"^tolerance must be finite and > 0, got "):
        integrate_adaptive(lambda nodes: nodes.x, 1, 0.0, 1.0, tol)


def test_tolerance_below_the_rounding_floor_fails_fast(monkeypatch):
    # tol 1e-13 is below a few ulp of the integral, |pi bracket| ~ 7.8e4 at
    # a = 1e5: the integral stops within a few rounds and names the floor,
    # instead of refining to the panel budget
    panel_calls = []
    original = quadrature._gk15_panel

    def counting(*args):
        panel_calls.append(1)
        return original(*args)

    monkeypatch.setattr(quadrature, "_gk15_panel", counting)
    with pytest.raises(NumericalFailure, match="rounding floor"):
        gmb_integral((1e5,), 1e-13)
    assert len(panel_calls) < 50


BATCH = (-0.999, -0.5, 0.0, 1e-6, 2.5e-3, 0.3, 1.0, 7.0, 100.0, 1e5)


@pytest.mark.parametrize("tol", [1e-10, 1e-8])
def test_batch_results_match_single_value_integrals(tol):
    batch = gmb_integral(BATCH, tol)
    backwards = gmb_integral(BATCH[::-1], tol)[::-1]
    for a, together, reversed_together in zip(BATCH, batch, backwards):
        (alone,) = gmb_integral((a,), tol)
        for result in (together, reversed_together):
            assert result.value.hex() == alone.value.hex()
            assert result.error.hex() == alone.error.hex()


def test_batch_integrand_calls_follow_the_largest_panel_count(monkeypatch):
    calls = []
    original = quadrature._gk15_panel

    def counting(f, rows, lo, hi):
        calls.append(len(rows))
        return original(f, rows, lo, hi)

    monkeypatch.setattr(quadrature, "_gk15_panel", counting)
    singles = []
    for a in BATCH:
        calls.clear()
        gmb_integral((a,), 1e-10)
        singles.append(list(calls))
    calls.clear()
    gmb_integral(BATCH, 1e-10)
    # one call per refinement round, however many values are unfinished
    assert len(calls) == max(len(single) for single in singles)
    # and the work is the total panel count
    assert sum(calls) == sum(sum(single) for single in singles)


NEAR_POLE = -1.0 + 2.0**-52
# Panel evaluations of each value of BATCH + (NEAR_POLE,), integrated alone.
# They follow from the refinement rule (bisect the panel with the largest
# error, the earliest made among equals) and the stopping rule (summed
# error <= tol, or the rounding floor); a = 1e5 at 1e-13 stops at the
# floor after its first panel.
PANEL_EVALUATIONS = {
    1e-6: (15, 1, 1, 1, 1, 1, 1, 3, 5, 15, 25),
    1e-10: (19, 3, 1, 1, 1, 3, 3, 5, 9, 31, 51),
    1e-13: (27, 7, 1, 1, 3, 7, 7, 7, 15, 1, 83),
}


@pytest.mark.parametrize("tol", sorted(PANEL_EVALUATIONS))
def test_panel_evaluations_per_value_are_pinned(monkeypatch, tol):
    evaluations = []
    original = quadrature._gk15_panel

    def counting(f, rows, lo, hi):
        evaluations.append(len(rows))
        return original(f, rows, lo, hi)

    monkeypatch.setattr(quadrature, "_gk15_panel", counting)
    counts = []
    for a in BATCH + (NEAR_POLE,):
        evaluations.clear()
        if a == 1e5 and tol == 1e-13:
            with pytest.raises(NumericalFailure, match="rounding floor"):
                gmb_integral((a,), tol)
        else:
            gmb_integral((a,), tol)
        counts.append(sum(evaluations))
    assert tuple(counts) == PANEL_EVALUATIONS[tol]


def test_correlation_zero_potential():
    v = make_potential({(1, 0, 0): 0.0})
    result = gmb_correlation(frequency_brackets(v), ModelParams(33))
    assert result.value == 0.0


def test_correlation_brackets_nonpositive(demo_potential):
    couplings = tuple(2.0 * math.pi * KAPPA * value for value in demo_potential.vs)
    for bracket in gmb_integral(couplings, 1e-12):
        assert bracket.value <= 1e-14
    brackets = frequency_brackets(demo_potential, 1e-12)
    assert gmb_correlation(brackets, ModelParams(33)).value < 0.0


def test_linear_order_cancellation(demo_potential):
    # per-momentum brackets are quadratic in the coupling: slope >= 1.9
    scales = [2.0 ** (-j) for j in range(3, 9)]
    mags = []
    for s in scales:
        coupling = 2.0 * math.pi * KAPPA * scaled_potential(demo_potential, s).value((1, 0, 0))
        (bracket,) = gmb_integral((coupling,), 1e-15)
        mags.append(abs(bracket.value))
    slope = np.polyfit(np.log(scales), np.log(mags), 1)[0]
    assert slope >= 1.9


def test_small_coupling_matches_second_order(demo_potential):
    params = ModelParams(2109)
    scales = [2.0 ** (-j) for j in range(3, 9)]
    deviations = []
    for s in scales:
        scaled = scaled_potential(demo_potential, s)
        total = gmb_correlation(frequency_brackets(scaled, 1e-15), params).value
        so = second_order_optimal(scaled, params)
        deviations.append(abs(total / so - 1.0))
    slope = np.polyfit(np.log(scales), np.log(deviations), 1)[0]
    assert slope >= 0.9


def test_second_order_prefactor(demo_potential):
    params = ModelParams(257)
    weight = sum(
        demo_potential.value(k) ** 2 * math.sqrt(sum(c * c for c in k))
        for k in demo_potential.ks
    )
    value = second_order_optimal(demo_potential, params)
    assert value / (-params.hbar * weight) == pytest.approx(
        (math.pi / 2.0) * (1.0 - math.log(2.0)), rel=1e-14
    )


def test_second_order_quadratic_homogeneity(demo_potential):
    params = ModelParams(257)
    base = second_order_optimal(demo_potential, params)
    scaled = second_order_optimal(scaled_potential(demo_potential, 3.0), params)
    assert scaled == pytest.approx(9.0 * base, rel=1e-14)


def test_ratio_window():
    value = second_order_ratio()
    assert 0.91 < value < 0.92


def test_ratio_equals_second_order_quotient(demo_potential):
    from fermi_rpa.rpa_delocalized import second_order_delocalized

    params = ModelParams(2109)
    quotient = second_order_delocalized(params, demo_potential) / second_order_optimal(
        demo_potential, params
    )
    assert quotient == pytest.approx(second_order_ratio(), abs=1e-12)


def test_kappa_value():
    assert KAPPA == pytest.approx((3.0 / (4.0 * math.pi)) ** (1.0 / 3.0), rel=1e-16)


def test_shape_constants_meet_kappa():
    # L = pi kappa^2 and K L = 1, so the strong-coupling terms of the
    # delocalized and optimal energies agree: -L V/2 with -pi kappa^2 V/2,
    # and the sqrt(V) terms
    eps = sys.float_info.epsilon
    assert abs(LUNE_SHAPE_CONSTANT - math.pi * KAPPA**2) <= 2 * eps * LUNE_SHAPE_CONSTANT
    assert abs(KINETIC_SHAPE_CONSTANT * LUNE_SHAPE_CONSTANT - 1.0) <= 2 * eps


def mpmath_bracket(a, dps=30):
    """(1/pi) I(a) - a/4 and its quadrature error, by mpmath on lambda = t/(1 - t).

    1 - lambda arctan(1/lambda) ~ 1/(3 lambda^2) cancels about 2 log10(lambda)
    digits, so it is evaluated with that many extra; the breakpoints keep
    tanh-sinh from misjudging the slow decay (a plain [0, 1, 10, 100, inf]
    split reports 1e-8 while off by 1e-3 on the lambda integral of the
    inner factor).  The counterterm a/4 is subtracted at mp precision.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(dps):
        a_mp = mp.mpf(a)

        def f(t):
            if t == 1:
                return a_mp / 3  # limit of log(1 + a g(lambda)) dlambda/dt
            lam = t / (1 - t)
            extra = int(2 * mp.log10(lam)) if lam > 1 else 0
            with mp.workdps(dps + extra + 10):
                g = 1 - lam * mp.atan(1 / lam) if lam > 0 else mp.mpf(1)
                value = mp.log1p(a_mp * g) / (1 - t) ** 2
            return +value

        value, error = mp.quad(f, [0, 0.5, 0.9, 0.99, 1], error=True)
        return float(value / mp.pi - a_mp / 4), float(error / mp.pi)


@pytest.mark.parametrize("a", [-0.999, -0.5, 1e-6, 0.3, 1.0, 100.0])
def test_integral_matches_mpmath_reference(a):
    reference, reference_error = mpmath_bracket(a)
    assert reference_error < 1e-20
    (res,) = gmb_integral((a,), tol=1e-12)
    assert res.error <= 1e-12
    assert abs(res.value - reference) <= res.error


@pytest.mark.parametrize("a", [-0.999, -0.5, 1e-6, 0.3, 1.0, 100.0, 1e5])
def test_integral_matches_mpmath_reference_at_default_tol(a):
    reference, reference_error = mpmath_bracket(a)
    assert reference_error < 1e-20
    (res,) = gmb_integral((a,))
    assert res.error <= DEFAULT_TOL
    assert abs(res.value - reference) <= res.error


@pytest.mark.parametrize("a,tol", [(1e4, 3e-12), (1e5, 3e-11)])
def test_integral_matches_mpmath_reference_near_the_rounding_floor(a, tol):
    # tol is a few ulp of |I(a)|; the whole tolerance goes to the one [0, 1]
    # row, none to a truncated tail, so the integral still resolves
    reference, reference_error = mpmath_bracket(a)
    assert reference_error < 1e-20
    (res,) = gmb_integral((a,), tol)
    assert res.error <= tol
    assert abs(res.value - reference) <= res.error


def test_weak_coupling_bracket_is_not_swamped_by_the_tail():
    # the bracket at a = 1e-6 is -5.1e-14, far below the default tol; the
    # integral carries no tail bias of order tol, so it keeps its digits
    reference, _ = mpmath_bracket(1e-6)
    (res,) = gmb_integral((1e-6,))
    assert abs(res.value - reference) <= 1e-3 * abs(reference)


def log1p_minus_identity(x):
    """log1p(x) - x, by four series terms where the difference cancels."""
    if abs(x) > 1e-3:
        return math.log1p(x) - x
    return -x * x * (1.0 / 2.0 - x / 3.0 + x * x / 4.0 - x**3 / 5.0)


@given(st.floats(min_value=-1.0, max_value=100.0, exclude_min=True))
@settings(max_examples=200, deadline=None)
def test_integral_inside_enclosure(a):
    # h(a)/4 <= bracket <= h(c a)/pi with h(x) = log1p(x) - x and c = 1 - pi/4,
    # which lies inside log1p(c a)/pi - a/4 <= bracket <= 0 for a > 0
    (res,) = gmb_integral((a,), tol=1e-10)
    slack = res.error + sys.float_info.min
    c = 1.0 - math.pi / 4.0
    assert res.value <= log1p_minus_identity(c * a) / math.pi + slack
    assert res.value >= log1p_minus_identity(a) / 4.0 - slack
    assert res.value <= slack
    if a > 0.0:
        assert res.value >= math.log1p(c * a) / math.pi - a / 4.0 - slack


@pytest.mark.parametrize("a", [1.0, -0.5])
def test_enclosure_rejects_a_vanished_body(monkeypatch, a):
    # a quadrature that vanished with error 0 gives bracket 0, above the strictly
    # negative upper bound (log1p(c a) - c a)/pi
    monkeypatch.setattr(
        rpa_optimal,
        "integrate_adaptive",
        lambda f, rows, lo, hi, tol: [IntegralResult(0.0, 0.0)] * rows,
    )
    with pytest.raises(NumericalFailure, match=r"violates the enclosure"):
        gmb_integral((a,), tol=1e-10)


def test_enclosure_rejects_an_overshooting_body(monkeypatch):
    # a bracket of -1 lies below (log1p(a) - a)/4 = -0.0094 at a = 0.3
    monkeypatch.setattr(
        rpa_optimal,
        "integrate_adaptive",
        lambda f, rows, lo, hi, tol: [IntegralResult(-1.0, 0.0)] * rows,
    )
    with pytest.raises(NumericalFailure, match=r"violates the enclosure"):
        gmb_integral((0.3,), tol=1e-10)


def radial_potential(radius_sq=30):
    """V depends on |k|^2 only, with mixed signs: 26 distinct values at radius^2 30."""
    coeffs = {}
    r = math.isqrt(radius_sq)
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            for z in range(-r, r + 1):
                k2 = x * x + y * y + z * z
                if 0 < k2 <= radius_sq:
                    coeffs[(x, y, z)] = (-1) ** k2 * 0.1 / (1.0 + 0.1 * k2)
    return make_potential(coeffs, support_radius_sq=radius_sq)


def nonradial_potential(seed, radius_sq=30):
    """One value on [0.005, 0.05] per +-k pair: 369 distinct values at radius^2 30."""
    rng = random.Random(seed)
    coeffs = {}
    r = math.isqrt(radius_sq)
    for k in itertools.product(range(-r, r + 1), repeat=3):
        if 0 < norm_sq(k) <= radius_sq:
            mirror = (-k[0], -k[1], -k[2])
            coeffs[k] = coeffs[mirror] if mirror in coeffs else rng.uniform(0.005, 0.05)
    return make_potential(coeffs, support_radius_sq=radius_sq)


@pytest.mark.parametrize("seed", [1, 2])
def test_nonradial_brackets_take_few_rounds(monkeypatch, seed):
    # the mapped integrand is smooth on all of [0, 1], so at the default tol
    # every value is done after at most two rounds of bisection
    v = nonradial_potential(seed)
    assert len({v.value(k) for k in v.ks}) == 369
    calls = []
    original = quadrature._gk15_panel

    def counting(f, rows, lo, hi):
        calls.append(len(rows))
        return original(f, rows, lo, hi)

    monkeypatch.setattr(quadrature, "_gk15_panel", counting)
    frequency_brackets(v)
    assert calls[0] == 369
    assert len(calls) <= 3


def per_k_loop(v, params, tol):
    """The optimal correlation energy with one integral per momentum."""
    support = v.ks
    values, errors = {}, {}
    for k in support:
        (bracket,) = gmb_integral((2.0 * math.pi * KAPPA * v.value(k),), tol)
        values[k] = bracket.value
        errors[k] = bracket.error
    total = params.hbar * KAPPA * math.fsum(
        math.sqrt(norm_sq(k)) * values[k] for k in support
    )
    error = params.hbar * KAPPA * math.fsum(
        math.sqrt(norm_sq(k)) * errors[k] for k in support
    )
    return IntegralResult(total, error)


@pytest.fixture()
def counted_integrals(monkeypatch):
    calls = []

    def counting(values, tol=DEFAULT_TOL):
        calls.append(values)
        return original(values, tol)

    original = rpa_optimal.gmb_integral
    monkeypatch.setattr(rpa_optimal, "gmb_integral", counting)
    return calls


@pytest.mark.parametrize("n", [33, 2109])
def test_correlation_equals_per_k_loop(demo_potential, n):
    for v in (demo_potential, radial_potential()):
        params = ModelParams(n)
        result = gmb_correlation(frequency_brackets(v, 1e-10), params)
        expected = per_k_loop(v, params, 1e-10)
        assert type(expected) is type(result) is IntegralResult
        assert result.value.hex() == expected.value.hex()
        assert result.error.hex() == expected.error.hex()


def test_brackets_one_integral_per_distinct_value(counted_integrals):
    v = radial_potential()
    distinct = {v.value(k) for k in v.ks}
    assert len(distinct) == 26
    table = frequency_brackets(v, 1e-10)
    # one batched call, holding each distinct coupling once
    assert len(counted_integrals) == 1
    assert len(set(counted_integrals[0])) == len(counted_integrals[0]) == 26
    for n in (33, 257):
        params = ModelParams(n)
        shared = gmb_correlation(table, params)
        assert shared == gmb_correlation(frequency_brackets(v, 1e-10), params)


def test_energy_report_with_shared_brackets(demo_potential):
    table = frequency_brackets(demo_potential, 1e-10)
    digest = potential_digest(demo_potential)
    for n in (33, 257):
        assert energy_report(n, demo_potential, table, digest) == energy_report(
            n, demo_potential, frequency_brackets(demo_potential, 1e-10), digest
        )


def test_compare_runs_one_integral_per_distinct_value(
    tmp_path, capsys, counted_integrals
):
    v = radial_potential()
    path = tmp_path / "radial.json"
    path.write_text(serialize_potential(v))
    distinct = len({v.value(k) for k in v.ks})
    # |k| <= sqrt(30) lies inside the lens domain 2 k_F from N = 257 on
    argv = ["compare", "--potential", str(path), "--n-list", "257,2109"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert len(counted_integrals) == 1
    assert len(set(counted_integrals[0])) == len(counted_integrals[0]) == distinct
    # nothing is cached across invocations: a second call integrates again
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert counted_integrals == [counted_integrals[0]] * 2
