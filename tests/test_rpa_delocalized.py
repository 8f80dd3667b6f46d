import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermi_rpa.errors import DomainError
from fermi_rpa.lattice import ModelParams, build_fermi_ball, kinetic_coefficient
from fermi_rpa.potential import make_potential
from fermi_rpa.rpa_delocalized import (
    BogoliubovKernel,
    QuadraticCoefficients,
    bosonized_functional,
    coefficient_table,
    correlation_delocalized,
    optimal_kernel,
    optimal_kernel_table,
    second_order_delocalized,
)
import fermi_rpa.rpa_delocalized as rpa_delocalized
from conftest import brute_force_ball, scaled_potential
from oracles import minimize_pair_energy


def g_of(alpha, beta):
    return lambda x: alpha * math.sinh(x) ** 2 - beta * math.sinh(x) * math.cosh(x)


def row_at(table, k):
    (row,) = [c for c in table if c.k == k]
    return row


def test_exact_coefficients_seven(ball7):
    v = make_potential({(1, 0, 0): 1.0})
    c = row_at(coefficient_table(ball7, v), (1, 0, 0))
    assert c.beta == pytest.approx(5.0 / 7.0, rel=1e-15)
    assert c.alpha == pytest.approx(7.0 ** (-2.0 / 3.0) * (7.0 / 5.0) + 5.0 / 7.0, rel=1e-15)


def test_free_coefficients_have_zero_beta(ball7):
    v = make_potential({(1, 0, 0): 0.0})
    c = row_at(coefficient_table(ball7, v), (1, 0, 0))
    assert c.beta == 0.0
    assert c.alpha > 0.0


def test_asymptotic_gap_independent_of_potential():
    params = ModelParams(2109)
    strong = make_potential({(1, 0, 0): 3.0})
    weak = make_potential({(1, 0, 0): 0.01})
    c1 = row_at(coefficient_table(params, strong), (1, 0, 0))
    c2 = row_at(coefficient_table(params, weak), (1, 0, 0))
    gap = params.hbar * (4 / (3 * math.sqrt(math.pi))) ** (2 / 3)
    assert c1.alpha - c1.beta == pytest.approx(gap, rel=1e-14)
    assert c2.alpha - c2.beta == pytest.approx(gap, rel=1e-14)


def test_table_leaves_out_zero_momentum(ball7):
    # V(0) feeds Hartree-Fock only; no table has a row at k = 0
    v = make_potential({(0, 0, 0): 1.0, (1, 0, 0): 1.0})
    for source in (ball7, ModelParams(7)):
        assert [c.k for c in coefficient_table(source, v)] == [(-1, 0, 0), (1, 0, 0)]


def test_optimal_kernel_zero_beta():
    assert optimal_kernel(QuadraticCoefficients((1, 0, 0), alpha=2.0, beta=0.0)) == 0.0


def test_optimal_kernel_tanh_inverse():
    beta_over_alpha = math.tanh(0.2)
    c = QuadraticCoefficients((1, 0, 0), alpha=1.0, beta=beta_over_alpha)
    assert optimal_kernel(c) == pytest.approx(-0.1, abs=1e-15)


def test_optimal_kernel_degenerate_boundary():
    with pytest.raises(DomainError, match=r"^\|beta\| = 1.0 >= alpha = 1.0 at k = \(1, 0, 0\)$"):
        optimal_kernel(QuadraticCoefficients((1, 0, 0), alpha=1.0, beta=1.0))
    with pytest.raises(DomainError, match=r"^\|beta\| = 1.5 >= alpha = 1.0 at k = \(1, 0, 0\)$"):
        optimal_kernel(QuadraticCoefficients((1, 0, 0), alpha=1.0, beta=1.5))


def test_minimum_energy_three_four_five():
    c = QuadraticCoefficients((1, 0, 0), alpha=5.0, beta=3.0)
    assert correlation_delocalized([c]) == pytest.approx(-0.5, rel=1e-15)


def test_minimum_energy_zero_beta():
    coeffs = [
        QuadraticCoefficients((1, 0, 0), alpha=1.0, beta=0.0),
        QuadraticCoefficients((-1, 0, 0), alpha=1.0, beta=0.0),
    ]
    assert correlation_delocalized(coeffs) == 0.0


def test_functional_vanishes_at_zero_kernel(ball7):
    v = make_potential({(1, 0, 0): 1.0})
    coeffs = coefficient_table(ball7, v)
    xi = BogoliubovKernel({c.k: 0.0 for c in coeffs})
    assert bosonized_functional(coeffs, xi) == 0.0


def test_functional_single_momentum_form():
    coeffs = [
        QuadraticCoefficients((1, 0, 0), alpha=2.0, beta=1.0),
        QuadraticCoefficients((-1, 0, 0), alpha=2.0, beta=1.0),
    ]
    x = -0.3
    xi = BogoliubovKernel({(1, 0, 0): x, (-1, 0, 0): x})
    per_momentum = 2.0 * math.sinh(x) ** 2 + 1.0 * math.sinh(x) * math.cosh(x)
    assert bosonized_functional(coeffs, xi) == pytest.approx(2 * per_momentum, rel=1e-15)
    # negative kernel values reproduce the one-variable profile at |x|
    assert per_momentum == pytest.approx(g_of(2.0, 1.0)(abs(x)), rel=1e-15)


def test_functional_missing_coefficient():
    xi = BogoliubovKernel({(1, 0, 0): 0.1, (-1, 0, 0): 0.1})
    with pytest.raises(DomainError, match=r"^no quadratic coefficients for \(-1, 0, 0\)$"):
        bosonized_functional([QuadraticCoefficients((1, 0, 0), 1.0, 0.5)], xi)


def test_functional_at_optimum_matches_minimum(ball33, demo_potential):
    coeffs = coefficient_table(ball33, demo_potential)
    xi = optimal_kernel_table(coeffs)
    assert bosonized_functional(coeffs, xi) == pytest.approx(
        correlation_delocalized(coeffs), abs=1e-12
    )


def test_minimum_below_random_perturbations(ball33, demo_potential):
    rng = np.random.default_rng(7)
    coeffs = coefficient_table(ball33, demo_potential)
    xi0 = optimal_kernel_table(coeffs)
    best = correlation_delocalized(coeffs)
    for _ in range(64):
        noise = rng.normal(scale=0.2)
        perturbed = BogoliubovKernel(
            {k: x + noise for k, x in xi0.values.items()}
        )
        assert bosonized_functional(coeffs, perturbed) >= best - 1e-12


def test_closed_form_against_golden_section():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        alpha = rng.uniform(0.1, 10.0)
        beta = rng.uniform(1e-3, 0.999) * alpha
        x_star, g_min = minimize_pair_energy(alpha, beta)
        assert x_star == pytest.approx(0.5 * math.atanh(beta / alpha), abs=1e-8)
        closed = correlation_delocalized([QuadraticCoefficients((1, 0, 0), alpha, beta)])
        assert g_min == pytest.approx(closed, abs=1e-12)


def test_minimizer_stationarity(ball33, demo_potential):
    coeffs = coefficient_table(ball33, demo_potential)
    for c in coeffs:
        x_star = abs(optimal_kernel(c))
        resid = abs(
            c.alpha * math.sinh(2 * x_star) - c.beta * math.cosh(2 * x_star)
        )
        assert resid < 1e-10 * c.alpha


def test_negativity(ball33, demo_potential):
    assert correlation_delocalized(coefficient_table(ball33, demo_potential)) < 0.0
    assert correlation_delocalized(coefficient_table(ModelParams(33), demo_potential)) < 0.0


def test_monotone_in_coupling(ball33, demo_potential):
    values = [
        correlation_delocalized(coefficient_table(ball33, scaled_potential(demo_potential, s)))
        for s in np.linspace(0.0, 3.0, 16)
    ]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_second_order_zero_potential(ball7):
    v = make_potential({(1, 0, 0): 0.0})
    assert second_order_delocalized(coefficient_table(ball7, v)) == 0.0


def test_second_order_asymptotic_prefactor(demo_potential):
    params = ModelParams(2109)
    weight = sum(
        demo_potential.value(k) ** 2 * math.sqrt(sum(c * c for c in k))
        for k in demo_potential.correlation_support()
    )
    value = second_order_delocalized(params, demo_potential)
    assert value / (-params.hbar * weight) == pytest.approx(
        (math.pi / 2.0) * (9.0 / 32.0), rel=1e-14
    )
    assert (math.pi / 2.0) * (9.0 / 32.0) == pytest.approx(9.0 * math.pi / 64.0, rel=1e-16)


def test_richardson_coupling_scaling(ball2109, demo_potential):
    # correlation_delocalized(sV)/s^2 approaches the second-order value at order >= 1 in s
    so = second_order_delocalized(coefficient_table(ball2109, demo_potential))
    scales = [2.0 ** (-j) for j in range(3, 9)]
    deviations = []
    for s in scales:
        scaled = scaled_potential(demo_potential, s)
        ratio = correlation_delocalized(coefficient_table(ball2109, scaled)) / s ** 2
        deviations.append(abs(ratio / so - 1.0))
    slope = np.polyfit([math.log(s) for s in scales], [math.log(d) for d in deviations], 1)[0]
    assert slope >= 1.0 - 0.1


@pytest.mark.parametrize("n", [7, 33, 2109, 57777])
def test_second_order_on_exact_rows_is_the_lattice_formula(n):
    # beta = V n_k^2 / N and alpha - beta = hbar^2 k.f(k)
    ball = build_fermi_ball(n)
    v = nonradial_potential(8, seed=n)
    table = coefficient_table(ball, v)
    terms = [v.value(c.k) ** 2 * c.nk2 * c.nk2 / (2.0 * c.kdotf) for c in table]
    lattice = -math.fsum(terms) / (2.0 * ModelParams(n).hbar ** 2 * n**2)
    assert second_order_delocalized(table) == pytest.approx(lattice, rel=4e-15)


def test_second_order_on_continuum_rows_is_the_closed_form(demo_potential):
    params = ModelParams(2109)
    rows = coefficient_table(params, demo_potential)
    assert second_order_delocalized(rows) == pytest.approx(
        second_order_delocalized(params, demo_potential), rel=1e-14
    )


@given(
    st.floats(0.1, 50.0, allow_nan=False),
    st.floats(0.0, 0.999, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_minimum_term_matches_naive_formula(alpha, ratio):
    beta = alpha * ratio
    stable = correlation_delocalized([QuadraticCoefficients((1, 0, 0), alpha, beta)])
    naive = 0.5 * (math.sqrt(alpha * alpha - beta * beta) - alpha)
    assert stable == pytest.approx(naive, abs=1e-13 * alpha)


def test_one_column_pass_per_orbit(monkeypatch, tmp_path, ball33, demo_potential):
    from fermi_rpa import error_budget, lattice, rpa_delocalized, rpa_optimal
    from fermi_rpa.cli import main
    from fermi_rpa.potential import serialize_potential
    from fermi_rpa.report import energy_report
    from fermi_rpa.rpa_optimal import frequency_brackets

    passes, exact_rows, continuum_rows, integrals, kernels = [], [], [], [], []
    stay_columns = lattice._stay_columns
    lattice_row = rpa_delocalized._lattice_row
    continuum_row = rpa_delocalized._continuum_row
    gmb_integral = rpa_optimal.gmb_integral
    kernel = error_budget.optimal_kernel_magnitudes

    def counted_pass(ball, k):
        passes.append(k)
        return stay_columns(ball, k)

    def counted_exact_row(v, k, kinetic, n, hbar_sq):
        exact_rows.append(k)
        return lattice_row(v, k, kinetic, n, hbar_sq)

    def counted_continuum_row(params, v, k):
        continuum_rows.append(k)
        return continuum_row(params, v, k)

    def counted_integral(values, tol):
        integrals.append(values)
        return gmb_integral(values, tol)

    def counted_kernel(v):
        kernels.append(v)
        return kernel(v)

    monkeypatch.setattr(lattice, "_stay_columns", counted_pass)
    monkeypatch.setattr(rpa_delocalized, "_lattice_row", counted_exact_row)
    monkeypatch.setattr(rpa_delocalized, "_continuum_row", counted_continuum_row)
    monkeypatch.setattr(rpa_optimal, "gmb_integral", counted_integral)
    monkeypatch.setattr(error_budget, "optimal_kernel_magnitudes", counted_kernel)
    # V(0) feeds the Hartree-Fock direct and exchange terms but needs no pass
    v = make_potential({**demo_potential.coeffs, (0, 0, 0): 0.3})
    path = tmp_path / "v.json"
    path.write_text(serialize_potential(v))
    support = v.correlation_support()
    # the distinct cubic orbits in the order the support first meets them
    orbits = list(dict.fromkeys(tuple(sorted(map(abs, k))) for k in support))
    assert orbits == [(0, 0, 1), (0, 1, 1)]
    common = ["--n", "33", "--potential", str(path)]
    runs = {
        "table": lambda: coefficient_table(ball33, v),
        "second order": lambda: second_order_delocalized(coefficient_table(ball33, v)),
        "report": lambda: energy_report(33, v, frequency_brackets(v)),
        "nk": lambda: main(["nk", *common]),
        "hf": lambda: main(["hf", *common]),
        "corr": lambda: main(["corr", *common, "--method", "delocalized-exact"]),
        "errors": lambda: main(["errors", *common, "--backend", "exact"]),
    }
    for name, run in runs.items():
        passes.clear()
        exact_rows.clear()
        continuum_rows.clear()
        run()
        assert passes == orbits, name
        # still one exact row per momentum, in support order
        assert exact_rows == support, name
        if name in ("report", "errors"):
            # and one continuum row per momentum
            assert continuum_rows == support, name

    # one bracket table per invocation, one budget kernel per budget
    compare = ["compare", "--potential", str(path), "--n-list"]
    table_runs = [
        (["corr", *common, "--method", "optimal"], 1, 0),
        ([*compare, "33"], 1, 1),
        ([*compare, "33,257,2109", "--format", "json"], 1, 3),
        (["errors", *common, "--backend", "exact"], 0, 1),
        (["errors", *common], 0, 1),
    ]
    for argv, n_integrals, n_kernels in table_runs:
        integrals.clear()
        kernels.clear()
        assert main(argv) == 0, argv
        assert (len(integrals), len(kernels)) == (n_integrals, n_kernels), argv


def nonradial_potential(radius_sq, seed):
    """One random V per +-k pair on |k|^2 <= radius_sq, so no two orbit members agree."""
    rng = random.Random(seed)
    r = math.isqrt(radius_sq)
    span = range(-r, r + 1)
    entries = {
        (x, y, z): rng.uniform(0.005, 0.05)
        for x in span
        for y in span
        for z in span
        if 0 < x * x + y * y + z * z <= radius_sq and (x, y, z) > (0, 0, 0)
    }
    return make_potential(entries, support_radius_sq=radius_sq)


@pytest.mark.parametrize("n", [33, 2109, 57777])
def test_orbit_table_equals_per_momentum_rows(n):
    ball = build_fermi_ball(n)
    v = nonradial_potential(30, seed=n)
    support = v.correlation_support()
    assert len(support) == 738
    table = coefficient_table(ball, v)
    assert [c.k for c in table] == support
    # the reference makes one lattice count per momentum
    hbar_sq = ModelParams(n).hbar ** 2
    reference = []
    for k in support:
        kinetic = kinetic_coefficient(ball, k)
        beta = v.value(k) * kinetic.count / n
        alpha = hbar_sq * kinetic.kdotf + beta
        reference.append(QuadraticCoefficients(k, alpha, beta, kinetic.count, kinetic.kdotf))
    # every field bit for bit (repr round-trips floats), and the count an exact int
    assert [repr(c) for c in table] == [repr(c) for c in reference]
    assert all(type(c.nk2) is int for c in table)


@pytest.mark.parametrize("radius_sq", [1, 2, 3, 5])
def test_orbit_table_against_brute_force(radius_sq):
    pts = brute_force_ball(radius_sq)
    members = set(pts)
    ball = build_fermi_ball(len(pts))
    v = nonradial_potential(8, seed=radius_sq)
    hbar_sq = ModelParams(ball.n).hbar ** 2
    for c in coefficient_table(ball, v):
        k = c.k
        count = sum((h[0] + k[0], h[1] + k[1], h[2] + k[2]) not in members for h in pts)
        assert c.nk2 == count
        assert c.kdotf == ball.n * (k[0] ** 2 + k[1] ** 2 + k[2] ** 2) / count
        assert c.beta == v.value(k) * count / ball.n
        assert c.alpha == hbar_sq * c.kdotf + c.beta
