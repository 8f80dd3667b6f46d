import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermi_rpa.errors import DomainError, NumericalFailure
from fermi_rpa.lattice import ModelParams, build_fermi_ball
from fermi_rpa.potential import load_potential, make_potential
from fermi_rpa.rpa_delocalized import (
    coefficient_table,
    correlation_delocalized,
    second_order_delocalized,
)
from conftest import brute_force_ball, load_perfbench, scaled_potential
from oracles import (
    bosonized_functional,
    coefficient_rows,
    hand_table,
    minimize_pair_energy,
    nonzero_support,
    optimal_kernel,
    table_rows,
)


def g_of(alpha, beta):
    return lambda x: alpha * math.sinh(x) ** 2 - beta * math.sinh(x) * math.cosh(x)


def row_at(table, k):
    """(alpha, beta) of the row at k."""
    i = table.ks.index(k)
    return table.alpha[i], table.beta[i]


def test_exact_coefficients_seven(ball7):
    v = make_potential({(1, 0, 0): 1.0})
    alpha, beta = row_at(coefficient_table(ball7, v), (1, 0, 0))
    assert beta == pytest.approx(5.0 / 7.0, rel=1e-15)
    assert alpha == pytest.approx(7.0 ** (-2.0 / 3.0) * (7.0 / 5.0) + 5.0 / 7.0, rel=1e-15)


def test_free_coefficients_have_zero_beta(ball7):
    v = make_potential({(1, 0, 0): 0.0})
    alpha, beta = row_at(coefficient_table(ball7, v), (1, 0, 0))
    assert beta == 0.0
    assert alpha > 0.0


def test_asymptotic_gap_independent_of_potential():
    params = ModelParams(2109)
    strong = make_potential({(1, 0, 0): 3.0})
    weak = make_potential({(1, 0, 0): 0.01})
    alpha1, beta1 = row_at(coefficient_table(params, strong), (1, 0, 0))
    alpha2, beta2 = row_at(coefficient_table(params, weak), (1, 0, 0))
    gap = params.hbar * (4 / (3 * math.sqrt(math.pi))) ** (2 / 3)
    assert alpha1 - beta1 == pytest.approx(gap, rel=1e-14)
    assert alpha2 - beta2 == pytest.approx(gap, rel=1e-14)


def test_table_leaves_out_zero_momentum(ball7):
    # V(0) feeds Hartree-Fock only; no table has a row at k = 0
    v = make_potential({(0, 0, 0): 1.0, (1, 0, 0): 1.0})
    for source in (ball7, ModelParams(7)):
        assert coefficient_table(source, v).ks == ((-1, 0, 0), (1, 0, 0))


def test_optimal_kernel_zero_beta():
    assert optimal_kernel(hand_table(((1, 0, 0), 2.0, 0.0))) == [0.0]


def test_optimal_kernel_tanh_inverse():
    beta_over_alpha = math.tanh(0.2)
    (x,) = optimal_kernel(hand_table(((1, 0, 0), 1.0, beta_over_alpha)))
    assert x == pytest.approx(-0.1, abs=1e-15)


def test_optimal_kernel_degenerate_boundary():
    with pytest.raises(DomainError, match=r"^\|beta\| = 1.0 >= alpha = 1.0 at k = \(1, 0, 0\)$"):
        optimal_kernel(hand_table(((1, 0, 0), 1.0, 1.0)))
    with pytest.raises(DomainError, match=r"^\|beta\| = 1.5 >= alpha = 1.0 at k = \(1, 0, 0\)$"):
        optimal_kernel(hand_table(((1, 0, 0), 1.0, 1.5)))


def test_minimum_energy_three_four_five():
    assert correlation_delocalized(hand_table(((1, 0, 0), 5.0, 3.0))) == pytest.approx(
        -0.5, rel=1e-15
    )


def test_minimum_energy_zero_beta():
    coeffs = hand_table(((1, 0, 0), 1.0, 0.0), ((-1, 0, 0), 1.0, 0.0))
    assert correlation_delocalized(coeffs) == 0.0


def test_functional_vanishes_at_zero_kernel(ball7):
    v = make_potential({(1, 0, 0): 1.0})
    coeffs = coefficient_table(ball7, v)
    assert bosonized_functional(coeffs, [0.0] * len(coeffs.ks)) == 0.0


def test_functional_single_momentum_form():
    coeffs = hand_table(((1, 0, 0), 2.0, 1.0), ((-1, 0, 0), 2.0, 1.0))
    x = -0.3
    xi = [x, x]
    per_momentum = 2.0 * math.sinh(x) ** 2 + 1.0 * math.sinh(x) * math.cosh(x)
    assert bosonized_functional(coeffs, xi) == pytest.approx(2 * per_momentum, rel=1e-15)
    # negative kernel values reproduce the one-variable profile at |x|
    assert per_momentum == pytest.approx(g_of(2.0, 1.0)(abs(x)), rel=1e-15)


def test_functional_missing_coefficient():
    with pytest.raises(DomainError, match=r"^2 kernel values for 1 coefficient rows$"):
        bosonized_functional(hand_table(((1, 0, 0), 1.0, 0.5)), [0.1, 0.1])


def test_functional_at_optimum_matches_minimum(ball33, demo_potential):
    coeffs = coefficient_table(ball33, demo_potential)
    xi = optimal_kernel(coeffs)
    assert bosonized_functional(coeffs, xi) == pytest.approx(
        correlation_delocalized(coeffs), abs=1e-12
    )


def test_minimum_below_random_perturbations(ball33, demo_potential):
    rng = np.random.default_rng(7)
    coeffs = coefficient_table(ball33, demo_potential)
    xi0 = optimal_kernel(coeffs)
    best = correlation_delocalized(coeffs)
    for _ in range(64):
        noise = rng.normal(scale=0.2)
        perturbed = [x + noise for x in xi0]
        assert bosonized_functional(coeffs, perturbed) >= best - 1e-12


def test_closed_form_against_golden_section():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        alpha = rng.uniform(0.1, 10.0)
        beta = rng.uniform(1e-3, 0.999) * alpha
        x_star, g_min = minimize_pair_energy(alpha, beta)
        assert x_star == pytest.approx(0.5 * math.atanh(beta / alpha), abs=1e-8)
        closed = correlation_delocalized(hand_table(((1, 0, 0), alpha, beta)))
        assert g_min == pytest.approx(closed, abs=1e-12)


def test_minimizer_stationarity(ball33, demo_potential):
    coeffs = coefficient_table(ball33, demo_potential)
    for x, alpha, beta in zip(optimal_kernel(coeffs), coeffs.alpha, coeffs.beta):
        x_star = abs(x)
        resid = abs(alpha * math.sinh(2 * x_star) - beta * math.cosh(2 * x_star))
        assert resid < 1e-10 * alpha


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
        for k in demo_potential.ks
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
    terms = [
        v.value(k) ** 2 * nk2 * nk2 / (2.0 * kdotf)
        for k, _, _, nk2, kdotf in table_rows(table)
    ]
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
    stable = correlation_delocalized(hand_table(((1, 0, 0), alpha, beta)))
    naive = 0.5 * (math.sqrt(alpha * alpha - beta * beta) - alpha)
    assert stable == pytest.approx(naive, abs=1e-13 * alpha)


def test_one_column_pass_per_orbit(monkeypatch, tmp_path, ball33, demo_potential):
    from fermi_rpa import error_budget, lattice, report, rpa_delocalized, rpa_optimal
    from fermi_rpa.cli import main
    from fermi_rpa.potential import serialize_potential
    from fermi_rpa.report import energy_report, potential_digest
    from fermi_rpa.rpa_optimal import frequency_brackets

    passes, tables, integrals, kernels = [], [], [], []
    stay_count = lattice._stay_count
    table_builder = rpa_delocalized.coefficient_table
    gmb_integral = rpa_optimal.gmb_integral
    kernel = error_budget._kernel

    def counted_pass(ball, k):
        passes.append(k)
        return stay_count(ball, k)

    def counted_table(source, v):
        table = table_builder(source, v)
        tables.append((isinstance(source, ModelParams), table.ks))
        return table

    def counted_integral(values, tol):
        integrals.append(values)
        return gmb_integral(values, tol)

    def counted_kernel(v):
        kernels.append(v)
        return kernel(v)

    monkeypatch.setattr(lattice, "_stay_count", counted_pass)
    # cli calls the builder through its module; report binds its own name
    monkeypatch.setattr(rpa_delocalized, "coefficient_table", counted_table)
    monkeypatch.setattr(report, "coefficient_table", counted_table)
    monkeypatch.setattr(rpa_optimal, "gmb_integral", counted_integral)
    monkeypatch.setattr(error_budget, "_kernel", counted_kernel)
    # V(0) feeds the Hartree-Fock direct and exchange terms but needs no pass
    v = make_potential({**demo_potential.coeffs, (0, 0, 0): 0.3})
    path = tmp_path / "v.json"
    path.write_text(serialize_potential(v))
    support = v.ks
    # the distinct cubic orbits in the order the support first meets them
    orbits = list(dict.fromkeys(tuple(sorted(map(abs, k))) for k in support))
    assert orbits == [(0, 0, 1), (0, 1, 1)]
    common = ["--n", "33", "--potential", str(path)]
    runs = {
        "table": lambda: rpa_delocalized.coefficient_table(ball33, v),
        "second order": lambda: second_order_delocalized(
            rpa_delocalized.coefficient_table(ball33, v)
        ),
        "report": lambda: energy_report(33, v, frequency_brackets(v), potential_digest(v)),
        "nk": lambda: main(["nk", *common]),
        "hf": lambda: main(["hf", *common]),
        "corr": lambda: main(["corr", *common, "--method", "delocalized-exact"]),
        "errors": lambda: main(["errors", *common, "--backend", "exact"]),
    }
    for name, run in runs.items():
        passes.clear()
        tables.clear()
        run()
        assert passes == orbits, name
        # one exact table over the support, and a continuum table only
        # where the budget's signal needs one
        continuum = [support] if name in ("report", "errors") else []
        assert [ks for is_continuum, ks in tables if not is_continuum] == [support], name
        assert [ks for is_continuum, ks in tables if is_continuum] == continuum, name

    # one bracket table per invocation, one budget kernel per potential
    compare = ["compare", "--potential", str(path), "--n-list"]
    table_runs = [
        (["corr", *common, "--method", "optimal"], 1, 0),
        ([*compare, "33"], 1, 1),
        ([*compare, "33,257,2109", "--format", "json"], 1, 1),
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
    support = nonzero_support(v)
    assert len(support) == 738
    table = coefficient_table(ball, v)
    assert list(table.ks) == support
    # the reference makes one lattice count per momentum; every column bit for bit
    assert table_rows(table) == coefficient_rows(ball, v)


@pytest.mark.parametrize("radius_sq", [1, 2, 3, 5])
def test_orbit_table_against_brute_force(radius_sq):
    pts = brute_force_ball(radius_sq)
    members = set(pts)
    ball = build_fermi_ball(len(pts))
    v = nonradial_potential(8, seed=radius_sq)
    hbar_sq = ModelParams(ball.n).hbar ** 2
    for k, alpha, beta, nk2, kdotf in table_rows(coefficient_table(ball, v)):
        count = sum((h[0] + k[0], h[1] + k[1], h[2] + k[2]) not in members for h in pts)
        assert nk2 == count
        assert kdotf == ball.n * (k[0] ** 2 + k[1] ** 2 + k[2] ** 2) / count
        assert beta == v.value(k) * count / ball.n
        assert alpha == hbar_sq * kdotf + beta


@pytest.fixture(scope="module")
def benchmark_potentials(tmp_path_factory):
    """The potential documents of the radial and non-radial benchmark workloads, seed 1."""
    workloads = load_perfbench("workloads")
    documents = []
    for name in ("radial-sweep", "lattice-bulk"):
        directory = tmp_path_factory.mktemp(name)
        workloads.make_workload(name, 1, directory)
        (path,) = directory.glob("*.json")
        documents.append(load_potential(path))
    return documents


@pytest.mark.parametrize("n", [257, 57777])
@pytest.mark.parametrize("exact", [True, False], ids=["FermiBall", "ModelParams"])
def test_columns_equal_the_per_row_python_floats(benchmark_potentials, n, exact):
    source = build_fermi_ball(n) if exact else ModelParams(n)
    for v in benchmark_potentials:
        table = coefficient_table(source, v)
        assert table.source is source
        assert table_rows(table) == coefficient_rows(source, v)


def test_columns_equal_the_per_row_python_floats_at_a_huge_momentum(tmp_path):
    # |k|^2 = 10^300 still fits a double; the ball's count at k is all of N
    path = tmp_path / "v.json"
    path.write_text(
        '{"support_radius_sq": %d, "coeffs": [{"k": [%d, 0, 0], "v": 0.1}, '
        '{"k": [1, 1, 0], "v": 0.2}]}' % (10**300, 10**150)
    )
    v = load_potential(path)
    ball = build_fermi_ball(257)
    rows = coefficient_rows(ball, v)
    assert table_rows(coefficient_table(ball, v)) == rows
    assert [nk2 for k, _, _, nk2, _ in rows if abs(k[0]) == 10**150] == [257, 257]
    # the continuum forms end at the lens domain, before the huge momentum
    with pytest.raises(DomainError, match=r"^\|k\| = 1e\+150 exceeds the lens-formula domain"):
        coefficient_table(ModelParams(257), v)


def test_second_order_of_a_kinetic_term_lost_to_rounding_fails_like_the_minimum(ball2109):
    # V = 1e18 makes alpha == beta after rounding, so alpha - beta is 0
    table = coefficient_table(ball2109, make_potential({(1, 0, 0): 1e18}))
    message = r"^alpha - beta = hbar\^2 k.f\(k\) > 0 is lost to rounding at k = \(-1, 0, 0\)"
    for reader in (correlation_delocalized, second_order_delocalized, optimal_kernel):
        with pytest.raises(NumericalFailure, match=message):
            reader(table)
