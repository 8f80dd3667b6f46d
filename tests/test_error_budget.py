import math

import numpy as np
import pytest

from fermi_rpa.error_budget import (
    C_SMALL,
    a_constants,
    assemble_error_budget,
    particle_number_constant,
)
from fermi_rpa.errors import DomainError
from fermi_rpa.lattice import ModelParams
from fermi_rpa.potential import make_potential
from fermi_rpa.rpa_delocalized import coefficient_table
from conftest import scaled_potential
from oracles import optimal_kernel, optimal_kernel_magnitudes


def test_c_small_value():
    assert C_SMALL == pytest.approx(4.0 * (9.0 * math.pi / 16.0) ** (2.0 / 3.0), rel=1e-16)


def test_a_constants_zero_potential_counts_support():
    v = make_potential({(1, 0, 0): 0.0})
    a1, a2, a3, a4, a5 = a_constants(v)
    assert (a1, a2, a3, a4) == (0.0, 0.0, 0.0, 0.0)
    assert a5 == 2.0  # two unit modes at |k| = 1


def test_a_constants_single_pair():
    v = make_potential({(1, 0, 0): 1.0})
    a1, *_ = a_constants(v)
    assert a1 == pytest.approx(2.0 * math.log(1.0 + C_SMALL), rel=1e-15)


def test_a_constants_monotone_in_coupling(demo_potential):
    grid = np.linspace(0.1, 2.0, 8)
    prev = None
    for s in grid:
        values = a_constants(scaled_potential(demo_potential, float(s)))
        if prev is not None:
            assert all(b >= a - 1e-15 for a, b in zip(prev, values))
        prev = values


def test_a_constants_domain_error():
    v = make_potential({(1, 0, 0): -0.5})  # 1 + c*V < 0
    with pytest.raises(DomainError):
        a_constants(v)


def test_kernel_zero_potential():
    v = make_potential({(1, 0, 0): 0.0})
    xi = optimal_kernel_magnitudes(v)
    assert xi == [0.0, 0.0]


def test_kernel_exponent_identity(demo_potential):
    xi = optimal_kernel_magnitudes(demo_potential)
    for k, x in zip(demo_potential.ks, xi, strict=True):
        lhs = math.exp(2.0 * abs(x))
        rhs = math.sqrt(1.0 + C_SMALL * demo_potential.value(k))
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_kernel_exact_backend_shares_minimizer_path(ball7):
    # the lattice kernel is the minimizer of each row, not a budget code path:
    # the row's -(1/4)(log1p(t) - log1p(-t)), t = beta/alpha, on Python floats
    v = make_potential({(1, 0, 0): 1.0})
    table = coefficient_table(ball7, v)
    rows = zip(table.alpha.tolist(), table.beta.tolist())
    by_row = [-0.25 * (math.log1p(b / a) - math.log1p(-b / a)) for a, b in rows]
    assert optimal_kernel(table) == by_row


def test_budget_kernel_is_not_the_continuum_minimizer():
    # the closed-form budget kernel uses c; the continuum minimizer has c/2
    v = make_potential({(1, 0, 0): 0.05})
    params = ModelParams(33)
    # the support is [(-1, 0, 0), (1, 0, 0)]
    budget_kernel = optimal_kernel_magnitudes(v)[1]
    minimizer = optimal_kernel(coefficient_table(params, v))[1]
    assert budget_kernel == pytest.approx(-0.25 * math.log1p(C_SMALL * 0.05), rel=1e-15)
    assert minimizer == pytest.approx(-0.25 * math.log1p(0.5 * C_SMALL * 0.05), rel=1e-13)
    assert round(budget_kernel, 4) == -0.0641 and round(minimizer, 4) == -0.0341


def test_particle_number_constant_values():
    assert particle_number_constant([0.0, 0.0], 3) == 0.0
    unit = [0.5, -0.5]  # sum |X| = 1
    assert particle_number_constant(unit, 3) == pytest.approx(3000.0, rel=1e-15)


def test_particle_number_constant_750_a1(demo_potential):
    a1, *_ = a_constants(demo_potential)
    xi = optimal_kernel_magnitudes(demo_potential)
    assert particle_number_constant(xi, 3) == pytest.approx(750.0 * a1, rel=1e-13)


def continuum_budget(v, n):
    table = coefficient_table(ModelParams(n), v)
    return assemble_error_budget(table, table, v)


def test_bounds_zero_potential():
    bounds = continuum_budget(make_potential({(1, 0, 0): 0.0}), 33)
    assert bounds.log_eps1_bound == -math.inf
    assert bounds.log_eps2_bound == -math.inf
    assert bounds.log_quartic_bound == -math.inf
    assert bounds.log_total == -math.inf


def test_total_is_sum_of_parts(weak_potential):
    bounds = continuum_budget(weak_potential, 257)
    recombined = np.logaddexp.reduce(
        [bounds.log_eps1_bound, math.log(2.0) + bounds.log_eps2_bound, bounds.log_quartic_bound]
    )
    assert bounds.log_total == pytest.approx(recombined, abs=1e-13)


def test_total_times_n_stable_across_shells(weak_potential):
    logs = []
    for radius_sq in (4, 16, 64, 256, 1024):
        from fermi_rpa.lattice import closed_shell_sizes

        n = dict(closed_shell_sizes(radius_sq))[radius_sq]
        logs.append(continuum_budget(weak_potential, n).log_total_times_n)
    assert max(logs) - min(logs) < math.log(1.1)


def test_bounds_monotone_in_coupling(weak_potential):
    prev = None
    for s in np.linspace(0.5, 3.0, 6):
        b = continuum_budget(scaled_potential(weak_potential, float(s)), 257)
        current = (b.log_eps1_bound, b.log_eps2_bound, b.log_quartic_bound)
        if prev is not None:
            assert all(y >= x - 1e-12 for x, y in zip(prev, current))
        prev = current


def test_exact_backend_runs(ball33, weak_potential):
    exact = coefficient_table(ball33, weak_potential)
    continuum = coefficient_table(ModelParams(33), weak_potential)
    bounds = assemble_error_budget(exact, continuum, weak_potential)
    assert math.isfinite(bounds.log_total)
    assert bounds.n == 33


def test_budget_reads_the_table_of_its_own_potential(ball33, weak_potential):
    # the columns are read by position, so a table over another support is refused
    other = make_potential({(1, 1, 0): 1e-4})
    continuum = coefficient_table(ModelParams(33), weak_potential)
    with pytest.raises(DomainError, match="^the coefficient table is not over the support"):
        assemble_error_budget(coefficient_table(ball33, other), continuum, weak_potential)


def test_budget_reports_crossover(demo_potential):
    continuum = coefficient_table(ModelParams(257), demo_potential)
    budget = assemble_error_budget(continuum, continuum, demo_potential)
    # worst-case constants: certification crossover far beyond desk scale
    assert budget.log_crossover_n > math.log(1e12)
    # at desk scale the bound exceeds the signal
    assert budget.log_total > budget.log_signal
    payload = budget._asdict()
    assert set(payload) == {
        "a_constants",
        "c_small",
        "c_n",
        "log_eps1_bound",
        "log_eps2_bound",
        "log_quartic_bound",
        "log_total",
        "log_total_times_n",
        "log_signal",
        "log_crossover_n",
        "n",
    }
    assert payload["a_constants"] == a_constants(demo_potential)
    assert set(payload["c_n"]) == {"1", "2", "3"}
