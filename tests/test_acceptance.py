"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Every tolerance is fixed here, not calibrated elsewhere.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from fermi_rpa import second_order_ratio
from fermi_rpa.error_budget import assemble_error_budget
from fermi_rpa.fock_oracle import (
    apply_c_create,
    apply_h0,
    apply_pair_annihilate,
    apply_pair_create,
    build_mode_set,
    integer_trials,
    state_norm_sq,
    vacuum,
    verify_almost_ccr,
)
from fermi_rpa.hf import hf_energy
from fermi_rpa.lattice import (
    ModelParams,
    build_fermi_ball,
    closed_shell_sizes,
    kinetic_coefficient,
    kinetic_coefficient_asymptotic,
    lune_count,
    nk_asymptotic,
    norm_sq,
)
from fermi_rpa.potential import make_potential
from fermi_rpa.quadrature import integrate_adaptive
from fermi_rpa.rpa_delocalized import (
    coefficient_table,
    correlation_delocalized,
    second_order_delocalized,
)
from fermi_rpa.rpa_optimal import (
    _inner_factor,
    frequency_brackets,
    gmb_correlation,
    second_order_optimal,
)

from conftest import scaled_potential
from oracles import amplitudes, hand_table, minimize_pair_energy

# extended-precision reference for (9/32)/(1 - log 2), frozen from a
# 40-digit evaluation
RATIO_REFERENCE = 0.916563193107448909105664256634778


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {num} PASS: {description}")


def support_weight(v):
    return math.fsum(
        v.value(k) ** 2 * math.sqrt(norm_sq(k)) for k in v.ks
    )


def test_criterion_1_ratio():
    with criterion(1, "second-order ratio matches extended-precision digits"):
        start = time.perf_counter()
        value = second_order_ratio()
        elapsed = time.perf_counter() - start
        assert abs(value - RATIO_REFERENCE) < 1e-12
        assert elapsed < 1e-3


def test_criterion_2_second_order_prefactors(demo_potential):
    with criterion(2, "second-order prefactors (pi/2)(9/32) and (pi/2)(1-log2)"):
        params = ModelParams(2109)
        weight = support_weight(demo_potential)
        deloc = second_order_delocalized(params, demo_potential)
        opt = second_order_optimal(demo_potential, params)
        assert abs(
            deloc / (-params.hbar * weight) - (math.pi / 2.0) * (9.0 / 32.0)
        ) < 1e-12
        assert abs(
            opt / (-params.hbar * weight) - (math.pi / 2.0) * (1.0 - math.log(2.0))
        ) < 1e-12


def test_criterion_3_quadrature_identities():
    with criterion(3, "frequency-integral identities pi/4 and pi(1-log2)/3"):
        start = time.perf_counter()
        cutoff = 4e8  # tail of the linear integrand below 1/(3 cutoff) < 1e-9
        (linear,) = integrate_adaptive(
            lambda nodes: _inner_factor(nodes.x), 1, 0.0, cutoff, 1e-9
        )
        assert abs(linear.value / math.pi - 0.25) < 1e-8
        cutoff_sq = 500.0  # tail of the squared integrand below 1/(27 cutoff^3)
        (squared,) = integrate_adaptive(
            lambda nodes: _inner_factor(nodes.x) ** 2, 1, 0.0, cutoff_sq, 1e-9
        )
        assert abs(squared.value - math.pi * (1.0 - math.log(2.0)) / 3.0) < 1e-8
        assert time.perf_counter() - start < 1.0


def test_criterion_4_small_coupling_consistency(demo_potential, ball2109):
    with criterion(4, "both correlation energies meet their second order as s -> 0"):
        start = time.perf_counter()
        params = ModelParams(2109)
        scales = [2.0 ** (-j) for j in range(3, 9)]

        gmb_dev, deloc_dev = [], []
        for s in scales:
            scaled = scaled_potential(demo_potential, s)
            gmb_dev.append(
                abs(
                    gmb_correlation(frequency_brackets(scaled, 1e-15), params).value
                    / second_order_optimal(scaled, params)
                    - 1.0
                )
            )
            table = coefficient_table(ball2109, scaled)
            deloc_dev.append(
                abs(correlation_delocalized(table) / second_order_delocalized(table) - 1.0)
            )
        logs = [math.log(s) for s in scales]
        gmb_order = np.polyfit(logs, [math.log(d) for d in gmb_dev], 1)[0]
        deloc_order = np.polyfit(logs, [math.log(d) for d in deloc_dev], 1)[0]
        assert gmb_order >= 0.9, f"observed order {gmb_order}"
        assert deloc_order >= 0.9, f"observed order {deloc_order}"
        # deviation bounded by C*s with a finite constant
        assert max(d / s for d, s in zip(gmb_dev, scales)) < 10.0
        assert max(d / s for d, s in zip(deloc_dev, scales)) < 10.0
        assert time.perf_counter() - start < 30.0


def test_criterion_5_closed_form_minimizer():
    with criterion(5, "closed-form minimizer agrees with numeric minimization"):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            alpha = rng.uniform(0.1, 10.0)
            beta = rng.uniform(1e-3, 0.999) * alpha
            x_numeric, value_numeric = minimize_pair_energy(alpha, beta)
            assert abs(x_numeric - 0.5 * math.atanh(beta / alpha)) < 1e-8
            closed = correlation_delocalized(hand_table(((1, 0, 0), alpha, beta)))
            assert abs(value_numeric - closed) < 1e-12


def test_criterion_6_lattice_asymptotics():
    with criterion(6, "lattice counts approach continuum forms along the shells"):
        start = time.perf_counter()
        k = (1, 0, 0)
        nk_err, kf_err = [], []
        for radius_sq in (4, 16, 64, 256, 1024):
            n = dict(closed_shell_sizes(radius_sq))[radius_sq]
            ball = build_fermi_ball(n)
            params = ModelParams(n)
            nk_err.append(
                abs(
                    math.sqrt(lune_count(ball, k)) / nk_asymptotic(params, k)
                    - 1.0
                )
            )
            kf_err.append(
                abs(
                    kinetic_coefficient(ball, k)[1]
                    / kinetic_coefficient_asymptotic(params, k)
                    - 1.0
                )
            )
        assert nk_err[-1] < 0.03
        assert kf_err[-1] < 0.03
        assert time.perf_counter() - start < 120.0
        assert all(
            a > b for a, b in zip(nk_err, nk_err[1:])
        ), f"lune-norm errors not strictly decreasing: {nk_err}"
        assert all(
            a > b for a, b in zip(kf_err, kf_err[1:])
        ), f"kinetic-coefficient errors not strictly decreasing: {kf_err}"


def test_criterion_7_fock_oracle_exactness():
    with criterion(7, "exact truncated-model operator identities at N=7"):
        start = time.perf_counter()
        modes = build_mode_set(7, 2)
        params = ModelParams(7)
        k = (1, 0, 0)

        # (a) squared vacuum norm equals the truncated lune count exactly
        for probe in [k, (0, 1, 0), (1, 1, 0)]:
            state = apply_pair_create(vacuum(), probe, modes, cap=2)
            assert state_norm_sq(state) == float(modes.lune_size(probe))

        # (b) commutator-error ratio within the rigorous bound
        xi = integer_trials(modes, 2, 100, 42)
        report = verify_almost_ccr(modes, k, k, xi, seed=42, max_pairs=2)
        assert report.violations == []
        assert report.max_ratio <= 1.0 + 1e-12

        # (c) kinetic commutator on the vacuum, amplitude by amplitude
        created = apply_pair_create(vacuum(), k, modes, cap=2, normalized=True)
        lhs = amplitudes(apply_h0(created, modes, params))
        comps = apply_c_create(vacuum(), k, modes, cap=2, normalized=True)
        rhs = {}
        for i in range(3):
            if k[i] == 0:
                continue
            for cfg, amp in amplitudes(comps[i]).items():
                rhs[cfg] = rhs.get(cfg, 0j) + params.hbar ** 2 * k[i] * amp
        assert set(lhs) == set(rhs)
        for cfg, amp in lhs.items():
            assert abs(amp - rhs[cfg]) <= 1e-13

        # (d) [c*_k, b_k] vacuum = -f_trunc(k) vacuum
        mk = modes.lune_size(k)
        fvec = modes.pair_vector_sum(k)
        cstar = apply_c_create(vacuum(), k, modes, cap=3, normalized=True)
        for i in range(3):
            second = amplitudes(apply_pair_annihilate(cstar[i], k, modes, normalized=True))
            expected = -fvec[i] / mk
            got = -second.get(0, 0j)
            assert abs(got - expected) <= 1e-13
            for cfg, amp in second.items():
                if cfg != 0:
                    assert abs(amp) <= 1e-13

        assert time.perf_counter() - start < 10.0


def test_criterion_8_error_budget_scaling(weak_potential):
    with criterion(8, "certified bound scales as 1/N across the shell grid"):
        logs = []
        for radius_sq in (4, 16, 64, 256, 1024):
            n = dict(closed_shell_sizes(radius_sq))[radius_sq]
            table = coefficient_table(ModelParams(n), weak_potential)
            budget = assemble_error_budget(table, table, weak_potential)
            logs.append(budget.log_total_times_n)
        assert max(logs) - min(logs) < 0.2, f"log spread {max(logs) - min(logs)}"


def test_criterion_9_hf_density_limit():
    with criterion(9, "kinetic energy per particle approaches the continuum density"):
        limit = (4.0 * math.pi / 5.0) * (3.0 / (4.0 * math.pi)) ** (5.0 / 3.0)
        v = make_potential({(0, 0, 0): 0.0})
        n = dict(closed_shell_sizes(256))[256]
        ball = build_fermi_ball(n)
        energy = hf_energy(coefficient_table(ball, v), v)
        assert abs(energy.kinetic / n / limit - 1.0) < 0.02
