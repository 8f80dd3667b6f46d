import math

import pytest

from fermi_rpa.errors import DomainError
from fermi_rpa.hf import hf_energy
from fermi_rpa.lattice import (
    ModelParams,
    _expand_columns,
    build_fermi_ball,
    closed_shell_sizes,
    norm_sq,
)
from fermi_rpa.potential import make_potential
from fermi_rpa.rpa_delocalized import coefficient_table

from conftest import brute_force_ball


def test_single_mode_free():
    ball = build_fermi_ball(1)
    v = make_potential({(0, 0, 0): 0.0})
    energy = hf_energy(coefficient_table(ball, v), v)
    assert (energy.kinetic, energy.direct, energy.exchange, energy.total) == (
        0.0,
        0.0,
        0.0,
        0.0,
    )


def test_single_mode_contact():
    # one plane wave: the double sums collapse to V(0), so direct cancels exchange
    ball = build_fermi_ball(1)
    v = make_potential({(0, 0, 0): 1.0})
    energy = hf_energy(coefficient_table(ball, v), v)
    assert energy.kinetic == 0.0
    assert energy.direct == 1.0
    assert energy.exchange == 1.0
    assert energy.total == 0.0


def test_shape_mismatch():
    # the exchange reads stay counts only from an exact table over v's support
    ball = build_fermi_ball(7)
    v = make_potential({(0, 0, 0): 1.0, (1, 0, 0): 0.5})
    continuum = coefficient_table(ModelParams(7), v)
    with pytest.raises(DomainError, match=r"^Hartree-Fock reads the exact coefficient table of a "):
        hf_energy(continuum, v)
    other = coefficient_table(ball, make_potential({(0, 0, 0): 1.0, (0, 1, 0): 0.5}))
    with pytest.raises(DomainError, match=r"^the coefficient table is not over the support of "):
        hf_energy(other, v)


def test_exchange_double_sum_brute_force(demo_potential):
    ball = build_fermi_ball(33)
    pts = brute_force_ball(ball.shell_radius_sq)
    expected = (
        sum(
            demo_potential.value(
                (h[0] - g[0], h[1] - g[1], h[2] - g[2])
            )
            for h in pts
            for g in pts
        )
        / ball.n
    )
    energy = hf_energy(coefficient_table(ball, demo_potential), demo_potential)
    assert energy.exchange == pytest.approx(expected, rel=1e-13)


def test_exchange_symmetric_in_reversal(demo_potential, ball33):
    # reversing the potential-support iteration cannot move the compensated sum
    energy = hf_energy(coefficient_table(ball33, demo_potential), demo_potential)
    flipped = make_potential(
        dict(reversed(list(demo_potential.coeffs.items()))),
        support_radius_sq=demo_potential.support_radius_sq,
    )
    again = hf_energy(coefficient_table(ball33, flipped), flipped)
    assert energy.exchange == again.exchange


def test_half_prefactor_switch(demo_potential, ball33):
    table = coefficient_table(ball33, demo_potential)
    full = hf_energy(table, demo_potential)
    half = hf_energy(table, demo_potential, half_prefactor=True)
    assert half.direct == pytest.approx(0.5 * full.direct, rel=1e-15)
    assert half.exchange == pytest.approx(0.5 * full.exchange, rel=1e-15)
    assert half.kinetic == full.kinetic


def test_kinetic_density_limit():
    limit = (4 * math.pi / 5) * (3 / (4 * math.pi)) ** (5 / 3)
    v = make_potential({(0, 0, 0): 0.0})
    rel_errors = []
    for radius_sq in (4, 16, 64, 256):
        n = dict(closed_shell_sizes(radius_sq))[radius_sq]
        ball = build_fermi_ball(n)
        energy = hf_energy(coefficient_table(ball, v), v)
        rel_errors.append(abs(energy.kinetic / n / limit - 1.0))
    assert rel_errors[-1] < 0.02
    assert rel_errors[-1] < rel_errors[0]


def test_exchange_is_lower_order(demo_potential):
    ratios = []
    for radius_sq in (4, 16, 64):
        n = dict(closed_shell_sizes(radius_sq))[radius_sq]
        ball = build_fermi_ball(n)
        energy = hf_energy(coefficient_table(ball, demo_potential), demo_potential)
        ratios.append(energy.exchange / n)
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[-1] < 0.01


def test_kinetic_is_hbar2_times_shell_sum(ball33):
    v = make_potential({(0, 0, 0): 0.0})
    params = ModelParams(33)
    shell_sum = sum(norm_sq(h) for h in _expand_columns(ball33.column_tops).tolist())
    energy = hf_energy(coefficient_table(ball33, v), v)
    assert energy.kinetic == pytest.approx(params.hbar ** 2 * shell_sum, rel=1e-15)
    assert energy.kinetic >= 0.0
