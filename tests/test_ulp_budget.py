"""Closed forms without an error estimate stay within a few ulp of exact.

A printed float either comes from exact integer lattice arithmetic
rounded once or carries an error estimate.  The delocalized minimum on
the exact table and the second-order ratio are closed forms evaluated in
double precision, so each is compared with the same formula evaluated in
50-digit ``decimal`` arithmetic from the same exact inputs: N, the
integer lune count n_k^2 (counted here, per momentum), N|k|^2 and the
double V(k) of every row.  One
budget serves every case.  The errors measured over the cases below are
0.3 to 4.8 ulp (0.75 ulp for the ratio); the budget is that maximum
rounded up to the next power of two, not a figure tuned per case.
"""

import math
from decimal import Decimal, localcontext

import pytest

from conftest import scaled_potential
from fermi_rpa import second_order_ratio
from fermi_rpa.lattice import build_fermi_ball, lune_count, norm_sq
from fermi_rpa.rpa_delocalized import coefficient_table, correlation_delocalized

ULP_BUDGET = 8
DIGITS = 50


def ulps(value: float, exact: Decimal) -> float:
    """|value - exact| in units in the last place of the double nearest exact."""
    return float(abs(Decimal(value) - exact) / Decimal(math.ulp(float(exact))))


def exact_minimum(ball, v) -> Decimal:
    """sum_k (1/2)(sqrt(alpha^2 - beta^2) - alpha) with beta = V(k) n_k^2 / N
    and alpha = hbar^2 N|k|^2 / n_k^2 + beta, hbar^2 = N^(-2/3), at DIGITS digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        big_n = Decimal(ball.n)
        hbar_sq = big_n ** (Decimal(-2) / 3)
        total = Decimal(0)
        for k in v.ks:
            count = Decimal(lune_count(ball, k))
            beta = Decimal(v.value(k)) * count / big_n
            alpha = hbar_sq * big_n * norm_sq(k) / count + beta
            # the stable form of (1/2)(sqrt(a^2 - b^2) - a), equal in exact arithmetic
            total -= beta * beta / (2 * (((alpha - beta) * (alpha + beta)).sqrt() + alpha))
        return total


@pytest.mark.parametrize("n", [33, 2109, 999665, 9947927])
@pytest.mark.parametrize("scale", [1.0, 0.01, -0.3])
def test_delocalized_minimum_of_the_exact_table(demo_potential, scale, n):
    v = scaled_potential(demo_potential, scale)
    ball = build_fermi_ball(n)
    table = coefficient_table(ball, v)
    assert ulps(correlation_delocalized(table), exact_minimum(ball, v)) <= ULP_BUDGET


def test_second_order_ratio():
    with localcontext() as ctx:
        ctx.prec = DIGITS
        exact = Decimal(9) / 32 / (1 - Decimal(2).ln())
    assert ulps(second_order_ratio(), exact) <= ULP_BUDGET
