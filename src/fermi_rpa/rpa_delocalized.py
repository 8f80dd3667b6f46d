"""Correlation-energy upper bound from completely delocalized pair bosons.

Treating the delocalized particle-hole pair operators as exact bosons
turns the Hamiltonian into a sum of independent quadratic forms, one per
transfer momentum k, with coefficients built from n_k^2 and k.f(k).  The
type of the source is the backend, and this module is the only place that
looks at it.  A ``FermiBall`` gives the exact lattice counts, one row
pass per cubic orbit of the support (n_k^2 is invariant under the 48
signed axis permutations, and k.f(k) = N|k|^2 / n_k^2 needs no count of
its own):

    beta_k  = V(k) n_k^2 / N,
    alpha_k = hbar^2 k.f(k) + beta_k.

A ``ModelParams`` gives their continuum limits:

    beta_k  = hbar (3 sqrt(pi)/4)^(2/3) V(k) |k|,
    alpha_k = hbar |k| (4/(3 sqrt(pi)))^(2/3) + beta_k,

with n_k^2 = |k| N hbar (3 sqrt(pi)/4)^(2/3) and k.f(k) the continuum
kinetic coefficient; like the second-order closed form below, they hold
only on the lens domain |k| <= 2 k_F (``check_lens``), and the first
momentum beyond it raises DomainError.  ``coefficient_table`` returns one
``CoefficientTable``: its source, the momenta ``ks`` and the columns
alpha_k, beta_k, n_k^2 and k.f(k) aligned with them.  Every reader zips
the columns by position, so one table per source serves the minimum, the
Hartree-Fock exchange and the error budget.  The columns are tuples of
Python floats, each row the expression written out once; sums are
``math.fsum``.

For a real even kernel X the quadratic energy is

    E(X) = sum_k alpha_k sinh(X(k))^2 + beta_k sinh(X(k)) cosh(X(k)),

minimized in closed form at X0(k) = -(1/2) artanh(beta_k/alpha_k) with
minimum sum_k (1/2)(sqrt(alpha_k^2 - beta_k^2) - alpha_k) < 0.  Expanding
the minimum to second order in the potential gives

    -sum_k beta_k^2 / (4 (alpha_k - beta_k))                (a table)
    -hbar (pi/2)(9/32) sum_k V(k)^2 |k|                     (ModelParams);

on the exact table the first is -(1/(2 hbar^2 N^2)) sum_k V(k)^2 n_k^4 / (2 k.f(k)).
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple, Optional, Tuple, Union

from .errors import DomainError, NumericalFailure
from .lattice import (
    FermiBall,
    KINETIC_SHAPE_CONSTANT,
    LUNE_SHAPE_CONSTANT,
    ModelParams,
    Momentum,
    check_lens,
    kinetic_coefficient,
)
from .potential import Potential, square_sum

SECOND_ORDER_PREFACTOR = (math.pi / 2.0) * (9.0 / 32.0)

# the backend: exact lattice counts on a FermiBall, closed forms on a ModelParams
Source = Union[FermiBall, ModelParams]


class CoefficientTable(NamedTuple):
    """Quadratic-form coefficients of every nonzero support momentum, by column.

    Row i is the momentum ``ks[i]``, the potential's tuple ``v.ks``;
    ``alpha``, ``beta``, ``nk2`` and ``kdotf`` are tuples of floats.
    ``nk2`` and ``kdotf`` are the n_k^2 and k.f(k) the coefficients were
    built from: an exact count and a ratio rounded once on a FermiBall
    ``source``, the closed forms on a ModelParams.
    """

    source: Source
    ks: Tuple[Momentum, ...]
    alpha: Tuple[float, ...]
    beta: Tuple[float, ...]
    nk2: Tuple[float, ...]
    kdotf: Tuple[float, ...]

    def require_support(self, v: Potential) -> None:
        """DomainError unless the rows are the support of ``v`` minus k = 0, in mode order."""
        if self.ks != v.ks:
            raise DomainError("the coefficient table is not over the support of this potential")


def coefficient_table(source: Source, v: Potential) -> CoefficientTable:
    """The coefficients of every nonzero support momentum of ``v``, in mode order.

    This is the only table builder, and it reads the potential's columns.
    On a FermiBall the lattice counts are made once per cubic orbit, at
    its representative, in the order the support first meets each orbit;
    a count of zero raises DomainError.  On a ModelParams the first |k|
    beyond the lens domain raises DomainError.
    """
    # float(n) is the double a float * n or float / n rounds n to
    n = float(source.n)
    if isinstance(source, ModelParams):
        hbar = source.hbar
        check_lens(source, v.kn)
        nk2 = [kn * n * hbar * LUNE_SHAPE_CONSTANT for kn in v.kn]
        cube_root = source.n ** (1.0 / 3.0)
        kdotf = [kn * cube_root * KINETIC_SHAPE_CONSTANT for kn in v.kn]
        beta = [hbar * LUNE_SHAPE_CONSTANT * x * kn for x, kn in zip(v.vs, v.kn)]
        alpha = [hbar * kn * KINETIC_SHAPE_CONSTANT + b for kn, b in zip(v.kn, beta)]
    else:
        per_orbit = [kinetic_coefficient(source, rep) for rep in v.orbits]
        nk2 = [float(per_orbit[i][0]) for i in v.orbit]
        kdotf = [per_orbit[i][1] for i in v.orbit]
        beta = [x * count / n for x, count in zip(v.vs, nk2)]
        hbar_sq = ModelParams(source.n).hbar ** 2
        alpha = [hbar_sq * f + b for f, b in zip(kdotf, beta)]
    return CoefficientTable(source, v.ks, tuple(alpha), tuple(beta), tuple(nk2), tuple(kdotf))


def _check_rows(table: CoefficientTable) -> None:
    """Require |beta| < alpha on every row, which the minimum and the second
    order need.

    A row built from a source has alpha = hbar^2 k.f(k) + beta with
    k.f(k) > 0, so for beta > 0 alpha >= beta exactly, and rounding is
    monotone: alpha == beta there means the kinetic part was lost to
    rounding, a NumericalFailure.  Any other |beta| >= alpha (beta < 0 on
    a strongly attractive potential, or a hand-built form) is a DomainError.
    The first such row in mode order is reported.
    """
    if all(map(operator.lt, map(abs, table.beta), table.alpha)):
        return
    for k, alpha, beta, kdotf in zip(table.ks, table.alpha, table.beta, table.kdotf):
        if abs(beta) >= alpha:
            break
    else:
        return  # a NaN row compares false both ways
    if beta > 0.0 and kdotf > 0.0:
        raise NumericalFailure(
            f"alpha - beta = hbar^2 k.f(k) > 0 is lost to rounding at k = {k}: "
            f"alpha = beta = {beta}"
        )
    raise DomainError(f"|beta| = {abs(beta)} >= alpha = {alpha} at k = {k}")


def correlation_delocalized(table: CoefficientTable) -> float:
    """Optimal delocalized-pair correlation energy of a coefficient table.

    The minimum of the quadratic energy, sum_k (1/2)(sqrt(a^2-b^2) - a).
    """
    _check_rows(table)
    # (1/2)(sqrt(a^2-b^2) - a) rewritten as -b^2 / (2(sqrt(a^2-b^2) + a)),
    # stable for |b| << a
    return math.fsum(
        [-b * b / (2.0 * (math.sqrt((a - b) * (a + b)) + a)) for a, b in zip(table.alpha, table.beta)]
    )


def second_order_delocalized(
    source: Union[ModelParams, CoefficientTable], v: Optional[Potential] = None
) -> float:
    """Second-order expansion of the minimum in the potential strength.

    On a coefficient table it is -sum_k beta^2 / (4 (alpha - beta)), since
    alpha - beta = hbar^2 k.f(k) carries no potential; a row without
    |beta| < alpha fails as it does for the minimum.  On a ModelParams it
    is the closed form over the support of ``v``: the first |k| beyond the
    lens domain raises DomainError before the sum is formed.
    """
    if isinstance(source, ModelParams):
        check_lens(source, v.kn)
        return -source.hbar * SECOND_ORDER_PREFACTOR * square_sum(v)
    _check_rows(source)
    return -math.fsum([b * b / (4.0 * (a - b)) for a, b in zip(source.alpha, source.beta)])
