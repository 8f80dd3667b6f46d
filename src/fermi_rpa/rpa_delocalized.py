"""Correlation-energy upper bound from completely delocalized pair bosons.

Treating the delocalized particle-hole pair operators as exact bosons
turns the Hamiltonian into a sum of independent quadratic forms, one per
transfer momentum k, with coefficients built from n_k^2 and k.f(k).  The
type of the source is the backend, and this module is the only place that
looks at it.  A ``FermiBall`` gives the exact lattice counts, one column
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
only on the lens domain |k| <= 2 k_F (``lens_norm``), and a momentum
beyond it raises DomainError.  Each coefficient row carries k, alpha_k, beta_k,
n_k^2 and k.f(k).  A function takes either a source or the rows of
``coefficient_table``, never both, so one table per source serves the
minimum, the Hartree-Fock exchange and the error budget.

For a real even kernel X the quadratic energy is

    E(X) = sum_k alpha_k sinh(X(k))^2 + beta_k sinh(X(k)) cosh(X(k)),

minimized in closed form at X0(k) = -(1/2) artanh(beta_k/alpha_k) with
minimum sum_k (1/2)(sqrt(alpha_k^2 - beta_k^2) - alpha_k) < 0.  Expanding
the minimum to second order in the potential gives

    -sum_k beta_k^2 / (4 (alpha_k - beta_k))                (rows of a table)
    -hbar (pi/2)(9/32) sum_k V(k)^2 |k|                     (ModelParams);

on the exact rows the first is -(1/(2 hbar^2 N^2)) sum_k V(k)^2 n_k^4 / (2 k.f(k)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from .errors import DomainError, NumericalFailure
from .lattice import (
    FermiBall,
    KINETIC_SHAPE_CONSTANT,
    KineticCoefficient,
    LUNE_SHAPE_CONSTANT,
    ModelParams,
    Momentum,
    kinetic_coefficient,
    kinetic_coefficient_asymptotic,
    lens_norm,
    orbit_representative,
)
from .potential import Potential, finite_fsum

SECOND_ORDER_PREFACTOR = (math.pi / 2.0) * (9.0 / 32.0)

# the backend: exact lattice counts on a FermiBall, closed forms on a ModelParams
Source = Union[FermiBall, ModelParams]


@dataclass(frozen=True)
class QuadraticCoefficients:
    """Per-momentum quadratic-form coefficients, 0 <= |beta| and beta <= alpha.

    ``nk2`` and ``kdotf`` are the n_k^2 and k.f(k) the coefficients were
    built from (an exact integer count and a rounded ratio on a FermiBall,
    the closed forms on a ModelParams); NaN on a hand-built form.
    """

    k: Momentum
    alpha: float
    beta: float
    nk2: float = math.nan
    kdotf: float = math.nan


@dataclass(frozen=True)
class BogoliubovKernel:
    """Real even kernel k -> X(k) defining the pair-quadratic trial state."""

    values: Dict[Momentum, float]

    def __post_init__(self):
        for k, x in self.values.items():
            mirror = self.values.get((-k[0], -k[1], -k[2]))
            if mirror is None or mirror != x:
                raise DomainError(f"kernel must be even: X{k} = {x}, X(-k) = {mirror}")

    def value(self, k: Momentum) -> float:
        return self.values.get(tuple(k), 0.0)

    def abs_sum(self) -> float:
        # fsum is exactly rounded, so the order of the terms does not matter
        return math.fsum(abs(x) for x in self.values.values())


def _lattice_row(
    v: Potential, k: Momentum, kinetic: KineticCoefficient, n: int, hbar_sq: float
) -> QuadraticCoefficients:
    """The exact row at k from the lattice counts of k's cubic orbit."""
    nk2, kdotf = kinetic.count, kinetic.kdotf
    beta = v.value(k) * nk2 / n
    alpha = hbar_sq * kdotf + beta
    return QuadraticCoefficients(k=k, alpha=alpha, beta=beta, nk2=nk2, kdotf=kdotf)


def _continuum_row(params: ModelParams, v: Potential, k: Momentum) -> QuadraticCoefficients:
    """The continuum row at k; DomainError beyond the lens domain."""
    kn = lens_norm(params, k)
    nk2 = kn * params.n * params.hbar * LUNE_SHAPE_CONSTANT
    kdotf = kinetic_coefficient_asymptotic(params, k)
    beta = params.hbar * LUNE_SHAPE_CONSTANT * v.value(k) * kn
    alpha = params.hbar * kn * KINETIC_SHAPE_CONSTANT + beta
    return QuadraticCoefficients(k=k, alpha=alpha, beta=beta, nk2=nk2, kdotf=kdotf)


def coefficient_table(source: Source, v: Potential) -> List[QuadraticCoefficients]:
    """Coefficients for every nonzero support momentum, in mode order.

    This is the only row builder.  On a FermiBall the lattice counts are
    made once per cubic orbit, at its representative, in the order the
    support first meets each orbit; a count of zero raises DomainError.
    """
    support = v.correlation_support()
    if isinstance(source, ModelParams):
        return [_continuum_row(source, v, k) for k in support]
    reps = [orbit_representative(k) for k in support]
    kinetic = {rep: kinetic_coefficient(source, rep) for rep in dict.fromkeys(reps)}
    hbar_sq = ModelParams(source.n).hbar ** 2
    return [
        _lattice_row(v, k, kinetic[rep], source.n, hbar_sq) for k, rep in zip(support, reps)
    ]


def _check_row(c: QuadraticCoefficients) -> None:
    """Require |beta| < alpha, which the minimum and its minimizer need.

    A row built from a source has alpha = hbar^2 k.f(k) + beta with
    k.f(k) > 0, so for beta > 0 alpha >= beta exactly, and rounding is
    monotone: alpha == beta there means the kinetic part was lost to
    rounding, a NumericalFailure.  Any other |beta| >= alpha (beta < 0 on
    a strongly attractive potential, or a hand-built form) is a DomainError.
    """
    if abs(c.beta) >= c.alpha:
        if c.beta > 0.0 and c.kdotf > 0.0:
            raise NumericalFailure(
                f"alpha - beta = hbar^2 k.f(k) > 0 is lost to rounding at k = {c.k}: "
                f"alpha = beta = {c.beta}"
            )
        raise DomainError(f"|beta| = {abs(c.beta)} >= alpha = {c.alpha} at k = {c.k}")


def optimal_kernel(c: QuadraticCoefficients) -> float:
    """Closed-form minimizer -(1/2) artanh(beta/alpha) of the quadratic form.

    Evaluated as -(1/4)[log1p(t) - log1p(-t)] with t = beta/alpha for
    accuracy at small coupling.
    """
    _check_row(c)
    t = c.beta / c.alpha
    return -0.25 * (math.log1p(t) - math.log1p(-t))


def _minimum_term(c: QuadraticCoefficients) -> float:
    # (1/2)(sqrt(a^2-b^2) - a) rewritten as -b^2 / (2(sqrt(a^2-b^2) + a)),
    # stable for |b| << a
    _check_row(c)
    root = math.sqrt((c.alpha - c.beta) * (c.alpha + c.beta))
    return -c.beta * c.beta / (2.0 * (root + c.alpha))


def correlation_delocalized(coeffs: Sequence[QuadraticCoefficients]) -> float:
    """Optimal delocalized-pair correlation energy of a coefficient table.

    The minimum of the quadratic energy, sum_k (1/2)(sqrt(a^2-b^2) - a).
    """
    return math.fsum(_minimum_term(c) for c in coeffs)


def second_order_delocalized(
    source: Union[ModelParams, Sequence[QuadraticCoefficients]], v: Optional[Potential] = None
) -> float:
    """Second-order expansion of the minimum in the potential strength.

    On the rows of a coefficient table it is -sum_k beta^2 / (4 (alpha - beta)),
    since alpha - beta = hbar^2 k.f(k) carries no potential.  On a
    ModelParams it is the closed form over the support of ``v``.
    """
    if isinstance(source, ModelParams):
        acc = finite_fsum(
            (v.value(k) ** 2 * lens_norm(source, k) for k in v.correlation_support()),
            "sum_k |k| V(k)^2",
        )
        return -source.hbar * SECOND_ORDER_PREFACTOR * acc
    return -math.fsum(c.beta * c.beta / (4.0 * (c.alpha - c.beta)) for c in source)
