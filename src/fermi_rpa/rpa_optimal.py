"""Optimal (ring-resummed) correlation energy of the mean-field Fermi gas.

The proven leading-order correlation energy is, with kappa = (3/4pi)^(1/3),

    E_corr = hbar kappa sum_{k != 0} |k| [ (1/pi) * I(2 pi kappa V(k))
                                           - (pi/2) kappa V(k) ],
    I(a)   = int_0^infty log(1 + a (1 - lambda arctan(1/lambda))) dlambda.

The linear part of the integral cancels the subtracted counterterm
exactly (int_0^infty (1 - lambda arctan(1/lambda)) dlambda = pi/4), so
each bracket is O(V(k)^2); its second order is -(pi/2)(1 - log 2) |k| V^2
summed over k.  The semi-infinite integral is evaluated by adaptive
Gauss-Kronrod quadrature on [0, L] with the analytic tail bound
a/(3 pi L) controlling the truncation: the integrand's tail is bounded
by a/(3 lambda^2) because 0 <= 1 - lambda arctan(1/lambda) <= 1/(3 lambda^2).

Each bracket depends only on the value V(k), neither on the direction of
k nor on N.  ``frequency_brackets`` therefore runs one integral per
distinct value of V on the support and shares it with every momentum
carrying that value; ``compare`` builds that table once per invocation
and hands it to ``gmb_correlation`` for every N.  The table is never
kept beyond the call that asked for it.

Every integral is checked against the rigorous enclosure
log1p(a (1 - pi/4)) <= I(a) <= a pi/4 (lower bound for a > 0) before
it is returned; a quadrature that fell outside it exits 2 instead of
printing a wrong number.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, Optional

from .errors import ConvergenceFailure, DomainError
from .lattice import ModelParams, Momentum, norm_sq
from .potential import Potential
from .quadrature import IntegralResult, integrate_adaptive

KAPPA = (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
SECOND_ORDER_PREFACTOR_OPTIMAL = (math.pi / 2.0) * (1.0 - math.log(2.0))
DEFAULT_TOL = 1e-10


def _inner_factor(lam: float) -> float:
    """1 - lambda*arctan(1/lambda), accurate over the whole half line.

    For lambda < 2 the direct expression with arctan(1/x) = pi/2 - arctan(x)
    is stable; beyond that the subtraction from 1 cancels catastrophically
    (the true value decays like 1/(3 lambda^2)), so the alternating series
    sum_{j>=1} (-1)^(j+1) u^(2j)/(2j+1) in u = 1/lambda is used instead.
    """
    if lam == 0.0:
        return 1.0
    if lam < 2.0:
        # arctan(1/x) = pi/2 - arctan(x) for x > 0
        return 1.0 - lam * (math.pi / 2.0 - math.atan(lam))
    u_sq = 1.0 / (lam * lam)
    total = 0.0
    power = u_sq
    sign = 1.0
    j = 1
    while True:
        term = power / (2 * j + 1)
        total += sign * term
        if term <= 1e-18 * total:
            return total
        power *= u_sq
        sign = -sign
        j += 1


def gmb_integrand(a: float, lam: float) -> float:
    """log(1 + a(1 - lambda arctan(1/lambda))) at a single frequency."""
    if lam < 0.0:
        raise DomainError("integration variable must be nonnegative")
    arg = a * _inner_factor(lam)
    if arg <= -1.0:
        raise DomainError(f"log argument 1 + {arg:.6g} <= 0 (need a > -1)")
    return math.log1p(arg)


def tail_bound(a: float, cutoff: float) -> float:
    """Rigorous bound on (1/pi) * integral of the integrand over [cutoff, inf)."""
    base = abs(a) / (3.0 * math.pi * cutoff)
    if a >= 0.0:
        return base
    # |log(1+x)| <= |x|/(1-|x|) for x in (-1, 0]; here |x| <= |a|/(3 cutoff^2)
    shrink = 1.0 - abs(a) / (3.0 * cutoff * cutoff)
    if shrink <= 0.0:
        raise DomainError(f"tail bound invalid: cutoff {cutoff} too small for a = {a}")
    return base / shrink


def gmb_integral(a: float, tol: float = DEFAULT_TOL) -> IntegralResult:
    """(1/pi) * I(a) to absolute accuracy tol, with its error estimate."""
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if a <= -1.0:
        raise DomainError(f"integral undefined for a = {a} <= -1")
    if a == 0.0:
        return IntegralResult(0.0, 0.0)
    # cutoff chosen so the analytic tail bound stays below tol/2
    cutoff = max(10.0, 2.0 * abs(a) / (3.0 * math.pi * tol))
    tail = tail_bound(a, cutoff)
    body = integrate_adaptive(
        lambda lam: gmb_integrand(a, lam), 0.0, cutoff, tol=tol - tail
    )
    result = IntegralResult(body.value / math.pi, body.error / math.pi + tail)
    _check_enclosure(a, result)
    return result


def _check_enclosure(a: float, result: IntegralResult) -> None:
    """Reject a value outside log1p(a(1 - pi/4)) <= I(a) <= a pi/4, up to its error.

    The upper bound holds for every a > -1 because log1p(x) <= x and the
    inner factor integrates to pi/4; the lower one for a > 0 because the
    inner factor decreases and equals 1 - pi/4 at lambda = 1.  Both are in
    units of (1/pi) I(a), like ``result``.  The slack is the returned error
    plus the smallest normal double, below which rounding is absolute.
    """
    slack = result.error + sys.float_info.min
    upper = a / 4.0
    if result.value > upper + slack:
        raise ConvergenceFailure(
            f"quadrature value {result.value:.17g} for a = {a!r} violates "
            f"(1/pi) I(a) <= a/4 = {upper:.17g} beyond its error {result.error:.3e}"
        )
    if a > 0.0:
        lower = math.log1p(a * (1.0 - math.pi / 4.0)) / math.pi
        if result.value < lower - slack:
            raise ConvergenceFailure(
                f"quadrature value {result.value:.17g} for a = {a!r} violates "
                f"(1/pi) I(a) >= log1p(a(1 - pi/4))/pi = {lower:.17g} "
                f"beyond its error {result.error:.3e}"
            )


@dataclass(frozen=True)
class GMBResult:
    """Per-momentum brackets and the assembled correlation energy."""

    per_k: Dict[Momentum, float]
    total: float
    error: float


def frequency_brackets(
    v: Potential, tol: float = DEFAULT_TOL
) -> Dict[Momentum, IntegralResult]:
    """Bracket (1/pi) I(2 pi kappa V(k)) - (pi/2) kappa V(k) and its error per momentum.

    One integral per distinct V(k) on the support minus {0}, taken in
    support order; momenta sharing a value share its result.
    """
    by_value: Dict[float, IntegralResult] = {}
    brackets: Dict[Momentum, IntegralResult] = {}
    for k in v.correlation_support():
        value = v.value(k)
        bracket = by_value.get(value)
        if bracket is None:
            integral = gmb_integral(2.0 * math.pi * KAPPA * value, tol)
            bracket = IntegralResult(
                integral.value - (math.pi / 2.0) * KAPPA * value, integral.error
            )
            by_value[value] = bracket
        brackets[k] = bracket
    return brackets


def gmb_correlation(
    v: Potential,
    params: ModelParams,
    tol: float = DEFAULT_TOL,
    *,
    brackets: Optional[Dict[Momentum, IntegralResult]] = None,
) -> GMBResult:
    """Optimal correlation energy over the potential support minus {0}.

    ``brackets`` is ``frequency_brackets(v, tol)``, computed here when
    omitted; pass it to share one table across particle counts.
    """
    support = v.correlation_support()
    if brackets is None:
        brackets = frequency_brackets(v, tol)
    per_k = {k: brackets[k].value for k in support}
    total = params.hbar * KAPPA * math.fsum(
        math.sqrt(norm_sq(k)) * per_k[k] for k in support
    )
    error = params.hbar * KAPPA * math.fsum(
        math.sqrt(norm_sq(k)) * brackets[k].error for k in support
    )
    return GMBResult(per_k=per_k, total=total, error=error)


def second_order_optimal(v: Potential, params: ModelParams) -> float:
    """-hbar (pi/2)(1 - log 2) sum_{k != 0} |k| V(k)^2."""
    acc = math.fsum(
        v.value(k) ** 2 * math.sqrt(norm_sq(k)) for k in v.correlation_support()
    )
    return -params.hbar * SECOND_ORDER_PREFACTOR_OPTIMAL * acc


def second_order_ratio() -> float:
    """(9/32) / (1 - log 2): delocalized over optimal second-order weight."""
    return (9.0 / 32.0) / (1.0 - math.log(2.0))
