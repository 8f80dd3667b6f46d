"""Optimal (ring-resummed) correlation energy of the mean-field Fermi gas.

The proven leading-order correlation energy is, with kappa = (3/4pi)^(1/3),

    E_corr = hbar kappa sum_{k != 0} |k| [ (1/pi) * I(2 pi kappa V(k))
                                           - (pi/2) kappa V(k) ],
    I(a)   = int_0^infty log(1 + a g(lambda)) dlambda,
    g(lambda) = 1 - lambda arctan(1/lambda).

Since int_0^infty g = pi/4 exactly, the bracket of a = 2 pi kappa V(k) is

    (1/pi) I(a) - a/4 = (1/pi) int_0^infty h(a g(lambda)) dlambda,
    h(x) = log1p(x) - x,

and that integral is what is computed: the linear part never enters, so
nothing cancels against the counterterm.  Each bracket is O(V(k)^2); its
second order is -(pi/2)(1 - log 2) |k| V^2 summed over k.

The substitution lambda = t/(1 - t), dlambda = dt/(1 - t)^2, maps the
half line onto [0, 1).  As g(lambda) ~ 1/(3 lambda^2) and h(x) ~ -x^2/2,
the mapped integrand h(a g)/(1 - t)^2 ~ -a^2 (1 - t)^2/18 is analytic up
to t = 1 and vanishes there, so each bracket is one adaptive Gauss-Kronrod
row on [0, 1]: nothing is cut off and no tail is bounded or added.  The
row integrates that integrand divided by pi, the bracket itself, to the
requested tol, and its error is the quadrature's estimate.

Each bracket depends only on the value V(k), neither on the direction of
k nor on N.  ``frequency_brackets`` therefore collects the distinct
values of V on the support and hands them to one ``gmb_integral`` call,
which integrates all of them in one batched quadrature
(``quadrature.integrate_adaptive``); each value keeps its own panels and
stopping rule, so its bracket is bit-for-bit what integrating it alone
gives.  It returns only the |k|-weighted sums of the brackets' values and
errors, which depend on V alone; ``gmb_correlation`` only scales them by
hbar kappa and never integrates: ``corr`` forms the sums once per run and
``compare`` once per invocation, for every N.  They are never kept beyond
the call that asked for them.

Every bracket is checked against the rigorous enclosure

    h(a)/4 <= bracket <= h(a (1 - pi/4))/pi

before it is returned.  The lower bound holds because log1p is concave
(log1p(a g) >= g log1p(a) for g in [0, 1]) and g integrates to pi/4; the
upper one because h <= 0, g >= 1 - pi/4 on [0, 1] and |h(x)| grows with
|x| on either side of 0.  A quadrature that fell outside it, beyond its
error, exits 2 instead of printing a wrong number.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, List, Sequence

import numpy as np

from . import DEFAULT_TOL
from .errors import DomainError, NumericalFailure
from .lattice import ModelParams
from .potential import Potential, finite_fsum, ieee_rows, square_sum
from .quadrature import IntegralResult, integrate_adaptive

KAPPA = (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
SECOND_ORDER_PREFACTOR_OPTIMAL = (math.pi / 2.0) * (1.0 - math.log(2.0))

# g(lambda) = u^2 sum_j (-u^2)^j / (2j + 3) with u = 1/lambda <= 1/2: 30
# terms leave a truncation below 1e-19 relative
_INNER_SERIES = tuple(1.0 / (2 * j + 3) for j in range(30))
# h(x) = -x^2 sum_n (-x)^n / (n + 2) for |x| < 1/8: 20 terms, same accuracy
_LOG1P_SERIES = tuple(1.0 / (n + 2) for n in range(20))


def _horner(coeffs, y):
    """sum_j coeffs[j] y^j, elementwise, in a fixed order."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * y + c
    return acc


def _inner_factor(lam):
    """g(lambda) = 1 - lambda*arctan(1/lambda), elementwise over the whole half line.

    For lambda < 2 the direct expression with arctan(1/x) = pi/2 - arctan(x)
    is stable; beyond that the subtraction from 1 cancels catastrophically
    (the true value decays like 1/(3 lambda^2)), so the alternating series
    in u = 1/lambda is used instead.
    """
    lam = np.asarray(lam, dtype=float)
    out = np.empty_like(lam)
    near = lam < 2.0
    x = lam[near]
    out[near] = 1.0 - x * (math.pi / 2.0 - np.arctan(x))
    u_sq = 1.0 / np.square(lam[~near])
    out[~near] = u_sq * _horner(_INNER_SERIES, -u_sq)
    return out[()]


def _log1p_minus_identity(x):
    """h(x) = log1p(x) - x, elementwise, by its series where it cancels."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 0.125
    xs = x[small]
    out[small] = -(xs * xs) * _horner(_LOG1P_SERIES, -xs)
    xl = x[~small]
    out[~small] = np.log1p(xl) - xl
    return out[()]


def gmb_integrand(a, lam):
    """h(a g(lambda)) = log1p(a g) - a g, elementwise; it integrates to pi times the bracket."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0.0):
        raise DomainError("integration variable must be nonnegative")
    if np.any(np.asarray(a) <= -1.0):
        raise DomainError("log argument 1 + a g(lambda) reaches 1 + a <= 0 (need a > -1)")
    return _log1p_minus_identity(np.multiply(a, _inner_factor(lam)))


def gmb_integral(values: Sequence[float], tol: float = DEFAULT_TOL) -> List[IntegralResult]:
    """The bracket (1/pi) I(a) - a/4 of each a in ``values`` and its error, to absolute tol.

    One batched quadrature serves every value; each result is bit-for-bit
    what ``gmb_integral((a,), tol)`` gives.
    """
    for a in values:
        if a <= -1.0:
            raise DomainError(f"integral undefined for a = {a} <= -1")
        if not math.isfinite(a):
            raise NumericalFailure("the coupling a = 2 pi kappa V(k) overflows a double")
    a_of_row = np.array(values, dtype=float)

    def mapped(nodes):
        # lambda = t/(1 - t); Gauss-Kronrod nodes are interior, so t < 1
        rest = 1.0 - nodes.x
        return gmb_integrand(a_of_row[nodes.rows, None], nodes.x / rest) / (rest * rest) / math.pi

    results = integrate_adaptive(mapped, len(values), 0.0, 1.0, tol)
    _check_enclosure(a_of_row, results)
    return results


def _check_enclosure(a_of_row: np.ndarray, results: List[IntegralResult]) -> None:
    """Reject a bracket outside h(a)/4 <= bracket <= h(a(1 - pi/4))/pi, up to its error.

    The slack is the returned error plus the smallest normal double, below
    which rounding is absolute.
    """
    lowers = (_log1p_minus_identity(a_of_row) / 4.0).tolist()
    uppers = (_log1p_minus_identity(a_of_row * (1.0 - math.pi / 4.0)) / math.pi).tolist()
    for a, result, lower, upper in zip(a_of_row.tolist(), results, lowers, uppers):
        slack = result.error + sys.float_info.min
        if not lower - slack <= result.value <= upper + slack:
            raise NumericalFailure(
                f"quadrature value {result.value:.17g} for a = {a!r} violates the "
                f"enclosure (log1p(a) - a)/4 = {lower:.17g} <= bracket <= "
                f"(log1p(c a) - c a)/pi = {upper:.17g}, c = 1 - pi/4, "
                f"beyond its error {result.error:.3e}"
            )


@ieee_rows  # |k| times a bracket may overflow to inf, as on Python floats
def frequency_brackets(v: Potential, tol: float = DEFAULT_TOL) -> IntegralResult:
    """The fsums of |k| times the bracket (1/pi) I(a) - a/4, a = 2 pi kappa V(k), and its error.

    The sums run over the support minus {0} in mode order.  One
    ``gmb_integral`` call integrates every distinct V(k), taken in support
    order; momenta sharing a value share its result.  A term or a sum
    beyond the double range raises NumericalFailure.
    """
    index: Dict[float, int] = {}
    rows = [index.setdefault(value, len(index)) for value in v.vs.tolist()]
    results = gmb_integral(tuple(2.0 * math.pi * KAPPA * value for value in index), tol)
    # (value, error) of every row; the reshape keeps two columns on an empty support
    per_row = np.array(results, dtype=float).reshape(-1, 2)[rows]
    names = ("sum_k |k| bracket(k)", "sum_k |k| bracket_error(k)")
    return IntegralResult(
        *(finite_fsum((v.kn * column).tolist(), name) for column, name in zip(per_row.T, names))
    )


def gmb_correlation(brackets: IntegralResult, params: ModelParams) -> IntegralResult:
    """Optimal correlation energy and its error from ``frequency_brackets(v, tol)``.

    The brackets depend on V alone, so one pair of sums serves every
    particle count.
    """
    scale = params.hbar * KAPPA
    return IntegralResult(scale * brackets.value, scale * brackets.error)


def second_order_optimal(v: Potential, params: ModelParams) -> float:
    """-hbar (pi/2)(1 - log 2) sum_{k != 0} |k| V(k)^2."""
    return -params.hbar * SECOND_ORDER_PREFACTOR_OPTIMAL * square_sum(v)
