"""Rigorous error-constant budget for the delocalized-pair bound.

Every remainder left over after reducing the Hamiltonian to the solvable
pair-quadratic form is controlled by explicit constants.  This module
evaluates them verbatim:

* the five potential sums A1..A5 built from c = 4 (9 pi/16)^(2/3),
* the Gronwall exponents C_n(X) = 8 n 5^n sum_k |X(k)| that bound growth
  of the fermion number under the pair-quadratic flow,
* the two quadratic-remainder lines (prefactors 32 e^{C3} and
  sqrt(8) e^{C3/2}), the two kinetic-remainder lines (the (6/pi)^(1/3)
  N^(1/3) constant), and the quartic remainder (2/N) |V|_l1 e^{C2}.

The exponents e^{750 A1} overflow double precision for any non-tiny
potential, so every assembled bound is carried and reported in natural
log space; only the inner sums (which stay O(1)) are evaluated linearly.
Coefficients enter the bound sums through their absolute values, which
upper-bounds the displayed expressions term by term and keeps every
bound monotone in |V(k)|.  All momentum sums run over the potential
support with the zero mode removed, and the kernel is a list of values
aligned with that support.  The denominators n_m n_k and the k.f(k)
weights are the columns of a ``coefficient_table``, read by position, and
N is its source's particle count: the table of a FermiBall gives exact
lattice counts, that of a ModelParams the leading continuum forms
(n_k^2 = |k| N hbar (3 sqrt(pi)/4)^(2/3)).  The kernel is the continuum
closed form and the signal the minimum of the continuum table, whichever
table the bounds read; on the continuum backend the two are one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import DomainError, NumericalFailure
from .lattice import ModelParams, norm_sq
from .potential import Potential, l1_norm
from .rpa_delocalized import CoefficientTable, correlation_delocalized

C_SMALL = 4.0 * (9.0 * math.pi / 16.0) ** (2.0 / 3.0)
PARTICLE_ESCAPE_CONSTANT = (6.0 / math.pi) ** (1.0 / 3.0)


def a_constants(v: Potential) -> Tuple[float, float, float, float, float]:
    """The five summed potential constants A1..A5 over the support minus {0}."""
    support = v.correlation_support()
    logs, a2t, a3t, a4t, a5t = [], [], [], [], []
    for k in support:
        val = v.value(k)
        arg = 1.0 + C_SMALL * val
        if arg <= 0.0:
            raise DomainError(f"1 + c*V(k) = {arg:.6g} <= 0 at k = {k}")
        lg = abs(math.log(arg))
        root = math.sqrt(arg)
        kn = math.sqrt(norm_sq(k))
        logs.append(lg)
        a2t.append(abs(val) * root)
        a3t.append(abs(val) * root * math.sqrt(kn))
        a4t.append(lg * root * math.sqrt(kn))
        a5t.append(arg ** 0.25 * math.sqrt(kn))
    return (
        math.fsum(logs),
        math.fsum(a2t),
        math.fsum(a3t),
        math.fsum(a4t),
        math.fsum(a5t),
    )


def optimal_kernel_magnitudes(v: Potential) -> List[float]:
    """Kernel X(k) = -(1/4) log(1 + c V(k)) on the support minus {0}, in mode order.

    c = 4 (9 pi/16)^(2/3) is the constant of A1..A5, so exp(2|X(k)|) =
    sqrt(1 + c V(k)).  This is the paper's closed form, not the minimizer of
    the continuum quadratic form: -(1/2) artanh(beta/alpha) with the
    continuum coefficients equals -(1/4) log1p((c/2) V(k)), half the
    constant (at V = 0.05 the two read -0.0641 and -0.0341).  The lattice
    minimizer is ``rpa_delocalized.optimal_kernel(coefficient_table(ball, v))``.
    The kernel is even because V is.
    """
    values = []
    for k in v.correlation_support():
        arg = C_SMALL * v.value(k)
        if arg <= -1.0:
            raise DomainError(f"1 + c*V(k) <= 0 at k = {k}")
        values.append(-0.25 * math.log1p(arg))
    return values


def particle_number_constant(xi: Sequence[float], n_power: int) -> float:
    """Gronwall exponent C_n(X) = 8 n 5^n sum_k |X(k)| of the kernel values ``xi``."""
    if n_power < 1:
        raise DomainError(f"moment order must be >= 1, got {n_power}")
    # fsum is exactly rounded, so the order of the terms does not matter
    return 8.0 * n_power * 5.0 ** n_power * math.fsum(map(abs, xi))


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _logaddexp(*vals: float) -> float:
    return float(np.logaddexp.reduce(np.array(vals, dtype=float)))


@dataclass(frozen=True)
class ErrorBudget:
    """Full audit record; the fields are the keys of the ``errors`` document."""

    a_constants: Tuple[float, float, float, float, float]
    c_small: float
    c_n: Dict[str, float]  # Gronwall exponent C_n(X) keyed by the order n
    log_eps1_bound: float
    log_eps2_bound: float
    log_quartic_bound: float
    log_total: float
    log_total_times_n: float
    log_signal: float
    log_crossover_n: float
    n: int


def assemble_error_budget(
    table: CoefficientTable, continuum: CoefficientTable, v: Potential
) -> ErrorBudget:
    """Constants, exponents, the remainder bounds, and the certification crossover.

    The bounds read ``table = coefficient_table(source, v)`` of an exact or
    continuum source with N = source.n particles (a table over another
    support raises DomainError), and the kernel
    ``optimal_kernel_magnitudes(v)``.  total = eps1 + 2*eps2 + quartic is
    reported together with total*N (the N-independent certified constant).
    The order-hbar signal |E_corr| is the minimum of ``continuum =
    coefficient_table(ModelParams(N), v)``.  log_crossover_n estimates (in
    log space) the particle count beyond which the certified O(1/N) bound
    drops below the signal; the worst-case constants make this
    astronomically large.  A bound beyond the double range raises
    NumericalFailure.
    """
    table.require_support(v)
    n = table.source.n
    constants = a_constants(v)
    xi = optimal_kernel_magnitudes(v)
    c_n = {str(m): particle_number_constant(xi, m) for m in (1, 2, 3)}
    c2, c3 = c_n["2"], c_n["3"]
    n_of = np.sqrt(table.nk2).tolist()
    hbar_sq = ModelParams(n).hbar ** 2
    escape = PARTICLE_ESCAPE_CONSTANT * n ** (1.0 / 3.0)

    # weighted kernel sums S_k = sum_m |X(m)| / (n_m n_k) = s_base / n_k
    s_base = math.fsum(abs(x) / n_m for x, n_m in zip(xi, n_of))

    inner_quad_sq, inner_quad_lin = [], []
    inner_kin_diag, inner_kin_off = [], []
    for k, x, n_k, kdotf in zip(table.ks, xi, n_of, table.kdotf.tolist()):
        xk = abs(x)
        vk = abs(v.coeffs[k])
        nk2 = n_k ** 2
        s_k = s_base / n_k
        e_x = math.exp(xk)
        inner_quad_sq.append(vk * nk2 * e_x * e_x * s_k ** 2)
        inner_quad_lin.append(vk * nk2 * (4.0 * math.sinh(xk) + 2.0 * math.cosh(xk)) * e_x * s_k)
        inner_kin_diag.append(2.0 * xk * abs(kdotf) * math.sinh(xk) * e_x * 2.0 * s_k)
        # sum_l |X(l)|/(n_k n_l) collapses to S_k
        inner_kin_off.append(
            escape * math.sqrt(norm_sq(k)) * s_k * (math.sinh(xk) + e_x * s_k)
        )

    log_eps1 = _logaddexp(
        c3 + _log(32.0 / n * math.fsum(inner_quad_sq)),
        0.5 * c3 + _log(math.sqrt(8.0) / n * math.fsum(inner_quad_lin)),
    )
    log_eps2 = 0.5 * c3 + _log(
        2.0
        * hbar_sq
        * math.sqrt(8.0)
        * (math.fsum(inner_kin_diag) + math.fsum(inner_kin_off))
    )
    log_quartic = c2 + _log(2.0 * l1_norm(v) / n)
    log_total = _logaddexp(log_eps1, math.log(2.0) + log_eps2, log_quartic)
    if not log_total < math.inf:  # -inf is the log of a zero bound; +inf or nan an overflow
        raise NumericalFailure("error bound eps1 + 2*eps2 + quartic overflows a double")
    signal = abs(correlation_delocalized(continuum))
    log_signal = _log(signal)
    # total*N < signal*N^(1/3)*N^(2/3) 3/2-power law crossover
    log_w = log_signal + math.log(n) / 3.0  # N-independent signal weight
    log_total_times_n = log_total + math.log(n)
    log_crossover = 1.5 * (log_total_times_n - log_w) if math.isfinite(log_w) else math.inf
    return ErrorBudget(
        a_constants=constants,
        c_small=C_SMALL,
        c_n=c_n,
        log_eps1_bound=log_eps1,
        log_eps2_bound=log_eps2,
        log_quartic_bound=log_quartic,
        log_total=log_total,
        log_total_times_n=log_total_times_n,
        log_signal=log_signal,
        log_crossover_n=log_crossover,
        n=n,
    )
