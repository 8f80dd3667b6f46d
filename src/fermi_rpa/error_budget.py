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
A1..A5, the kernel, its exponentials and C_n depend on V alone and are
formed once per potential; a budget adds only the rows that read N.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .errors import DomainError, NumericalFailure
from .lattice import ModelParams
from .potential import Potential, l1_norm
from .rpa_delocalized import CoefficientTable, correlation_delocalized

C_SMALL = 4.0 * (9.0 * math.pi / 16.0) ** (2.0 / 3.0)
PARTICLE_ESCAPE_CONSTANT = (6.0 / math.pi) ** (1.0 / 3.0)
_LOG_2 = math.log(2.0)


def _fsum(terms: Iterable[float]) -> float:
    """``math.fsum`` of nonnegative terms; a sum beyond the double range is inf.

    An inf term already gives inf, and an intermediate overflow of finite
    terms gives it too, so an overflowing bound ends as one NumericalFailure.
    """
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def a_constants(v: Potential) -> Tuple[float, float, float, float, float]:
    """The five summed potential constants A1..A5 over the support minus {0}.

    They depend on V alone and are formed once per potential.
    """
    return v.once(_a_constants)


def _a_constants(v: Potential) -> Tuple[float, float, float, float, float]:
    args = [1.0 + C_SMALL * x for x in v.vs]
    for k, arg in zip(v.ks, args):
        if arg <= 0.0:
            raise DomainError(f"1 + c*V(k) = {arg:.6g} <= 0 at k = {k}")
    logs = [abs(math.log(a)) for a in args]
    root = list(map(math.sqrt, args))
    root_kn = list(map(math.sqrt, v.kn))
    val = list(map(abs, v.vs))
    quarter = [a ** 0.25 for a in args]
    return (
        _fsum(logs),
        _fsum([x * r for x, r in zip(val, root)]),
        _fsum([x * r * q for x, r, q in zip(val, root, root_kn)]),
        _fsum([x * r * q for x, r, q in zip(logs, root, root_kn)]),
        _fsum([x * q for x, q in zip(quarter, root_kn)]),
    )


class _Kernel(NamedTuple):
    """The budget's kernel terms, by row of the potential's columns: all of V alone."""

    xi: List[float]  # X(k)
    x: List[float]  # |X(k)|
    exp: List[float]  # e^|X(k)|
    sinh: List[float]  # sinh |X(k)|
    quad_lin: List[float]  # 4 sinh |X(k)| + 2 cosh |X(k)|
    v_abs: List[float]  # |V(k)|
    c_n: Dict[str, float]  # Gronwall exponent C_n(X) keyed by the order n


def _kernel(v: Potential) -> _Kernel:
    """Kernel X(k) = -(1/4) log(1 + c V(k)) on the support minus {0}, in mode order.

    c = 4 (9 pi/16)^(2/3) is the constant of A1..A5, so exp(2|X(k)|) =
    sqrt(1 + c V(k)).  This is the paper's closed form, not the minimizer of
    the continuum quadratic form: -(1/2) artanh(beta/alpha) with the
    continuum coefficients equals -(1/4) log1p((c/2) V(k)), half the
    constant (at V = 0.05 the two read -0.0641 and -0.0341).  The lattice
    minimizer is -(1/2) artanh(beta/alpha) on ``coefficient_table(ball, v)``.
    The kernel is even because V is.  It is formed once per potential,
    through ``v.once(_kernel)``.
    """
    arg = [C_SMALL * x for x in v.vs]
    for k, a in zip(v.ks, arg):
        if a <= -1.0:
            raise DomainError(f"1 + c*V(k) <= 0 at k = {k}")
    xi = [-0.25 * math.log1p(a) for a in arg]
    x = list(map(abs, xi))
    sinh = list(map(math.sinh, x))
    return _Kernel(
        xi=xi,
        x=x,
        exp=list(map(math.exp, x)),
        sinh=sinh,
        quad_lin=[4.0 * s + 2.0 * math.cosh(a) for s, a in zip(sinh, x)],
        v_abs=list(map(abs, v.vs)),
        c_n={str(m): particle_number_constant(xi, m) for m in (1, 2, 3)},
    )


def particle_number_constant(xi: Sequence[float], n_power: int) -> float:
    """Gronwall exponent C_n(X) = 8 n 5^n sum_k |X(k)| of the kernel values ``xi``."""
    if n_power < 1:
        raise DomainError(f"moment order must be >= 1, got {n_power}")
    # fsum is exactly rounded, so the order of the terms does not matter
    return 8.0 * n_power * 5.0 ** n_power * _fsum(map(abs, xi))


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _logaddexp2(x: float, y: float) -> float:
    """log(e^x + e^y) as numpy's logaddexp forms it, on libm's exp and log1p."""
    if x == y:  # equal infinities too
        return x + _LOG_2
    gap = x - y
    if gap > 0.0:
        return x + math.log1p(math.exp(-gap))
    if gap <= 0.0:
        return y + math.log1p(math.exp(gap))
    return gap  # a nan


def _logaddexp(*vals: float) -> float:
    """log(sum_i e^(vals[i])), a left fold of ``_logaddexp2`` as ``np.logaddexp.reduce`` makes it."""
    return functools.reduce(_logaddexp2, vals)


class ErrorBudget(NamedTuple):
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
    ``v.once(_kernel)``.  total = eps1 + 2*eps2 + quartic is
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
    kernel = v.once(_kernel)
    c2, c3 = kernel.c_n["2"], kernel.c_n["3"]
    hbar_sq = ModelParams(n).hbar ** 2
    escape = PARTICLE_ESCAPE_CONSTANT * n ** (1.0 / 3.0)

    # weighted kernel sums S_k = sum_m |X(m)| / (n_m n_k) = s_base / n_k
    n_k = list(map(math.sqrt, table.nk2))
    s_base = _fsum([x / root for x, root in zip(kernel.x, n_k)])
    s_k = [s_base / root for root in n_k]
    # the squares are Python's ** (libm pow), one row at a time
    nk2 = [root ** 2 for root in n_k]
    s_k_sq = [s ** 2 for s in s_k]
    x, e_x, sinh, v_abs = kernel.x, kernel.exp, kernel.sinh, kernel.v_abs
    inner_quad_sq = [a * b * e * e * s for a, b, e, s in zip(v_abs, nk2, e_x, s_k_sq)]
    inner_quad_lin = [a * b * c * e * s for a, b, c, e, s in zip(v_abs, nk2, kernel.quad_lin, e_x, s_k)]
    inner_kin_diag = [
        2.0 * a * abs(f) * b * e * 2.0 * s for a, f, b, e, s in zip(x, table.kdotf, sinh, e_x, s_k)
    ]
    # sum_l |X(l)|/(n_k n_l) collapses to S_k
    inner_kin_off = [escape * kn * s * (b + e * s) for kn, s, b, e in zip(v.kn, s_k, sinh, e_x)]

    log_eps1 = _logaddexp(
        c3 + _log(32.0 / n * _fsum(inner_quad_sq)),
        0.5 * c3 + _log(math.sqrt(8.0) / n * _fsum(inner_quad_lin)),
    )
    log_eps2 = 0.5 * c3 + _log(
        2.0
        * hbar_sq
        * math.sqrt(8.0)
        * (_fsum(inner_kin_diag) + _fsum(inner_kin_off))
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
        c_n=dict(kernel.c_n),
        log_eps1_bound=log_eps1,
        log_eps2_bound=log_eps2,
        log_quartic_bound=log_quartic,
        log_total=log_total,
        log_total_times_n=log_total_times_n,
        log_signal=log_signal,
        log_crossover_n=log_crossover,
        n=n,
    )
