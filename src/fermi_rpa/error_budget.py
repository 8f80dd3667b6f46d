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

import math
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import DomainError, NumericalFailure
from .lattice import ModelParams
from .potential import Potential, ieee_rows, l1_norm
from .rpa_delocalized import CoefficientTable, correlation_delocalized

C_SMALL = 4.0 * (9.0 * math.pi / 16.0) ** (2.0 / 3.0)
PARTICLE_ESCAPE_CONSTANT = (6.0 / math.pi) ** (1.0 / 3.0)


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


@ieee_rows
def _a_constants(v: Potential) -> Tuple[float, float, float, float, float]:
    arg = 1.0 + C_SMALL * v.vs
    bad = np.flatnonzero(arg <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise DomainError(f"1 + c*V(k) = {float(arg[i]):.6g} <= 0 at k = {v.ks[i]}")
    args = arg.tolist()
    logs = np.array([abs(math.log(a)) for a in args])
    root = np.sqrt(arg)
    root_kn = np.sqrt(v.kn)
    val = np.abs(v.vs)
    quarter = np.array([a ** 0.25 for a in args])
    return (
        _fsum(logs.tolist()),
        _fsum((val * root).tolist()),
        _fsum((val * root * root_kn).tolist()),
        _fsum((logs * root * root_kn).tolist()),
        _fsum((quarter * root_kn).tolist()),
    )


class _Kernel(NamedTuple):
    """The budget's kernel terms, by row of the potential's columns: all of V alone."""

    xi: List[float]  # X(k)
    x: np.ndarray  # |X(k)|
    exp: np.ndarray  # e^|X(k)|
    sinh: np.ndarray  # sinh |X(k)|
    quad_lin: np.ndarray  # 4 sinh |X(k)| + 2 cosh |X(k)|
    v_abs: np.ndarray  # |V(k)|
    c_n: Dict[str, float]  # Gronwall exponent C_n(X) keyed by the order n


@ieee_rows
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
    arg = C_SMALL * v.vs
    bad = np.flatnonzero(arg <= -1.0)
    if bad.size:
        raise DomainError(f"1 + c*V(k) <= 0 at k = {v.ks[int(bad[0])]}")
    xi = [-0.25 * math.log1p(a) for a in arg.tolist()]
    x = list(map(abs, xi))
    cosh = np.array([math.cosh(a) for a in x])
    sinh = np.array([math.sinh(a) for a in x])
    return _Kernel(
        xi=xi,
        x=np.array(x),
        exp=np.array([math.exp(a) for a in x]),
        sinh=sinh,
        quad_lin=4.0 * sinh + 2.0 * cosh,
        v_abs=np.abs(v.vs),
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


def _logaddexp(*vals: float) -> float:
    return float(np.logaddexp.reduce(np.array(vals, dtype=float)))


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


@ieee_rows
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
    n_k = np.sqrt(table.nk2)
    s_base = _fsum((kernel.x / n_k).tolist())
    s_k = s_base / n_k
    # the squares are Python's ** (libm pow), one row at a time
    nk2 = np.array([a ** 2 for a in n_k.tolist()])
    s_k_sq = np.array([a ** 2 for a in s_k.tolist()])
    x, e_x, sinh, v_abs = kernel.x, kernel.exp, kernel.sinh, kernel.v_abs
    inner_quad_sq = (v_abs * nk2 * e_x * e_x * s_k_sq).tolist()
    inner_quad_lin = (v_abs * nk2 * kernel.quad_lin * e_x * s_k).tolist()
    inner_kin_diag = (2.0 * x * np.abs(table.kdotf) * sinh * e_x * 2.0 * s_k).tolist()
    # sum_l |X(l)|/(n_k n_l) collapses to S_k
    inner_kin_off = (escape * v.kn * s_k * (sinh + e_x * s_k)).tolist()

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
