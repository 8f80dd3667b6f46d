"""Hartree-Fock energy of the plane-wave Slater determinant.

With plane waves f_k(x) = (2pi)^(-3/2) exp(ikx) on the torus [0, 2pi]^3
and the Fourier convention V(x) = sum_k V(k) exp(ikx), the three parts of
the Hartree-Fock functional evaluate in closed form:

* kinetic   = hbar^2 * sum_{h in B_F} |h|^2,
* direct    = (1/N) * int V(x-y) rho(x) rho(y) = N * V(0)
  (rho(x) = N (2pi)^{-3} and each torus integral contributes (2pi)^3,
  so all 2pi factors cancel against the plane-wave normalization),
* exchange  = (1/N) * sum_{h,h' in B_F} V(h-h')
            = (1/N) * sum_k V(k) * #{h : h in B_F and h+k in B_F}.

The functional carries prefactor 1/N (no 1/2) on both interaction terms;
the ``half_prefactor`` switch multiplies both by 1/2 for comparison with
the pair-summed convention.  The exchange double sum reduces to one
count per transfer momentum, the modes that stay inside the ball,
N - n_k^2, read from the n_k^2 column of the exact coefficient table (N
at k = 0), so Hartree-Fock adds no lattice pass of its own; the kinetic
sum reads the point count of each x-row of the ball.  Both counts are
exact integers, so the final reduction is a deterministic compensated
sum of exact products.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, NumericalFailure
from .lattice import FermiBall, ModelParams
from .potential import ZERO, Potential, finite_fsum
from .rpa_delocalized import CoefficientTable


class HFEnergy(NamedTuple):
    kinetic: float
    direct: float
    exchange: float
    total: float


def hf_energy(table: CoefficientTable, v: Potential, half_prefactor: bool = False) -> HFEnergy:
    """Evaluate the plane-wave Hartree-Fock energy, total = kin + dir - exch.

    ``table`` is ``coefficient_table(ball, v)``; a table over another
    support, or one not from a FermiBall (which holds no lattice counts),
    raises DomainError.  A part beyond the double range raises
    NumericalFailure naming it.
    """
    ball = table.source
    if not isinstance(ball, FermiBall):
        raise DomainError("Hartree-Fock reads the exact coefficient table of a FermiBall")
    table.require_support(v)
    kinetic = ModelParams(ball.n).hbar ** 2 * float(ball.norm_sq_sum())
    direct = ball.n * v.value(ZERO)
    # the stay counts N - n_k^2 weighted by V(k)
    terms = [x * (ball.n - nk2) for x, nk2 in zip(v.vs, table.nk2)]
    if ZERO in v.coeffs:  # first in mode order; every mode stays at k = 0
        terms.insert(0, v.coeffs[ZERO] * ball.n)
    exchange = finite_fsum(terms, "Hartree-Fock exchange sum") / ball.n
    if half_prefactor:
        direct *= 0.5
        exchange *= 0.5
    # direct = N V(0) is the k = 0 term of the exchange sum, so it is finite here
    total = kinetic + direct - exchange
    if not math.isfinite(total):
        raise NumericalFailure("Hartree-Fock total energy overflows a double")
    return HFEnergy(kinetic=kinetic, direct=direct, exchange=exchange, total=total)
