"""Globally adaptive Gauss-Kronrod quadrature of a batch of integrals.

Every row of a batch integrates on the same finite interval to the same
absolute tolerance.  A fixed 7/15-point Gauss-Kronrod pair supplies the
local rule and its embedded error estimate; in every row the panel with
the worst estimate is bisected until the row's summed estimates reach
the tolerance.  One refinement round evaluates the two halves of the
worst panel of every unfinished row in a single integrand call, so the
number of calls follows the largest panel count of the batch, not the
number of rows, while the work follows the total panel count.

Rows never interact.  Each keeps a list of its panels in the order they
were made; every round sums its errors and |values| exactly with
``math.fsum`` and bisects the panel with the largest error, the earliest
made among equals.  The integrand acts elementwise and the Gauss-Kronrod
sums run in a fixed order per row, never through a BLAS product.  So a
row's result is bit-for-bit what integrating it alone gives.

A row whose tolerance lies below what its panels can resolve (``FLOOR_ULPS``
units of roundoff of the summed panel magnitudes) raises
``NumericalFailure`` naming that floor instead of refining toward
``max_panels``.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, List, NamedTuple

import numpy as np

from .errors import DomainError, NumericalFailure

# Gauss-Kronrod 7/15 abscissae and weights on [-1, 1] (QUADPACK dqk15)
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
# node columns of a panel: the center, then c - x_j, c + x_j for j = 0..6
_COLUMNS = np.array([0.0] + [s * x for x in _XGK[:7] for s in (-1.0, 1.0)])

# a panel resolves its value to a few roundoff units of its magnitude
FLOOR_ULPS = 4


class IntegralResult(NamedTuple):
    value: float
    error: float


class Nodes(NamedTuple):
    """One integrand call: ``x[i]`` are the 15 abscissae of a panel of row ``rows[i]``."""

    rows: np.ndarray
    x: np.ndarray


def _gk15_panel(f, rows, lo, hi):
    """Kronrod-15 values plus the scaled |K15 - G7| estimates, as lists, of panels [lo, hi]."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fx = f(Nodes(np.array(rows, dtype=np.intp), center[:, None] + half[:, None] * _COLUMNS))
    fc = fx[:, 0]
    gauss = _WG[3] * fc
    kronrod = _WGK[7] * fc
    for j in range(7):
        pair = fx[:, 1 + 2 * j] + fx[:, 2 + 2 * j]
        kronrod = kronrod + _WGK[j] * pair
        if j % 2 == 1:
            gauss = gauss + _WG[(j - 1) // 2] * pair
    # conservative estimate: |K15 - G7| over-estimates the K15 error by
    # orders of magnitude on smooth panels, keeping "estimate <= tol" honest
    return (kronrod * half).tolist(), (np.abs(kronrod - gauss) * np.abs(half)).tolist()


def integrate_adaptive(
    f: Callable[[Nodes], np.ndarray],
    rows: int,
    lo: float,
    hi: float,
    tol: float,
    max_panels: int = 20000,
) -> List[IntegralResult]:
    """Integrate rows 0 .. rows - 1 of f on [lo, hi], each to absolute accuracy tol.

    ``f`` maps ``Nodes`` to the integrand values, an array shaped like
    ``Nodes.x``.  Raises NumericalFailure when a row's tolerance is
    below its rounding floor, or when its panel budget is exhausted
    before the summed error estimates fall below the tolerance.
    """
    if not tol > 0.0:
        raise DomainError("tolerance must be positive")
    panels: List[List[tuple]] = [[] for _ in range(rows)]  # (lo, hi, value, error)
    done = {}
    active = list(range(rows))
    new = [(i, lo, hi) for i in active]
    while active:
        for (i, a, b), value, error in zip(new, *_gk15_panel(f, *zip(*new))):
            panels[i].append((a, b, value, error))
        new = []
        for i in active:
            row = panels[i]
            errors = [p[3] for p in row]
            error = math.fsum(errors)
            if error <= tol:
                done[i] = IntegralResult(math.fsum(p[2] for p in row), error)
                continue
            floor = FLOOR_ULPS * sys.float_info.epsilon * math.fsum(abs(p[2]) for p in row)
            if not tol >= floor:  # also when the panel values overflowed
                raise NumericalFailure(
                    f"error estimate {error:.3e} > tol {tol:.3e}, which is below "
                    f"the rounding floor {floor:.3e} ({FLOOR_ULPS} ulp of the summed "
                    f"|panel values|)"
                )
            if len(row) >= max_panels:
                raise NumericalFailure(
                    f"error estimate {error:.3e} > tol {tol:.3e} after {len(row)} panels"
                )
            # the largest error, the earliest made among equals
            a, b, _, _ = row.pop(max(range(len(row)), key=errors.__getitem__))
            mid = 0.5 * (a + b)
            new += [(i, a, mid), (i, mid, b)]
        active = [i for i, _, _ in new[::2]]  # two halves per unfinished row
    return [done[i] for i in range(rows)]
