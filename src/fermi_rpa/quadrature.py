"""Globally adaptive Gauss-Kronrod quadrature of a batch of integrals.

Each row of a batch is one integral on its own finite interval, to its
own absolute tolerance.  A fixed 7/15-point Gauss-Kronrod pair supplies
the local rule and its embedded error estimate; in every row the panel
with the worst estimate is bisected until the row's summed estimates
reach its tolerance.  One refinement round evaluates the two halves of
the worst panel of every unfinished row in a single integrand call, so
the number of calls follows the largest panel count of the batch, not
the number of rows, while the work follows the total panel count.

Rows never interact.  Each keeps its own panels, its own refinement
queue, ordered deterministically by (error, insertion index), and its
own stopping rule; the integrand acts elementwise and the Gauss-Kronrod
sums run in a fixed order per row, never through a BLAS product.  So a
row's result is bit-for-bit what integrating it alone gives.

A row whose tolerance lies below what its panels can resolve (``FLOOR_ULPS``
units of roundoff of the summed panel magnitudes) raises
``ConvergenceFailure`` naming that floor instead of refining toward
``max_panels``.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable, List, NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceFailure

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


class _Row:
    """Panels of one integral: a heap of (-error, index, lo, hi, value, error)."""

    def __init__(self, lo: float, hi: float, value: float, error: float):
        self.heap = [(-error, 0, lo, hi, value, error)]
        self.count = 1
        self.error = error  # running sums; they drift by rounding
        self.magnitude = abs(value)


def integrate_adaptive(
    f: Callable[[Nodes], np.ndarray],
    lo: Sequence[float],
    hi: Sequence[float],
    tol: Sequence[float],
    max_panels: int = 20000,
) -> List[IntegralResult]:
    """Integrate row i of f on [lo[i], hi[i]] to absolute accuracy tol[i].

    ``f`` maps ``Nodes`` to the integrand values, an array shaped like
    ``Nodes.x``.  Raises ConvergenceFailure when a row's tolerance is
    below its rounding floor, or when its panel budget is exhausted
    before the summed error estimates fall below the tolerance.
    """
    if any(not t > 0.0 for t in tol):
        raise ValueError("tolerance must be positive")
    results = [IntegralResult(0.0, 0.0)] * len(lo)
    active = [i for i in range(len(lo)) if lo[i] != hi[i]]
    if not active:
        return results
    values, errors = _gk15_panel(f, active, [lo[i] for i in active], [hi[i] for i in active])
    rows = {
        i: _Row(lo[i], hi[i], value, error)
        for i, value, error in zip(active, values, errors)
    }
    while active:
        split = []
        for i in active:
            row = rows[i]
            if row.error <= tol[i]:
                row.error = math.fsum(p[5] for p in row.heap)  # confirm exactly
                if row.error <= tol[i]:
                    panels = sorted(row.heap, key=lambda p: p[2])  # interval order
                    results[i] = IntegralResult(
                        math.fsum(p[4] for p in panels), math.fsum(p[5] for p in panels)
                    )
                    continue
            floor = FLOOR_ULPS * sys.float_info.epsilon * row.magnitude
            if not tol[i] >= floor:  # also when the panel values overflowed
                raise ConvergenceFailure(
                    f"error estimate {row.error:.3e} > tol {tol[i]:.3e}, which is below "
                    f"the rounding floor {floor:.3e} ({FLOOR_ULPS} ulp of the summed "
                    f"|panel values|) on [{lo[i]:.3g}, {hi[i]:.3g}]"
                )
            if len(row.heap) >= max_panels:
                raise ConvergenceFailure(
                    f"error estimate {row.error:.3e} > tol {tol[i]:.3e} "
                    f"after {len(row.heap)} panels on [{lo[i]:.3g}, {hi[i]:.3g}]"
                )
            split.append((i, heapq.heappop(row.heap)))
        if not split:
            break
        panel_rows, panel_lo, panel_hi = [], [], []
        for i, (_, _, pa, pb, _, _) in split:
            mid = 0.5 * (pa + pb)
            panel_rows += (i, i)
            panel_lo += (pa, mid)
            panel_hi += (mid, pb)
        values, errors = _gk15_panel(f, panel_rows, panel_lo, panel_hi)
        for n, (i, (_, _, pa, pb, pval, perr)) in enumerate(split):
            row = rows[i]
            mid = panel_hi[2 * n]
            lval, rval = values[2 * n], values[2 * n + 1]
            lerr, rerr = errors[2 * n], errors[2 * n + 1]
            row.error += lerr + rerr - perr
            row.magnitude += abs(lval) + abs(rval) - abs(pval)
            heapq.heappush(row.heap, (-lerr, row.count, pa, mid, lval, lerr))
            heapq.heappush(row.heap, (-rerr, row.count + 1, mid, pb, rval, rerr))
            row.count += 2
        active = [i for i, _ in split]
    return results
