"""Fermi ball construction and exact lattice counts on Z^3.

The ground-state Slater determinant of the mean-field Fermi gas occupies
the N lattice momenta of smallest norm (the Fermi ball B_F).  Two exact
lattice quantities drive everything downstream:

* the lune count n_k^2 = #{h in B_F : h+k not in B_F}, the squared norm
  of the delocalized pair-creation operator applied to the vacuum, and
* the kinetic coefficient k.f(k) = (1/n_k^2) * sum over pairs of k.(p+h),
  which is the positive rational number N|k|^2 / n_k^2.

Both have continuum asymptotics obtained by replacing the counts with
volumes (overlap of two balls of Fermi radius displaced by k):

    n_k^2 ~ pi*k_F^2*|k| - (pi/12)*|k|^3,      k_F = (3N/4pi)^(1/3),
    k.f(k) ~ |k| * N^(1/3) * (4/(3*sqrt(pi)))^(2/3).

A closed shell |h|^2 <= R^2 is exactly one z-interval [-Z, Z] per (x, y)
column, Z(x, y) = isqrt(R^2 - x^2 - y^2).  The ball therefore stores its
column table (about pi*R^2 ~ 2.1*N^(2/3) columns) instead of N points, and
a shift by k is one interval intersection per column: the stay count
#{h : h+k in B_F} is the summed overlap length and n_k^2 = N - stay.  That
one pass is the only lattice count, because the ball is centrally
symmetric and so n_k^2 * k.f(k) = N|k|^2 exactly (see
``kinetic_coefficient``).  A closed shell is also invariant under the 48
signed permutations of the axes, so n_k^2 depends on k only through its
cubic orbit (``orbit_representative``): a table needs one column pass per
orbit, not per momentum (33 passes for the 738 momenta with |k|^2 <= 30).
Each pass costs O(N^(2/3)); the N x 3 mode array is expanded from the
column table only on demand (tiny N).

All lattice sums are integer-exact; floats appear only on output.
"""

from __future__ import annotations

import math
import sys
from typing import List, NamedTuple, Tuple

import numpy as np

from .errors import DomainError

Momentum = Tuple[int, int, int]

# (4/(3*sqrt(pi)))^(2/3): continuum value of k.f(k) / (|k| N^(1/3))
KINETIC_SHAPE_CONSTANT = (4.0 / (3.0 * math.sqrt(math.pi))) ** (2.0 / 3.0)
# (3*sqrt(pi)/4)^(2/3): continuum value of n_k^2 / (|k| N hbar)
LUNE_SHAPE_CONSTANT = (3.0 * math.sqrt(math.pi) / 4.0) ** (2.0 / 3.0)
# the largest radius^2 closed_shell_sizes tabulates and build_fermi_ball
# builds: 4188781437 modes, and column arrays of (2*1000 + 1)^2 entries (32 MB each)
LEVEL_CAP = 10**6


def norm_sq(k: Momentum) -> int:
    return k[0] * k[0] + k[1] * k[1] + k[2] * k[2]


def fits_double(n: int) -> bool:
    """Whether the integer n converts to a double; beyond the range float(n) raises."""
    try:
        float(n)
    except OverflowError:
        return False
    return True


def negate(k: Momentum) -> Momentum:
    return (-k[0], -k[1], -k[2])


def orbit_representative(k: Momentum) -> Momentum:
    """Canonical member (sorted absolute components) of the cubic orbit of k.

    The orbit is {g k} over the 48 signed permutations g of the axes.  A
    closed shell is invariant under every g, so n_{gk}^2 = n_k^2 and k.f(k)
    depend on k only through this representative.
    """
    return tuple(sorted(map(abs, k)))


class ModelParams(NamedTuple("ModelParams", [("n", int), ("hbar", float), ("kf", float)])):
    """Particle count, hbar = n^(-1/3) and the continuum Fermi momentum kf = (3n/4pi)^(1/3).

    An immutable value built from n alone, so equal n compare and hash alike.
    """

    __slots__ = ()

    def __new__(cls, n: int):
        if n < 1:
            raise DomainError(f"particle count must be positive, got {n}")
        # an n beyond double range reads as the largest double, whose k_F is inf too
        kf = (3.0 * min(n, sys.float_info.max) / (4.0 * math.pi)) ** (1.0 / 3.0)
        if not math.isfinite(kf):
            raise DomainError("particle count n is too large: k_F = (3n/4pi)^(1/3) is not finite")
        return super().__new__(cls, n, float(n) ** (-1.0 / 3.0), kf)

    def __getnewargs__(self):  # copy and pickle rebuild from n
        return (self.n,)


def _column_tops(radius_sq: int) -> np.ndarray:
    """Z(x, y) = isqrt(radius_sq - x^2 - y^2) on the grid [-r, r]^2, -1 off the ball.

    Entry [x + r, y + r] is the top of the z-interval [-Z, Z] of column
    (x, y), r = isqrt(radius_sq); -1 marks a column outside the ball, whose
    interval [1, -1] is empty.
    """
    r = math.isqrt(radius_sq)
    ax = np.arange(-r, r + 1, dtype=np.int64)
    rest = radius_sq - (ax[:, None] ** 2 + ax[None, :] ** 2)
    top = np.sqrt(np.maximum(rest, 0)).astype(np.int64)
    # exact integer square root: undo a float rounding either way; rest < 0 gives -1
    top -= top * top > rest
    top += (top + 1) * (top + 1) <= rest
    return top


def _expand_columns(top: np.ndarray) -> np.ndarray:
    """The points of a column table as an (m, 3) array in the global mode order.

    Column (x, y) contributes z = -Z..Z; the columns come out in
    lexicographic order, so a stable sort by |h|^2 gives the mode order.
    """
    r = top.shape[0] // 2
    length = np.maximum(2 * top + 1, 0).ravel()
    ax = np.arange(-r, r + 1, dtype=np.int64)
    x, y = (np.repeat(c.ravel(), length) for c in np.meshgrid(ax, ax, indexing="ij"))
    # z runs from -Z at the first point of its column
    first = np.repeat(np.cumsum(length) - length, length)
    z = np.arange(length.sum(), dtype=np.int64) - first - np.repeat(top.ravel(), length)
    pts = np.stack([x, y, z], axis=1)
    return pts[np.argsort(np.einsum("ij,ij->i", pts, pts), kind="stable")]


def closed_shell_sizes(max_radius_sq: int) -> List[Tuple[int, int]]:
    """Cumulative lattice-ball sizes for every attained radius level.

    Returns (radius_sq, count) pairs for each integer s <= max_radius_sq
    that is actually realized as |h|^2 of a lattice point; counts are the
    sizes of the closed shells and are strictly increasing.  The levels
    are binned one z-slice of the column table at a time, so memory is
    O(max_radius_sq), not O(count); a max_radius_sq above ``LEVEL_CAP``
    raises DomainError before anything is allocated.
    """
    if max_radius_sq < 0:
        raise DomainError("max_radius_sq must be >= 0")
    if max_radius_sq > LEVEL_CAP:  # refuse before allocating the column table
        raise DomainError(
            f"closed-shell levels up to {max_radius_sq} exceed the cap LEVEL_CAP = {LEVEL_CAP}"
        )
    top = _column_tops(max_radius_sq)
    r = top.shape[0] // 2
    ax = np.arange(-r, r + 1, dtype=np.int64)
    rho_sq = ax[:, None] ** 2 + ax[None, :] ** 2
    per_level = np.zeros(max_radius_sq + 1, dtype=np.int64)
    for z in range(r + 1):
        # the slices at z and -z hold the same levels
        weight = 1 if z == 0 else 2
        per_level += weight * np.bincount(rho_sq[top >= z] + z * z, minlength=max_radius_sq + 1)
    cumulative = np.cumsum(per_level)
    return [(int(s), int(cumulative[s])) for s in np.flatnonzero(per_level)]


def _ball_size(top: np.ndarray) -> int:
    """The number of points of a column table: its summed interval lengths 2Z + 1."""
    return int(np.maximum(2 * top + 1, 0).sum())


class FermiBall(NamedTuple):
    """The closed-shell set B_F of the n lowest lattice modes.

    B_F is exactly {h : |h|^2 <= shell_radius_sq}, held as its column table
    (see ``_column_tops``).  Being a closed shell, membership is the norm
    test; ``_expand_columns(column_tops)`` lists the n points in the global
    mode order at O(n) memory, for tiny n only.
    """

    n: int
    shell_radius_sq: int
    column_tops: np.ndarray

    def norm_sq_sum(self) -> int:
        """Exact sum of |h|^2 over B_F: (x^2+y^2)(2Z+1) + Z(Z+1)(2Z+1)/3 per column."""
        top = self.column_tops
        r = top.shape[0] // 2
        ax = np.arange(-r, r + 1, dtype=np.int64)
        inside = top >= 0
        z = top[inside]
        rho_sq = (ax[:, None] ** 2 + ax[None, :] ** 2)[inside]
        return int((rho_sq * (2 * z + 1) + z * (z + 1) * (2 * z + 1) // 3).sum())


def build_fermi_ball(n: int) -> FermiBall:
    """Construct the Fermi ball with exactly n modes.

    Raises DomainError when no radius yields exactly n lattice points
    (e.g. n = 2); every formula downstream assumes a completely filled
    shell.  A shell needs radius^2 <= ``LEVEL_CAP`` (n <= 4188781437); a
    larger n raises DomainError, before any column table is built when
    the volume bound below already puts its shell above the cap.
    """
    kf = ModelParams(n).kf
    # The unit cubes around the points of {|h|^2 <= R^2} lie inside radius
    # R + sqrt(3)/2 and cover radius R - sqrt(3)/2, so comparing volumes puts
    # the smallest R^2 whose ball holds at least n points in
    # [(kf - 1)^2, (kf + 1)^2]; bisect there, up to LEVEL_CAP + 1 (never built).
    lo = math.floor(max(kf - 1.0, 0.0) ** 2)
    hi = min(math.ceil((kf + 1.0) ** 2), LEVEL_CAP + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if _ball_size(_column_tops(mid)) >= n:
            hi = mid
        else:
            lo = mid + 1
    if lo > LEVEL_CAP:  # with no bisection step at all when the bracket starts above
        raise DomainError(
            f"{n} modes need a closed shell of radius^2 above the cap LEVEL_CAP = {LEVEL_CAP}"
        )
    top = _column_tops(lo)
    count = _ball_size(top)
    if count != n:
        raise DomainError(
            f"no closed shell with exactly {n} modes; "
            f"nearest shells have {_ball_size(_column_tops(lo - 1))} and {count}"
        )
    return FermiBall(n, lo, top)


def _stay_columns(ball: FermiBall, k: Momentum) -> np.ndarray:
    """Per-column overlap lengths of B_F with B_F - k: {h in B_F : h+k in B_F}.

    One entry per column whose shifted column still lies on the grid: the
    number of z with both z and z + k_z inside their columns' intervals.
    A shift as long as the grid side leaves no column; it is caught before
    any int64 arithmetic with k, which could overflow.
    """
    kx, ky, kz = (int(c) for c in k)
    top = ball.column_tops
    m = top.shape[0]
    if max(abs(kx), abs(ky), abs(kz)) >= m:
        return np.zeros(0, dtype=np.int64)
    nx, ny = max(m - abs(kx), 0), max(m - abs(ky), 0)
    sx, sy = max(0, -kx), max(0, -ky)
    source = top[sx : sx + nx, sy : sy + ny]
    target = top[sx + kx : sx + kx + nx, sy + ky : sy + ky + ny]
    lo = np.maximum(-source, -target - kz)
    hi = np.minimum(source, target - kz)
    return np.maximum(hi - lo + 1, 0)


def lune_count(ball: FermiBall, k: Momentum) -> int:
    """Count holes h in B_F with h+k outside B_F.

    The count equals the squared vacuum norm of the delocalized pair
    creation operator with transfer momentum k; it is even in k and
    vanishes only at k = 0.  It is N minus the column-overlap stay count.
    """
    return ball.n - int(_stay_columns(ball, k).sum())


def _lens_message(params: ModelParams, kn: float) -> str:
    return f"|k| = {kn:.6g} exceeds the lens-formula domain 2*k_F = {2 * params.kf:.6g}"


def lens_norm(params: ModelParams, k: Momentum) -> float:
    """|k| on the domain |k| <= 2 k_F of the continuum forms (the lens of two balls)."""
    kn = math.sqrt(norm_sq(k))
    if kn > 2.0 * params.kf:
        raise DomainError(_lens_message(params, kn))
    return kn


def check_lens(params: ModelParams, kn: np.ndarray) -> None:
    """``lens_norm`` of a column of |k|: DomainError naming the first |k| beyond 2 k_F."""
    beyond = np.flatnonzero(kn > 2.0 * params.kf)
    if beyond.size:
        raise DomainError(_lens_message(params, float(kn[beyond[0]])))


def nk_asymptotic(params: ModelParams, k: Momentum) -> float:
    """Continuum lune norm sqrt(pi k_F^2 |k| - (pi/12)|k|^3), for |k| <= 2 k_F."""
    kn = lens_norm(params, k)
    value = math.pi * params.kf * params.kf * kn - (math.pi / 12.0) * kn ** 3
    return math.sqrt(max(0.0, value))


def kinetic_coefficient(ball: FermiBall, k: Momentum) -> Tuple[int, float]:
    """The pair (n_k^2, k.f(k)): the lune count and k.f(k) = N|k|^2 / n_k^2.

    k.f(k) = (1/n_k^2) sum over pairs of k.(2h+k).  B_F = -B_F makes the
    stay set S = {h in B_F : h+k in B_F} satisfy S + k = -S, so the sum of
    k.(2h+k) = |h+k|^2 - |h|^2 over S vanishes and the lune sum equals the
    ball sum N|k|^2 (the ball sums h to 0).  Only the lune count is
    counted, and the integer ratio is rounded once.  Raises DomainError
    when no pair carries the transfer momentum k (in particular for k = 0).
    """
    count = lune_count(ball, k)
    if count == 0:
        raise DomainError(f"no particle-hole pair with transfer momentum {tuple(k)}")
    return count, ball.n * norm_sq(tuple(int(c) for c in k)) / count


def kinetic_coefficient_asymptotic(params: ModelParams, k: Momentum) -> float:
    """Continuum kinetic coefficient |k| N^(1/3) (4/(3 sqrt(pi)))^(2/3)."""
    if norm_sq(k) == 0:
        raise DomainError("kinetic coefficient undefined at k = 0")
    return math.sqrt(norm_sq(k)) * params.n ** (1.0 / 3.0) * KINETIC_SHAPE_CONSTANT
