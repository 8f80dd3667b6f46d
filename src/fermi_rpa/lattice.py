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
column, Z(x, y) = isqrt(R^2 - x^2 - y^2), r = isqrt(R^2).  The ball holds
one Python int per x-row: a bitset over the (y, z) cells of the row, in
which column y owns a slot of W >= 2r + 1 bits (whole bytes) and z sets
bit r + z of that slot.  Each row is one join of the cached slot patterns
of its columns, and rows x and -x are one int, so the ball costs about
N/8 bytes and no N x 3 array.  Shifting a row right by k_y W + k_z moves
every cell (y + k_y, z + k_z) onto (y, z), so the stay count
#{h : h+k in B_F} is

    sum_x bit_count(row[x] & mask & (row[x + k_x] >> (k_y W + k_z)))

and n_k^2 = N - stay; the mask keeps the low W - k_z bits of each slot,
the cells whose z + k_z stays in their own column.  The pass runs at a
member of the cubic orbit of k with k_x >= k_y >= k_z >= 0, so every
shift is to the right, and every |k_i| >= 2r + 1 leaves no row.
B_F = -B_F makes the stay set S satisfy S + k = -S, and h -> -h - k maps
row x onto row -x - k_x, so the two rows of each pair have one count: a
pass ANDs about r rows of O(N^(2/3)) bits each, O(N) bits in machine
words.  That one pass is the only lattice count, because the ball is
centrally symmetric and so n_k^2 * k.f(k) = N|k|^2 exactly (see
``kinetic_coefficient``).  A closed shell is also invariant under the 48
signed permutations of the axes, so n_k^2 depends on k only through its
cubic orbit (``orbit_representative``): a table needs one pass per orbit,
not per momentum (33 passes for the 738 momenta with |k|^2 <= 30).  The
shell radius is found by bisection on ball sizes, each a sum of isqrt
over a quadrant of columns.

All lattice sums are integer-exact Python ints; floats appear only on
output.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import accumulate
from typing import List, NamedTuple, Sequence, Tuple

from .errors import DomainError

Momentum = Tuple[int, int, int]

# (4/(3*sqrt(pi)))^(2/3): continuum value of k.f(k) / (|k| N^(1/3))
KINETIC_SHAPE_CONSTANT = (4.0 / (3.0 * math.sqrt(math.pi))) ** (2.0 / 3.0)
# (3*sqrt(pi)/4)^(2/3): continuum value of n_k^2 / (|k| N hbar)
LUNE_SHAPE_CONSTANT = (3.0 * math.sqrt(math.pi) / 4.0) ** (2.0 / 3.0)
# the largest radius^2 closed_shell_sizes tabulates and build_fermi_ball
# builds: 4188781437 modes, in rows of about 500 MB together
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


def _ball_size(radius_sq: int) -> int:
    """#{h : |h|^2 <= radius_sq}, counted by how many coordinates are zero.

    With Z(x, y) = isqrt(radius_sq - x^2 - y^2) summed over the quadrant
    x, y >= 1 as Q (by the x <-> y symmetry) and A = sum_{x >= 1} Z(x, 0),
    the points with no zero coordinate number 8Q, those with one 12A,
    those on the axes 6r, and the origin 1.
    """
    isqrt = math.isqrt
    r = isqrt(radius_sq)
    quadrant = axis = 0
    for x in range(1, r + 1):
        m = radius_sq - x * x
        top = isqrt(m)
        axis += top
        # y < x counts for (x, y) and (y, x); y = x once
        quadrant += 2 * sum(isqrt(m - y * y) for y in range(1, min(top, x - 1) + 1))
        if top >= x:
            quadrant += isqrt(m - x * x)
    return 8 * quadrant + 12 * axis + 6 * r + 1


def _level_counts(max_radius_sq: int) -> array:
    """#{h : |h|^2 = s} for every s <= max_radius_sq, as 32-bit counts.

    Each level is one 32-bit slot of a Python int: starting from the
    origin, each axis adds the squares z^2 (z and -z) as shifted copies.
    No count reaches 2^32 up to ``LEVEL_CAP``, whose whole ball has fewer
    points.
    """
    slots = max_radius_sq + 1
    shifts = [32 * z * z + 1 for z in range(1, math.isqrt(max_radius_sq) + 1)]  # 2 q^(z^2)
    counts, mask = 1, (1 << 32 * slots) - 1
    for _axis in range(3):
        base = counts
        for shift in shifts:
            counts += base << shift
        counts &= mask
    per_level = array("I", counts.to_bytes(4 * slots, "little"))
    if sys.byteorder == "big":
        per_level.byteswap()
    return per_level


def closed_shell_sizes(max_radius_sq: int) -> List[Tuple[int, int]]:
    """Cumulative lattice-ball sizes for every attained radius level.

    Returns (radius_sq, count) pairs for each integer s <= max_radius_sq
    that is actually realized as |h|^2 of a lattice point; counts are the
    sizes of the closed shells and are strictly increasing.  The levels
    are counted in O(max_radius_sq) memory, not O(count); a max_radius_sq
    above ``LEVEL_CAP`` raises DomainError before anything is allocated.
    """
    if max_radius_sq < 0:
        raise DomainError("max_radius_sq must be >= 0")
    if max_radius_sq > LEVEL_CAP:  # refuse before allocating the level table
        raise DomainError(
            f"closed-shell levels up to {max_radius_sq} exceed the cap LEVEL_CAP = {LEVEL_CAP}"
        )
    per_level = _level_counts(max_radius_sq)
    return [(s, total) for s, (c, total) in enumerate(zip(per_level, accumulate(per_level))) if c]


class FermiBall(NamedTuple):
    """The closed-shell set B_F of the n lowest lattice modes.

    B_F is exactly {h : |h|^2 <= shell_radius_sq}, held as one bitset int
    per x-row, ``rows[x + r]`` for x = -r .. r (see ``_ball_rows``).
    Being a closed shell, membership is the norm test.
    """

    n: int
    shell_radius_sq: int
    rows: Tuple[int, ...]

    def norm_sq_sum(self) -> int:
        """Exact sum of |h|^2 over B_F: 3 sum_x x^2 #row(x), as the three axes are alike."""
        r = len(self.rows) // 2
        return 3 * sum((i - r) ** 2 * row.bit_count() for i, row in enumerate(self.rows))


def _slot_bits(r: int) -> int:
    """The slot width W of a column: 2r + 1 bits rounded up to whole bytes."""
    return 8 * (r // 4 + 1)


def _ball_rows(radius_sq: int) -> Tuple[int, ...]:
    """The x-rows of {|h|^2 <= radius_sq}: cell (y, z) is bit (y + r) W + z + r.

    A column of top Z sets bits r - Z .. r + Z of its slot; each row is
    one join of these r + 1 cached patterns, little-endian, with y = -r
    in the lowest slot.  Rows x and -x are one int.
    """
    r = math.isqrt(radius_sq)
    width = _slot_bits(r) // 8
    empty = bytes(width)
    patterns = [(((1 << (2 * z + 1)) - 1) << (r - z)).to_bytes(width, "little") for z in range(r + 1)]
    isqrt = math.isqrt
    half = []
    for x in range(r + 1):
        m = radius_sq - x * x
        top = isqrt(m)
        columns = [patterns[isqrt(m - y * y)] for y in range(top + 1)]
        half.append(int.from_bytes(b"".join([empty] * (r - top) + columns[:0:-1] + columns), "little"))
    return tuple(half[:0:-1] + half)


def closed_shell_radius_sq(n: int) -> int:
    """The radius^2 of the closed shell of exactly n modes, found from ball sizes alone.

    Raises DomainError when no radius yields exactly n lattice points
    (e.g. n = 2); every formula downstream assumes a completely filled
    shell.  A shell needs radius^2 <= ``LEVEL_CAP`` (n <= 4188781437); a
    larger n raises DomainError, before any count is made when the
    volume bound below already puts its shell above the cap.
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
        if _ball_size(mid) >= n:
            hi = mid
        else:
            lo = mid + 1
    if lo > LEVEL_CAP:  # with no bisection step at all when the bracket starts above
        raise DomainError(
            f"{n} modes need a closed shell of radius^2 above the cap LEVEL_CAP = {LEVEL_CAP}"
        )
    count = _ball_size(lo)
    if count != n:
        raise DomainError(
            f"no closed shell with exactly {n} modes; "
            f"nearest shells have {_ball_size(lo - 1)} and {count}"
        )
    return lo


def build_fermi_ball(n: int) -> FermiBall:
    """The Fermi ball with exactly n modes: its closed shell and the shell's rows.

    Raises DomainError as ``closed_shell_radius_sq`` does, before any row is built.
    """
    radius_sq = closed_shell_radius_sq(n)
    return FermiBall(n, radius_sq, _ball_rows(radius_sq))


def _stay_count(ball: FermiBall, k: Momentum) -> int:
    """#{h in B_F : h + k in B_F}, the stay count of one row pass.

    The ball is invariant under the signed axis permutations, so the pass
    runs at k = (c, b, a), the orbit representative (a, b, c) reversed:
    every shift is to the right, and row x meets row x + c.  A shift
    longer than the ball's diameter 2r leaves no row; it is caught before
    any shift by k.  Shifting right by bW + a also moves the top a bits
    of each slot onto the slot below, so a mask keeps only the low W - a
    bits of every source slot.  Row x pairs with row -x - c, which holds
    as many stayers, so each pair is counted once and doubled, and the
    row x = -c/2 of an even c counts once.
    """
    a, b, c = (int(x) for x in orbit_representative(k))
    rows = ball.rows
    r = len(rows) // 2
    if c > 2 * r:
        return 0
    width = _slot_bits(r)
    shift = b * width + a
    keep = ((1 << (width - a)) - 1).to_bytes(width // 8, "little")
    mask = int.from_bytes(keep * (2 * r + 1), "little")
    # the rows i = x + r with x < -x - c, whose partner lies above them
    stay = 2 * sum(
        (rows[i] & mask & (rows[i + c] >> shift)).bit_count() for i in range((2 * r - c + 1) // 2)
    )
    if c % 2 == 0:
        i = r - c // 2
        stay += (rows[i] & mask & (rows[i + c] >> shift)).bit_count()
    return stay


def lune_count(ball: FermiBall, k: Momentum) -> int:
    """Count holes h in B_F with h+k outside B_F.

    The count equals the squared vacuum norm of the delocalized pair
    creation operator with transfer momentum k; it is even in k and
    vanishes only at k = 0.  It is N minus the row-pass stay count.
    """
    return ball.n - _stay_count(ball, k)


def _lens_message(params: ModelParams, kn: float) -> str:
    return f"|k| = {kn:.6g} exceeds the lens-formula domain 2*k_F = {2 * params.kf:.6g}"


def lens_norm(params: ModelParams, k: Momentum) -> float:
    """|k| on the domain |k| <= 2 k_F of the continuum forms (the lens of two balls)."""
    kn = math.sqrt(norm_sq(k))
    if kn > 2.0 * params.kf:
        raise DomainError(_lens_message(params, kn))
    return kn


def check_lens(params: ModelParams, kn: Sequence[float]) -> None:
    """``lens_norm`` of a column of |k|: DomainError naming the first |k| beyond 2 k_F."""
    limit = 2.0 * params.kf
    for value in kn:
        if value > limit:
            raise DomainError(_lens_message(params, value))


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
