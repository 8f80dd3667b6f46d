"""Exact second quantization on a tiny truncated mode set.

Brute-force verification engine for the operator identities behind the
delocalized-pair bosonization.  The modes are one (n_modes, 3) array in
the global mode order: the holes (the Fermi ball) first, then the
particles (the shell between the Fermi radius and a cutoff); one grid
lookup maps a momentum to its position.  Configurations are bitmasks
over those positions, and a state is two numpy arrays: sorted, unique
int64 keys and their complex amplitudes, of shape (n,) for one state or
(n, trials) for a block of trial states that every operator acts on at
once.  Each pair operator reads a (terms x keys) mask of where its terms
act, so only configurations an operator actually reaches are ever
stored; a pair's fermionic sign is the parity of the occupied modes
between its hole and its particle.  Equal keys are then summed left to
right in input order after one stable sort, so every sum has fixed bits.
The pair-quadratic interaction is applied already projected to the
sector, so no configuration above the pair cap is ever formed.

Working set: a check's memory follows its largest image, not the trial
count.  The exact checks share one trial block and read it in column
groups of at most COLUMN_BUDGET amplitudes; in each group every distinct
image is formed once and released at its last read, and a commutator
that must vanish compares its two products instead of summing them.  A
pair operator forms its terms in groups of at most HIT_BUDGET hits, each
group's sums resumed from the running ones.  None of this moves a bit:
a resumed left-to-right sum has the bits of the whole sum, and no
column's values depend on another column.

Truncated-model semantics: with a finite particle cutoff the pair
operators differ from their infinite-lattice counterparts, so every
assertion here compares against ground truth computed by the same finite
enumeration (the truncated lune count, the truncated pair-average f).
The canonical anticommutation relations hold verbatim in any finite mode
set, which is what makes the oracle exact.

Exactness discipline: amplitudes are doubles, but all sign and weight
bookkeeping is integer.  Commutator identities that must vanish exactly
are checked on states with (complex) integer amplitudes, where every
product and cancellation is exact in double precision; norm-ratio bounds
are checked on the same states since ratios are scale-free.  Norms are
``math.fsum`` sums, so their bits do not depend on summation order.

Trial states come from the standard library's ``random.Random(seed)``,
whose stream from an integer seed is fixed across CPython versions, one
``getrandbits`` call per trial (``random_sector_state``); the module
never loads ``numpy.random``, whose import costs a process about 14 ms
and 6 MB.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from .errors import BoundViolation, DomainError, NumericalFailure
from .lattice import (
    ModelParams,
    Momentum,
    _column_tops,
    _expand_columns,
    build_fermi_ball,
    negate,
    norm_sq,
)
from .potential import Potential

MODE_CAP = 40
GATHER_CHUNK = 1 << 14  # amplitudes gathered at once by one repeat pass
# Working-set budgets.  A kernel pass forms at most HIT_BUDGET pair-term hits
# (or one term), about 70 bytes each at one trial column; an exact check
# reads at most COLUMN_BUDGET amplitudes of its trial block (or one column).
# The default mode set's 1471 x 10 block (perfbench's fock-oracle) is one
# column group, and each of its kernel calls one pass; so is a --pairs 3
# block of 10 trials (9171 x 10).
HIT_BUDGET = 5 << 18
COLUMN_BUDGET = 3 << 15
_SIGNS = np.array([1, -1])  # (-1)^parity, looked up by parity

# (sorted unique int64 configuration keys, complex amplitudes (n,) or (n, trials))
State = Tuple[np.ndarray, np.ndarray]
# (rows, cols, values) of an operator over sector_basis positions
Triplets = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class ModeSet:
    """The truncated mode set as one (n_modes, 3) int64 array, holes first.

    Rows are in the global mode order: the first n_holes are the closed
    shell |h|^2 <= hole_radius_sq, the rest the particles up to
    lambda_sq.  ``mode_index`` answers every membership question (is
    h + k a particle, is h + k - l a hole) with one grid lookup.
    """

    modes: np.ndarray
    n_holes: int
    hole_radius_sq: int
    lambda_sq: int
    _grid: np.ndarray = field(init=False, repr=False)
    _pairs: Dict[Momentum, Tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self):
        n, m = self.n_holes, self.n_modes
        if m > MODE_CAP:
            raise DomainError(f"mode set too large: {n}+{m - n} > {MODE_CAP}")
        # the cutoff ball plus a -1 border for clipped queries: side 2r + 1 <= 15
        r = math.isqrt(self.lambda_sq) + 1
        grid = np.full((2 * r + 1,) * 3, -1, dtype=np.int64)
        grid[tuple((self.modes + r).T)] = np.arange(self.n_modes)
        object.__setattr__(self, "_grid", grid)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def mode_index(self, q: np.ndarray) -> np.ndarray:
        """Row of each momentum q[..., :] in ``modes`` (holes first), -1 off the set."""
        edge = self._grid.shape[0] - 1
        cells = np.clip(np.asarray(q) + edge // 2, 0, edge)
        return self._grid[cells[..., 0], cells[..., 1], cells[..., 2]]

    def pairs(self, k: Momentum) -> Tuple[np.ndarray, np.ndarray]:
        """(p_idx, h_idx) for every hole h with h + k a particle, in hole order.

        That order is the fixed pair order of every operator below.  The
        read-only arrays are built once per k.  No pair spans a component
        longer than twice the cutoff radius, so such a k, however large,
        has none.
        """
        key = tuple(k)
        if key not in self._pairs:
            if max(abs(c) for c in key) > 2 * math.isqrt(self.lambda_sq):
                pair = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp))
            else:
                p_idx = self.mode_index(self.modes[: self.n_holes] + k)
                h_idx = np.flatnonzero(p_idx >= self.n_holes)
                pair = (p_idx[h_idx], h_idx)
            for a in pair:
                a.flags.writeable = False
            self._pairs[key] = pair
        return self._pairs[key]

    def lune_size(self, k: Momentum) -> int:
        return len(self.pairs(k)[1])

    def pair_vector_sum(self, k: Momentum) -> Tuple[int, int, int]:
        """Integer vector sum of (p + h) = (2h + k) over the truncated pair list."""
        h = self.modes[self.pairs(k)[1]]
        return tuple((2 * h + k).sum(axis=0).tolist())

    def describe(self, max_pairs: int) -> str:
        return (
            f"holes={self.n_holes}(r2<={self.hole_radius_sq}),"
            f"particles={self.n_modes - self.n_holes}(r2<={self.lambda_sq}),"
            f"max_pairs={max_pairs}"
        )


def build_mode_set(n: int, lambda_sq: int) -> ModeSet:
    """Fermi ball of n holes plus all particle modes up to the cutoff.

    The ball is a closed shell and the mode order sorts by |k|^2 first, so
    the holes are exactly the first n modes of the cutoff ball.
    """
    if n > MODE_CAP:  # refuse before building the Fermi ball
        raise DomainError(f"{n} holes exceed the {MODE_CAP}-mode cap")
    shell = build_fermi_ball(n).shell_radius_sq
    if lambda_sq <= shell:
        raise DomainError(f"cutoff {lambda_sq} must exceed the hole shell {shell}")
    # the six axis modes of every radius up to isqrt(lambda_sq) alone
    # exceed the cap: refuse before enumerating the cutoff ball
    if 1 + 6 * math.isqrt(lambda_sq) > MODE_CAP:
        raise DomainError(f"cutoff {lambda_sq} gives more than {MODE_CAP} modes")
    return ModeSet(
        modes=_expand_columns(_column_tops(lambda_sq)),
        n_holes=n,
        hole_radius_sq=shell,
        lambda_sq=lambda_sq,
    )


# --- array states and the pair-term kernel ------------------------------------


def vacuum() -> State:
    return np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex)


def _column(values: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Per-configuration factors shaped to broadcast over the trial axis."""
    return values.reshape((-1,) + (1,) * (amps.ndim - 1))


def _drop_zeros(keys: np.ndarray, amps: np.ndarray) -> State:
    # one test per float64 part; each amplitude's two results read as one
    # uint16, reduced over a trial-major copy (numpy reduces a short
    # contiguous axis an element at a time)
    nonzero = (amps.view(np.float64) != 0).view(np.uint16)
    keep = np.ascontiguousarray(np.atleast_2d(nonzero.T)).any(axis=0)
    if keep.all():
        return keys, amps
    return keys[keep], amps[keep]


def _coalesce(keys: np.ndarray, amps: np.ndarray) -> State:
    """Sum the amplitudes of equal keys, in input order; drop exact zeros.

    Every sum is 0.0 + a_0 + a_1 + ... added left to right in input
    order, as a sequential add into zeros would (so -0.0 becomes 0.0).  A
    stable argsort groups equal keys in input order; it merges the sorted
    run that each pair term's hits already form, since cfg ^ both is
    monotone in cfg.  The sums start as each key's first amplitude, and
    pass j adds the j-th repeat of every key that has one, gathering at
    most GATHER_CHUNK amplitudes at a time.  Only the keys that repeat
    are tracked through the passes.
    """
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    fresh = np.ones(len(keys) + 1, dtype=bool)  # a key starts here (and at the end)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:-1])
    first = np.flatnonzero(fresh[:-1])
    keys = keys[first]
    rows = np.flatnonzero(~fresh[first + 1])  # the keys that repeat
    pos = first[rows] + 1  # and where each one's first repeat sits
    sums = amps.take(order[first], axis=0)
    sums += 0.0
    step = max(1, GATHER_CHUNK // math.prod(amps.shape[1:]))
    while len(rows):
        for lo in range(0, len(rows), step):
            sums[rows[lo : lo + step]] += amps.take(order[pos[lo : lo + step]], axis=0)
        pos = pos + 1
        repeat = ~fresh[pos]
        rows, pos = rows[repeat], pos[repeat]
    return _drop_zeros(keys, sums)


def _linear_combination(pieces: List[Tuple[float, State]]) -> State:
    """sum_i c_i state_i over (c_i, state_i), all with the same trial axis.

    Takes ownership of ``pieces``: the list is emptied once its states are
    concatenated, so a piece no caller holds is released before the sum.
    """
    scales = [(c, len(state[0])) for c, state in pieces]
    keys = np.concatenate([state[0] for _, state in pieces])
    amps = np.concatenate([state[1] for _, state in pieces])
    pieces.clear()
    lo = 0
    for c, n in scales:  # c * amplitudes, scaled in place
        np.multiply(c, amps[lo : lo + n], out=amps[lo : lo + n])
        lo += n
    return _coalesce(keys, amps)


def _columns_differ(u: State, w: State) -> np.ndarray:
    """Per trial column of two coalesced blocks: is u - w nonzero there.

    Coalesced states are canonical (sorted unique keys, no all-zero row, no
    -0.0), and on finite amplitudes a - b is zero exactly when a == b, so
    this is ``_nonzero_trials(_linear_combination([(1, u), (-1, w)]))``
    without forming the sum.  Equal keys compare each column in place;
    otherwise each column compares its nonzero entries.
    """
    (uk, ua), (wk, wa) = u, w
    if np.array_equal(uk, wk):
        return np.array([not np.array_equal(a, b) for a, b in zip(ua.T, wa.T)], dtype=bool)
    differ = []
    for a, b in zip(ua.T, wa.T):
        at_u, at_w = a != 0, b != 0
        differ.append(
            not (np.array_equal(uk[at_u], wk[at_w]) and np.array_equal(a[at_u], b[at_w]))
        )
    return np.array(differ, dtype=bool)


def state_norm_sq(state: State) -> np.ndarray:
    """Squared norm of each trial column (a 0-d array for a single state)."""
    amps = state[1]
    sq = amps.real * amps.real + amps.imag * amps.imag
    columns = np.atleast_2d(sq.T).tolist()
    return np.array([math.fsum(col) for col in columns]).reshape(sq.shape[1:])


def _nonzero_trials(state: State) -> np.ndarray:
    """Per trial column: does the state have any nonzero amplitude."""
    return (state[1] != 0).any(axis=0)


def fermion_sign(keys: np.ndarray, idx: int) -> np.ndarray:
    """(-1)^(occupied modes below idx) for each configuration key, as int64."""
    return _SIGNS[np.bitwise_count(keys & ((1 << idx) - 1)) & 1]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending; a stable sort merges the sorted runs they come in."""
    values = np.sort(values, kind="stable")
    fresh = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=fresh[1:])
    return values[fresh]


def _term_groups(hits: np.ndarray) -> List[slice]:
    """Consecutive term slices, each of one term or at most an even share of the hits.

    The share is the hit count over the fewest groups of at most
    HIT_BUDGET hits, so a call within the budget is one group and no group
    of a larger call holds much more than another.
    """
    counts = hits.tolist()
    share = sum(counts) / max(1, math.ceil(sum(counts) / max(1, HIT_BUDGET)))
    groups, start, total = [], 0, 0
    for j, count in enumerate(counts):
        if total + count > share and j > start:
            groups.append(slice(start, j))
            start, total = j, 0
        total += count
    return groups + [slice(start, len(counts))]


def _apply_pair_terms(
    state: State, p_idx: np.ndarray, h_idx: np.ndarray, weights: np.ndarray,
    modes: ModeSet, create: bool, cap: int,
) -> State:
    """Apply sum_j w_j a*_p a*_h (or its adjoint w_j a_h a_p), in term groups.

    Term j is (p_idx[j], h_idx[j], integer weights[j]).  One (terms x keys)
    mask holds where each term acts (both modes empty for creation, both
    occupied for annihilation); its hits come term by term, each term's
    in key order.  Holes come first, so h < p, and a*_p a*_h (a*_h
    applied first) and its adjoint carry the same sign, -(-1)^(occupied
    modes strictly between h and p).  Creation raises NumericalFailure
    when a new key holds more than cap pairs.  Key bits above the mode set
    ride along untouched.

    The terms are formed in consecutive groups of at most HIT_BUDGET hits
    or one term (``_term_groups``).  One group is one coalesce.  Otherwise
    the keys every group reaches are found first, the sums live in one
    array over them, and each group's coalesce takes the running sums of
    the keys an earlier group reached as its first piece.  A left-to-right
    sum resumed from its partial sum has the same bits, so every grouping
    gives the bits of the single coalesce.
    """
    keys, amps = state
    both = (1 << p_idx) | (1 << h_idx)
    acts = (keys & both[:, None]) == (0 if create else both[:, None])
    if create and acts.any():  # a creation adds one pair to the key it acts on
        occupied = np.bitwise_count(keys[acts.any(axis=0)] & ((1 << modes.n_modes) - 1))
        pairs = int(occupied.max()) // 2 + 1
        if pairs > cap:
            raise NumericalFailure(f"configuration with {pairs} pairs exceeds max_pairs = {cap}")
    between = (1 << p_idx) - (2 << h_idx)  # the modes strictly between h and p

    def formed(terms: slice) -> State:
        """The new keys and amplitudes of the terms' hits, in hit order."""
        term, row = np.nonzero(acts[terms])
        term += terms.start
        values = amps.take(row, axis=0)
        cfg = keys[row]
        del row
        factor = fermion_sign(cfg & between[term], modes.n_modes)
        factor *= (-weights)[term]
        values *= _column(factor, amps)
        del factor
        cfg ^= both[term]
        return cfg, values

    groups = _term_groups(np.count_nonzero(acts, axis=1))
    if len(groups) == 1:
        return _coalesce(*formed(groups[0]))
    reached = _distinct(np.concatenate([keys[hit] ^ b for hit, b in zip(acts, both.tolist())]))
    sums = np.zeros((len(reached),) + amps.shape[1:], dtype=complex)
    summed = np.zeros(len(reached), dtype=bool)  # an earlier group reached the key
    for terms in groups:
        new, values = formed(terms)
        at = _distinct(np.searchsorted(reached, new))
        carried = at[summed[at]]  # the keys whose sums an earlier group began
        summed[at] = True
        if len(carried):
            new = np.concatenate([reached[carried], new])
            values = np.concatenate([sums[carried], values])
        new, values = _coalesce(new, values)
        if len(new) < len(at):  # a sum cancelled: its row leaves the state
            sums[at] = 0
            at = at[np.searchsorted(reached[at], new)]
        sums[at] = values
        del new, values  # released before the next group is formed
    return _drop_zeros(reached, sums)


def _pair_operator(state, k, modes, create, cap, component=None) -> State:
    """Sum over the truncated lune of k, weight 1 or (p+h)_component per pair."""
    p_idx, h_idx = modes.pairs(k)
    if component is None:
        weights = np.ones_like(h_idx)
    else:  # (p + h)_i = 2 h_i + k_i
        weights = 2 * modes.modes[h_idx, component] + k[component]
    keep = weights != 0
    return _apply_pair_terms(state, p_idx[keep], h_idx[keep], weights[keep], modes, create, cap)


def apply_pair_create(state: State, k: Momentum, modes: ModeSet, *, cap: int) -> State:
    """Delocalized pair creation with transfer momentum k, unnormalized.

    k = 0 gives the zero state (no pair changes the total momentum by
    zero).  Raises NumericalFailure when a resulting configuration would
    exceed cap pairs.
    """
    return _pair_operator(state, k, modes, True, cap)


def apply_pair_annihilate(state: State, k: Momentum, modes: ModeSet) -> State:
    """Adjoint of apply_pair_create; annihilates the vacuum."""
    return _pair_operator(state, k, modes, False, 0)


def apply_c_create(
    state: State, k: Momentum, modes: ModeSet, component: int, *, cap: int
) -> State:
    """One component of vector-weighted pair creation: component i applies (p+h)_i a*_p a*_h."""
    return _pair_operator(state, k, modes, True, cap, component=component)


def apply_number(state: State) -> State:
    """Fermionic number operator: occupied-mode count, particles plus holes."""
    keys, amps = state
    return _drop_zeros(keys, amps * _column(np.bitwise_count(keys), amps))


# --- sector enumeration and random states ----------------------------------


def sector_basis(modes: ModeSet, max_pairs: int) -> np.ndarray:
    """All equal-particle-hole configurations with at most max_pairs pairs.

    Deterministic order: ascending pair count, then ascending bitmask.
    """
    def masks(indices: range, j: int) -> np.ndarray:
        combos = itertools.combinations(indices, j)
        return np.array([sum(1 << i for i in c) for c in combos], dtype=np.int64)

    holes = range(modes.n_holes)
    particles = range(modes.n_holes, modes.n_modes)
    chunks = [
        np.sort((masks(holes, j)[:, None] | masks(particles, j)).ravel())
        for j in range(min(max_pairs, len(holes), len(particles)) + 1)
    ]
    return np.concatenate(chunks)


def _positions(basis: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position in ``basis`` of each key; a DomainError names the first missing key."""
    order = np.argsort(basis)
    pos = order.take(np.searchsorted(basis[order], keys), mode="clip")
    missing = basis[pos] != keys
    if missing.any():
        key = int(keys[missing.argmax()])
        raise DomainError(f"configuration {key} (0b{key:b}) is not in the sector basis")
    return pos


def random_sector_state(
    basis: np.ndarray,
    rng: random.Random,
    trials: int,
    integer_amplitudes: bool = False,
) -> State:
    """``trials`` random states over ``basis = sector_basis(...)``, as columns.

    The trials are drawn one after another, each by one ``getrandbits``
    call for 2n little-endian words w: the real parts of the n amplitudes
    in ``sector_basis`` order, then the imaginary parts.  With
    integer_amplitudes a part is (-1)^(w & 1) ((w >> 1) % 999 + 1), a
    nonzero integer in [-999, 999] from a 32-bit word, so every later
    cancellation is exact in double precision.  Otherwise it is
    (w >> 11) 2^-52 - 1, uniform on the multiples of 2^-52 in [-1, 1)
    from a 64-bit word, and each column is normalized.
    """
    n = len(basis)
    block = np.empty((n, trials), dtype=complex)
    width = 4 if integer_amplitudes else 8  # bytes per word
    for j in range(trials):
        words = np.frombuffer(
            rng.getrandbits(16 * n * width).to_bytes(2 * n * width, "little"), dtype=f"<u{width}"
        )
        if integer_amplitudes:
            parts = ((words >> 1) % 999 + 1).astype(np.int64)
            parts *= 1 - 2 * (words & 1).astype(np.int64)
        else:
            parts = (words >> 11) * 2.0**-52 - 1.0
        column = block[:, j]
        column.real, column.imag = parts[:n], parts[n:]
        if not integer_amplitudes:
            column *= 1.0 / math.sqrt(state_norm_sq((basis, column)))
    # one gather of every row at the end: freeing the drawn block lets glibc
    # serve the checks' later arrays up to its size from the heap, and the
    # exact checks at --pairs 3 --trials 100 ran 15-25 % slower without it
    order = np.argsort(basis)
    return basis[order], block[order]


def integer_trials(modes: ModeSet, max_pairs: int, trials: int, seed: int) -> State:
    """The integer-amplitude trial block of the exact checks, drawn from ``seed``.

    It is drawn from ``random.Random(seed)`` over the <= max_pairs sector,
    one column per trial; a caller running several checks with one seed
    forms it once and hands it to each as ``xi``.
    """
    basis = sector_basis(modes, max_pairs)
    return random_sector_state(basis, random.Random(seed), trials, True)


# --- verification reports ---------------------------------------------------


@dataclass
class VerificationReport:
    check: str
    modeset: str
    seed: int
    trials: int
    max_ratio: float
    violations: List[str] = field(default_factory=list)
    details: Dict[str, float] = field(default_factory=dict)

    def raise_if_violated(self) -> "VerificationReport":
        if self.violations:
            raise BoundViolation(
                f"{self.check}: {self.violations[0]}", report=self
            )
        return self


def _norms(state: State) -> np.ndarray:
    return np.sqrt(state_norm_sq(state))


def _column_groups(xi: State) -> Iterator[State]:
    """The trial block as consecutive column groups, in trial order.

    Each group holds at most COLUMN_BUDGET amplitudes, or one column.  A
    column's values never depend on another column, so a check's reports
    do not depend on the grouping.
    """
    keys, amps = xi
    width = max(1, COLUMN_BUDGET // max(1, len(keys)))
    for lo in range(0, amps.shape[1], width):
        yield keys, np.ascontiguousarray(amps[:, lo : lo + width])


def _commutators(block: State, pairs: List[tuple], modes: ModeSet, cap: int) -> Iterator:
    """([a, b] + shift) block for each (a, b, shift) of ``pairs``, in order.

    An operator is (creates, transfer, component): b*_q or b_q, or with a
    component i the i-th component of c*_q, all unnormalized; creations
    take the pair cap ``cap``.  Each result is a ``_linear_combination``,
    but a shift of None marks a commutator that must vanish: for it comes,
    per column, whether [a, b] block is nonzero, ab block compared with
    ba block (``_columns_differ``) instead of summed, and [a, a] = 0 forms
    nothing.  Each distinct image b block is formed once, at its first
    read, and released at its last, so a caller that reads each result
    before asking for the next holds only the images still to be read.
    """
    images = {}
    reads = Counter(op for a, b, _ in pairs if a != b for op in (a, b))

    def apply(op, state):
        creates, q, component = op
        if component is not None:
            return apply_c_create(state, q, modes, component, cap=cap)
        if creates:
            return apply_pair_create(state, q, modes, cap=cap)
        return apply_pair_annihilate(state, q, modes)

    def product(a, b):
        """a b block."""
        if b not in images:
            images[b] = apply(b, block)
        reads[b] -= 1
        return apply(a, images[b] if reads[b] else images.pop(b))

    for a, b, shift in pairs:
        if a == b:
            yield np.zeros(block[1].shape[1], dtype=bool)
        elif shift is None:
            yield _columns_differ(product(a, b), product(b, a))
        else:
            yield _linear_combination([(1, product(a, b)), (-1, product(b, a)), (shift, block)])


def _exact_report(
    check: str, modes: ModeSet, xi: State, seed: int, max_pairs: int, details: Dict[str, float],
    columns: Callable[[State], tuple], ratio_line: str, flag_lines: List[str],
) -> VerificationReport:
    """The report of an exact check on the trial block ``xi``.

    ``columns(group)`` gives, per column of each ``_column_groups(xi)``
    group, the ratio the check bounds and then one flag per entry of
    ``flag_lines``.  A trial's violations are its ratio above 1 + 1e-12
    (``ratio_line`` formatted with it), then the lines of its set flags.
    """
    ratios, *flags = map(np.concatenate, zip(*map(columns, _column_groups(xi))))
    violations: List[str] = []
    for trial, ratio in enumerate(ratios.tolist()):
        lines = [ratio_line.format(ratio)] if ratio > 1.0 + 1e-12 else []
        lines += [line for line, flag in zip(flag_lines, flags) if flag[trial]]
        violations += [f"trial {trial}: {line}" for line in lines]
    return VerificationReport(
        check=check,
        modeset=modes.describe(max_pairs),
        seed=seed,
        trials=len(ratios),
        max_ratio=max([0.0, *ratios.tolist()]),
        violations=violations,
        details=details,
    ).raise_if_violated()


def verify_almost_ccr(
    modes: ModeSet,
    k: Momentum,
    l: Momentum,
    xi: State,
    seed: int,
    max_pairs: int,
) -> VerificationReport:
    """Check the approximate canonical commutator relations by brute force.

    On every trial state xi the residual E(k,l) = [b_k, b*_l] - delta_kl
    must obey ||E xi|| * n_k n_l <= ||N xi|| (computed here with the
    unnormalized operators, so the k = l subtraction is an exact integer),
    and [b_k, b_l], [b*_k, b*_l] must vanish identically.  ``xi`` is the
    block ``integer_trials(modes, max_pairs, trials, seed)``, one trial per
    column.  Per column group, ``_commutators`` makes 10 pair applications,
    4 at k = l, where [b_k, b_l] and [b*_k, b*_l] are [a, a] = 0.
    """
    mk = modes.lune_size(k)
    # (creates, transfer, component), so b_k and b_l are one operator at k = l
    b_k, b_l, bs_k, bs_l = ((c, tuple(q), None) for c in (False, True) for q in (k, l))
    delta = -float(mk) if b_k == b_l else 0.0
    pairs = [(b_k, bs_l, delta), (b_k, b_l, None), (bs_k, bs_l, None)]

    def columns(block: State) -> tuple:
        found = _commutators(block, pairs, modes, max_pairs + 2)
        resid = _norms(next(found))  # released before the vanishing commutators form
        nn = _norms(apply_number(block))
        ratios = np.divide(resid, nn, out=np.full(len(nn), math.inf), where=nn > 0)
        return (ratios, *found)

    return _exact_report(
        "almost_ccr", modes, xi, seed, max_pairs,
        {"lune_k": float(mk), "lune_l": float(modes.lune_size(l))},
        columns, "||E xi|| n_k n_l / ||N xi|| = {:.15g} > 1",
        ["[b_k, b_l] xi != 0", "[b*_k, b*_l] xi != 0"],
    )


def honest_c_bound_constant(modes: ModeSet, k: Momentum, l: Momentum) -> float:
    """Exact truncated-model constant bounding the c-commutator residual.

    The residual is a sum of two one-body hopping operators whose entries
    are (2h+k) over the truncated lune of k, with admissibility fixed by
    the mode set; each acts on one species only, so on equal-pair states
    the bound constant is the mean of the two largest entry norms.
    """
    h = modes.modes[modes.pairs(k)[1]]
    particle = modes.mode_index(h + l) >= modes.n_holes
    hole = modes.mode_index(h + k - l)
    hole = (hole >= 0) & (hole < modes.n_holes)
    w = np.sqrt(np.einsum("ij,ij->i", 2 * h + k, 2 * h + k))
    return 0.5 * float(w.max(initial=0.0, where=particle) + w.max(initial=0.0, where=hole))


def verify_c_commutator(
    modes: ModeSet,
    k: Momentum,
    l: Momentum,
    xi: State,
    seed: int,
    max_pairs: int,
) -> VerificationReport:
    """Check [c*_k, b_l] = -delta_kl f(k) + residual with its norm bound.

    The Kronecker part must equal the truncated pair-average f exactly;
    the residual, contracted with m = k, must obey the exact truncated
    operator-norm constant (``honest_c_bound_constant``); and the
    residual must commute with the fermion number operator, checked in
    exact integer arithmetic on every trial state.  ``xi`` is the block
    ``integer_trials(modes, max_pairs, trials, seed)``, one trial per column.
    Per column group, ``_commutators`` forms the residual one component at
    a time, on xi and on N xi.
    """
    fsum_vec = modes.pair_vector_sum(k)
    f = fsum_vec if tuple(k) == tuple(l) else (0, 0, 0)
    mk = modes.lune_size(k)
    const = honest_c_bound_constant(modes, k, l)
    mnorm = math.sqrt(norm_sq(k))
    # componentwise [c*_k, b_l] + f_i
    pairs = [((True, tuple(k), i), (False, tuple(l), None), f[i]) for i in range(3)]

    def columns(block: State) -> tuple:
        nblock = apply_number(block)
        terms, noncommuting = [], []
        # [residual, N] = 0, both orders, exact integers
        residuals = (_commutators(b, pairs, modes, max_pairs + 1) for b in (block, nblock))
        for i, (resid, resid_n) in enumerate(zip(*residuals)):
            noncommuting.append(_columns_differ(resid_n, apply_number(resid)))
            terms.append((float(k[i]), resid))
        # m . residual with m = k (integer contraction keeps exactness)
        mdot = _linear_combination(terms)
        denom = mnorm * const * _norms(nblock)
        ratios = np.where(_nonzero_trials(mdot), math.inf, 0.0)
        np.divide(_norms(mdot), denom, out=ratios, where=denom > 0)
        return (ratios, *noncommuting)

    details = {
        "lune_k": float(mk),
        "bound_constant": const,
        "f_truncated_dot_k": sum(k[i] * fsum_vec[i] for i in range(3)) / mk if mk else math.nan,
    }
    return _exact_report(
        "c_commutator", modes, xi, seed, max_pairs, details,
        columns, f"residual ratio {{:.15g}} > 1 (constant {const:.6g})",
        [f"residual component {i} does not commute with N" for i in range(3)],
    )


def assemble_quadratic_interaction(
    modes: ModeSet, v: Potential, params: ModelParams, max_pairs: int = 2
) -> Tuple[np.ndarray, Triplets]:
    """The pair-quadratic interaction on the <= max_pairs sector, as triplets.

    Q = (1/2N) sum_k V(k) n_k^2 (2 b*_k b_k + b*_k b*_{-k} + b_{-k} b_k),
    assembled with unnormalized operators (the n_k^2 cancel), compressed
    to the sector: the pair-creating term acts only on the basis
    configurations with at most max_pairs - 2 pairs, so every kept entry
    is the one the compression of a sector matrix gives, and no
    configuration above the cap is formed.  Every basis configuration
    carries its position in the key bits above the mode set, so one
    application of Q to the labelled basis composes all columns at once;
    the triplets are coalesced, one per (row, col).
    """
    basis = sector_basis(modes, max_pairs)
    dim = len(basis)
    if modes.n_modes + max(dim - 1, 0).bit_length() > 63:
        raise DomainError(f"sector dimension {dim} too large to label")
    labelled = (np.arange(dim, dtype=np.int64) << modes.n_modes) | basis
    keys, values = _apply_quadratic(
        (labelled, np.ones(dim, dtype=complex)), modes, v, params, max_pairs
    )
    rows = _positions(basis, keys & ((1 << modes.n_modes) - 1))
    return basis, (rows, keys >> modes.n_modes, values)


def _apply_quadratic(
    state: State, modes: ModeSet, v: Potential, params: ModelParams, max_pairs: int
) -> State:
    """Q applied term by term to a sector state, compressed to the sector.

    b*_k b*_{-k} adds two pairs, so only the configurations with at most
    max_pairs - 2 pairs go into it; b*_k b_k keeps the pair count and
    b_{-k} b_k lowers it.  So no configuration above max_pairs is ever
    formed, and a creation that would form one is a bug that raises.
    """
    keys, amps = state
    room = np.bitwise_count(keys & ((1 << modes.n_modes) - 1)) <= 2 * (max_pairs - 2)
    low = keys[room], amps[room]  # the input of b*_k b*_{-k}
    pieces = []
    for k, value in zip(v.ks, v.vs.tolist()):
        weight = value / (2.0 * params.n)
        if weight == 0.0 or modes.lune_size(k) == 0:
            continue
        neg_k = negate(k)
        b_k = apply_pair_annihilate(state, k, modes)
        pieces += [
            (2.0 * weight, apply_pair_create(b_k, k, modes, cap=max_pairs)),
            (weight, apply_pair_create(
                apply_pair_create(low, neg_k, modes, cap=max_pairs), k, modes, cap=max_pairs
            )),
            (weight, apply_pair_annihilate(b_k, neg_k, modes)),
        ]
    if not pieces:
        return state[0][:0], state[1][:0]
    return _linear_combination(pieces)


def _matvec(triplets: Triplets, vec: np.ndarray) -> np.ndarray:
    """Q vec; each row is 0.0 + its terms left to right in triplet order.

    np.bincount adds its weights into zeros in input order, one call for
    the real and one for the imaginary part of each column of vec.
    """
    rows, cols, values = triplets
    out = np.empty(vec.shape, dtype=complex)
    for column, target in zip(vec.reshape(len(vec), -1).T, out.reshape(len(vec), -1).T):
        terms = column[cols] * values
        target.real = np.bincount(rows, terms.real, minlength=len(vec))
        target.imag = np.bincount(rows, terms.imag, minlength=len(vec))
    return out


def _matvec_rows(triplets: Triplets, vec: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``_matvec(triplets, vec)`` on the rows ``targets`` of vec, zero on every other row.

    ``_matvec`` of the triplets on those rows, kept in triplet order, adds
    a target row's terms in the same order, so it has the same bits; a
    vector that vanishes off the targets has the same vdot with it.
    """
    rows, cols, values = triplets
    wanted = np.zeros(len(vec), dtype=bool)
    wanted[targets] = True
    picked = np.flatnonzero(wanted[rows])
    return _matvec((rows[picked], cols[picked], values[picked]), vec)


def _basis_vector(basis: np.ndarray, state: State) -> np.ndarray:
    """Amplitudes of a sector state laid out in ``sector_basis`` order."""
    keys, amps = state
    vec = np.zeros((len(basis),) + amps.shape[1:], dtype=complex)
    vec[_positions(basis, keys)] = amps
    return vec


def tolerance_scale(values: np.ndarray) -> float:
    """max(1, max |entry|) of an assembled interaction.

    Its checks compare sums of its entries, whose rounding grows with the
    entries, so each absolute tolerance is multiplied by this factor.
    """
    return max(1.0, float(np.abs(values).max())) if len(values) else 1.0


def hermiticity_residual(triplets: Triplets, dim: int) -> float:
    """max |Q_ij - conj(Q_ji)| over the entries of Q, Q_ji = 0 where it is absent.

    The triplets hold one entry per (row, col), so each entry's transpose
    is found by one ``searchsorted`` in the sorted keys row * dim + col.
    The result has the bits of max |Q - Q^dagger| coalesced over those
    keys: the coalesce forms (0.0 + Q_ij) + (-conj Q_ji), the same value
    up to the sign of a zero, and swapping i and j only flips the sign of
    the real part, so a key that only an entry's transpose reaches has
    that entry's |.|.
    """
    rows, cols, values = triplets
    keys = rows * dim + cols
    order = np.argsort(keys)
    keys = keys[order]
    transposed = cols * dim + rows
    at = np.searchsorted(keys, transposed).clip(max=len(keys) - 1)
    found = keys[at] == transposed
    del keys, transposed
    mirror = np.where(found, values[order[at]], 0)
    del order, at, found
    np.subtract(values, np.conjugate(mirror, out=mirror), out=mirror)
    return float(np.abs(mirror).max(initial=0.0))


def verify_quadratic_interaction(
    modes: ModeSet, v: Potential, params: ModelParams, max_pairs: int = 2, seed: int = 42
) -> VerificationReport:
    """Cross-check the assembled interaction against its direct application.

    Asserts hermiticity of the compression, zero vacuum expectation, the
    normalized one-pair diagonal V(k) n_k^2 / N plus nonnegative cross
    terms, and that Q composed first, then projected, agrees with Q
    applied term by term, then projected, on random sector states.  The
    tolerances are 1e-13, 1e-13 and 1e-12 times ``tolerance_scale``.
    """
    basis, triplets = assemble_quadratic_interaction(modes, v, params, max_pairs)
    rows, cols, values = triplets
    dim = len(basis)
    scale = tolerance_scale(values)
    violations: List[str] = []
    herm = hermiticity_residual(triplets, dim)
    if herm > 1e-13 * scale:
        violations.append(f"hermiticity residual {herm:.3e} > {1e-13 * scale:.3g}")
    vac = abs(values[(rows == 0) & (cols == 0)].sum())
    if vac > 0.0:
        violations.append(f"vacuum expectation {vac:.3e} != 0")

    psi = random_sector_state(basis, random.Random(seed), 5)
    direct = _apply_quadratic(psi, modes, v, params, max_pairs)
    devs = np.abs(
        _matvec(triplets, _basis_vector(basis, psi)) - _basis_vector(basis, direct)
    ).max(axis=0)
    for dev in devs.tolist():
        if dev > 1e-13 * scale:
            violations.append(f"matrix vs direct deviation {dev:.3e} > {1e-13 * scale:.3g}")

    one_pair_dev = 0.0
    for k, value in zip(v.ks, v.vs.tolist()):
        nk2 = modes.lune_size(k)
        if nk2 == 0 or value == 0.0:
            continue
        keys, amps = apply_pair_create(vacuum(), k, modes, cap=max_pairs)
        phi = keys, amps * (1.0 / math.sqrt(nk2))  # normalized by the truncated lune norm
        vec = _basis_vector(basis, phi)
        expect = np.vdot(vec, _matvec_rows(triplets, vec, _positions(basis, phi[0])))
        diagonal = value * nk2 / params.n
        if math.isinf(diagonal):  # V(k) n_k^2 alone overflows; the quotient, n_k^2 <= N, does not
            diagonal = value * (nk2 / params.n)
        cross = math.fsum(
            w / params.n * float(state_norm_sq(apply_pair_annihilate(phi, kp, modes)))
            for kp, w in zip(v.ks, v.vs.tolist())
            if kp != k and modes.lune_size(kp) > 0
        )
        dev = abs(expect - (diagonal + cross))
        one_pair_dev = max(one_pair_dev, dev)
        if dev > 1e-12 * scale:
            violations.append(
                f"one-pair expectation at {k}: |{expect:.15g} - "
                f"({diagonal:.15g} + {cross:.15g})| = {dev:.3e}"
            )
    return VerificationReport(
        check="quadratic_interaction",
        modeset=modes.describe(max_pairs),
        seed=seed,
        trials=psi[1].shape[1],
        max_ratio=herm,
        violations=violations,
        details={
            "hermiticity_residual": herm,
            "matrix_vs_direct": max([0.0, *devs.tolist()]),
            "one_pair_deviation": one_pair_dev,
            "dimension": float(dim),
        },
    ).raise_if_violated()
