"""Exact second quantization on a tiny truncated mode set.

Brute-force verification engine for the operator identities behind the
delocalized-pair bosonization.  The modes are one (n_modes, 3) array in
the global mode order: the holes (the Fermi ball) first, then the
particles (the shell between the Fermi radius and a cutoff); one grid
lookup maps a momentum to its position.  Configurations are bitmasks
over those positions, and a state is two numpy arrays: sorted, unique
int64 keys and their complex amplitudes.  Each pair operator reads a
(terms x keys) mask of where its terms act, so only configurations an
operator actually reaches are ever stored; a pair's fermionic sign is
the parity of the occupied modes between its hole and its particle.
Every sum, of equal keys and of each row of Q vec, is one ``_sum_into``:
0.0 + a_0 + a_1 + ... left to right in input order, so its bits are fixed.
The pair-quadratic interaction is applied already projected to the
sector, so no configuration above the pair cap is ever formed.

Total-momentum blocks: every operator a check applies shifts the total
momentum P = sum p - sum h by a fixed d, and N and Q conserve it, so a
bound holds on the sector exactly when it holds on every P-block, and
images of different blocks never share a key.  The exact checks' trials
share the blocks (``sector_blocks``) out, so every block is checked at
any trial count, each block projection of a trial on its own; they are
read in groups of at most COLUMN_BUDGET configurations, one labelled
state each (``_labelled``).  Q is assembled only on the blocks its check
reads.

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
from typing import Callable, Dict, Iterator, List, NamedTuple, Tuple

import numpy as np

from .errors import BoundViolation, DomainError, NumericalFailure
from .lattice import ModelParams, Momentum, build_fermi_ball, negate, norm_sq
from .potential import Potential

MODE_CAP = 40
# An exact check reads at most COLUMN_BUDGET configurations of its trials at
# once (or one block)
COLUMN_BUDGET = 3 << 11
_SIGNS = np.array([1, -1])  # (-1)^parity, looked up by parity

# (sorted unique int64 configuration keys, complex amplitudes)
State = Tuple[np.ndarray, np.ndarray]
# (rows, cols, values) of an operator over sector_basis positions
Triplets = Tuple[np.ndarray, np.ndarray, np.ndarray]


class ModeSet:
    """The truncated mode set as one (n_modes, 3) int64 array, holes first.

    Rows are in the global mode order: the first n_holes are the closed
    shell |h|^2 <= hole_radius_sq, the rest the particles up to
    lambda_sq.  ``mode_index`` answers every membership question (is
    h + k a particle, is h + k - l a hole) with one grid lookup.  A mode
    set compares by identity: it caches each k's pairs and each pair
    cap's blocks as they are first asked for.
    """

    __slots__ = ("modes", "n_holes", "hole_radius_sq", "lambda_sq", "_grid", "_pairs", "_blocks")

    def __init__(self, modes: np.ndarray, n_holes: int, hole_radius_sq: int, lambda_sq: int):
        self.modes, self.n_holes = modes, n_holes
        self.hole_radius_sq, self.lambda_sq = hole_radius_sq, lambda_sq
        n, m = n_holes, self.n_modes
        if m > MODE_CAP:
            raise DomainError(f"mode set too large: {n}+{m - n} > {MODE_CAP}")
        # the cutoff ball plus a -1 border for clipped queries: side 2r + 1 <= 15
        r = math.isqrt(lambda_sq) + 1
        self._grid = np.full((2 * r + 1,) * 3, -1, dtype=np.int64)
        self._grid[tuple((modes + r).T)] = np.arange(m)
        self._pairs: Dict[Momentum, Tuple[np.ndarray, np.ndarray]] = {}
        self._blocks: Dict[int, Dict[Momentum, np.ndarray]] = {}

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


def _cutoff_modes(lambda_sq: int) -> np.ndarray:
    """The points of {|h|^2 <= lambda_sq} as an (m, 3) array in the global mode
    order: |h|^2, then lexicographic (a stable sort of the lexicographic scan)."""
    span = range(-math.isqrt(lambda_sq), math.isqrt(lambda_sq) + 1)
    points = [(x, y, z) for x in span for y in span for z in span if x * x + y * y + z * z <= lambda_sq]
    points.sort(key=norm_sq)
    return np.array(points, dtype=np.int64)


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
        modes=_cutoff_modes(lambda_sq),
        n_holes=n,
        hole_radius_sq=shell,
        lambda_sq=lambda_sq,
    )


# --- array states and the pair-term kernel ------------------------------------


def vacuum() -> State:
    return np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex)


def _drop_zeros(keys: np.ndarray, amps: np.ndarray) -> State:
    keep = amps != 0
    if keep.all():
        return keys, amps
    return keys[keep], amps[keep]


def _sum_into(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """``size`` complex sums, sum i = 0.0 + each values[j] with index[j] == i.

    np.bincount adds its weights into zeros in input order, one call for
    the real and one for the imaginary parts, so every sum has the bits
    of 0.0 + a_0 + a_1 + ... left to right (and -0.0 becomes 0.0).
    """
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(index, values.real, minlength=size)
    out.imag = np.bincount(index, values.imag, minlength=size)
    return out


def _coalesce(keys: np.ndarray, amps: np.ndarray) -> State:
    """Sum the amplitudes of equal keys, in input order; drop exact zeros.

    A stable argsort ranks the keys; it merges the sorted run that each
    pair term's hits already form, since cfg ^ both is monotone in cfg.
    ``_sum_into`` then sums each input position's amplitude into its
    key's rank, in input order.  The sort's arrays are released first.
    """
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    fresh = np.ones(len(keys), dtype=bool)  # a new key starts here
    np.not_equal(ranked[1:], ranked[:-1], out=fresh[1:])
    unique = ranked[fresh]
    rank = np.empty_like(order)
    rank[order] = np.cumsum(fresh, out=ranked)
    rank -= 1
    del order, ranked, fresh
    return _drop_zeros(unique, _sum_into(rank, amps, len(unique)))


def _linear_combination(pieces: List[Tuple[float, State]]) -> State:
    """sum_i c_i state_i over (c_i, state_i).

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


def _squares(amps: np.ndarray) -> np.ndarray:
    return amps.real * amps.real + amps.imag * amps.imag


def fermion_sign(keys: np.ndarray, idx: int) -> np.ndarray:
    """(-1)^(occupied modes below idx) for each configuration key, as int64."""
    return _SIGNS[np.bitwise_count(keys & ((1 << idx) - 1)) & 1]


def _apply_pair_terms(
    state: State, p_idx: np.ndarray, h_idx: np.ndarray, weights: np.ndarray,
    modes: ModeSet, create: bool, cap: int,
) -> State:
    """Apply sum_j w_j a*_p a*_h (or its adjoint w_j a_h a_p) to a state.

    Term j is (p_idx[j], h_idx[j], integer weights[j]).  One (terms x keys)
    mask holds where each term acts (both modes empty for creation, both
    occupied for annihilation); its hits come term by term, each term's
    in key order, and one coalesce sums them.  Holes come first, so h < p,
    and a*_p a*_h (a*_h applied first) and its adjoint carry the same
    sign, -(-1)^(occupied modes strictly between h and p).  Creation
    raises NumericalFailure when a new key holds more than cap pairs.  Key
    bits above the mode set ride along untouched.
    """
    keys, amps = state
    both = (1 << p_idx) | (1 << h_idx)
    acts = (keys & both[:, None]) == (0 if create else both[:, None])
    if create and acts.any():  # a creation adds one pair to the key it acts on
        occupied = np.bitwise_count(keys[acts.any(axis=0)] & ((1 << modes.n_modes) - 1))
        pairs = int(occupied.max()) // 2 + 1
        if pairs > cap:
            raise NumericalFailure(f"configuration with {pairs} pairs exceeds max_pairs = {cap}")
    term, row = np.nonzero(acts)
    del acts
    values = amps.take(row)
    cfg = keys[row]
    del row
    between = (1 << p_idx) - (2 << h_idx)  # the modes strictly between h and p
    factor = fermion_sign(cfg & between[term], modes.n_modes)
    factor *= (-weights)[term]
    values *= factor
    del factor
    cfg ^= both[term]
    del term  # released before the sums form
    return _coalesce(cfg, values)


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
    occupied = np.bitwise_count(keys & ((1 << MODE_CAP) - 1))  # labels sit above MODE_CAP
    return _drop_zeros(keys, amps * occupied)


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


def sector_blocks(modes: ModeSet, max_pairs: int) -> Dict[Momentum, np.ndarray]:
    """``sector_basis`` split by total momentum P = sum p - sum h: {P: configurations}.

    Largest block first, ties by P; each block keeps the basis order
    (ascending pair count, then ascending bitmask).  A configuration's P
    is one integer code, summed over its occupied modes, so no (dim x 3)
    momentum table forms.  The read-only blocks are built once per mode
    set and pair cap.
    """
    if max_pairs in modes._blocks:
        return modes._blocks[max_pairs]
    basis = sector_basis(modes, max_pairs)
    pairs = min(max_pairs, modes.n_holes, modes.n_modes - modes.n_holes)
    base = 4 * pairs * math.isqrt(modes.lambda_sq) + 1  # > 2 |P_i|: codes order as P
    signed = np.where(np.arange(modes.n_modes) < modes.n_holes, -1, 1)[:, None] * modes.modes
    code, term = np.zeros(len(basis), dtype=np.int64), np.empty(len(basis), dtype=np.int64)
    for i, weight in enumerate((signed @ np.array([base * base, base, 1])).tolist()):
        np.bitwise_and(np.right_shift(basis, i, out=term), 1, out=term)
        code += np.multiply(term, weight, out=term)
    order = np.argsort(code, kind="stable")
    code, basis = code.take(order, out=term), basis[order]
    starts = np.flatnonzero(np.diff(code, prepend=code[0] - 1))
    sizes = np.diff(starts, append=len(code))
    momenta = ((basis[starts, None] >> np.arange(modes.n_modes)) & 1) @ signed
    basis.flags.writeable = False
    blocks = modes._blocks[max_pairs] = {
        tuple(momenta[b].tolist()): basis[starts[b] : starts[b] + sizes[b]]
        for b in np.lexsort((code[starts], -sizes)).tolist()
    }
    return blocks


def _lookup(table: np.ndarray, queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(pos, found): table[pos] == queries exactly where found, for unique table entries."""
    order = np.argsort(table)
    pos = order.take(np.searchsorted(table[order], queries), mode="clip")
    return pos, table[pos] == queries


def _positions(basis: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position in ``basis`` of each key; a DomainError names the first missing key."""
    pos, found = _lookup(basis, keys)
    if not found.all():
        key = int(keys[found.argmin()])
        raise DomainError(f"configuration {key} (0b{key:b}) is not in the sector basis")
    return pos


def _trial_blocks(blocks: Dict[Momentum, np.ndarray]) -> Dict[Momentum, np.ndarray]:
    """The blocks a trial state may lie in, in ``sector_blocks`` order.

    The vacuum is never a trial: N annihilates it, so a ratio over N is
    inf there, and every residual the exact checks bound vanishes on it.
    It leads the P = 0 block, which drops it, and drops out if it held nothing else.
    """
    return {p: keys[1:] if keys[0] == 0 else keys for p, keys in blocks.items() if keys[-1] != 0}


def random_sector_state(
    blocks: List[np.ndarray], rng: random.Random, trials: int, integer_amplitudes: bool = False
) -> List[List[State]]:
    """``trials`` random states, trial j over blocks j, j + trials, j + 2 trials, ...

    or over block j mod len(blocks) alone once the trials outnumber the
    blocks.  The trials are drawn one after another, each by one
    ``getrandbits`` call for 2n little-endian words w over its n
    configurations, its blocks in order: the real parts, then the
    imaginary parts.  With integer_amplitudes a part is (-1)^(w & 1) ((w >>
    1) % 999 + 1), a nonzero integer in [-999, 999] from a 32-bit word, so
    every later cancellation is exact in double precision.  Otherwise it
    is (w >> 11) 2^-52 - 1, uniform on the multiples of 2^-52 in [-1, 1)
    from a 64-bit word, and each trial is normalized.  A trial comes as its
    block states (sorted keys, amplitudes), in block order.
    """
    width = 4 if integer_amplitudes else 8  # bytes per word
    states = []
    for j in range(trials):
        own = blocks[j % len(blocks) :: trials]
        n = sum(map(len, own))
        words = np.frombuffer(
            rng.getrandbits(16 * n * width).to_bytes(2 * n * width, "little"), dtype=f"<u{width}"
        )
        if integer_amplitudes:  # in int16, so a large trial's temporaries stay small
            parts = ((words >> 1) % 999 + 1).astype(np.int16)
            np.negative(parts, out=parts, where=(words & 1).astype(bool))
        else:
            parts = (words >> 11) * 2.0**-52 - 1.0
        amps = np.empty(n, dtype=complex)
        amps.real, amps.imag = parts[:n], parts[n:]
        if not integer_amplitudes:
            amps *= 1.0 / math.sqrt(math.fsum(_squares(amps).tolist()))
        orders = [np.argsort(block) for block in own]
        values = np.split(amps, np.cumsum([len(block) for block in own[:-1]]))
        states.append([(b[o], a[o]) for b, a, o in zip(own, values, orders)])
    return states


def integer_trials(modes: ModeSet, max_pairs: int, trials: int, seed: int) -> List[List[State]]:
    """The integer-amplitude trial states of the exact checks, drawn from ``seed``.

    They are drawn from ``random.Random(seed)`` over the <= max_pairs
    sector's trial blocks (``_trial_blocks``); a caller running several
    checks with one seed forms them once and hands them to each as ``xi``.
    """
    blocks = _trial_blocks(sector_blocks(modes, max_pairs))
    return random_sector_state(list(blocks.values()), random.Random(seed), trials, True)


def _labelled(states: List[State]) -> State:
    """States as one state, state j labelled j in the key bits above MODE_CAP.

    Each state's keys must be sorted and below 2^MODE_CAP, so the labelled
    keys come out sorted, by label and then by key, with no sort.  No
    operator reads or writes the label bits, so two labels' amplitudes
    never sum.
    """
    labels = np.repeat(np.arange(len(states)), [len(keys) for keys, _ in states])
    keys = np.concatenate([keys for keys, _ in states]) | (labels << MODE_CAP)
    return keys, np.concatenate([amps for _, amps in states])


def _bounds(keys: np.ndarray, count: int) -> List[int]:
    """Where each of the ``count`` labels of sorted labelled keys starts, then the end."""
    return np.searchsorted(keys >> MODE_CAP, np.arange(count + 1)).tolist()


def _label_norm_sq(state: State, count: int) -> List[float]:
    """Squared norm of each of a labelled state's ``count`` labels, one fsum each."""
    squares, bounds = _squares(state[1]).tolist(), _bounds(state[0], count)
    return [math.fsum(squares[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _labels_differ(u: State, w: State, count: int) -> List[bool]:
    """Per label of two coalesced labelled states: is u - w nonzero there.

    Coalesced states are canonical (sorted unique keys, no zero amplitude,
    no -0.0), and on finite amplitudes a - b is zero exactly when a == b.
    """
    if np.array_equal(u[0], w[0]) and np.array_equal(u[1], w[1]):
        return [False] * count
    (uk, ua), (wk, wa), ub, wb = u, w, _bounds(u[0], count), _bounds(w[0], count)
    return [
        not (np.array_equal(uk[a:b], wk[c:d]) and np.array_equal(ua[a:b], wa[c:d]))
        for a, b, c, d in zip(ub, ub[1:], wb, wb[1:])
    ]


# --- verification reports ---------------------------------------------------


class VerificationReport(NamedTuple):
    check: str
    modeset: str
    seed: int
    trials: int
    max_ratio: float
    violations: List[str]
    details: Dict[str, float]

    def raise_if_violated(self) -> "VerificationReport":
        if self.violations:
            raise BoundViolation(f"{self.check}: {self.violations[0]}", report=self)
        return self


def _column_groups(xi: List[List[State]]) -> Iterator[Tuple[List[int], State]]:
    """The trials' block states in consecutive groups: (each label's trial, the state).

    A group is one ``_labelled`` state, one label per block, of at most
    COLUMN_BUDGET configurations or of one block; a trial's blocks may
    span groups.
    """
    owners, group, rows = [], [], 0
    for trial, states in enumerate(xi):
        for state in states:
            if group and rows + len(state[0]) > COLUMN_BUDGET:
                yield owners, _labelled(group)
                owners, group, rows = [], [], 0
            owners.append(trial)
            group.append(state)
            rows += len(state[0])
    yield owners, _labelled(group)


def _commutators(group: State, pairs: list, modes: ModeSet, cap: int, count: int) -> Iterator:
    """([a, b] + shift) group for each (a, b, shift) of ``pairs``, in order.

    An operator is (creates, transfer, component): b*_q or b_q, or with a
    component i the i-th component of c*_q, all unnormalized; creations
    take the pair cap ``cap``.  Each result is a ``_linear_combination``,
    but a shift of None marks a commutator that must vanish: for it comes
    whether [a, b] group is nonzero on each of the group's ``count``
    labels, ab group compared with ba group (``_labels_differ``), and
    [a, a] = 0 forms nothing.  Each distinct image b group is formed once,
    at its first read, and released at its last, so a caller that reads
    each result before asking for the next holds only the images still to
    be read.
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
        """a b group."""
        if b not in images:
            images[b] = apply(b, group)
        reads[b] -= 1
        return apply(a, images[b] if reads[b] else images.pop(b))

    for a, b, shift in pairs:
        if a == b:
            yield [False] * count
        elif shift is None:
            yield _labels_differ(product(a, b), product(b, a), count)
        else:
            yield _linear_combination([(1, product(a, b)), (-1, product(b, a)), (shift, group)])


def _exact_report(
    check: str, modes: ModeSet, xi: List[List[State]], seed: int, max_pairs: int,
    details: Dict[str, float], columns: Callable[[State, int], Iterator],
    ratio: Callable[[float, float], float], ratio_line: str, flag_lines: List[str],
) -> VerificationReport:
    """The report of an exact check on the trial states ``xi``.

    ``columns(group, count)`` gives, per label (block) of each
    ``_column_groups(xi)`` group, the squared norms of the residual the
    check bounds and of the state it bounds it by, then one flag per entry
    of ``flag_lines``.  Every block projection of a trial is checked: its
    ratio is the largest ``ratio(residual norm, bounding norm)`` of its
    blocks, and its violations are that ratio above 1 + 1e-12
    (``ratio_line`` formatted with it), then the lines of the flags set on
    any of its blocks.
    """
    block_ratios: List[List[float]] = [[] for _ in xi]
    flags = [[False] * len(flag_lines) for _ in xi]
    for owners, group in _column_groups(xi):
        for trial, (r, b, *found) in zip(owners, columns(group, len(owners))):
            block_ratios[trial].append(ratio(math.sqrt(r), math.sqrt(b)))
            flags[trial] = [a or f for a, f in zip(flags[trial], found)]
    ratios = [max(r) for r in block_ratios]
    violations: List[str] = []
    for trial, value in enumerate(ratios):
        lines = [ratio_line.format(value)] if value > 1.0 + 1e-12 else []
        lines += [line for line, flag in zip(flag_lines, flags[trial]) if flag]
        violations += [f"trial {trial}: {line}" for line in lines]
    return VerificationReport(
        check=check,
        modeset=modes.describe(max_pairs),
        seed=seed,
        trials=len(ratios),
        max_ratio=max([0.0, *ratios]),
        violations=violations,
        details=details,
    ).raise_if_violated()


def verify_almost_ccr(
    modes: ModeSet, k: Momentum, l: Momentum, xi: List[List[State]], seed: int, max_pairs: int
) -> VerificationReport:
    """Check the approximate canonical commutator relations by brute force.

    On every trial state xi the residual E(k,l) = [b_k, b*_l] - delta_kl
    must obey ||E xi|| * n_k n_l <= ||N xi|| (computed here with the
    unnormalized operators, so the k = l subtraction is an exact integer),
    and [b_k, b_l], [b*_k, b*_l] must vanish identically.  ``xi`` is
    ``integer_trials(modes, max_pairs, trials, seed)``, each trial's block
    states.  Per column group, ``_commutators`` makes 10 pair applications,
    4 at k = l, where [b_k, b_l] and [b*_k, b*_l] are [a, a] = 0.
    """
    mk = modes.lune_size(k)
    # (creates, transfer, component), so b_k and b_l are one operator at k = l
    b_k, b_l, bs_k, bs_l = ((c, tuple(q), None) for c in (False, True) for q in (k, l))
    delta = -float(mk) if b_k == b_l else 0.0
    pairs = [(b_k, bs_l, delta), (b_k, b_l, None), (bs_k, bs_l, None)]

    def columns(group: State, count: int) -> Iterator:
        found = _commutators(group, pairs, modes, max_pairs + 2, count)
        resid = _label_norm_sq(next(found), count)  # freed before the vanishing commutators form
        return zip(resid, _label_norm_sq(apply_number(group), count), *found)

    return _exact_report(
        "almost_ccr", modes, xi, seed, max_pairs,
        {"lune_k": float(mk), "lune_l": float(modes.lune_size(l))},
        columns, lambda resid, nn: resid / nn if nn > 0 else math.inf,
        "||E xi|| n_k n_l / ||N xi|| = {:.15g} > 1",
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
    modes: ModeSet, k: Momentum, l: Momentum, xi: List[List[State]], seed: int, max_pairs: int
) -> VerificationReport:
    """Check [c*_k, b_l] = -delta_kl f(k) + residual with its norm bound.

    The Kronecker part must equal the truncated pair-average f exactly;
    the residual, contracted with m = k, must obey the exact truncated
    operator-norm constant (``honest_c_bound_constant``); and the
    residual must commute with the fermion number operator, checked in
    exact integer arithmetic on every trial state.  ``xi`` is
    ``integer_trials(modes, max_pairs, trials, seed)``, each trial's block states.
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

    def columns(group: State, count: int) -> Iterator:
        ngroup = apply_number(group)
        terms, noncommuting = [], []
        # [residual, N] = 0, both orders, exact integers
        residuals = (_commutators(b, pairs, modes, max_pairs + 1, count) for b in (group, ngroup))
        for i, (resid, resid_n) in enumerate(zip(*residuals)):
            noncommuting.append(_labels_differ(resid_n, apply_number(resid), count))
            terms.append((float(k[i]), resid))
        # m . residual with m = k (integer contraction keeps exactness)
        mdot = _linear_combination(terms)
        return zip(_label_norm_sq(mdot, count), _label_norm_sq(ngroup, count), *noncommuting)

    def ratio(mdot: float, nn: float) -> float:
        denom = mnorm * const * nn
        return mdot / denom if denom > 0 else (math.inf if mdot > 0 else 0.0)

    details = {
        "lune_k": float(mk),
        "bound_constant": const,
        "f_truncated_dot_k": sum(k[i] * fsum_vec[i] for i in range(3)) / mk if mk else math.nan,
    }
    return _exact_report(
        "c_commutator", modes, xi, seed, max_pairs, details, columns, ratio,
        f"residual ratio {{:.15g}} > 1 (constant {const:.6g})",
        [f"residual component {i} does not commute with N" for i in range(3)],
    )


def assemble_quadratic_interaction(
    modes: ModeSet, v: Potential, params: ModelParams, max_pairs: int, basis: np.ndarray
) -> Triplets:
    """The pair-quadratic interaction on the configurations ``basis``, as triplets.

    Q = (1/2N) sum_k V(k) n_k^2 (2 b*_k b_k + b*_k b*_{-k} + b_{-k} b_k),
    assembled with unnormalized operators (the n_k^2 cancel), compressed
    to the <= max_pairs sector: the pair-creating term acts only on the
    configurations with at most max_pairs - 2 pairs, so every kept entry
    is the one the compression of a sector matrix gives, and no
    configuration above the cap is formed.  ``basis`` is a union of
    ``sector_blocks``; Q conserves P, so it maps the union into itself.
    Every configuration carries its position in the key bits above the
    mode set, so one application of Q to the labelled basis composes all
    columns at once; the triplets are coalesced, one per (row, col), with
    rows and cols positions in ``basis``.
    """
    dim = len(basis)
    if modes.n_modes + max(dim - 1, 0).bit_length() > 63:
        raise DomainError(f"{dim} configurations too many to label")
    labelled = (np.arange(dim, dtype=np.int64) << modes.n_modes) | basis
    keys, values = _apply_quadratic(
        (labelled, np.ones(dim, dtype=complex)), modes, v, params, max_pairs
    )
    rows = _positions(basis, keys & ((1 << modes.n_modes) - 1))
    return rows, keys >> modes.n_modes, values


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
    for k, value in zip(v.ks, v.vs):
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
    """Q vec; each row is 0.0 + its terms left to right in triplet order (``_sum_into``)."""
    rows, cols, values = triplets
    out = np.empty(vec.shape, dtype=complex)
    for column, target in zip(vec.reshape(len(vec), -1).T, out.reshape(len(vec), -1).T):
        target[:] = _sum_into(rows, column[cols] * values, len(vec))
    return out


def _basis_vector(basis: np.ndarray, state: State, count: int = 1) -> np.ndarray:
    """A sector state's amplitudes in ``basis`` order, one column per label (``count``)."""
    keys, amps = state
    vec = np.zeros((len(basis), count), dtype=complex)
    vec[_positions(basis, keys & ((1 << MODE_CAP) - 1)), keys >> MODE_CAP] = amps
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
    is found by one ``_lookup`` in the keys row * dim + col.
    The result has the bits of max |Q - Q^dagger| coalesced over those
    keys: the coalesce forms (0.0 + Q_ij) + (-conj Q_ji), the same value
    up to the sign of a zero, and swapping i and j only flips the sign of
    the real part, so a key that only an entry's transpose reaches has
    that entry's |.|.
    """
    rows, cols, values = triplets
    at, found = _lookup(rows * dim + cols, cols * dim + rows)
    mirror = np.where(found, values[at], 0)
    del at, found
    np.subtract(values, np.conjugate(mirror, out=mirror), out=mirror)
    return float(np.abs(mirror).max(initial=0.0))


def verify_quadratic_interaction(
    modes: ModeSet, v: Potential, params: ModelParams, max_pairs: int = 2, seed: int = 42
) -> VerificationReport:
    """Cross-check the assembled interaction against its direct application.

    Asserts hermiticity of the compression, zero vacuum expectation, the
    normalized one-pair diagonal V(k) n_k^2 / N plus nonnegative cross
    terms, and that Q composed first, then projected, agrees with Q
    applied term by term, then projected, on 5 random trial states.  The
    tolerances are 1e-13, 1e-13 and 1e-12 times ``tolerance_scale``.  Q
    conserves P, so it is assembled only on the blocks these read: the
    trials' blocks, the vacuum's (P = 0) and each one-pair state's
    (P = k); the hermiticity residual and the deviations are taken there.
    """
    blocks = sector_blocks(modes, max_pairs)
    trial_blocks = _trial_blocks(blocks)
    heads = list(trial_blocks.values())[:5]  # trial j in block j
    trials = random_sector_state(heads, random.Random(seed), 5)
    psi = _labelled([block for trial in trials for block in trial])
    support = [(k, w) for k, w in zip(v.ks, v.vs) if modes.lune_size(k) > 0]
    one_pair = [(k, w) for k, w in support if w != 0.0]  # phi_k = b*_k|0> / n_k, in P = k
    read = {(0, 0, 0), *list(trial_blocks)[:5], *dict(one_pair)}
    basis = np.concatenate([keys for p, keys in blocks.items() if p in read])
    triplets = assemble_quadratic_interaction(modes, v, params, max_pairs, basis)
    rows, cols, values = triplets
    scale = tolerance_scale(values)
    violations: List[str] = []
    herm = hermiticity_residual(triplets, len(basis))
    if herm > 1e-13 * scale:
        violations.append(f"hermiticity residual {herm:.3e} > {1e-13 * scale:.3g}")
    (at,) = _positions(basis, vacuum()[0])
    vac = abs(values[(rows == at) & (cols == at)].sum())
    if vac > 0.0:
        violations.append(f"vacuum expectation {vac:.3e} != 0")

    direct = _apply_quadratic(psi, modes, v, params, max_pairs)
    devs = np.abs(
        _matvec(triplets, _basis_vector(basis, psi, 5)) - _basis_vector(basis, direct, 5)
    ).max(axis=0)
    for dev in devs.tolist():
        if dev > 1e-13 * scale:
            violations.append(f"matrix vs direct deviation {dev:.3e} > {1e-13 * scale:.3g}")

    if one_pair:  # the phi_k as the labels of one state: each b_k' is applied once
        phi = _labelled([
            (keys, amps * (1.0 / math.sqrt(modes.lune_size(k))))  # the truncated lune norm
            for k, _ in one_pair
            for keys, amps in [apply_pair_create(vacuum(), k, modes, cap=max_pairs)]
        ])
        vecs = _basis_vector(basis, phi, len(one_pair))
        images = _matvec(triplets, vecs)
        removed = [_label_norm_sq(apply_pair_annihilate(phi, kp, modes), len(one_pair))
                   for kp, _ in support]
    one_pair_dev = 0.0
    for column, (k, value) in enumerate(one_pair):
        nk2 = modes.lune_size(k)
        expect = np.vdot(vecs[:, column], images[:, column])
        diagonal = value * nk2 / params.n
        if math.isinf(diagonal):  # V(k) n_k^2 alone overflows; the quotient, n_k^2 <= N, does not
            diagonal = value * (nk2 / params.n)
        terms = zip(support, removed)
        cross = math.fsum(w / params.n * n[column] for (kp, w), n in terms if kp != k)
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
        trials=len(trials),
        max_ratio=herm,
        violations=violations,
        details={
            "hermiticity_residual": herm,
            "matrix_vs_direct": max([0.0, *devs.tolist()]),
            "one_pair_deviation": one_pair_dev,
            "dimension": float(sum(map(len, blocks.values()))),
        },
    ).raise_if_violated()
