"""Exact second quantization on a tiny truncated mode set.

Brute-force verification engine for the operator identities behind the
delocalized-pair bosonization.  The modes are one (n_modes, 3) array in
the global mode order: the holes (the Fermi ball) first, then the
particles (the shell between the Fermi radius and a cutoff); one grid
lookup maps a momentum to its position.  Configurations are bitmasks
over those positions, and a state is two numpy arrays: sorted, unique
int64 keys and their complex amplitudes, of shape (n,) for one state or
(n, trials) for a block of trial states that every operator acts on at
once.  Each pair operator is one array pass over a (terms x keys) mask,
so only configurations an operator actually reaches are ever stored;
a pair's fermionic sign is the parity of the occupied modes between its
hole and its particle.  Equal keys are then summed left to right in
input order after one stable sort, so every sum has fixed bits.  The
exact checks share one trial block and form each distinct image of it
once, and the pair-quadratic interaction is applied already projected
to the sector, so no configuration above the pair cap is ever formed.

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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

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
    most GATHER_CHUNK amplitudes at a time.
    """
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    fresh = np.ones(len(keys) + 1, dtype=bool)  # a key starts here (and at the end)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:-1])
    first = np.flatnonzero(fresh[:-1])
    sums = amps.take(order[first], axis=0)
    sums += 0.0
    rows, pos = np.arange(len(first)), first
    step = max(1, GATHER_CHUNK // math.prod(amps.shape[1:]))
    while len(rows):
        pos = pos + 1
        repeat = ~fresh[pos]
        rows, pos = rows[repeat], pos[repeat]
        for lo in range(0, len(rows), step):
            sums[rows[lo : lo + step]] += amps.take(order[pos[lo : lo + step]], axis=0)
    return _drop_zeros(keys[first], sums)


def _linear_combination(terms: Sequence[Tuple[float, State]]) -> State:
    """sum_i c_i state_i over (c_i, state_i), all with the same trial axis."""
    keys = np.concatenate([state[0] for _, state in terms])
    amps = np.concatenate([state[1] for _, state in terms])
    lo = 0
    for c, (part, _) in terms:  # c * amplitudes, scaled in place
        hi = lo + len(part)
        np.multiply(c, amps[lo:hi], out=amps[lo:hi])
        lo = hi
    return _coalesce(keys, amps)


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


def _apply_pair_terms(
    state: State, p_idx: np.ndarray, h_idx: np.ndarray, weights: np.ndarray,
    modes: ModeSet, create: bool, cap: int,
) -> State:
    """Apply sum_j w_j a*_p a*_h (or its adjoint w_j a_h a_p) in one array pass.

    Term j is (p_idx[j], h_idx[j], integer weights[j]).  One (terms x keys)
    mask holds where each term acts (both modes empty for creation, both
    occupied for annihilation); its hits come term by term, each term's
    in key order.  Holes come first, so h < p, and a*_p a*_h (a*_h
    applied first) and its adjoint carry the same sign, -(-1)^(occupied
    modes strictly between h and p).  Creation raises NumericalFailure
    when a new key holds more than cap pairs.  Key bits above the mode set
    ride along untouched.
    """
    keys, amps = state
    both = (1 << p_idx) | (1 << h_idx)
    term, row = np.nonzero((keys & both[:, None]) == (0 if create else both[:, None]))
    cfg = keys[row]
    new = cfg ^ both[term]
    if create and len(new):
        pairs = int(np.bitwise_count(new & ((1 << modes.n_modes) - 1)).max()) // 2
        if pairs > cap:
            raise NumericalFailure(f"configuration with {pairs} pairs exceeds max_pairs = {cap}")
    between = (1 << p_idx) - (2 << h_idx)  # the modes strictly between h and p
    factor = (-weights)[term] * fermion_sign(cfg & between[term], modes.n_modes)
    terms = amps.take(row, axis=0)
    terms *= _column(factor, amps)
    return _coalesce(new, terms)


def _pair_operator(state, k, modes, create, cap, normalized, component=None) -> State:
    """Sum over the truncated lune of k, weight 1 or (p+h)_component per pair."""
    p_idx, h_idx = modes.pairs(k)
    if normalized and not len(h_idx) and norm_sq(k) > 0:
        raise DomainError(f"normalization undefined: empty truncated lune at {k}")
    if component is None:
        weights = np.ones_like(h_idx)
    else:  # (p + h)_i = 2 h_i + k_i
        weights = 2 * modes.modes[h_idx, component] + k[component]
    keep = weights != 0
    keys, amps = _apply_pair_terms(
        state, p_idx[keep], h_idx[keep], weights[keep], modes, create, cap
    )
    if normalized and len(h_idx):
        amps = amps * (1.0 / math.sqrt(len(h_idx)))
    return keys, amps


def apply_pair_create(
    state: State, k: Momentum, modes: ModeSet, *, cap: int, normalized: bool = False
) -> State:
    """Delocalized pair creation with transfer momentum k.

    Unnormalized by default; ``normalized`` divides by the truncated lune
    norm sqrt(n_k^2).  k = 0 gives the zero state (no pair changes the
    total momentum by zero).  Raises NumericalFailure when a resulting
    configuration would exceed cap pairs.
    """
    return _pair_operator(state, k, modes, True, cap, normalized)


def apply_pair_annihilate(
    state: State, k: Momentum, modes: ModeSet, normalized: bool = False
) -> State:
    """Adjoint of apply_pair_create; annihilates the vacuum."""
    return _pair_operator(state, k, modes, False, 0, normalized)


def apply_c_create(
    state: State, k: Momentum, modes: ModeSet, *, cap: int, normalized: bool = False
) -> Tuple[State, State, State]:
    """Vector-weighted pair creation: component i applies (p+h)_i a*_p a*_h."""
    return tuple(
        _pair_operator(state, k, modes, True, cap, normalized, component=i)
        for i in range(3)
    )


def apply_number(state: State) -> State:
    """Fermionic number operator: occupied-mode count, particles plus holes."""
    keys, amps = state
    return _drop_zeros(keys, amps * _column(np.bitwise_count(keys), amps))


def apply_h0(state: State, modes: ModeSet, params: ModelParams) -> State:
    """Excitation kinetic energy hbar^2(sum_p |p|^2 - sum_h |h|^2), diagonal.

    Each key's integer excitation is summed exactly in int64, then
    multiplied by hbar^2 once.
    """
    keys, amps = state
    sq = np.einsum("ij,ij->i", modes.modes, modes.modes)
    signed = np.where(np.arange(modes.n_modes) < modes.n_holes, -sq, sq)
    excitation = ((keys[:, None] >> np.arange(modes.n_modes)) & 1) @ signed
    return _drop_zeros(keys, amps * _column(params.hbar ** 2 * excitation, amps))


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
    rng: np.random.Generator,
    trials: int,
    integer_amplitudes: bool = False,
) -> State:
    """``trials`` random states over ``basis = sector_basis(...)``, as columns.

    With integer_amplitudes the real and imaginary parts are nonzero
    integers in [-999, 999]; every subsequent cancellation is then exact
    in double precision.  Otherwise amplitudes are uniform in the complex
    square and each column is normalized.  The trials are drawn one after
    another, each in ``sector_basis`` order.
    """
    n = len(basis)
    columns = []
    for _ in range(trials):
        if integer_amplitudes:
            re = rng.integers(1, 1000, size=n) * rng.choice([-1, 1], n)
            im = rng.integers(1, 1000, size=n) * rng.choice([-1, 1], n)
            amps = re + 1j * im
        else:
            re = rng.uniform(-1.0, 1.0, size=n)
            im = rng.uniform(-1.0, 1.0, size=n)
            amps = re + 1j * im
            amps = amps * (1.0 / math.sqrt(state_norm_sq((basis, amps))))
        columns.append(amps)
    order = np.argsort(basis)
    return basis[order], np.stack(columns, axis=1)[order]


def integer_trials(modes: ModeSet, max_pairs: int, trials: int, seed: int) -> State:
    """The integer-amplitude trial block of the exact checks, drawn from ``seed``.

    It is drawn from ``default_rng(seed)`` over the <= max_pairs sector,
    one column per trial; a caller running several checks with one seed
    forms it once and hands it to each as ``xi``.
    """
    basis = sector_basis(modes, max_pairs)
    return random_sector_state(basis, np.random.default_rng(seed), trials, True)


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
    column.  Each distinct image is formed once: 6 pair applications at
    k = l, 10 otherwise.
    """
    trials = xi[1].shape[1]
    mk = modes.lune_size(k)
    # an operator is (creates, transfer), so b_k and b_l are one at k = l
    b_k, b_l, bs_k, bs_l = ((c, tuple(q)) for c in (False, True) for q in (k, l))
    images = {}  # each operator's image of xi, kept while a later commutator reads it

    def apply(op, state):
        creates, q = op
        if creates:
            return apply_pair_create(state, q, modes, cap=max_pairs + 2)
        return apply_pair_annihilate(state, q, modes)

    def commutator(a, b, *extra, keep=False):
        """[a, b] xi plus c * state for each (c, state) in extra."""
        for op in (a, b):
            if op not in images:
                images[op] = apply(op, xi)
        ab = apply(a, images[b])
        ba = ab if a == b else apply(b, images[a])
        if not keep:  # no later commutator reads these images
            for op in {a, b}:
                del images[op]
        return _linear_combination([(1, ab), (-1, ba), *extra])

    delta = -float(mk) if b_k == b_l else 0.0
    # b_k xi is read again by [b_k, b_l], b*_l xi by [b*_k, b*_l]
    resid = _norms(commutator(b_k, bs_l, (delta, xi), keep=True))
    nn = _norms(apply_number(xi))
    ratios = np.divide(resid, nn, out=np.full(trials, math.inf), where=nn > 0)
    # [b_k, b_l] and [b*_k, b*_l] vanish exactly (integer amplitudes)
    bb = _nonzero_trials(commutator(b_k, b_l))
    cc = _nonzero_trials(commutator(bs_k, bs_l))
    violations: List[str] = []
    for trial, ratio in enumerate(ratios.tolist()):
        if ratio > 1.0 + 1e-12:
            violations.append(
                f"trial {trial}: ||E xi|| n_k n_l / ||N xi|| = {ratio:.15g} > 1"
            )
        if bb[trial]:
            violations.append(f"trial {trial}: [b_k, b_l] xi != 0")
        if cc[trial]:
            violations.append(f"trial {trial}: [b*_k, b*_l] xi != 0")
    return VerificationReport(
        check="almost_ccr",
        modeset=modes.describe(max_pairs),
        seed=seed,
        trials=trials,
        max_ratio=max([0.0, *ratios.tolist()]),
        violations=violations,
        details={"lune_k": float(mk), "lune_l": float(modes.lune_size(l))},
    ).raise_if_violated()


def _c_residual(
    xi: State, k: Momentum, l: Momentum, modes: ModeSet, cap: int, f: Sequence[int]
) -> List[State]:
    """Componentwise [c*_k, b_l] xi + f_i xi with unnormalized operators.

    Each intermediate image is released once it is read, largest first.
    """
    second = list(apply_c_create(xi, k, modes, cap=cap))
    for i in range(3):
        second[i] = apply_pair_annihilate(second[i], l, modes)
    first = list(apply_c_create(apply_pair_annihilate(xi, l, modes), k, modes, cap=cap))
    for i in range(3):
        first[i] = _linear_combination([(1, first[i]), (-1, second[i]), (f[i], xi)])
        second[i] = None
    return first


def honest_c_bound_constant(modes: ModeSet, k: Momentum, l: Momentum) -> float:
    """Exact truncated-model constant bounding the c-commutator residual.

    The residual is a sum of two one-body hopping operators whose entries
    are (2h+k) with admissibility fixed by the mode set; each acts on one
    species only, so on equal-pair states the bound constant is the mean
    of the two largest entry norms.
    """
    n, h = modes.n_holes, modes.modes[: modes.n_holes]
    p = modes.mode_index(h + k) >= n
    particle = p & (modes.mode_index(h + l) >= n)
    hole = modes.mode_index(h + k - l)
    hole = p & (hole >= 0) & (hole < n)
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
    """
    fsum_vec = modes.pair_vector_sum(k)
    f = fsum_vec if tuple(k) == tuple(l) else (0, 0, 0)
    mk = modes.lune_size(k)
    const = honest_c_bound_constant(modes, k, l)
    mnorm = math.sqrt(norm_sq(k))
    lifted = max_pairs + 1
    resid = _c_residual(xi, k, l, modes, lifted, f)
    # m . residual with m = k (integer contraction keeps exactness)
    mdot = _linear_combination([(float(k[i]), resid[i]) for i in range(3)])
    nxi = apply_number(xi)
    denom = mnorm * const * _norms(nxi)
    ratios = np.where(_nonzero_trials(mdot), math.inf, 0.0)
    np.divide(_norms(mdot), denom, out=ratios, where=denom > 0)
    # [residual, N] = 0, both orders, exact integers
    resid_n = _c_residual(nxi, k, l, modes, lifted, f)
    noncommuting = [
        _nonzero_trials(
            _linear_combination([(1, resid_n[i]), (-1, apply_number(resid[i]))])
        )
        for i in range(3)
    ]
    violations: List[str] = []
    for trial, ratio in enumerate(ratios.tolist()):
        if ratio > 1.0 + 1e-12:
            violations.append(
                f"trial {trial}: residual ratio {ratio:.15g} > 1 "
                f"(constant {const:.6g})"
            )
        for i in range(3):
            if noncommuting[i][trial]:
                violations.append(
                    f"trial {trial}: residual component {i} does not commute with N"
                )
    return VerificationReport(
        check="c_commutator",
        modeset=modes.describe(max_pairs),
        seed=seed,
        trials=xi[1].shape[1],
        max_ratio=max([0.0, *ratios.tolist()]),
        violations=violations,
        details={
            "lune_k": float(mk),
            "bound_constant": const,
            "f_truncated_dot_k": (
                sum(k[i] * fsum_vec[i] for i in range(3)) / mk if mk else math.nan
            ),
        },
    ).raise_if_violated()


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
        hop = apply_pair_create(b_k, k, modes, cap=max_pairs)
        up = apply_pair_create(low, neg_k, modes, cap=max_pairs)
        up = apply_pair_create(up, k, modes, cap=max_pairs)
        down = apply_pair_annihilate(b_k, neg_k, modes)
        pieces += [(2.0 * weight, hop), (weight, up), (weight, down)]
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
    # Q - Q^dagger, coalesced over row * dim + col
    _, skew = _coalesce(
        np.concatenate([rows * dim + cols, cols * dim + rows]),
        np.concatenate([values, -values.conj()]),
    )
    herm = float(np.abs(skew).max()) if len(skew) else 0.0
    if herm > 1e-13 * scale:
        violations.append(f"hermiticity residual {herm:.3e} > {1e-13 * scale:.3g}")
    vac = abs(values[(rows == 0) & (cols == 0)].sum())
    if vac > 0.0:
        violations.append(f"vacuum expectation {vac:.3e} != 0")

    rng = np.random.default_rng(seed)
    psi = random_sector_state(basis, rng, 5)
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
        phi = apply_pair_create(vacuum(), k, modes, cap=max_pairs, normalized=True)
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
