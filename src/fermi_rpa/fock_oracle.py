"""Exact second quantization on a tiny truncated mode set.

Brute-force verification engine for the operator identities behind the
delocalized-pair bosonization: configurations are bitmasks over a finite
mode list (hole modes = the Fermi ball, particle modes = the shell
between the Fermi radius and a cutoff), fermionic signs come from the
global mode order, and states are sparse maps from configuration to
complex amplitude restricted to equal particle and hole counts.

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
are checked on the same states since ratios are scale-free.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BoundViolation, DomainError, EmptyLune, TruncationOverflow
from .lattice import (
    ModelParams,
    Momentum,
    add,
    build_fermi_ball,
    mode_sort_key,
    norm_sq,
)
from .potential import Potential

MODE_CAP = 40


@dataclass(frozen=True)
class ModeSet:
    """Hole and particle modes in the global order, holes first."""

    holes: Tuple[Momentum, ...]
    particles: Tuple[Momentum, ...]
    hole_radius_sq: int
    lambda_sq: int

    def __post_init__(self):
        if len(self.holes) + len(self.particles) > MODE_CAP:
            raise DomainError(
                f"mode set too large: {len(self.holes)}+{len(self.particles)} "
                f"> {MODE_CAP}"
            )

    @cached_property
    def particle_index(self) -> Dict[Momentum, int]:
        """Position of each particle mode in ``particles``."""
        return {m: i for i, m in enumerate(self.particles)}

    @cached_property
    def hole_index(self) -> Dict[Momentum, int]:
        """Position of each hole mode in ``holes``."""
        return {m: i for i, m in enumerate(self.holes)}

    @property
    def n_modes(self) -> int:
        return len(self.holes) + len(self.particles)

    @property
    def hole_indices(self) -> range:
        return range(len(self.holes))

    @property
    def particle_indices(self) -> range:
        return range(len(self.holes), self.n_modes)

    def pairs_for(self, k: Momentum) -> List[Tuple[int, int, Momentum, Momentum]]:
        """(p_idx, h_idx, p, h) for every hole h with h+k a particle mode.

        Ordered by the hole's position in the global mode order; this is
        the fixed pair order used by every operator below.
        """
        pmap = self.particle_index
        out = []
        for h_idx, h in enumerate(self.holes):
            p = add(h, k)
            pi = pmap.get(p)
            if pi is not None:
                out.append((len(self.holes) + pi, h_idx, p, h))
        return out

    def lune_size(self, k: Momentum) -> int:
        return len(self.pairs_for(k))

    def pair_vector_sum(self, k: Momentum) -> Tuple[int, int, int]:
        """Integer vector sum of (p + h) over the truncated pair list."""
        acc = [0, 0, 0]
        for _, _, p, h in self.pairs_for(k):
            for i in range(3):
                acc[i] += p[i] + h[i]
        return tuple(acc)

    def describe(self) -> str:
        return (
            f"holes={len(self.holes)}(r2<={self.hole_radius_sq}),"
            f"particles={len(self.particles)}(r2<={self.lambda_sq})"
        )


def build_mode_set(n: int, lambda_sq: int) -> ModeSet:
    """Fermi ball of n holes plus all particle modes up to the cutoff."""
    ball = build_fermi_ball(n)
    if lambda_sq <= ball.shell_radius_sq:
        raise DomainError(
            f"cutoff {lambda_sq} must exceed the hole shell "
            f"{ball.shell_radius_sq}"
        )
    r = math.isqrt(lambda_sq)
    particles = sorted(
        (
            (x, y, z)
            for x in range(-r, r + 1)
            for y in range(-r, r + 1)
            for z in range(-r, r + 1)
            if ball.shell_radius_sq < x * x + y * y + z * z <= lambda_sq
        ),
        key=mode_sort_key,
    )
    return ModeSet(
        holes=ball.modes,
        particles=tuple(particles),
        hole_radius_sq=ball.shell_radius_sq,
        lambda_sq=lambda_sq,
    )


# --- sparse states ---------------------------------------------------------


@dataclass
class SectorState:
    """Sparse amplitude map over equal-particle-and-hole configurations."""

    amplitudes: Dict[int, complex]
    max_pairs: int

    def norm_sq(self) -> float:
        return math.fsum(
            (a.real * a.real + a.imag * a.imag)
            for _, a in sorted(self.amplitudes.items())
        )

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def dot(self, other: "SectorState") -> complex:
        keys = sorted(set(self.amplitudes) & set(other.amplitudes))
        return sum(self.amplitudes[c].conjugate() * other.amplitudes[c] for c in keys)

    def scaled(self, factor: complex) -> "SectorState":
        return SectorState(
            {c: a * factor for c, a in self.amplitudes.items()}, self.max_pairs
        )

    def minus(self, other: "SectorState") -> "SectorState":
        out = dict(self.amplitudes)
        for c, a in other.amplitudes.items():
            val = out.get(c, 0j) - a
            if val == 0:
                out.pop(c, None)
            else:
                out[c] = val
        return SectorState(out, max(self.max_pairs, other.max_pairs))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.amplitudes.values())


def vacuum(max_pairs: int = 2) -> SectorState:
    return SectorState({0: 1.0 + 0j}, max_pairs)


def _sign_create(cfg: int, idx: int) -> int:
    """(-1)^(occupied modes below idx); 0 if idx already occupied."""
    if (cfg >> idx) & 1:
        return 0
    return -1 if ((cfg & ((1 << idx) - 1)).bit_count() & 1) else 1


def _sign_annihilate(cfg: int, idx: int) -> int:
    if not ((cfg >> idx) & 1):
        return 0
    return -1 if ((cfg & ((1 << idx) - 1)).bit_count() & 1) else 1


def _apply_pair_terms(
    state: SectorState,
    terms: Sequence[Tuple[int, int, int]],
    create: bool,
    cap: Optional[int],
) -> Dict[int, complex]:
    """Apply sum of w * a*_p a*_h (or its adjoint w * a_h a_p) termwise.

    terms is a list of (p_idx, h_idx, integer weight); the creation
    string applies a*_h first, then a*_p; the annihilation string is the
    exact adjoint (a_p first, then a_h).
    """
    limit = state.max_pairs if cap is None else cap
    out: Dict[int, complex] = {}
    for cfg, amp in state.amplitudes.items():
        for p_idx, h_idx, w in terms:
            if create:
                s1 = _sign_create(cfg, h_idx)
                if s1 == 0:
                    continue
                mid = cfg | (1 << h_idx)
                s2 = _sign_create(mid, p_idx)
                if s2 == 0:
                    continue
                new = mid | (1 << p_idx)
                if new.bit_count() > 2 * limit:
                    raise TruncationOverflow(
                        f"configuration with {new.bit_count() // 2} pairs exceeds "
                        f"max_pairs = {limit}"
                    )
            else:
                s1 = _sign_annihilate(cfg, p_idx)
                if s1 == 0:
                    continue
                mid = cfg & ~(1 << p_idx)
                s2 = _sign_annihilate(mid, h_idx)
                if s2 == 0:
                    continue
                new = mid & ~(1 << h_idx)
            coeff = s1 * s2 * w
            val = out.get(new, 0j) + amp * coeff
            if val == 0:
                out.pop(new, None)
            else:
                out[new] = val
    return out


def apply_pair_create(
    state: SectorState,
    k: Momentum,
    modes: ModeSet,
    normalized: bool = False,
    cap: Optional[int] = None,
) -> SectorState:
    """Delocalized pair creation with transfer momentum k.

    Unnormalized by default; ``normalized`` divides by the truncated lune
    norm sqrt(n_k^2).  k = 0 gives the zero state (no pair changes the
    total momentum by zero).  Raises TruncationOverflow when a resulting
    configuration would exceed the pair cap.
    """
    pairs = modes.pairs_for(k)
    if not pairs:
        if normalized and norm_sq(k) > 0:
            raise EmptyLune(f"normalization undefined: empty truncated lune at {k}")
        return SectorState({}, state.max_pairs)
    terms = [(p_idx, h_idx, 1) for p_idx, h_idx, _, _ in pairs]
    out = _apply_pair_terms(state, terms, create=True, cap=cap)
    result = SectorState(out, state.max_pairs)
    if normalized:
        result = result.scaled(1.0 / math.sqrt(len(pairs)))
    return result


def apply_pair_annihilate(
    state: SectorState,
    k: Momentum,
    modes: ModeSet,
    normalized: bool = False,
    cap: Optional[int] = None,
) -> SectorState:
    """Adjoint of apply_pair_create; annihilates the vacuum."""
    pairs = modes.pairs_for(k)
    if not pairs:
        if normalized and norm_sq(k) > 0:
            raise EmptyLune(f"normalization undefined: empty truncated lune at {k}")
        return SectorState({}, state.max_pairs)
    terms = [(p_idx, h_idx, 1) for p_idx, h_idx, _, _ in pairs]
    out = _apply_pair_terms(state, terms, create=False, cap=cap)
    result = SectorState(out, state.max_pairs)
    if normalized:
        result = result.scaled(1.0 / math.sqrt(len(pairs)))
    return result


def apply_c_create(
    state: SectorState,
    k: Momentum,
    modes: ModeSet,
    normalized: bool = False,
    cap: Optional[int] = None,
) -> Tuple[SectorState, SectorState, SectorState]:
    """Vector-weighted pair creation: component i applies (p+h)_i a*_p a*_h."""
    pairs = modes.pairs_for(k)
    components = []
    for i in range(3):
        terms = [(p_idx, h_idx, p[i] + h[i]) for p_idx, h_idx, p, h in pairs]
        terms = [(pi, hi, w) for pi, hi, w in terms if w != 0]
        out = _apply_pair_terms(state, terms, create=True, cap=cap)
        comp = SectorState(out, state.max_pairs)
        if normalized:
            if not pairs:
                raise EmptyLune(f"normalization undefined: empty truncated lune at {k}")
            comp = comp.scaled(1.0 / math.sqrt(len(pairs)))
        components.append(comp)
    return tuple(components)


def dgamma_diagonal(state: SectorState, weights: Sequence[float]) -> SectorState:
    """Diagonal one-body operator: multiply by the sum of occupied weights."""
    out = {}
    for cfg, amp in state.amplitudes.items():
        total = 0.0
        rest = cfg
        while rest:
            low = rest & -rest
            total += weights[low.bit_length() - 1]
            rest ^= low
        if total != 0.0 and amp != 0:
            out[cfg] = amp * total
    return SectorState(out, state.max_pairs)


def apply_number(state: SectorState) -> SectorState:
    """Fermionic number operator: occupied-mode count, particles plus holes."""
    out = {
        cfg: amp * cfg.bit_count()
        for cfg, amp in state.amplitudes.items()
        if cfg and amp != 0
    }
    return SectorState(out, state.max_pairs)


def kinetic_weights(modes: ModeSet, params: ModelParams) -> List[float]:
    """Per-mode excitation energies: +hbar^2|p|^2 particles, -hbar^2|h|^2 holes."""
    h2 = params.hbar ** 2
    weights = [-h2 * norm_sq(h) for h in modes.holes]
    weights += [h2 * norm_sq(p) for p in modes.particles]
    return weights


def apply_h0(state: SectorState, modes: ModeSet, params: ModelParams) -> SectorState:
    """Excitation kinetic energy hbar^2(sum_p |p|^2 - sum_h |h|^2), diagonal."""
    return dgamma_diagonal(state, kinetic_weights(modes, params))


# --- sector enumeration and random states ----------------------------------


def sector_basis(modes: ModeSet, max_pairs: int) -> List[int]:
    """All equal-particle-hole configurations with at most max_pairs pairs.

    Deterministic order: ascending pair count, then ascending bitmask.
    """
    cap = min(max_pairs, len(modes.holes), len(modes.particles))
    basis = []
    for j in range(cap + 1):
        chunk = []
        for hole_combo in itertools.combinations(modes.hole_indices, j):
            hbits = 0
            for idx in hole_combo:
                hbits |= 1 << idx
            for part_combo in itertools.combinations(modes.particle_indices, j):
                bits = hbits
                for idx in part_combo:
                    bits |= 1 << idx
                chunk.append(bits)
        basis.extend(sorted(chunk))
    return basis


def random_sector_state(
    modes: ModeSet,
    max_pairs: int,
    rng: np.random.Generator,
    integer_amplitudes: bool = False,
    normalized: bool = True,
) -> SectorState:
    """Random state in the <= max_pairs sector.

    With integer_amplitudes the real and imaginary parts are nonzero
    integers in [-999, 999]; every subsequent cancellation is then exact
    in double precision.  Otherwise amplitudes are uniform in the complex
    square and the state is normalized.
    """
    basis = sector_basis(modes, max_pairs)
    if integer_amplitudes:
        re = rng.integers(1, 1000, size=len(basis)) * rng.choice([-1, 1], len(basis))
        im = rng.integers(1, 1000, size=len(basis)) * rng.choice([-1, 1], len(basis))
        amps = {cfg: complex(int(r), int(i)) for cfg, r, i in zip(basis, re, im)}
        return SectorState(amps, max_pairs)
    re = rng.uniform(-1.0, 1.0, size=len(basis))
    im = rng.uniform(-1.0, 1.0, size=len(basis))
    state = SectorState(
        {cfg: complex(r, i) for cfg, r, i in zip(basis, re, im)}, max_pairs
    )
    if normalized:
        state = state.scaled(1.0 / state.norm())
    return state


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

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "modeset": self.modeset,
            "seed": self.seed,
            "trials": self.trials,
            "max_ratio": self.max_ratio,
            "violations": list(self.violations),
            "details": dict(self.details),
        }

    def raise_if_violated(self) -> "VerificationReport":
        if self.violations:
            raise BoundViolation(
                f"{self.check}: {self.violations[0]}", report=self
            )
        return self


def _number_norm(state: SectorState) -> float:
    return apply_number(state).norm()


def verify_almost_ccr(
    modes: ModeSet,
    k: Momentum,
    l: Momentum,
    trials: int = 100,
    seed: int = 42,
    max_pairs: int = 2,
) -> VerificationReport:
    """Check the approximate canonical commutator relations by brute force.

    On every trial state xi the residual E(k,l) = [b_k, b*_l] - delta_kl
    must obey ||E xi|| * n_k n_l <= ||N xi|| (computed here with the
    unnormalized operators, so the k = l subtraction is an exact integer),
    and [b_k, b_l], [b*_k, b*_l] must vanish identically.
    """
    rng = np.random.default_rng(seed)
    mk = modes.lune_size(k)
    ml = modes.lune_size(l)
    same = tuple(k) == tuple(l)
    max_ratio = 0.0
    violations: List[str] = []
    for trial in range(trials):
        xi = random_sector_state(modes, max_pairs, rng, integer_amplitudes=True)
        lifted = max_pairs + 1
        t1 = apply_pair_annihilate(
            apply_pair_create(xi, l, modes, cap=lifted), k, modes, cap=lifted
        )
        t2 = apply_pair_create(
            apply_pair_annihilate(xi, k, modes, cap=lifted), l, modes, cap=lifted
        )
        resid = t1.minus(t2)
        if same:
            resid = resid.minus(xi.scaled(float(mk)))
        nn = _number_norm(xi)
        ratio = resid.norm() / nn if nn > 0 else math.inf
        max_ratio = max(max_ratio, ratio)
        if ratio > 1.0 + 1e-12:
            violations.append(
                f"trial {trial}: ||E xi|| n_k n_l / ||N xi|| = {ratio:.15g} > 1"
            )
        # [b_k, b_l] and [b*_k, b*_l] vanish exactly (integer amplitudes)
        bb = apply_pair_annihilate(
            apply_pair_annihilate(xi, l, modes, cap=lifted), k, modes, cap=lifted
        ).minus(
            apply_pair_annihilate(
                apply_pair_annihilate(xi, k, modes, cap=lifted), l, modes, cap=lifted
            )
        )
        if not bb.is_zero():
            violations.append(f"trial {trial}: [b_k, b_l] xi != 0")
        cc = apply_pair_create(
            apply_pair_create(xi, l, modes, cap=lifted + 1), k, modes, cap=lifted + 1
        ).minus(
            apply_pair_create(
                apply_pair_create(xi, k, modes, cap=lifted + 1),
                l,
                modes,
                cap=lifted + 1,
            )
        )
        if not cc.is_zero():
            violations.append(f"trial {trial}: [b*_k, b*_l] xi != 0")
    report = VerificationReport(
        check="almost_ccr",
        modeset=modes.describe() + f",max_pairs={max_pairs}",
        seed=seed,
        trials=trials,
        max_ratio=max_ratio,
        violations=violations,
        details={"lune_k": float(mk), "lune_l": float(ml)},
    )
    return report.raise_if_violated()


def _c_commutator_states(
    xi: SectorState, k: Momentum, l: Momentum, modes: ModeSet, cap: int
) -> List[SectorState]:
    """Componentwise [c*_k, b_l] xi with unnormalized operators."""
    bl = apply_pair_annihilate(xi, l, modes, cap=cap)
    first = apply_c_create(bl, k, modes, cap=cap)
    second_pre = apply_c_create(xi, k, modes, cap=cap)
    out = []
    for i in range(3):
        second = apply_pair_annihilate(second_pre[i], l, modes, cap=cap)
        out.append(first[i].minus(second))
    return out


def honest_c_bound_constant(modes: ModeSet, k: Momentum, l: Momentum) -> float:
    """Exact truncated-model constant bounding the c-commutator residual.

    The residual is a sum of two one-body hopping operators whose entries
    are (2h+k) with admissibility fixed by the mode set; each acts on one
    species only, so on equal-pair states the bound constant is the mean
    of the two largest entry norms.
    """
    pmap = modes.particle_index
    hset = modes.hole_index
    best_particle = 0.0
    best_hole = 0.0
    for h in modes.holes:
        w = math.sqrt(norm_sq((2 * h[0] + k[0], 2 * h[1] + k[1], 2 * h[2] + k[2])))
        if add(h, k) in pmap and add(h, l) in pmap:
            best_particle = max(best_particle, w)
        if add(h, k) in pmap and add(add(h, k), tuple(-c for c in l)) in hset:
            best_hole = max(best_hole, w)
    return 0.5 * (best_particle + best_hole)


def verify_c_commutator(
    modes: ModeSet,
    k: Momentum,
    l: Momentum,
    trials: int = 100,
    seed: int = 42,
    max_pairs: int = 2,
) -> VerificationReport:
    """Check [c*_k, b_l] = -delta_kl f(k) + residual with its norm bound.

    The Kronecker part must equal the truncated pair-average f exactly;
    the residual, contracted with m = k, must obey the exact truncated
    operator-norm constant (``honest_c_bound_constant``); and the
    residual must commute with the fermion number operator, checked in
    exact integer arithmetic on every trial state.
    """
    rng = np.random.default_rng(seed)
    same = tuple(k) == tuple(l)
    fsum_vec = modes.pair_vector_sum(k)
    mk = modes.lune_size(k)
    const = honest_c_bound_constant(modes, k, l)
    mnorm = math.sqrt(norm_sq(k))
    max_ratio = 0.0
    violations: List[str] = []
    for trial in range(trials):
        xi = random_sector_state(modes, max_pairs, rng, integer_amplitudes=True)
        lifted = max_pairs + 1
        comm = _c_commutator_states(xi, k, l, modes, cap=lifted)
        resid = []
        for i in range(3):
            r = comm[i]
            if same:
                r = r.minus(xi.scaled(-float(fsum_vec[i])))
            resid.append(r)
        # m . residual with m = k (integer contraction keeps exactness)
        mdot = SectorState({}, xi.max_pairs)
        for i in range(3):
            if k[i] != 0:
                mdot = mdot.minus(resid[i].scaled(-float(k[i])))
        nn = _number_norm(xi)
        denom = mnorm * const * nn
        if denom > 0:
            ratio = mdot.norm() / denom
        else:
            ratio = 0.0 if mdot.is_zero() else math.inf
        max_ratio = max(max_ratio, ratio)
        if ratio > 1.0 + 1e-12:
            violations.append(
                f"trial {trial}: residual ratio {ratio:.15g} > 1 "
                f"(constant {const:.6g})"
            )
        # [residual, N] = 0, both orders, exact integers
        nxi = apply_number(xi)
        comm_n = _c_commutator_states(nxi, k, l, modes, cap=lifted)
        for i in range(3):
            n_first = comm_n[i]
            if same:
                n_first = n_first.minus(nxi.scaled(-float(fsum_vec[i])))
            n_last = apply_number(resid[i])
            if not n_first.minus(n_last).is_zero():
                violations.append(
                    f"trial {trial}: residual component {i} does not commute with N"
                )
    report = VerificationReport(
        check="c_commutator",
        modeset=modes.describe() + f",max_pairs={max_pairs}",
        seed=seed,
        trials=trials,
        max_ratio=max_ratio,
        violations=violations,
        details={
            "lune_k": float(mk),
            "bound_constant": const,
            "f_truncated_dot_k": (
                sum(k[i] * fsum_vec[i] for i in range(3)) / mk if mk else math.nan
            ),
        },
    )
    return report.raise_if_violated()


def assemble_quadratic_interaction(
    modes: ModeSet, v: Potential, params: ModelParams, max_pairs: int = 2
) -> Tuple[List[int], np.ndarray]:
    """Matrix of the pair-quadratic interaction on the <= max_pairs sector.

    Q = (1/2N) sum_k V(k) n_k^2 (2 b*_k b_k + b*_k b*_{-k} + b_{-k} b_k),
    assembled with unnormalized operators (the n_k^2 cancel), compressed
    to the sector (intermediate configurations above the cap are
    projected out, matching the compression of a sector matrix).
    """
    basis = sector_basis(modes, max_pairs)
    pos = {cfg: i for i, cfg in enumerate(basis)}
    dim = len(basis)
    matrix = np.zeros((dim, dim), dtype=complex)
    support = v.correlation_support()
    for j, cfg in enumerate(basis):
        col = _apply_quadratic(
            SectorState({cfg: 1.0 + 0j}, max_pairs), modes, v, params, support
        )
        for out_cfg, amp in col.amplitudes.items():
            row = pos.get(out_cfg)
            if row is not None:
                matrix[row, j] += amp
    return basis, matrix


def _apply_quadratic(
    state: SectorState,
    modes: ModeSet,
    v: Potential,
    params: ModelParams,
    support: Sequence[Momentum],
) -> SectorState:
    """Sparse application of Q; configurations above the cap are dropped."""
    lifted = state.max_pairs + 2
    acc: Dict[int, complex] = {}
    for k in support:
        weight = v.value(k) / (2.0 * params.n)
        if weight == 0.0 or modes.lune_size(k) == 0:
            continue
        neg_k = tuple(-c for c in k)
        b_k = apply_pair_annihilate(state, k, modes, cap=lifted)
        pieces = [
            apply_pair_create(b_k, k, modes, cap=lifted).scaled(2.0 * weight),
            apply_pair_create(
                apply_pair_create(state, neg_k, modes, cap=lifted),
                k,
                modes,
                cap=lifted,
            ).scaled(weight),
            apply_pair_annihilate(
                apply_pair_annihilate(state, k, modes, cap=lifted),
                neg_k,
                modes,
                cap=lifted,
            ).scaled(weight),
        ]
        for piece in pieces:
            for cfg, amp in piece.amplitudes.items():
                if cfg.bit_count() <= 2 * state.max_pairs:
                    acc[cfg] = acc.get(cfg, 0j) + amp
    return SectorState(
        {c: a for c, a in acc.items() if a != 0}, state.max_pairs
    )


def verify_quadratic_interaction(
    modes: ModeSet,
    v: Potential,
    params: ModelParams,
    max_pairs: int = 2,
    seed: int = 42,
) -> VerificationReport:
    """Cross-check the assembled interaction matrix against sparse application.

    Asserts hermiticity of the compression, zero vacuum expectation, the
    normalized one-pair diagonal V(k) n_k^2 / N plus nonnegative cross
    terms, and matrix-vs-direct agreement on random sector states.
    """
    basis, matrix = assemble_quadratic_interaction(modes, v, params, max_pairs)
    pos = {cfg: i for i, cfg in enumerate(basis)}
    support = v.correlation_support()
    violations: List[str] = []
    herm = float(np.abs(matrix - matrix.conj().T).max()) if len(basis) else 0.0
    if herm > 1e-13:
        violations.append(f"hermiticity residual {herm:.3e} > 1e-13")
    vac = abs(matrix[0, 0])
    if vac > 0.0:
        violations.append(f"vacuum expectation {vac:.3e} != 0")

    max_dev = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(5):
        psi = random_sector_state(modes, max_pairs, rng)
        vec = np.zeros(len(basis), dtype=complex)
        for cfg, amp in psi.amplitudes.items():
            vec[pos[cfg]] = amp
        direct = _apply_quadratic(psi, modes, v, params, support)
        dvec = np.zeros(len(basis), dtype=complex)
        for cfg, amp in direct.amplitudes.items():
            dvec[pos[cfg]] = amp
        dev = float(np.abs(matrix @ vec - dvec).max())
        max_dev = max(max_dev, dev)
        if dev > 1e-13:
            violations.append(f"matrix vs direct deviation {dev:.3e} > 1e-13")

    one_pair_dev = 0.0
    for k in support:
        nk2 = modes.lune_size(k)
        if nk2 == 0 or v.value(k) == 0.0:
            continue
        phi = apply_pair_create(vacuum(max_pairs), k, modes, normalized=True)
        expect = 0j
        for cfg_a, amp_a in phi.amplitudes.items():
            for cfg_b, amp_b in phi.amplitudes.items():
                expect += amp_a.conjugate() * matrix[pos[cfg_a], pos[cfg_b]] * amp_b
        diagonal = v.value(k) * nk2 / params.n
        cross = math.fsum(
            v.value(kp) / params.n * _unnormalized_bnorm_sq(phi, kp, modes)
            for kp in support
            if tuple(kp) != tuple(k) and modes.lune_size(kp) > 0
        )
        dev = abs(expect - (diagonal + cross))
        one_pair_dev = max(one_pair_dev, dev)
        if dev > 1e-12:
            violations.append(
                f"one-pair expectation at {k}: |{expect:.15g} - "
                f"({diagonal:.15g} + {cross:.15g})| = {dev:.3e}"
            )
    report = VerificationReport(
        check="quadratic_interaction",
        modeset=modes.describe() + f",max_pairs={max_pairs}",
        seed=seed,
        trials=5,
        max_ratio=herm,
        violations=violations,
        details={
            "hermiticity_residual": herm,
            "matrix_vs_direct": max_dev,
            "one_pair_deviation": one_pair_dev,
            "dimension": float(len(basis)),
        },
    )
    return report.raise_if_violated()


def _unnormalized_bnorm_sq(phi: SectorState, k: Momentum, modes: ModeSet) -> float:
    """Squared norm of the unnormalized pair annihilator applied to phi."""
    out = apply_pair_annihilate(phi, k, modes, cap=phi.max_pairs + 1)
    return out.norm_sq()
