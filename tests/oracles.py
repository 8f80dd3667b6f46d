"""Independent numerical oracles shared by module and acceptance tests.

These deliberately avoid the package's closed-form code paths: the
minimizer below works on the raw one-variable energy profile, the
quadrature helpers integrate the raw integrand, the particle-hole
pair list is a brute-force scan of the ball, the c-commutator bound
constant is a per-hole loop over plain tuples, and the Fock oracle's sums
go through np.unique and np.add.at.  The bosonized trial-state functional
sums its per-momentum terms directly, so the variational tests can check
the package's closed-form minimum against it.  The coefficient rows are
built one momentum at a time on Python floats, with one lattice count per
momentum, so the columnar table can be checked against them with ``==``.
The Fock oracle's pair-quadratic interaction is also applied the long
way: composed on every configuration first, then projected to the sector.
"""

import math

import numpy as np

from fermi_rpa.errors import DomainError
from fermi_rpa.fock_oracle import _linear_combination, apply_pair_annihilate, apply_pair_create
from fermi_rpa.lattice import (
    KINETIC_SHAPE_CONSTANT,
    LUNE_SHAPE_CONSTANT,
    FermiBall,
    ModelParams,
    kinetic_coefficient_asymptotic,
    lens_norm,
    lune_count,
    negate,
    norm_sq,
)
from fermi_rpa.rpa_delocalized import CoefficientTable
from conftest import brute_force_ball


def golden_section_minimum(fn, lo, hi, tol=1e-12, iters=300):
    """Derivative-free golden-section bracket of the minimizer of fn."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def minimize_pair_energy(alpha, beta):
    """Locate the minimum of a*sinh(x)^2 - b*sinh(x)cosh(x) on [0, 5].

    Golden section brackets the minimizer but cannot resolve it below
    ~sqrt(machine eps) because the profile is flat at the bottom; a sign
    bisection on the analytic slope a*sinh(2x) - b*cosh(2x) polishes the
    bracket to full precision.  Returns (x_min, value).
    """

    def profile(x):
        return alpha * math.sinh(x) ** 2 - beta * math.sinh(x) * math.cosh(x)

    def slope(x):
        return alpha * math.sinh(2.0 * x) - beta * math.cosh(2.0 * x)

    rough = golden_section_minimum(profile, 0.0, 5.0, tol=1e-6)
    lo, hi = max(0.0, rough - 1e-4), min(5.0, rough + 1e-4)
    # widen until the slope changes sign across the bracket
    while slope(lo) > 0.0 and lo > 0.0:
        lo = max(0.0, lo - 1e-3)
    while slope(hi) < 0.0 and hi < 5.0:
        hi = min(5.0, hi + 1e-3)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-15:
            break
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x_min = 0.5 * (lo + hi)
    return x_min, profile(x_min)


def coefficient_rows(source, v):
    """(k, alpha, beta, n_k^2, k.f(k)) of every nonzero support momentum, row by row.

    The lattice row makes its own count per momentum (no orbit sharing);
    the continuum row evaluates the closed forms.  Every operation is on
    Python floats and ints, in the order the formulas are written.
    """
    rows = []
    for k in v.correlation_support():
        if isinstance(source, FermiBall):
            count = lune_count(source, k)
            kdotf = source.n * norm_sq(k) / count
            beta = v.value(k) * count / source.n
            alpha = ModelParams(source.n).hbar ** 2 * kdotf + beta
            rows.append((k, alpha, beta, count, kdotf))
        else:
            kn = lens_norm(source, k)
            nk2 = kn * source.n * source.hbar * LUNE_SHAPE_CONSTANT
            kdotf = kinetic_coefficient_asymptotic(source, k)
            beta = source.hbar * LUNE_SHAPE_CONSTANT * v.value(k) * kn
            alpha = source.hbar * kn * KINETIC_SHAPE_CONSTANT + beta
            rows.append((k, alpha, beta, nk2, kdotf))
    return rows


def table_rows(table):
    """The rows of a coefficient table, in the layout of ``coefficient_rows``."""
    columns = (table.alpha, table.beta, table.nk2, table.kdotf)
    return list(zip(table.ks, *(c.tolist() for c in columns)))


def hand_table(*rows):
    """A coefficient table of hand-picked (k, alpha, beta) rows.

    It has no source, and no count behind it: n_k^2 and k.f(k) are NaN.
    """
    nan = np.full(len(rows), math.nan)
    alpha = np.array([a for _, a, _ in rows], dtype=float)
    beta = np.array([b for _, _, b in rows], dtype=float)
    return CoefficientTable(None, [k for k, _, _ in rows], alpha, beta, nan, nan)


def bosonized_functional(table, xi):
    """Quadratic trial-state energy sum_k alpha sinh^2 X + beta sinh X cosh X.

    ``xi`` holds X(k) for every row of the table, in its order.
    """
    if len(xi) != len(table.ks):
        raise DomainError(f"{len(xi)} kernel values for {len(table.ks)} coefficient rows")
    terms = []
    for alpha, beta, x in zip(table.alpha.tolist(), table.beta.tolist(), xi):
        sh, ch = math.sinh(x), math.cosh(x)
        terms.append(alpha * sh * sh + beta * sh * ch)
    return math.fsum(terms)


def brute_force_pairs(radius_sq, k):
    """(p, h) for every h in the ball |h|^2 <= radius_sq with p = h + k outside it."""
    pairs = []
    for h in brute_force_ball(radius_sq):
        p = (h[0] + k[0], h[1] + k[1], h[2] + k[2])
        if p[0] ** 2 + p[1] ** 2 + p[2] ** 2 > radius_sq:
            pairs.append((p, h))
    return pairs


def honest_c_bound_reference(modes, k, l):
    """The Fock oracle's c-commutator bound constant, one hole at a time.

    Particles are looked up in a set of tuples and holes by the norm test
    of the closed shell, independent of the mode set's index lookup.
    """
    holes = [tuple(h) for h in modes.modes[: modes.n_holes].tolist()]
    particles = {tuple(p) for p in modes.modes[modes.n_holes :].tolist()}
    best_particle = 0.0
    best_hole = 0.0
    for h in holes:
        hk = tuple(a + b for a, b in zip(h, k))
        w = math.sqrt(sum((a + b) ** 2 for a, b in zip(h, hk)))  # |p + h|, p = h + k
        if hk in particles and tuple(a + b for a, b in zip(h, l)) in particles:
            best_particle = max(best_particle, w)
        hk_l = sum((a - b) ** 2 for a, b in zip(hk, l))
        if hk in particles and hk_l <= modes.hole_radius_sq:
            best_hole = max(best_hole, w)
    return 0.5 * (best_particle + best_hole)


def amplitudes(state):
    """A Fock-oracle (keys, amplitudes) state as {configuration: amplitude}."""
    keys, amps = state
    return dict(zip(keys.tolist(), amps.tolist()))


def coalesce_reference(keys, amps):
    """The Fock oracle's key coalescing through np.unique and np.add.at.

    Adds the amplitudes of equal keys into zeros in input order, so every
    sum is 0.0 + a_0 + a_1 + ... left to right, and drops the rows that
    are exactly zero.  Returns (sorted unique keys, sums).
    """
    uniq, inverse = np.unique(keys, return_inverse=True)
    summed = np.zeros((len(uniq),) + amps.shape[1:], dtype=complex)
    np.add.at(summed, inverse, amps)
    keep = (summed != 0).any(axis=tuple(range(1, summed.ndim)))
    return uniq[keep], summed[keep]


def matvec_reference(triplets, vec):
    """(rows, cols, values) triplets times vec, summed with np.add.at into zeros."""
    rows, cols, values = triplets
    out = np.zeros(vec.shape, dtype=complex)
    np.add.at(out, rows, vec[cols] * values.reshape((-1,) + (1,) * (vec.ndim - 1)))
    return out


def quadratic_compose_then_project(state, modes, v, params, max_pairs):
    """Q applied term by term to a sector state, then projected to the sector.

    b*_k b*_{-k} acts on every input configuration, so its creations reach
    max_pairs + 2 pairs, and each piece is cut to the <= max_pairs sector
    afterwards: the Fock oracle's direct application before it projected
    the input first.
    """
    lifted = max_pairs + 2
    mode_mask = (1 << modes.n_modes) - 1
    pieces = []
    for k in v.correlation_support():
        weight = v.value(k) / (2.0 * params.n)
        if weight == 0.0 or modes.lune_size(k) == 0:
            continue
        neg_k = negate(k)
        b_k = apply_pair_annihilate(state, k, modes)
        hop = apply_pair_create(b_k, k, modes, cap=lifted)
        up = apply_pair_create(state, neg_k, modes, cap=lifted)
        up = apply_pair_create(up, k, modes, cap=lifted)
        down = apply_pair_annihilate(b_k, neg_k, modes)
        for factor, (keys, amps) in ((2.0 * weight, hop), (weight, up), (weight, down)):
            keep = np.bitwise_count(keys & mode_mask) <= 2 * max_pairs
            pieces.append((factor, (keys[keep], amps[keep])))
    if not pieces:
        return state[0][:0], state[1][:0]
    return _linear_combination(pieces)
