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
way: composed on every configuration first, then projected to the sector,
and its one-pair expectations take a full matrix-vector product each.
The potential's columns, the sums of V alone (A1..A5, the kernel,
sum_k V(k)^2 |k|, |V|_1) and the error budget's row loop are rebuilt one
momentum at a time from the coefficient dict, as the package built them
before it held columns.  The potential itself is also built in the
three passes the package once made (complete -k, check every completed
entry, lay out the columns), so the one-pass ``make_potential`` can be
compared with it error for error and byte for byte.  The mode order
key, the error budget's kernel list, the closed-form minimizer of the
quadratic energy, the Fock oracle's kinetic energy H0 and a state's
squared norm, which only tests read, live here too, and so does the
summed form of a vanishing commutator that the Fock oracle now compares
instead, and the hermiticity residual as Q - Q^dagger coalesced whole,
which it now reads entry by entry.
"""

import math
from types import SimpleNamespace

import numpy as np

from fermi_rpa.error_budget import (
    C_SMALL,
    PARTICLE_ESCAPE_CONSTANT,
    ErrorBudget,
    _kernel,
    _log,
    _logaddexp,
    particle_number_constant,
)
from fermi_rpa.errors import DomainError, NumericalFailure, ParseError
from fermi_rpa.fock_oracle import (
    _basis_vector,
    MODE_CAP,
    _coalesce,
    _drop_zeros,
    _linear_combination,
    _matvec,
    _squares,
    apply_pair_annihilate,
    apply_pair_create,
    vacuum,
)
from fermi_rpa.hf import HFEnergy
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
    orbit_representative,
)
from fermi_rpa.potential import finite_fsum
from fermi_rpa.rpa_delocalized import CoefficientTable, _check_rows, correlation_delocalized
from conftest import brute_force_ball


def mode_sort_key(k):
    """Global total order on modes: (|k|^2, lexicographic), the package's mode order."""
    return (norm_sq(k), k[0], k[1], k[2])


def optimal_kernel_magnitudes(v):
    """The error budget's kernel X(k) = -(1/4) log(1 + c V(k)), a list aligned with v.ks."""
    return list(v.once(_kernel).xi)


def optimal_kernel(table):
    """Closed-form minimizer -(1/2) artanh(beta/alpha) of every row, aligned with ``ks``.

    Evaluated as -(1/4)[log1p(t) - log1p(-t)] with t = beta/alpha for
    accuracy at small coupling; a row without |beta| < alpha fails as it
    does for the minimum.
    """
    _check_rows(table)
    return [-0.25 * (math.log1p(t) - math.log1p(-t)) for t in (table.beta / table.alpha).tolist()]


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
    for k in nonzero_support(v):
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
    return CoefficientTable(None, tuple(k for k, _, _ in rows), alpha, beta, nan, nan)


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


def apply_h0(state, modes, params):
    """Excitation kinetic energy hbar^2(sum_p |p|^2 - sum_h |h|^2) of a Fock-oracle state, diagonal.

    Each key's integer excitation is summed exactly in int64, then
    multiplied by hbar^2 once.
    """
    keys, amps = state
    sq = np.einsum("ij,ij->i", modes.modes, modes.modes)
    signed = np.where(np.arange(modes.n_modes) < modes.n_holes, -sq, sq)
    excitation = ((keys[:, None] >> np.arange(modes.n_modes)) & 1) @ signed
    return _drop_zeros(keys, amps * (params.hbar ** 2 * excitation))


def amplitudes(state):
    """A Fock-oracle (keys, amplitudes) state as {configuration: amplitude}."""
    keys, amps = state
    return dict(zip(keys.tolist(), amps.tolist()))


def state_norm_sq(state):
    """Squared norm of a Fock-oracle state, one fsum."""
    return math.fsum(_squares(state[1]).tolist())


def normalized(apply, state, k, modes, *args, **kwargs):
    """apply(state, k, modes, ...) divided by the truncated lune norm sqrt(n_k^2) of k."""
    keys, amps = apply(state, k, modes, *args, **kwargs)
    return keys, amps * (1.0 / math.sqrt(modes.lune_size(k)))


def coalesce_reference(keys, amps):
    """The Fock oracle's key coalescing through np.unique and np.add.at.

    Adds the amplitudes of equal keys into zeros in input order, so every
    sum is 0.0 + a_0 + a_1 + ... left to right, and drops the rows that
    are exactly zero.  Returns (sorted unique keys, sums).
    """
    uniq, inverse = np.unique(keys, return_inverse=True)
    summed = np.zeros(len(uniq), dtype=complex)
    np.add.at(summed, inverse, amps)
    return uniq[summed != 0], summed[summed != 0]


def labels_differ_reference(u, w, count):
    """Per label of two labelled states: is u - w nonzero, by forming the sum u + (-1) w."""
    labels = _linear_combination([(1, u), (-1, w)])[0] >> MODE_CAP
    return [bool((labels == label).any()) for label in range(count)]


def hermiticity_residual_reference(triplets, dim):
    """max |Q - Q^dagger| by coalescing Q and -Q^dagger concatenated over row * dim + col."""
    rows, cols, values = triplets
    _, skew = _coalesce(
        np.concatenate([rows * dim + cols, cols * dim + rows]),
        np.concatenate([values, -values.conj()]),
    )
    return float(np.abs(skew).max()) if len(skew) else 0.0


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
    for k in nonzero_support(v):
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


def outcome(fn, *args):
    """repr of fn(*args), or (exception type, message): comparable with == even for NaN."""
    try:
        return repr(fn(*args))
    except (DomainError, NumericalFailure, ParseError) as exc:
        return type(exc).__name__, str(exc)


def nonzero_support(v):
    """The support minus k = 0, sorted from the dict in mode order."""
    return [k for k in sorted(v.coeffs, key=mode_sort_key) if norm_sq(k) > 0]


def support_columns(v):
    """(ks, |k|, V(k), orbit representatives, orbit index) of the nonzero support."""
    ks = nonzero_support(v)
    reps = list(dict.fromkeys(orbit_representative(k) for k in ks))
    return (
        ks,
        [math.sqrt(norm_sq(k)) for k in ks],
        [v.value(k) for k in ks],
        reps,
        [reps.index(orbit_representative(k)) for k in ks],
    )


def potential_reference(entries, radius_sq=None):
    """The potential as three passes build it: completion of -k by evenness,
    then one check per completed entry, then the columns in mode order.

    Returns the attributes of ``Potential`` on a namespace; a fault raises
    the ParseError ``make_potential`` must raise.
    """
    coeffs = {}
    for k, v in entries.items():
        x, y, z = k = (int(k[0]), int(k[1]), int(k[2]))
        coeffs[k] = v = float(v)
        coeffs.setdefault((-x, -y, -z), v)
    if radius_sq is None:
        radius_sq = max((x * x + y * y + z * z for x, y, z in coeffs), default=0)
    radius_sq = int(radius_sq)
    norms = {}
    for k, v in coeffs.items():
        s = k[0] * k[0] + k[1] * k[1] + k[2] * k[2]
        if s > radius_sq:
            raise ParseError(f"coefficient at {k} lies outside support radius^2 {radius_sq}")
        try:
            float(s)
        except OverflowError:
            raise ParseError(f"|k|^2 of the coefficient at {k} does not fit in a double") from None
        if not math.isfinite(v):
            raise ParseError(f"non-finite coefficient at {k}: {v}")
        minus_k = (-k[0], -k[1], -k[2])
        mirror = coeffs.get(minus_k)
        if mirror is None or mirror != v:
            raise ParseError(f"evenness violated: V{k} = {v} and V{minus_k} = {mirror} disagree")
        norms[k] = s
    ks = sorted(sorted(norms), key=norms.__getitem__)
    if ks and norms[ks[0]] == 0:
        del ks[0]
    reps = {}
    orbit = np.array([reps.setdefault(orbit_representative(k), len(reps)) for k in ks], dtype=np.intp)
    return SimpleNamespace(
        coeffs=coeffs,
        support_radius_sq=radius_sq,
        ks=tuple(ks),
        kn=np.sqrt(np.array([norms[k] for k in ks], dtype=float)),
        vs=np.array([coeffs[k] for k in ks], dtype=float),
        orbits=tuple(reps),
        orbit=orbit,
    )


def potential_layout(v):
    """Everything a potential holds, comparable with ==: each coefficient's
    key and bits in dict order, the radius, and the bytes of every column."""
    return (
        [(k, x.hex()) for k, x in v.coeffs.items()],
        v.support_radius_sq,
        v.ks,
        v.kn.tobytes(),
        v.vs.tobytes(),
        v.orbits,
        v.orbit.dtype.str,
        v.orbit.tobytes(),
    )


def a_constants_loop(v):
    """A1..A5, one momentum at a time."""
    logs, a2t, a3t, a4t, a5t = [], [], [], [], []
    for k in nonzero_support(v):
        val = v.value(k)
        arg = 1.0 + C_SMALL * val
        if arg <= 0.0:
            raise DomainError(f"1 + c*V(k) = {arg:.6g} <= 0 at k = {k}")
        lg = abs(math.log(arg))
        root = math.sqrt(arg)
        kn = math.sqrt(norm_sq(k))
        logs.append(lg)
        a2t.append(abs(val) * root)
        a3t.append(abs(val) * root * math.sqrt(kn))
        a4t.append(lg * root * math.sqrt(kn))
        a5t.append(arg ** 0.25 * math.sqrt(kn))
    return tuple(math.fsum(t) for t in (logs, a2t, a3t, a4t, a5t))


def kernel_loop(v):
    """X(k) = -(1/4) log1p(c V(k)), one momentum at a time."""
    values = []
    for k in nonzero_support(v):
        arg = C_SMALL * v.value(k)
        if arg <= -1.0:
            raise DomainError(f"1 + c*V(k) <= 0 at k = {k}")
        values.append(-0.25 * math.log1p(arg))
    return values


def square_sum_loop(v, params=None):
    """sum_k V(k)^2 |k|; on a ModelParams every |k| is read through lens_norm
    before the first square is formed."""
    support = nonzero_support(v)
    kns = [math.sqrt(norm_sq(k)) if params is None else lens_norm(params, k) for k in support]
    return finite_fsum(
        (v.value(k) ** 2 * kn for k, kn in zip(support, kns)), "sum_k |k| V(k)^2"
    )


def l1_norm_loop(v):
    """|V|_1 over the support, k = 0 included, one momentum at a time."""
    support = sorted(v.coeffs, key=mode_sort_key)
    return finite_fsum((abs(v.coeffs[k]) for k in support), "sum_k |V(k)|")


def error_budget_loop(table, continuum, v):
    """The error budget with its inner sums formed one row at a time on Python floats."""
    n = table.source.n
    constants = a_constants_loop(v)
    xi = kernel_loop(v)
    c_n = {str(m): particle_number_constant(xi, m) for m in (1, 2, 3)}
    c2, c3 = c_n["2"], c_n["3"]
    n_of = np.sqrt(table.nk2).tolist()
    hbar_sq = ModelParams(n).hbar ** 2
    escape = PARTICLE_ESCAPE_CONSTANT * n ** (1.0 / 3.0)
    s_base = math.fsum(abs(x) / n_m for x, n_m in zip(xi, n_of))
    quad_sq, quad_lin, kin_diag, kin_off = [], [], [], []
    for k, x, n_k, kdotf in zip(table.ks, xi, n_of, table.kdotf.tolist()):
        xk = abs(x)
        vk = abs(v.coeffs[k])
        nk2 = n_k ** 2
        s_k = s_base / n_k
        e_x = math.exp(xk)
        quad_sq.append(vk * nk2 * e_x * e_x * s_k ** 2)
        quad_lin.append(vk * nk2 * (4.0 * math.sinh(xk) + 2.0 * math.cosh(xk)) * e_x * s_k)
        kin_diag.append(2.0 * xk * abs(kdotf) * math.sinh(xk) * e_x * 2.0 * s_k)
        kin_off.append(escape * math.sqrt(norm_sq(k)) * s_k * (math.sinh(xk) + e_x * s_k))
    log_eps1 = _logaddexp(
        c3 + _log(32.0 / n * math.fsum(quad_sq)),
        0.5 * c3 + _log(math.sqrt(8.0) / n * math.fsum(quad_lin)),
    )
    log_eps2 = 0.5 * c3 + _log(
        2.0 * hbar_sq * math.sqrt(8.0) * (math.fsum(kin_diag) + math.fsum(kin_off))
    )
    log_quartic = c2 + _log(2.0 * l1_norm_loop(v) / n)
    log_total = _logaddexp(log_eps1, math.log(2.0) + log_eps2, log_quartic)
    if not log_total < math.inf:
        raise NumericalFailure("error bound eps1 + 2*eps2 + quartic overflows a double")
    log_signal = _log(abs(correlation_delocalized(continuum)))
    log_w = log_signal + math.log(n) / 3.0
    log_total_times_n = log_total + math.log(n)
    return ErrorBudget(
        a_constants=constants,
        c_small=C_SMALL,
        c_n=c_n,
        log_eps1_bound=log_eps1,
        log_eps2_bound=log_eps2,
        log_quartic_bound=log_quartic,
        log_total=log_total,
        log_total_times_n=log_total_times_n,
        log_signal=log_signal,
        log_crossover_n=1.5 * (log_total_times_n - log_w) if math.isfinite(log_w) else math.inf,
        n=n,
    )


def hf_energy_loop(table, v, half_prefactor=False):
    """The Hartree-Fock energy with its exchange terms formed one momentum at a time."""
    ball = table.source
    stay = (ball.n - table.nk2).tolist()
    if (0, 0, 0) in v.coeffs:
        stay.insert(0, ball.n)
    kinetic = ModelParams(ball.n).hbar ** 2 * float(ball.norm_sq_sum())
    direct = ball.n * v.value((0, 0, 0))
    terms = (v.coeffs[k] * count for k, count in zip(sorted(v.coeffs, key=mode_sort_key), stay))
    exchange = finite_fsum(terms, "Hartree-Fock exchange sum") / ball.n
    if half_prefactor:
        direct *= 0.5
        exchange *= 0.5
    total = kinetic + direct - exchange
    if not math.isfinite(total):
        raise NumericalFailure("Hartree-Fock total energy overflows a double")
    return HFEnergy(kinetic=kinetic, direct=direct, exchange=exchange, total=total)


def one_pair_deviations_loop(basis, triplets, modes, v, params, max_pairs):
    """|<phi_k, Q phi_k> - (diagonal + cross)| per support momentum, one full Q phi_k each.

    The diagonal V(k) n_k^2 / N is rounded as written, so it is inf where
    V(k) n_k^2 overflows.
    """
    support = nonzero_support(v)
    devs = []
    for k in support:
        nk2 = modes.lune_size(k)
        if nk2 == 0 or v.value(k) == 0.0:
            continue
        phi = normalized(apply_pair_create, vacuum(), k, modes, cap=max_pairs)
        vec = _basis_vector(basis, phi)
        expect = np.vdot(vec, _matvec(triplets, vec))
        cross = math.fsum(
            v.value(kp) / params.n * float(state_norm_sq(apply_pair_annihilate(phi, kp, modes)))
            for kp in support
            if kp != k and modes.lune_size(kp) > 0
        )
        devs.append(abs(expect - (v.value(k) * nk2 / params.n + cross)))
    return devs
