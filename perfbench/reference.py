"""Reference values computed without the package, and the output checks.

Nothing here imports fermi_rpa.  The lattice quantities come from
column-interval arithmetic (a closed-shell ball is one z-interval per
(x, y) column), a different algorithm from the package's N x 3 array
scans.  The exact kinetic coefficient follows from the identity
n_k^2 * k.f(k) = N |k|^2 on symmetric closed shells.  The optimal
brackets use Gauss-Legendre quadrature on the compactified variable
t = lambda / (1 + lambda), vectorised over the distinct values of a.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

Momentum = Tuple[int, int, int]

# the CLI's default quadrature tolerance (documented in the README)
DEFAULT_TOL = 1e-10
KAPPA = (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
KINETIC_SHAPE = (4.0 / (3.0 * math.sqrt(math.pi))) ** (2.0 / 3.0)
LUNE_SHAPE = (3.0 * math.sqrt(math.pi) / 4.0) ** (2.0 / 3.0)
C_SMALL = 4.0 * (9.0 * math.pi / 16.0) ** (2.0 / 3.0)
PARTICLE_ESCAPE = (6.0 / math.pi) ** (1.0 / 3.0)
SO_DELOCALIZED = (math.pi / 2.0) * (9.0 / 32.0)
SO_OPTIMAL = (math.pi / 2.0) * (1.0 - math.log(2.0))

# relative tolerance for values the program computes with exact integer
# counts and a handful of float operations
REL_TOL = 1e-11
# log-space error-budget entries pass through exp/log and long sums
LOG_REL_TOL = 1e-10


def _sort_key(k: Momentum):
    return (k[0] * k[0] + k[1] * k[1] + k[2] * k[2], k[0], k[1], k[2])


# --- lattice ------------------------------------------------------------------


def closed_shell_radius_sq(n: int) -> int:
    """Radius^2 of the closed shell holding exactly n lattice points."""
    r = int((3.0 * n / (4.0 * math.pi)) ** (1.0 / 3.0)) + 3
    ax = np.arange(-r, r + 1)
    nsq = (ax[:, None, None] ** 2 + ax[None, :, None] ** 2 + ax[None, None, :] ** 2).ravel()
    cumulative = np.cumsum(np.bincount(nsq, minlength=r * r + 1))[: r * r + 1]
    hits = np.nonzero(cumulative == n)[0]
    if len(hits) == 0:
        raise ValueError(f"{n} is not a closed-shell size")
    return int(hits[0])


class Columns:
    """The ball |h|^2 <= radius_sq as half-heights zmax[x, y] (-1: no column)."""

    def __init__(self, radius_sq: int, pad: int):
        self.pad = pad
        half = math.isqrt(radius_sq) + pad
        ax = np.arange(-half, half + 1)
        rest = radius_sq - (ax[:, None] ** 2 + ax[None, :] ** 2)
        zmax = np.full(rest.shape, -1, dtype=np.int64)
        inside = rest >= 0
        zmax[inside] = np.array([math.isqrt(int(v)) for v in rest[inside]], dtype=np.int64)
        self.zmax = zmax
        self.axis = ax

    @property
    def count(self) -> int:
        return int(np.sum(2 * self.zmax[self.zmax >= 0] + 1))

    def sum_norm_sq(self) -> int:
        """Exact sum of |h|^2 over the ball, per column in closed form."""
        total = 0
        for (i, j), z in np.ndenumerate(self.zmax):
            if z >= 0:
                z = int(z)
                xy = int(self.axis[i]) ** 2 + int(self.axis[j]) ** 2
                total += (2 * z + 1) * xy + z * (z + 1) * (2 * z + 1) // 3
        return total

    def stay_count(self, k: Momentum) -> int:
        """#{h in ball : h + k in ball}, from overlapping column intervals."""
        kx, ky, kz = k
        if max(abs(kx), abs(ky)) > self.pad:
            raise ValueError("column padding too small for k")
        z1 = self.zmax
        z2 = np.roll(self.zmax, shift=(-kx, -ky), axis=(0, 1))
        lo = np.maximum(-z1, -z2 - kz)
        hi = np.minimum(z1, z2 - kz)
        both = (z1 >= 0) & (z2 >= 0)
        return int(np.sum(np.where(both, np.maximum(hi - lo + 1, 0), 0)))


def lattice_table(n: int, support: Sequence[Momentum]) -> Dict[Momentum, Tuple[int, float]]:
    """Per momentum: the exact lune count n_k^2 and k.f(k) = N|k|^2 / n_k^2."""
    pad = max(max(abs(c) for c in k) for k in support)
    cols = Columns(closed_shell_radius_sq(n), pad)
    if cols.count != n:
        raise ValueError(f"column count {cols.count} != {n}")
    table = {}
    for k in support:
        mirror = (-k[0], -k[1], -k[2])
        if mirror in table:  # n_{-k} = n_k on a symmetric ball
            table[k] = table[mirror]
            continue
        lune = n - cols.stay_count(k)
        nsq = k[0] * k[0] + k[1] * k[1] + k[2] * k[2]
        table[k] = (lune, n * nsq / lune)
    return table


# --- frequency integral ---------------------------------------------------------


def _inner_factor_of_u(u: np.ndarray) -> np.ndarray:
    """1 - lambda arctan(1/lambda) written in u = 1/lambda."""
    out = np.empty_like(u)
    small = u < 0.1
    u2 = u[small] ** 2
    acc = np.zeros_like(u2)
    power = u2.copy()
    for j in range(1, 12):
        acc += (-1.0) ** (j + 1) * power / (2 * j + 1)
        power *= u2
    out[small] = acc
    big = u[~small]
    out[~small] = 1.0 - np.arctan(big) / big
    return out


def frequency_integral(a: np.ndarray) -> np.ndarray:
    """(1/pi) int_0^inf log(1 + a(1 - lambda arctan(1/lambda))) dlambda, per a.

    With lambda = t/(1-t) the integrand times dlambda/dt = (1+lambda)^2
    is analytic on [0, 1], so 4 x 48 Gauss-Legendre nodes reach double
    precision for the |a| < 1 used here.
    """
    x, w = np.polynomial.legendre.leggauss(48)
    t = np.concatenate([lo + 0.125 * (x + 1.0) for lo in (0.0, 0.25, 0.5, 0.75)])
    wt = np.tile(w * 0.125, 4)
    lam = t / (1.0 - t)
    h = np.log1p(np.multiply.outer(a, _inner_factor_of_u(1.0 / lam))) * (1.0 + lam) ** 2
    return (h @ wt) / math.pi


# --- closed forms -------------------------------------------------------------------


def hbar_of(n: int) -> float:
    return float(n) ** (-1.0 / 3.0)


def potential_digest(coeffs: Dict[Momentum, float], radius_sq: int) -> str:
    """Digest of the canonical potential document (mode-ordered, mirrors filled)."""
    entries = [{"k": list(k), "v": coeffs[k]} for k in sorted(coeffs, key=_sort_key)]
    text = json.dumps(
        {"support_radius_sq": radius_sq, "coeffs": entries}, separators=(", ", ": ")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _minimum(alpha: np.ndarray, beta: np.ndarray) -> float:
    root = np.sqrt((alpha - beta) * (alpha + beta))
    return math.fsum(-beta * beta / (2.0 * (root + alpha)))


class Reference:
    """Every number the benchmark's operations print, for one potential."""

    def __init__(self, coeffs: Dict[Momentum, float], radius_sq: int):
        self.coeffs = dict(coeffs)
        self.radius_sq = radius_sq
        self.support = sorted((k for k in coeffs if k != (0, 0, 0)), key=_sort_key)
        self.v = np.array([coeffs[k] for k in self.support])
        self.knorm = np.array([math.sqrt(k[0] ** 2 + k[1] ** 2 + k[2] ** 2) for k in self.support])
        self.v0 = coeffs.get((0, 0, 0), 0.0)
        self.l1 = math.fsum(abs(v) for v in coeffs.values())
        a = 2.0 * math.pi * KAPPA * self.v
        distinct, inverse = np.unique(a, return_inverse=True)
        self.brackets = frequency_integral(distinct)[inverse] - (math.pi / 2.0) * KAPPA * self.v
        self._tables: Dict[int, Dict[Momentum, Tuple[int, float]]] = {}

    def table(self, n: int):
        if n not in self._tables:
            self._tables[n] = lattice_table(n, self.support)
        return self._tables[n]

    def _exact(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        tab = self.table(n)
        lune = np.array([tab[k][0] for k in self.support], dtype=float)
        kdotf = np.array([tab[k][1] for k in self.support])
        return lune, kdotf

    def hf(self, n: int) -> Dict[str, float]:
        cols = Columns(closed_shell_radius_sq(n), 0)
        kinetic = hbar_of(n) ** 2 * float(cols.sum_norm_sq())
        direct = n * self.v0
        lune, _ = self._exact(n)
        exchange = math.fsum([self.v0 * n, *(self.v * (n - lune))]) / n
        return {
            "kinetic": kinetic,
            "direct": direct,
            "exchange": exchange,
            "total": kinetic + direct - exchange,
        }

    def corr_delocalized_exact(self, n: int) -> float:
        lune, kdotf = self._exact(n)
        beta = self.v * lune / n
        return _minimum(hbar_of(n) ** 2 * kdotf + beta, beta)

    def corr_delocalized_asymptotic(self, n: int) -> float:
        hbar = hbar_of(n)
        beta = hbar * LUNE_SHAPE * self.v * self.knorm
        return _minimum(hbar * self.knorm * KINETIC_SHAPE + beta, beta)

    def corr_optimal(self, n: int) -> Tuple[float, float]:
        """Value and the certified bound on |printed - exact| at DEFAULT_TOL."""
        scale = hbar_of(n) * KAPPA
        value = scale * math.fsum(self.knorm * self.brackets)
        return value, scale * math.fsum(self.knorm) * DEFAULT_TOL

    def second_orders(self, n: int) -> Tuple[float, float]:
        acc = math.fsum(self.v ** 2 * self.knorm)
        return -hbar_of(n) * SO_DELOCALIZED * acc, -hbar_of(n) * SO_OPTIMAL * acc

    def error_budget(self, n: int, backend: str) -> dict:
        """The rigorous remainder budget, log space, as ``errors`` prints it."""
        hbar = hbar_of(n)
        v, kn = np.abs(self.v), self.knorm
        arg = 1.0 + C_SMALL * self.v
        lg = np.abs(np.log(arg))
        root = np.sqrt(arg)
        a_consts = [
            math.fsum(lg),
            math.fsum(v * root),
            math.fsum(v * root * np.sqrt(kn)),
            math.fsum(lg * root * np.sqrt(kn)),
            math.fsum(arg ** 0.25 * np.sqrt(kn)),
        ]
        xi = np.abs(-0.25 * np.log1p(C_SMALL * self.v))
        xi_sum = math.fsum(xi)
        c_n = {m: 8.0 * m * 5.0 ** m * xi_sum for m in (1, 2, 3)}
        if backend == "exact":
            lune, kdotf = self._exact(n)
            n_of = np.sqrt(lune)
        else:
            n_of = np.sqrt(kn * n * hbar * LUNE_SHAPE)
            kdotf = kn * n ** (1.0 / 3.0) * KINETIC_SHAPE
        s = math.fsum(xi / n_of) / n_of
        e_x = np.exp(xi)
        quad_sq = math.fsum(v * n_of ** 2 * e_x * e_x * s ** 2)
        quad_lin = math.fsum(v * n_of ** 2 * (4.0 * np.sinh(xi) + 2.0 * np.cosh(xi)) * e_x * s)
        kin_diag = math.fsum(2.0 * xi * np.abs(kdotf) * np.sinh(xi) * e_x * 2.0 * s)
        kin_off = math.fsum(
            PARTICLE_ESCAPE * n ** (1.0 / 3.0) * kn * s * (np.sinh(xi) + e_x * s)
        )
        log_eps1 = float(
            np.logaddexp(
                c_n[3] + math.log(32.0 / n * quad_sq),
                0.5 * c_n[3] + math.log(math.sqrt(8.0) / n * quad_lin),
            )
        )
        log_eps2 = 0.5 * c_n[3] + math.log(
            2.0 * hbar ** 2 * math.sqrt(8.0) * (kin_diag + kin_off)
        )
        log_quartic = c_n[2] + math.log(2.0 * self.l1 / n)
        log_total = float(
            np.logaddexp.reduce([log_eps1, math.log(2.0) + log_eps2, log_quartic])
        )
        log_signal = math.log(abs(self.corr_delocalized_asymptotic(n)))
        log_total_times_n = log_total + math.log(n)
        return {
            "a_constants": a_consts,
            "c_small": C_SMALL,
            "c_n": {str(m): c for m, c in c_n.items()},
            "log_eps1_bound": log_eps1,
            "log_eps2_bound": log_eps2,
            "log_quartic_bound": log_quartic,
            "log_total": log_total,
            "log_total_times_n": log_total_times_n,
            "log_signal": log_signal,
            "log_crossover_n": 1.5 * (log_total_times_n - log_signal - math.log(n) / 3.0),
            "n": n,
        }

    def report_row(self, n: int) -> Dict[str, Tuple[float, float]]:
        """Expected ``compare`` CSV cells as (value, allowed absolute error)."""
        hf = self.hf(n)
        so_d, so_o = self.second_orders(n)
        opt, opt_err = self.corr_optimal(n)
        budget = self.error_budget(n, "asymptotic")

        def rel(x, tol=REL_TOL):
            return (x, tol * abs(x))

        return {
            "hbar": rel(hbar_of(n)),
            "hf_kinetic": rel(hf["kinetic"]),
            "hf_direct": rel(hf["direct"]),
            "hf_exchange": rel(hf["exchange"]),
            "hf_total": rel(hf["total"]),
            "corr_delocalized_exact": rel(self.corr_delocalized_exact(n)),
            "corr_delocalized_asymptotic": rel(self.corr_delocalized_asymptotic(n)),
            "corr_optimal": (opt, opt_err),
            "so_delocalized": rel(so_d),
            "so_optimal": rel(so_o),
            "so_ratio": rel(so_d / so_o),
            "log_error_total": rel(budget["log_total"], LOG_REL_TOL),
            "log_error_total_times_n": rel(budget["log_total_times_n"], LOG_REL_TOL),
        }


# --- output checks -------------------------------------------------------------------
# Each check returns a list of mismatch descriptions; empty means correct.


def _close(label: str, got, want: float, allowed: float) -> List[str]:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return [f"{label}: not a number: {got!r}"]
    if not math.isfinite(got) or abs(got - want) > allowed:
        return [f"{label}: got {got!r}, want {want!r} within {allowed:.3g}"]
    return []


def _tree_close(label: str, got, want, rel: float) -> List[str]:
    """Compare nested JSON values: exact structure, numbers within rel."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{label}: keys {sorted(got) if isinstance(got, dict) else got!r}"]
        return [e for key in want for e in _tree_close(f"{label}.{key}", got[key], want[key], rel)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{label}: got {got!r}"]
        return [e for i, (g, w) in enumerate(zip(got, want)) for e in _tree_close(f"{label}[{i}]", g, w, rel)]
    if isinstance(want, int):
        return [] if got == want and type(got) is int else [f"{label}: got {got!r}, want {want}"]
    return _close(label, got, want, rel * abs(want))


def check_compare_csv(text: str, ref: Reference, ns: Sequence[int]) -> List[str]:
    lines = text.splitlines()
    header = (
        "n,hbar,potential,hf_kinetic,hf_direct,hf_exchange,hf_total,"
        "corr_delocalized_exact,corr_delocalized_asymptotic,corr_optimal,"
        "so_delocalized,so_optimal,so_ratio,log_error_total,log_error_total_times_n"
    )
    if not lines or lines[0] != header:
        return [f"compare: unexpected header {lines[:1]!r}"]
    if len(lines) != len(ns) + 1:
        return [f"compare: {len(lines) - 1} rows for {len(ns)} particle counts"]
    cols = header.split(",")
    digest = potential_digest(ref.coeffs, ref.radius_sq)
    errors: List[str] = []
    for n, line in zip(ns, lines[1:]):
        cells = dict(zip(cols, line.split(",")))
        if cells.get("n") != str(n) or cells.get("potential") != digest:
            errors.append(f"compare N={n}: identity cells {cells.get('n')!r}, {cells.get('potential')!r}")
            continue
        for col, (want, allowed) in ref.report_row(n).items():
            try:
                got = float(cells[col])
            except (KeyError, ValueError):
                errors.append(f"compare N={n} {col}: unparsable {cells.get(col)!r}")
                continue
            errors += _close(f"compare N={n} {col}", got, want, allowed)
    return errors


def _json(text: str, label: str):
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"{label}: invalid JSON ({exc})"]


def check_hf_json(text: str, ref: Reference, n: int) -> List[str]:
    doc, errors = _json(text, "hf")
    return errors or _tree_close("hf", doc, ref.hf(n), REL_TOL)


def check_float_line(label: str, text: str, want: float, allowed: float) -> List[str]:
    try:
        got = float(text.strip()) if text.count("\n") == 1 and text.endswith("\n") else None
    except ValueError:
        got = None
    if got is None:
        return [f"{label}: expected one number on one line, got {text[:80]!r}"]
    return _close(label, got, want, allowed)


def check_errors_json(text: str, ref: Reference, n: int, backend: str) -> List[str]:
    doc, errors = _json(text, "errors")
    return errors or _tree_close("errors", doc, ref.error_budget(n, backend), LOG_REL_TOL)


def check_ratio(text: str) -> List[str]:
    want = (9.0 / 32.0) / (1.0 - math.log(2.0))
    return check_float_line("ratio", text, want, REL_TOL * want)


# --- Fock-space oracle ------------------------------------------------------------------


def _ball_points(radius_sq: int) -> List[Momentum]:
    r = math.isqrt(radius_sq)
    span = range(-r, r + 1)
    return [(x, y, z) for x in span for y in span for z in span if x * x + y * y + z * z <= radius_sq]


def oracle_expectations(holes_n: int, lambda_sq: int, max_pairs: int) -> dict:
    """Mode-set facts every oracle report must state, by brute enumeration."""
    hole_r2 = closed_shell_radius_sq(holes_n)
    holes = set(_ball_points(hole_r2))
    particles = set(_ball_points(lambda_sq)) - holes
    cap = min(max_pairs, len(holes), len(particles))
    dim = sum(math.comb(len(holes), j) * math.comb(len(particles), j) for j in range(cap + 1))

    def plus(a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])

    def pairs(k):
        return [(plus(h, k), h) for h in holes if plus(h, k) in particles]

    e1, e2 = (1, 0, 0), (0, 1, 0)
    lune = {k: len(pairs(k)) for k in (e1, e2)}
    fdot = math.fsum(sum(e1[i] * (p[i] + h[i]) for i in range(3)) for p, h in pairs(e1)) / lune[e1]

    def bound_constant(k, l):
        best_p = best_h = 0.0
        minus_l = (-l[0], -l[1], -l[2])
        for h in holes:
            w = math.sqrt(sum((2 * h[i] + k[i]) ** 2 for i in range(3)))
            if plus(h, k) in particles and plus(h, l) in particles:
                best_p = max(best_p, w)
            if plus(h, k) in particles and plus(plus(h, k), minus_l) in holes:
                best_h = max(best_h, w)
        return 0.5 * (best_p + best_h)

    modeset = (
        f"holes={len(holes)}(r2<={hole_r2}),particles={len(particles)}"
        f"(r2<={lambda_sq}),max_pairs={max_pairs}"
    )
    return {
        "modeset": modeset,
        "dimension": float(dim),
        "reports": [
            ("almost_ccr", {"lune_k": float(lune[e1]), "lune_l": float(lune[e1])}),
            ("almost_ccr", {"lune_k": float(lune[e1]), "lune_l": float(lune[e2])}),
            ("c_commutator", {"lune_k": float(lune[e1]), "bound_constant": bound_constant(e1, e1), "f_truncated_dot_k": fdot}),
            ("c_commutator", {"lune_k": float(lune[e1]), "bound_constant": bound_constant(e1, e2), "f_truncated_dot_k": fdot}),
        ],
    }


def check_oracle(text: str, expect: dict, seed: int, trials: int) -> List[str]:
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    try:
        while pos < len(text.rstrip()):
            doc, pos = decoder.raw_decode(text, pos)
            docs.append(doc)
            while pos < len(text) and text[pos].isspace():
                pos += 1
    except json.JSONDecodeError as exc:
        return [f"oracle: invalid JSON ({exc})"]
    if len(docs) != 5:
        return [f"oracle: {len(docs)} reports, want 5"]
    errors: List[str] = []
    for i, doc in enumerate(docs):
        if doc.get("violations") != []:
            errors.append(f"oracle report {i}: violations {doc.get('violations')!r}")
        if doc.get("seed") != seed or doc.get("modeset") != expect["modeset"]:
            errors.append(f"oracle report {i}: seed/modeset {doc.get('seed')!r} {doc.get('modeset')!r}")
    for i, (check, details) in enumerate(expect["reports"]):
        doc = docs[i]
        if doc.get("check") != check or doc.get("trials") != trials:
            errors.append(f"oracle report {i}: check/trials {doc.get('check')!r} {doc.get('trials')!r}")
        got = doc.get("details", {})
        if set(got) != set(details):
            errors.append(f"oracle report {i}: detail keys {sorted(got)}")
            continue
        for key, want in details.items():
            errors += _close(f"oracle report {i} {key}", got[key], want, REL_TOL * abs(want))
        ratio = doc.get("max_ratio")
        if not isinstance(ratio, float) or not 0.0 <= ratio <= 1.0 + 1e-12:
            errors.append(f"oracle report {i}: max_ratio {ratio!r} outside [0, 1]")
    quad = docs[4]
    details = quad.get("details", {})
    if quad.get("check") != "quadratic_interaction" or quad.get("trials") != 5:
        errors.append("oracle report 4: not the quadratic-interaction check")
    elif details.get("dimension") != expect["dimension"]:
        errors.append(f"oracle report 4: dimension {details.get('dimension')!r}, want {expect['dimension']}")
    else:
        for key, limit in (("hermiticity_residual", 1e-13), ("matrix_vs_direct", 1e-13), ("one_pair_deviation", 1e-12)):
            got = details.get(key)
            if not isinstance(got, float) or not 0.0 <= got <= limit:
                errors.append(f"oracle report 4: {key} {got!r} above {limit}")
    return errors
