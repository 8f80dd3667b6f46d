"""Command-line surface: energy reports, convergence tables, oracle runs.

Subcommands
-----------
ball     shell information for a particle count
nk       CSV of exact vs continuum lune norms over the potential support
hf       Hartree-Fock energy parts as JSON
corr     one correlation-energy number by method
compare  full energy report per N (CSV or JSON)
errors   log-space rigorous error budget as JSON
oracle   brute-force operator-identity verification reports
ratio    the delocalized/optimal second-order weight ratio
scan     CSV of both correlation energies against their second orders by coupling
shells   CSV of exact lattice counts against their continuum forms by shell

Flags are the only run settings; no file or environment variable is read.
``--tol`` (``corr``, ``compare``, ``scan``; ``--tol X`` or ``--tol=X``)
defaults to ``fermi_rpa.DEFAULT_TOL`` = 1e-10 and must be finite and > 0
for every method; ``oracle --pairs`` defaults to 2, and it and
``--trials`` must be >= 1; ``--seed`` must be >= 0; every exponent of
``scan --scales lo:hi`` must lie in ``SCALES``.

Each command runs only the package modules it calls into.  Every module is
registered lazily at import (in ``sys.modules`` and on the package, run
when its first attribute is read), and each ``_cmd_*`` calls through the
module, as in ``lattice.build_fermi_ball``.  The ``--tol`` default and the
``ratio`` value live beside ``__version__``, so building the parser runs
none of them and ``ratio`` loads no numpy.

Exit codes: 0 success, 1 usage or validation error (message names the
violated invariant), 2 numerical failure (quadrature convergence,
pair-sector overflow, a quantity beyond the double range, or a kinetic
term alpha - beta lost to rounding): the
``exit_code`` of the package error raised.  Any other exception is a bug
and escapes with its traceback.  Identical invocations produce
byte-identical output.

Every subcommand returns its stdout text and ``main`` writes it, so this
module alone decides how a number becomes text: ``format_float``,
``csv_text`` and ``json_text``.

``run`` is the process entry, of the ``fermi-rpa`` script and of
``python -m fermi_rpa.cli``: it runs ``main`` with the cyclic GC off and
then freezes every object left, so the collections the interpreter makes
at exit walk none of them.  ``main`` itself leaves the GC as it finds it.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import sys

from . import DEFAULT_TOL, __version__, second_order_ratio
from .errors import DomainError, FermiRpaError


def _lazy(name: str):
    """The package module ``name``, in ``sys.modules`` and bound on the package,
    that runs when one of its attributes is first read."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:  # already imported: never make a second copy
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# Registered, not imported inside each command: a module then sits in
# sys.modules from the start whether or not a command runs it, as code
# that looks modules up there needs (perfbench/tracing.py does, for every
# module it times), and a call through the module reads the attribute
# that code may patch.
error_budget = _lazy("error_budget")
fock_oracle = _lazy("fock_oracle")
hf = _lazy("hf")
lattice = _lazy("lattice")
potential = _lazy("potential")
quadrature = _lazy("quadrature")
report = _lazy("report")
rpa_delocalized = _lazy("rpa_delocalized")
rpa_optimal = _lazy("rpa_optimal")

DEMO_POTENTIAL = {
    (1, 0, 0): 0.5,
    (0, 1, 0): 0.5,
    (0, 0, 1): 0.5,
    (1, 1, 0): 0.25,
}


def read_potential(path) -> potential.Potential:
    """The potential document at ``path``, or the demo potential when no path is given."""
    if path:
        return potential.load_potential(path)
    return potential.make_potential(DEMO_POTENTIAL, support_radius_sq=2)


def format_float(x: float) -> str:
    """17-significant-digit decimal, round-trip stable."""
    return f"{x:.17g}"


def _csv_cell(value) -> str:
    # a non-finite float (the log of an exactly zero bound) is an empty cell,
    # as it is null in JSON
    if isinstance(value, float):
        return format_float(value) if math.isfinite(value) else ""
    return str(value)


def csv_text(header, rows) -> str:
    """The header line, then one line per row of cells."""
    lines = [",".join(header)] + [",".join(map(_csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _json_safe(obj):
    """obj with records as dicts and every non-finite float as None (JSON null)."""
    # a record is a NamedTuple: asked first, or it would print as an array
    if hasattr(obj, "_asdict"):
        obj = obj._asdict()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(value) for value in obj]
    return obj


def json_text(obj) -> str:
    # strict JSON: the log of an exactly zero bound or signal prints as null
    return json.dumps(_json_safe(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def checked_count(name: str, value: int) -> int:
    """An oracle count (--trials, --pairs as max_pairs): >= 1."""
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value}")
    return value


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermi-rpa",
        description="Correlation energy of the mean-field Fermi gas",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ball", help="closed-shell information")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_ball)

    p = sub.add_parser("nk", help="exact vs continuum lune norms (CSV)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--potential", default=None)
    p.set_defaults(run=_cmd_nk)

    p = sub.add_parser("hf", help="Hartree-Fock energy parts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--potential", default=None)
    p.add_argument(
        "--hf-half-prefactor",
        action="store_true",
        help="multiply direct/exchange by 1/2 (pair-sum convention)",
    )
    p.set_defaults(run=_cmd_hf)

    p = sub.add_parser("corr", help="correlation energy by method")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--potential", default=None)
    p.add_argument(
        "--method",
        required=True,
        choices=[
            "delocalized-exact",
            "delocalized-asym",
            "optimal",
            "so-deloc",
            "so-opt",
        ],
    )
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(run=_cmd_corr)

    p = sub.add_parser("compare", help="full energy report per N")
    p.add_argument("--potential", default=None)
    p.add_argument("--n-list", required=True, help="comma-separated particle counts")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(run=_cmd_compare)

    p = sub.add_parser("errors", help="log-space rigorous error budget")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--potential", default=None)
    p.add_argument("--backend", choices=["asymptotic", "exact"], default="asymptotic")
    p.set_defaults(run=_cmd_errors)

    p = sub.add_parser("oracle", help="operator-identity verification suite")
    p.add_argument("--holes-n", type=int, default=7)
    p.add_argument("--lambda-sq", type=int, default=2)
    p.add_argument("--pairs", type=int, default=2)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--potential", default=None)
    p.set_defaults(run=_cmd_oracle)

    p = sub.add_parser("ratio", help="second-order delocalized/optimal ratio")
    p.set_defaults(run=_cmd_ratio)

    p = sub.add_parser("scan", help="correlation energies against their second orders (CSV)")
    p.add_argument("--n", type=int, default=2109)
    p.add_argument("--potential", default=None)
    p.add_argument("--scales", default="3:9", help="dyadic exponent range lo:hi")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(run=_cmd_scan)

    p = sub.add_parser("shells", help="exact lattice counts against continuum forms (CSV)")
    p.add_argument("--shells", default="4,16,64,256,1024")
    p.add_argument("--k", default="1,0,0", help="transfer momentum kx,ky,kz")
    p.set_defaults(run=_cmd_shells)
    return parser


def _cmd_ball(args) -> str:
    ball = lattice.build_fermi_ball(args.n)
    params = lattice.ModelParams(args.n)
    return json_text(
        {
            "n": ball.n,
            "shell_radius_sq": ball.shell_radius_sq,
            "kf_continuum": params.kf,
            "hbar": params.hbar,
        }
    )


def _cmd_nk(args) -> str:
    ball = lattice.build_fermi_ball(args.n)
    params = lattice.ModelParams(args.n)
    v = read_potential(args.potential)
    table = rpa_delocalized.coefficient_table(ball, v)
    rows = []
    for k, nk2 in zip(table.ks, table.nk2.tolist()):
        exact = math.sqrt(nk2)
        asym = lattice.nk_asymptotic(params, k)  # > 0 on the lens domain
        rows.append((f"({k[0]} {k[1]} {k[2]})", exact, asym, abs(exact / asym - 1.0)))
    return csv_text(["k", "n_exact", "n_asym", "rel_err"], rows)


def _cmd_hf(args) -> str:
    ball = lattice.build_fermi_ball(args.n)
    v = read_potential(args.potential)
    table = rpa_delocalized.coefficient_table(ball, v)
    return json_text(hf.hf_energy(table, v, half_prefactor=args.hf_half_prefactor))


def _cmd_corr(args) -> str:
    v = read_potential(args.potential)
    params = lattice.ModelParams(args.n)
    method = args.method
    if method == "delocalized-exact":
        table = rpa_delocalized.coefficient_table(lattice.build_fermi_ball(args.n), v)
        value = rpa_delocalized.correlation_delocalized(table)
    elif method == "delocalized-asym":
        table = rpa_delocalized.coefficient_table(params, v)
        value = rpa_delocalized.correlation_delocalized(table)
    elif method == "optimal":
        if v.value((0, 0, 0)) != 0.0:
            sys.stderr.write(
                "warning: V(0) != 0 is excluded from the correlation sum\n"
            )
        brackets = rpa_optimal.frequency_brackets(v, args.tol)
        value = rpa_optimal.gmb_correlation(brackets, params).value
    elif method == "so-deloc":
        value = rpa_delocalized.second_order_delocalized(params, v)
    else:
        value = rpa_optimal.second_order_optimal(v, params)
    return format_float(value) + "\n"


def _cmd_compare(args) -> str:
    v = read_potential(args.potential)
    try:
        ns = [int(x) for x in args.n_list.split(",") if x.strip()]
    except ValueError as exc:
        raise FermiRpaError(f"invalid --n-list: {exc}") from exc
    # the brackets depend on V(k) alone: one pair of sums serves every N
    brackets = rpa_optimal.frequency_brackets(v, args.tol) if ns else None
    digest = report.potential_digest(v)
    reports = [report.energy_report(n, v, brackets, digest) for n in ns]
    if args.format == "csv":
        # the field order is the column order
        return csv_text(report.EnergyReport._fields, reports)
    return json_text(reports)


def _cmd_errors(args) -> str:
    v = read_potential(args.potential)
    continuum = rpa_delocalized.coefficient_table(lattice.ModelParams(args.n), v)
    if args.backend == "exact":
        table = rpa_delocalized.coefficient_table(lattice.build_fermi_ball(args.n), v)
    else:
        table = continuum
    return json_text(error_budget.assemble_error_budget(table, continuum, v))


def _cmd_oracle(args) -> str:
    if args.seed < 0:
        raise DomainError(f"seed must be >= 0, got {args.seed}")
    checked_count("trials", args.trials)
    max_pairs = checked_count("max_pairs", args.pairs)
    modes = fock_oracle.build_mode_set(args.holes_n, args.lambda_sq)
    v = read_potential(args.potential)
    params = lattice.ModelParams(args.holes_n)
    e1, e2 = (1, 0, 0), (0, 1, 0)
    # the four exact checks share one set of trial states, freed before Q is assembled
    xi = fock_oracle.integer_trials(modes, max_pairs, args.trials, args.seed)
    reports = [
        check(modes, e1, l, xi, args.seed, max_pairs)
        for check in (fock_oracle.verify_almost_ccr, fock_oracle.verify_c_commutator)
        for l in (e1, e2)
    ]
    del xi
    reports.append(fock_oracle.verify_quadratic_interaction(modes, v, params, max_pairs, args.seed))
    return "".join(map(json_text, reports))


def _cmd_ratio(args) -> str:
    return format_float(second_order_ratio()) + "\n"


# s^2 = 4^-j is a nonzero finite double exactly for these dyadic exponents j
SCALES = range(-511, 538)
SCAN_HEADER = "s,min_energy_over_s2,so_delocalized,deloc_dev,gmb_over_s2,so_optimal,gmb_dev"


def _cmd_scan(args) -> str:
    """Both correlation energies over s = 2^-lo .. 2^-(hi-1) of the potential;
    the deviation columns shrink linearly in s."""
    try:
        lo, hi = (int(c) for c in args.scales.split(":"))
    except ValueError:
        raise FermiRpaError(f"--scales must be two integers lo:hi, got {args.scales!r}") from None
    if lo < hi and (lo < SCALES.start or hi > SCALES.stop):
        raise DomainError(
            f"--scales exponents must lie in {SCALES.start}:{SCALES.stop}, where s^2 = 4^-j "
            f"is a nonzero finite double, got {args.scales!r}"
        )
    v = read_potential(args.potential)
    ball = lattice.build_fermi_ball(args.n)
    params = lattice.ModelParams(args.n)
    rows = []
    for j in range(lo, hi):
        s = 2.0 ** (-j)
        coeffs = {k: s * x for k, x in v.coeffs.items()}
        scaled = potential.make_potential(coeffs, v.support_radius_sq)
        table = rpa_delocalized.coefficient_table(ball, scaled)
        deloc = rpa_delocalized.correlation_delocalized(table)
        so_deloc = rpa_delocalized.second_order_delocalized(table)
        brackets = rpa_optimal.frequency_brackets(scaled, args.tol)
        gmb = rpa_optimal.gmb_correlation(brackets, params).value
        so_opt = rpa_optimal.second_order_optimal(scaled, params)
        orders = (("so_delocalized", so_deloc), ("so_optimal", so_opt))
        zero = [f"{name} = 0" for name, x in orders if x == 0.0]
        if zero:  # the deviation columns divide by it
            raise DomainError(f"zero second order at s = {s!r}: {', '.join(zero)}")
        s2 = s**2
        rows.append((
            s, deloc / s2, so_deloc / s2, abs(deloc / so_deloc - 1.0),
            gmb / s2, so_opt / s2, abs(gmb / so_opt - 1.0),
        ))
    return csv_text(SCAN_HEADER.split(","), rows)


def _integers(flag: str, text: str, count=None) -> list:
    """The comma-separated integers of ``flag``, ``count`` of them when given."""
    try:
        values = [int(c) for c in text.split(",")]
        if count in (None, len(values)):
            return values
    except ValueError:
        pass
    shape = "comma-separated integers" if count is None else f"{count} comma-separated integers"
    raise FermiRpaError(f"{flag} must be {shape}, got {text!r}")


# the continuum limit of the kinetic energy per particle, hbar^2 sum_h |h|^2 / N
KIN_DENSITY_LIMIT = (4.0 * math.pi / 5.0) * (3.0 / (4.0 * math.pi)) ** (5.0 / 3.0)
SHELLS_HEADER = (
    "shell_radius_sq,n,nk_exact,nk_asym,nk_rel_err,"
    "kdotf_exact,kdotf_asym,kdotf_rel_err,kinetic_density_rel_err"
)


def _cmd_shells(args) -> str:
    """Exact lune norm, k.f(k) and kinetic density against their continuum
    forms, one row per attained shell of ``--shells``."""
    k = tuple(_integers("--k", args.k, 3))
    if not lattice.fits_double(lattice.norm_sq(k)):  # the check a potential's momenta pass
        raise DomainError("|k|^2 of --k does not fit in a double")
    shells = _integers("--shells", args.shells)
    # one level table up to the largest shell serves every shell; no point
    # attains a negative level, so it is skipped as an unattained one is
    levels = dict(lattice.closed_shell_sizes(max(0, *shells)))
    rows = []
    for radius_sq in shells:
        if radius_sq not in levels:
            sys.stderr.write(f"skipping {radius_sq}: not an attained level\n")
            continue
        n = levels[radius_sq]
        ball = lattice.build_fermi_ball(n)
        params = lattice.ModelParams(n)
        count, kf_exact = lattice.kinetic_coefficient(ball, k)  # one column pass
        nk_exact, nk_asym = math.sqrt(count), lattice.nk_asymptotic(params, k)
        kf_asym = lattice.kinetic_coefficient_asymptotic(params, k)
        kin = params.hbar**2 * float(ball.norm_sq_sum()) / n  # as hf_energy's kinetic part
        rows.append((
            radius_sq, n, nk_exact, nk_asym, abs(nk_exact / nk_asym - 1.0),
            kf_exact, kf_asym, abs(kf_exact / kf_asym - 1.0), abs(kin / KIN_DENSITY_LIMIT - 1.0),
        ))
    return csv_text(SHELLS_HEADER.split(","), rows)


def main(argv=None) -> int:
    # argparse reads a separate -1e-10 or -inf as an option (its negative-number
    # pattern has no exponent and no inf), so join each such value to its --tol
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--tol" and _is_float(argv[i + 1]):
            argv[i : i + 2] = [f"--tol={argv[i + 1]}"]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, and 2 is kept for numerical failures
        return 1 if exc.code == 2 else exc.code
    error = None
    try:
        # argparse drops the value of --flag=-- and leaves an empty list in its place
        for name, value in vars(args).items():
            if value == []:
                raise FermiRpaError(f"--{name.replace('_', '-')} needs a value, got '--'")
        if hasattr(args, "tol"):  # corr (every method), compare and scan
            quadrature.checked_tol(args.tol)
        text = args.run(args)
    except FermiRpaError as exc:  # any other exception is a bug: let it escape
        # a failed command prints nothing but a bound violation's report
        error = exc
        text = "" if exc.report is None else json_text(exc.report)
    sys.stdout.write(text)
    if error is None:
        return 0
    sys.stderr.write(f"error: {error}\n")
    return error.exit_code


def run() -> int:
    """``main`` as a whole process; returns its exit code.

    The process ends soon after ``main`` returns and frees all its memory
    then, so collecting cycles only costs time.  A command leaves a few
    hundred unreachable cyclic objects (argparse's parser, cycles made at
    import), however much work it does.
    """
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
