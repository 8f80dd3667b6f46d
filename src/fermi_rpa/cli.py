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

Flags are the only run settings; no file or environment variable is read.
``--tol`` (``corr``, ``compare``; ``--tol X`` or ``--tol=X``) defaults to
``rpa_optimal.DEFAULT_TOL`` = 1e-10 and must be finite and > 0 for every
method; ``oracle --pairs`` defaults to 2, and it and ``--trials`` must be
>= 1; ``--seed`` must be >= 0.

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
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, astuple, fields, is_dataclass

from . import __version__
from .error_budget import assemble_error_budget
from .errors import DomainError, FermiRpaError
from .fock_oracle import (
    build_mode_set,
    verify_almost_ccr,
    verify_c_commutator,
    verify_quadratic_interaction,
)
from .hf import hf_energy
from .lattice import ModelParams, build_fermi_ball, nk_asymptotic
from .potential import Potential, load_potential, make_potential
from .quadrature import checked_tol
from .report import EnergyReport, energy_report
from .rpa_delocalized import (
    coefficient_table,
    correlation_delocalized,
    second_order_delocalized,
)
from .rpa_optimal import (
    DEFAULT_TOL,
    frequency_brackets,
    gmb_correlation,
    second_order_optimal,
    second_order_ratio,
)

DEMO_POTENTIAL = {
    (1, 0, 0): 0.5,
    (0, 1, 0): 0.5,
    (0, 0, 1): 0.5,
    (1, 1, 0): 0.25,
}


def read_potential(path) -> Potential:
    """The potential document at ``path``, or the demo potential when no path is given."""
    return load_potential(path) if path else make_potential(DEMO_POTENTIAL, support_radius_sq=2)


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
    """obj with dataclasses as dicts and every non-finite float as None (JSON null)."""
    if is_dataclass(obj):
        obj = asdict(obj)
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
    return parser


def _cmd_ball(args) -> str:
    ball = build_fermi_ball(args.n)
    params = ModelParams(args.n)
    return json_text(
        {
            "n": ball.n,
            "shell_radius_sq": ball.shell_radius_sq,
            "kf_continuum": params.kf,
            "hbar": params.hbar,
        }
    )


def _cmd_nk(args) -> str:
    ball = build_fermi_ball(args.n)
    params = ModelParams(args.n)
    v = read_potential(args.potential)
    rows = []
    for row in coefficient_table(ball, v):
        k = row.k
        exact = math.sqrt(row.nk2)
        asym = nk_asymptotic(params, k)  # > 0 on the lens domain
        rows.append((f"({k[0]} {k[1]} {k[2]})", exact, asym, abs(exact / asym - 1.0)))
    return csv_text(["k", "n_exact", "n_asym", "rel_err"], rows)


def _cmd_hf(args) -> str:
    ball = build_fermi_ball(args.n)
    v = read_potential(args.potential)
    rows = coefficient_table(ball, v)
    return json_text(hf_energy(ball, v, rows, half_prefactor=args.hf_half_prefactor))


def _cmd_corr(args) -> str:
    v = read_potential(args.potential)
    params = ModelParams(args.n)
    method = args.method
    if method == "delocalized-exact":
        value = correlation_delocalized(coefficient_table(build_fermi_ball(args.n), v))
    elif method == "delocalized-asym":
        value = correlation_delocalized(coefficient_table(params, v))
    elif method == "optimal":
        if v.value((0, 0, 0)) != 0.0:
            sys.stderr.write(
                "warning: V(0) != 0 is excluded from the correlation sum\n"
            )
        value = gmb_correlation(frequency_brackets(v, args.tol), params).total
    elif method == "so-deloc":
        value = second_order_delocalized(params, v)
    else:
        value = second_order_optimal(v, params)
    return format_float(value) + "\n"


def _cmd_compare(args) -> str:
    v = read_potential(args.potential)
    try:
        ns = [int(x) for x in args.n_list.split(",") if x.strip()]
    except ValueError as exc:
        raise FermiRpaError(f"invalid --n-list: {exc}") from exc
    # the brackets depend on V(k) alone: one table serves every N
    brackets = frequency_brackets(v, args.tol) if ns else {}
    reports = [energy_report(n, v, brackets) for n in ns]
    if args.format == "csv":
        # the field order is the column order
        return csv_text([f.name for f in fields(EnergyReport)], map(astuple, reports))
    return json_text(reports)


def _cmd_errors(args) -> str:
    v = read_potential(args.potential)
    continuum = coefficient_table(ModelParams(args.n), v)
    exact = args.backend == "exact"
    rows = coefficient_table(build_fermi_ball(args.n), v) if exact else continuum
    return json_text(assemble_error_budget(rows, continuum, v, args.n))


def _cmd_oracle(args) -> str:
    if args.seed < 0:
        raise DomainError(f"seed must be >= 0, got {args.seed}")
    checked_count("trials", args.trials)
    max_pairs = checked_count("max_pairs", args.pairs)
    modes = build_mode_set(args.holes_n, args.lambda_sq)
    v = read_potential(args.potential)
    params = ModelParams(args.holes_n)
    e1, e2 = (1, 0, 0), (0, 1, 0)
    reports = [
        verify_almost_ccr(modes, e1, e1, args.trials, args.seed, max_pairs),
        verify_almost_ccr(modes, e1, e2, args.trials, args.seed, max_pairs),
        verify_c_commutator(modes, e1, e1, args.trials, args.seed, max_pairs),
        verify_c_commutator(modes, e1, e2, args.trials, args.seed, max_pairs),
        verify_quadratic_interaction(modes, v, params, max_pairs, args.seed),
    ]
    return "".join(map(json_text, reports))


def _cmd_ratio(args) -> str:
    return format_float(second_order_ratio()) + "\n"


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
        if hasattr(args, "tol"):  # corr (every method) and compare
            checked_tol(args.tol)
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


if __name__ == "__main__":
    sys.exit(main())
