#!/usr/bin/env python3
"""Small-coupling scan: correlation energies against their second orders.

Scales the demo potential by dyadic factors and tabulates how fast the
delocalized-pair bound and the optimal correlation energy approach their
second-order expansions.  The deviation columns should shrink linearly
in the coupling scale.

    python3 scripts/coupling_scan.py --n 2109 --scales 3:9
"""

import argparse
import sys

from fermi_rpa import DEFAULT_TOL
from fermi_rpa.cli import csv_text, read_potential
from fermi_rpa.errors import DomainError, FermiRpaError
from fermi_rpa.lattice import ModelParams, build_fermi_ball
from fermi_rpa.potential import make_potential
from fermi_rpa.rpa_delocalized import (
    coefficient_table,
    correlation_delocalized,
    second_order_delocalized,
)
from fermi_rpa.rpa_optimal import (
    frequency_brackets,
    gmb_correlation,
    second_order_optimal,
)

HEADER = ["s", "min_energy_over_s2", "so_delocalized", "deloc_dev", "gmb_over_s2", "so_optimal", "gmb_dev"]


def scan(args) -> str:
    """The CSV table of the scan over 2^-lo .. 2^-(hi-1)."""
    try:
        lo, hi = (int(c) for c in args.scales.split(":"))
    except ValueError:
        raise FermiRpaError(f"--scales must be two integers lo:hi, got {args.scales!r}") from None
    v = read_potential(args.potential)
    ball = build_fermi_ball(args.n)
    params = ModelParams(args.n)

    rows = []
    for j in range(lo, hi):
        s = 2.0 ** (-j)
        scaled = make_potential({k: s * x for k, x in v.coeffs.items()}, v.support_radius_sq)
        table = coefficient_table(ball, scaled)
        deloc = correlation_delocalized(table)
        so_deloc = second_order_delocalized(table)
        gmb = gmb_correlation(frequency_brackets(scaled, args.tol), params).total
        so_opt = second_order_optimal(scaled, params)
        orders = (("so_delocalized", so_deloc), ("so_optimal", so_opt))
        zero = [name for name, x in orders if x == 0.0]
        if zero:  # the deviation columns divide by it
            zeros = ", ".join(f"{name} = 0" for name in zero)
            raise DomainError(f"zero second order at s = {s!r}: {zeros}")
        deloc_dev, gmb_dev = abs(deloc / so_deloc - 1.0), abs(gmb / so_opt - 1.0)
        s2 = s ** 2
        rows.append((s, deloc / s2, so_deloc / s2, deloc_dev, gmb / s2, so_opt / s2, gmb_dev))
    return csv_text(HEADER, rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2109)
    parser.add_argument("--potential", default=None)
    parser.add_argument("--scales", default="3:9", help="dyadic exponent range lo:hi")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    args = parser.parse_args(argv)
    try:
        text = scan(args)
    except FermiRpaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
