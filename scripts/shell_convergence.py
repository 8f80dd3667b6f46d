#!/usr/bin/env python3
"""Convergence of exact lattice quantities to their continuum forms.

Walks the closed-shell grid, evaluating the exact lune norm, the exact
kinetic coefficient, and the kinetic energy density against their
continuum limits, and writes one CSV row per shell.

    python3 scripts/shell_convergence.py --shells 4,16,64,256,1024 > table.csv
"""

import argparse
import math
import sys

from fermi_rpa.cli import csv_text
from fermi_rpa.errors import FermiRpaError
from fermi_rpa.hf import hf_energy
from fermi_rpa.lattice import (
    ModelParams,
    build_fermi_ball,
    closed_shell_sizes,
    kinetic_coefficient,
    kinetic_coefficient_asymptotic,
    lune_count,
    nk_asymptotic,
)
from fermi_rpa.potential import make_potential
from fermi_rpa.rpa_delocalized import coefficient_table

HEADER = [
    "shell_radius_sq", "n", "nk_exact", "nk_asym", "nk_rel_err",
    "kdotf_exact", "kdotf_asym", "kdotf_rel_err", "kinetic_density_rel_err",
]
KIN_DENSITY_LIMIT = (4.0 * math.pi / 5.0) * (3.0 / (4.0 * math.pi)) ** (5.0 / 3.0)


def integers(flag: str, text: str, count=None):
    """The comma-separated integers of ``flag``, ``count`` of them when given."""
    try:
        values = [int(c) for c in text.split(",")]
        if count in (None, len(values)):
            return values
    except ValueError:
        pass
    shape = "comma-separated integers" if count is None else f"{count} comma-separated integers"
    raise FermiRpaError(f"{flag} must be {shape}, got {text!r}")


def convergence_table(args) -> str:
    """The CSV table, one row per attained shell of ``--shells``."""
    k = tuple(integers("--k", args.k, 3))
    shells = integers("--shells", args.shells)
    zero_potential = make_potential({(0, 0, 0): 0.0})
    # one level table up to the largest shell serves every shell
    levels = dict(closed_shell_sizes(max(shells)))

    rows = []
    for radius_sq in shells:
        if radius_sq not in levels:
            sys.stderr.write(f"skipping {radius_sq}: not an attained level\n")
            continue
        n = levels[radius_sq]
        ball = build_fermi_ball(n)
        params = ModelParams(n)
        nk_exact = math.sqrt(lune_count(ball, k))
        nk_asym = nk_asymptotic(params, k)
        _, kf_exact = kinetic_coefficient(ball, k)
        kf_asym = kinetic_coefficient_asymptotic(params, k)
        kin = hf_energy(coefficient_table(ball, zero_potential), zero_potential).kinetic / n
        nk_err, kf_err = abs(nk_exact / nk_asym - 1.0), abs(kf_exact / kf_asym - 1.0)
        kin_err = abs(kin / KIN_DENSITY_LIMIT - 1.0)
        rows.append((radius_sq, n, nk_exact, nk_asym, nk_err, kf_exact, kf_asym, kf_err, kin_err))
    return csv_text(HEADER, rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shells", default="4,16,64,256,1024")
    parser.add_argument("--k", default="1,0,0", help="transfer momentum kx,ky,kz")
    args = parser.parse_args(argv)
    try:
        text = convergence_table(args)
    except FermiRpaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
