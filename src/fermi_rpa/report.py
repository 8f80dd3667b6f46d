"""Assembled per-N energy reports for tables and convergence studies.

A report reads the frequency-bracket sums and the potential digest its
caller made, once for every N, and builds the exact and continuum
coefficient tables of its own N.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import second_order_ratio
from .error_budget import assemble_error_budget
from .hf import hf_energy
from .lattice import ModelParams, build_fermi_ball
from .potential import Potential, serialize_potential
from .quadrature import IntegralResult
from .rpa_delocalized import (
    coefficient_table,
    correlation_delocalized,
    second_order_delocalized,
)
from .rpa_optimal import gmb_correlation, second_order_optimal


def potential_digest(v: Potential) -> str:
    """Short stable identifier of the potential document."""
    # imported here, its only use: loading hashlib maps libcrypto (about
    # 3.6 MB of RSS and 3.5 ms per process), which only `compare` needs
    import hashlib

    return hashlib.sha256(serialize_potential(v).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class EnergyReport:
    """One row of the comparison table; the field order is the CSV column order."""

    n: int
    hbar: float
    potential: str
    hf_kinetic: float
    hf_direct: float
    hf_exchange: float
    hf_total: float
    corr_delocalized_exact: float
    corr_delocalized_asymptotic: float
    corr_optimal: float
    so_delocalized: float
    so_optimal: float
    so_ratio: float
    log_error_total: float
    log_error_total_times_n: float


def energy_report(
    n: int, v: Potential, brackets: IntegralResult, digest: str
) -> EnergyReport:
    """Full comparison record at one particle count.

    ``brackets`` is the ``frequency_brackets(v, tol)`` sums and ``digest``
    is ``potential_digest(v)``; both depend on V alone and so serve every
    particle count.  One exact and one continuum coefficient table serve
    every other column.
    """
    ball = build_fermi_ball(n)
    params = ModelParams(n)
    exact = coefficient_table(ball, v)
    continuum = coefficient_table(params, v)
    so_deloc = second_order_delocalized(params, v)
    so_opt = second_order_optimal(v, params)
    budget = assemble_error_budget(continuum, continuum, v)
    hf = hf_energy(exact, v)
    return EnergyReport(
        n=n,
        hbar=params.hbar,
        potential=digest,
        hf_kinetic=hf.kinetic,
        hf_direct=hf.direct,
        hf_exchange=hf.exchange,
        hf_total=hf.total,
        corr_delocalized_exact=correlation_delocalized(exact),
        corr_delocalized_asymptotic=correlation_delocalized(continuum),
        corr_optimal=gmb_correlation(brackets, params).value,
        so_delocalized=so_deloc,
        so_optimal=so_opt,
        so_ratio=(so_deloc / so_opt) if so_opt != 0.0 else second_order_ratio(),
        log_error_total=budget.log_total,
        log_error_total_times_n=budget.log_total_times_n,
    )
