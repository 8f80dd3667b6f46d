"""Assembled per-N energy reports for tables and convergence studies."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional

from .error_budget import assemble_error_budget
from .hf import hf_energy
from .lattice import ModelParams, Momentum, build_fermi_ball
from .potential import Potential, serialize_potential
from .quadrature import IntegralResult
from .rpa_delocalized import (
    coefficient_table,
    correlation_delocalized,
    second_order_delocalized,
)
from .rpa_optimal import (
    DEFAULT_TOL,
    gmb_correlation,
    second_order_optimal,
    second_order_ratio,
)


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

    def as_dict(self) -> dict:
        return asdict(self)


CSV_COLUMNS = [f.name for f in fields(EnergyReport)]


def energy_report(
    n: int,
    v: Potential,
    tol: float = DEFAULT_TOL,
    *,
    brackets: Optional[Dict[Momentum, IntegralResult]] = None,
) -> EnergyReport:
    """Full comparison record at one particle count.

    ``brackets`` is an optional ``frequency_brackets(v, tol)`` table shared
    across particle counts; it is computed here when omitted.  One exact
    and one continuum coefficient table serve every column.
    """
    ball = build_fermi_ball(n)
    params = ModelParams(n)
    exact = coefficient_table(ball, v)
    continuum = coefficient_table(params, v)
    so_deloc = second_order_delocalized(params, v)
    so_opt = second_order_optimal(v, params)
    budget = assemble_error_budget(continuum, continuum, v, n)
    hf = hf_energy(ball, v, exact)
    return EnergyReport(
        n=n,
        hbar=params.hbar,
        potential=potential_digest(v),
        hf_kinetic=hf.kinetic,
        hf_direct=hf.direct,
        hf_exchange=hf.exchange,
        hf_total=hf.total,
        corr_delocalized_exact=correlation_delocalized(exact),
        corr_delocalized_asymptotic=correlation_delocalized(continuum),
        corr_optimal=gmb_correlation(v, params, tol=tol, brackets=brackets).total,
        so_delocalized=so_deloc,
        so_optimal=so_opt,
        so_ratio=(so_deloc / so_opt) if so_opt != 0.0 else second_order_ratio(),
        log_error_total=budget.log_total,
        log_error_total_times_n=budget.log_total_times_n,
    )


def format_float(x: float) -> str:
    """17-significant-digit decimal, round-trip stable."""
    return f"{x:.17g}"


def report_csv(reports: List[EnergyReport]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for rep in reports:
        cells = (
            format_float(val) if isinstance(val, float) else str(val)
            for val in rep.as_dict().values()
        )
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
