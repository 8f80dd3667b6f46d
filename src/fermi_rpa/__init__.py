"""Correlation energy of the mean-field Fermi gas on the torus.

Numerically realizes the delocalized-pair random-phase-approximation
upper bound with its closed-form Bogoliubov minimizer, the optimal
(ring-resummed) correlation energy for comparison, the plane-wave
Hartree-Fock energy, rigorous remainder budgets, and an exact
small-instance Fock-space oracle for the underlying operator identities.

The package itself imports only ``math`` and ``errors``: it holds the
version and what every ``fermi-rpa`` call may need before any module
runs, the quadrature tolerance default and its check, and the
closed-form second-order ratio.
"""

import math

from .errors import DomainError

__version__ = "0.1.0"

DEFAULT_TOL = 1e-10


def checked_tol(tol: float) -> float:
    """A quadrature tolerance (the CLI's --tol): finite and > 0."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance must be finite and > 0, got {tol!r}")
    return tol


def second_order_ratio() -> float:
    """(9/32) / (1 - log 2): delocalized over optimal second-order weight."""
    return (9.0 / 32.0) / (1.0 - math.log(2.0))
