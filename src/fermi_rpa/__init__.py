"""Correlation energy of the mean-field Fermi gas on the torus.

Numerically realizes the delocalized-pair random-phase-approximation
upper bound with its closed-form Bogoliubov minimizer, the optimal
(ring-resummed) correlation energy for comparison, the plane-wave
Hartree-Fock energy, rigorous remainder budgets, and an exact
small-instance Fock-space oracle for the underlying operator identities.
"""

__version__ = "0.1.0"

from .errors import (
    BoundViolation,
    ConvergenceFailure,
    DegenerateCoefficients,
    DomainError,
    EmptyLune,
    FermiRpaError,
    MissingCoefficient,
    NotClosedShell,
    NotInBasis,
    ParseError,
    ShapeMismatch,
    SymmetryError,
    TruncationOverflow,
)
from .lattice import (
    FermiBall,
    KineticCoefficient,
    ModelParams,
    build_fermi_ball,
    closed_shell_sizes,
    kinetic_coefficient,
    kinetic_coefficient_asymptotic,
    lune_count,
    nk_asymptotic,
)
from .potential import (
    Potential,
    l1_norm,
    load_potential,
    make_potential,
    scale_coupling,
    serialize_potential,
)
from .hf import HFEnergy, hf_energy
from .rpa_delocalized import (
    BogoliubovKernel,
    QuadraticCoefficients,
    bosonized_functional,
    coefficient_table,
    correlation_delocalized,
    optimal_kernel,
    optimal_kernel_table,
    second_order_delocalized,
)
from .rpa_optimal import (
    GMBResult,
    frequency_brackets,
    gmb_correlation,
    gmb_integral,
    gmb_integrand,
    second_order_optimal,
    second_order_ratio,
)
from .error_budget import (
    ErrorBudget,
    a_constants,
    assemble_error_budget,
    optimal_kernel_magnitudes,
    particle_number_constant,
)
from .fock_oracle import (
    ModeSet,
    apply_c_create,
    apply_h0,
    apply_number,
    apply_pair_annihilate,
    apply_pair_create,
    build_mode_set,
    sector_basis,
    vacuum,
    verify_almost_ccr,
    verify_c_commutator,
    verify_quadratic_interaction,
)
from .report import EnergyReport, energy_report
