"""Correlation energy of the mean-field Fermi gas on the torus.

Numerically realizes the delocalized-pair random-phase-approximation
upper bound with its closed-form Bogoliubov minimizer, the optimal
(ring-resummed) correlation energy for comparison, the plane-wave
Hartree-Fock energy, rigorous remainder budgets, and an exact
small-instance Fock-space oracle for the underlying operator identities.
"""

__version__ = "0.1.0"
