"""Exception types shared across the package.

Every error names the violated invariant in its message so the CLI can
surface it verbatim (exit code 1 for validation errors, 2 for numerical
failures such as ConvergenceFailure/TruncationOverflow).
"""


class FermiRpaError(Exception):
    """Base class for all package errors."""


class NotClosedShell(FermiRpaError):
    """The requested particle count does not fill a lattice ball exactly."""


class EmptyLune(FermiRpaError):
    """No particle-hole pair exists for the requested transfer momentum."""


class DomainError(FermiRpaError):
    """Input lies outside the mathematical domain of the formula."""


class ShapeMismatch(FermiRpaError):
    """Inconsistent sizes between a Fermi ball and the model parameters."""


class ParseError(FermiRpaError):
    """Malformed potential document."""


class SymmetryError(FermiRpaError):
    """Explicit Fourier coefficients at k and -k disagree."""


class DegenerateCoefficients(FermiRpaError):
    """Quadratic coefficients with beta >= alpha; minimizer undefined."""


class MissingCoefficient(FermiRpaError):
    """A kernel momentum has no matching quadratic coefficient."""


class NotInBasis(FermiRpaError):
    """A configuration key is missing from the sector basis it is looked up in."""


class ConvergenceFailure(FermiRpaError):
    """Adaptive quadrature could not reach the requested tolerance."""


class TruncationOverflow(FermiRpaError):
    """An operator application left the allowed pair sector."""


class BoundViolation(FermiRpaError):
    """A brute-force check contradicted a rigorous operator bound."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
