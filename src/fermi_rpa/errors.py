"""Exception types shared across the package, one per exit outcome.

Every error names the violated invariant in its message, and its class
alone decides the CLI outcome: ``main`` prints ``error: <message>`` and
returns ``exit_code`` (1 for invalid input, 2 for a numerical failure),
after the report of a ``BoundViolation``.  Any other exception is a bug.
"""


class FermiRpaError(Exception):
    """Base class for all package errors: invalid input, exit code 1."""

    exit_code = 1
    report = None


class DomainError(FermiRpaError):
    """A value outside the domain of a formula: an open shell, an empty lune,
    a row of another table, degenerate or missing coefficients, a key not in
    a sector basis."""


class ParseError(FermiRpaError):
    """A malformed potential document, or a potential that is not finite and even."""


class NumericalFailure(FermiRpaError):
    """Quadrature that cannot reach its tolerance, an operator application
    that leaves the allowed pair sector, a quantity beyond the double range,
    or a kinetic term lost to rounding: exit code 2."""

    exit_code = 2


class BoundViolation(FermiRpaError):
    """A brute-force check contradicted a rigorous operator bound."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
