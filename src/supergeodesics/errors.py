"""Exception types shared across the package."""


class SuperGeometryError(Exception):
    """Base class for all errors raised by this package.  `exit_code` is the
    CLI's exit status for a type: 3 for a failed integration, else 2."""
    exit_code = 2


class MismatchedGeneratorCount(SuperGeometryError):
    """Operands live over Grassmann algebras with different generator counts."""


class ZeroBody(SuperGeometryError):
    """Inversion of an element whose body (scalar part) vanishes."""


class OddElement(SuperGeometryError):
    """An even element was required (e.g. for inversion)."""


class ExpressionSyntaxError(SuperGeometryError):
    """Malformed expression text."""


class UnknownIdentifier(SuperGeometryError):
    """Identifier in an expression is neither a coordinate nor a function."""


class UnknownCoordinate(SuperGeometryError):
    """Coordinate name not present in the chart signature."""


class NonHomogeneousOperand(SuperGeometryError):
    """Odd differentiation across a mixed-parity factor has no defined sign."""


class DomainError(SuperGeometryError):
    """Evaluation outside the domain of an elementary function."""


class ParityViolation(SuperGeometryError):
    """A value or expression has the wrong parity for its slot."""


class SignatureMismatch(SuperGeometryError):
    """Chart signatures do not line up (e.g. morphism composition)."""


class SingularBody(SuperGeometryError):
    """The body of the metric matrix is not invertible at the point."""
    exit_code = 3


class InvalidPoint(SuperGeometryError):
    """Point does not satisfy the chart constraints."""


class LeftDomain(SuperGeometryError):
    """Integration left the chart's coordinate box, or an RK4 stage left the
    domain of a function in the metric."""
    exit_code = 3


class IntegrationFailure(SuperGeometryError):
    """An RK4 stage overflowed, or a step produced a non-finite state."""
    exit_code = 3


class GridTooShort(SuperGeometryError):
    """Too few samples for the finite-difference stencil."""


class NonHomogeneousField(SuperGeometryError):
    """A homogeneous vector field along the curve was required."""


class ModelError(SuperGeometryError):
    """Malformed or inconsistent model file."""


class OutputError(SuperGeometryError):
    """An output file could not be written."""
