"""Shared exception types.

Errors fall into three groups: arithmetic contract violations
(PrecisionExhausted, DivisionByZero, NonUnit, DegreeOverflow), input
validation (NotPowerful, NotNilpotent, NotPIntegral, LawNotPIntegral,
InvalidBracket, InvalidBasis, InvalidArgument, InvalidDelta, ConfigError,
ParseError) and check failures (CounterexampleFound, which carries a
witness, ConditionFailed, HypothesisFailed).  A CounterexampleFound from
one of the verification routines means an implementation bug, never a
tolerated outcome.
"""


class PadicError(Exception):
    """Base class for all library errors."""


class PrecisionExhausted(PadicError):
    """A required quantity cannot be certified within a budget.

    Raised by ``quotient`` when canonicalization exceeds its step budget
    or a quotient norm is not separated from its residual bound.
    """


class DivisionByZero(PadicError, ZeroDivisionError):
    pass


class NonUnit(PadicError):
    """Residue reduction applied to an element of nonzero valuation."""


class ZeroDistribution(PadicError):
    """Principal symbol of the zero distribution requested."""


class NotPowerful(PadicError):
    """Bracket constants violate the powerfulness valuation bound."""


class NotNilpotent(PadicError, ValueError):
    """A lattice's lower central series does not reach zero, so its group
    law has no exact polynomial form; raised on first group-law use."""


class InvalidBracket(PadicError, ValueError):
    """A bracket table has the wrong shape or violates the Jacobi identity."""


class InvalidBasis(PadicError, ValueError):
    """A basis outside a hypothesis: a lattice basis not adapted to the
    lower central series, or a v-basis that is not a Z_p-basis of a ring
    (v_1 != 1, or its products leave its span or have non-integral
    coordinates)."""


class InvalidArgument(PadicError, ValueError):
    """An argument outside a routine's hypothesis; the message names it."""


class NotPIntegral(PadicError, ValueError):
    """A coordinate or exponent that must lie in Z_p has negative p-valuation."""


class LawNotPIntegral(PadicError, ValueError):
    """A compiled group law has a coefficient whose denominator p divides,
    so its values at p-integral points need not be p-integral."""


class DegreeOverflow(PadicError):
    """An operation needs support degrees beyond the truncation bound."""

    def __init__(self, message, required_degree=None):
        super().__init__(message)
        self.required_degree = required_degree


class DegreeMismatch(PadicError):
    """Graded addition of symbols with different homogeneity degrees."""


class DimensionMismatch(PadicError):
    """A graded-component dimension count disagrees with the expected value."""


class NonUnitLeading(PadicError):
    """Leading coefficient is not a unit; localization is refused."""


class CriticalRadius(PadicError):
    """The radius ties two monomials of log(1+X) for dominance, so none dominates."""


class InvalidDelta(PadicError):
    """Base radius outside the admissible range for the root family."""


class UniqueAttainmentFailed(PadicError):
    """An element's norm is attained at more than one support index."""


class InjectivityFailed(PadicError):
    """The attainment-index map of an orthogonality candidate is not injective."""


class ConditionFailed(PadicError):
    """A coset-system condition is violated; message names the clause."""


class HypothesisFailed(PadicError):
    """A check was invoked outside its hypothesis; the message names it."""


class CounterexampleFound(PadicError):
    """A verified-by-construction property failed; carries the witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ConfigError(PadicError):
    """Invalid job configuration; message includes the field path."""


class ParseError(PadicError):
    """Text input could not be parsed; carries the offending position."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position
