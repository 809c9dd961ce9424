"""Exception types shared across the package."""


class SactError(Exception):
    """Base class for all package errors."""


class ParseError(SactError):
    """Malformed text input (permutations, data sets, signatures)."""


class MembershipError(SactError):
    """An element does not belong to the group it was used with."""


class DegreeCapExceeded(SactError):
    """An element table was asked for above groups.TABLE_ORDER_CAP."""


class KindMismatch(SactError):
    """Two data sets of different kinds were compared."""


class GenusMismatch(SactError):
    """Two cyclic data sets of different genus were paired."""


class PeriodNotRealizable(SactError):
    """A signature period is not an element order of the chosen group."""


class NotIndexTwo(SactError):
    """The requested subgroup is not the canonical index-2 subgroup."""


class NotApplicable(SactError):
    """An operation was invoked outside its preconditions."""


class InconsistencyError(SactError):
    """The exact arithmetic contradicted itself: an internal inconsistency,
    never bad input (the CLI exits 4)."""


class NonIntegralError(InconsistencyError):
    """An exact rational that must be an integer is not; input is inconsistent."""


class NegativeMultiplicityError(InconsistencyError):
    """A cone multiplicity came out negative; input is inconsistent."""


class ValidationFailure(SactError):
    """A data set violates one of its defining conditions.

    `condition` names the violated clause, e.g. "divisibility", "lcm",
    "congruence", "integrality", "order-mismatch", "product", "generation",
    "parity", "witness".
    """

    def __init__(self, condition: str, message: str = ""):
        self.condition = condition
        super().__init__(f"{condition}: {message}" if message else condition)


class BudgetExhausted(SactError):
    """A search hit its node or wall-clock ceiling."""
