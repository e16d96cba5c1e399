"""Exception types shared by all nicensus modules."""


class NicensusError(Exception):
    """Base class for all package errors."""


class NonPrimeCharacteristic(NicensusError):
    pass


class ReducibleModulus(NicensusError):
    pass


class DegreeMismatch(NicensusError):
    pass


class NotASubfield(NicensusError):
    pass


class FieldMismatch(NicensusError):
    pass


class ZeroPolynomial(NicensusError):
    pass


class SingularMatrix(NicensusError):
    pass


class RangeError(NicensusError):
    pass


class BudgetExceeded(NicensusError):
    pass


class NIViolation(NicensusError):
    """A membership predicate failed a nilpotent-independence audit.

    Carries the offending matrix so the caller can report a concrete
    witness.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ParseError(NicensusError):
    """Malformed textual input, a negative modulus too; ``position`` is a character offset."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
