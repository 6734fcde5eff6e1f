"""Exception hierarchy shared by all quadsums modules."""


class QuadsumsError(Exception):
    """Base class for library errors."""


class InvalidInput(QuadsumsError, ValueError):
    """Malformed or out-of-contract input."""


class NotPrime(InvalidInput):
    pass


class NotOdd(InvalidInput):
    pass


class ModulusReducible(InvalidInput):
    pass


class DivisionByZero(QuadsumsError, ZeroDivisionError):
    pass


class NoRootFound(QuadsumsError):
    """Subfield modulus has no root in the target field; the context is corrupt."""


class ZeroPolynomial(InvalidInput):
    pass


class MixedPrimes(InvalidInput):
    """Cyclotomic operands built over different primes."""


class NotSymmetric(InvalidInput):
    pass


class TooLarge(QuadsumsError):
    """Enumeration would exceed the configured element budget."""


class NotMultipleOfBase(InvalidInput):
    pass


class SearchBudgetExceeded(QuadsumsError):
    """A search passed its iteration ceiling.

    The library no longer raises it: the nullity profile is computed in
    closed form instead of by a bounded search.  The class stays so that
    callers which catch it keep importing."""


class ParityViolation(QuadsumsError):
    """Nullity increment breaks a congruence the lift formula requires."""


class ConditionViolated(QuadsumsError):
    """The p-power lift was requested outside its validity range."""


class NotApplicable(QuadsumsError):
    """Hypotheses of the balanced explicit formula do not hold."""


class DivisibilityViolated(QuadsumsError):
    """Nullity fails the divisibility the balanced formula guarantees."""


class ZeroCoefficient(InvalidInput):
    pass


class Unsupported(QuadsumsError):
    """No evaluation route exists within the configured limits.

    `reason` is a stable machine-readable code; `detail` is for humans.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


class InternalInconsistency(QuadsumsError):
    """Two routes that must agree did not; always a bug."""


class MalformedReference(InvalidInput):
    pass
