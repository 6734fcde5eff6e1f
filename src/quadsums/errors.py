"""Exception hierarchy shared by all quadsums modules.

Three families carry the command line's exit status: an ``Unsupported``
is a limit (exit 2), an ``InternalInconsistency`` a bug (exit 3), and any
other ``QuadsumsError`` an input error (exit 1)."""


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


class Unsupported(QuadsumsError):
    """A limit rather than an input error: no evaluation route exists
    within the configured limits, or a budget would be passed.

    `reason` is a stable machine-readable code; `detail` is for humans.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


class InternalInconsistency(QuadsumsError):
    """An internal invariant failed (two routes that must agree did not, or
    a congruence a formula guarantees broke); always a bug."""


class DivisionByZero(QuadsumsError, ZeroDivisionError):
    pass


class NoRootFound(InternalInconsistency):
    """Subfield modulus has no root in the target field; the context is corrupt."""


class ZeroPolynomial(InvalidInput):
    pass


class MixedPrimes(InvalidInput):
    """Cyclotomic operands built over different primes."""


class NotSymmetric(InvalidInput):
    pass


class TooLarge(Unsupported):
    """Enumeration would exceed the configured element budget."""


class NotMultipleOfBase(InvalidInput):
    pass


class SearchBudgetExceeded(Unsupported):
    """A search passed its iteration ceiling.

    The library no longer raises it: the nullity profile is computed in
    closed form instead of by a bounded search.  The class stays so that
    callers which catch it keep importing."""


class ParityViolation(InternalInconsistency):
    """Nullity increment breaks a congruence the lift formula requires."""


class ConditionViolated(InternalInconsistency):
    """The p-power lift was requested outside its validity range."""


class NotApplicable(InternalInconsistency):
    """Hypotheses of the balanced explicit formula do not hold."""


class DivisibilityViolated(InternalInconsistency):
    """Nullity fails the divisibility the balanced formula guarantees."""


class ZeroCoefficient(InvalidInput):
    pass


class MalformedReference(InvalidInput):
    pass
