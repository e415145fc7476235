"""Exception types shared across the library.

Input problems raise ValueError subclasses so callers can treat them
uniformly; CrossCheckError marks a disagreement between two independent
computations of the same quantity and always indicates a bug, never bad
input.
"""


class TeterError(Exception):
    """Base class for all library errors."""


class EmptyGeneratorsError(TeterError, ValueError):
    """No generators were supplied."""


class NonCoprimeError(TeterError, ValueError):
    """Generators have gcd > 1, so the complement is infinite."""


class NotAMemberError(TeterError, ValueError):
    """An operation required a semigroup member and got a non-member."""


class FullSemigroupError(TeterError, ValueError):
    """The semigroup is all of the nonnegative integers and the requested
    invariant (gaps, pseudo-Frobenius numbers, canonical ideal) is empty
    or undefined."""


class ImproperIdealError(TeterError, ValueError):
    """The relative ideal is not a proper monomial ideal of the ring."""


class GorensteinInputError(TeterError, ValueError):
    """The operation is only defined for non-Gorenstein input."""


class TangentConeNotCMError(TeterError):
    """The associated graded ring is not Cohen-Macaulay, so the requested
    filtration module cannot be built."""


class NoWitnessError(TeterError, ValueError):
    """The supplied shift does not certify a hypersurface quotient."""


class PrecisionTooSmallError(TeterError, ValueError):
    """The truncated model cannot answer the question at this precision."""


class NonStabilizedError(TeterError):
    """No Hilbert function difference within the modeled window reached
    l(B/yB) for the superficial parameter y, so e(B) is not certified;
    raise the precision."""


class CrossCheckError(TeterError):
    """Two independent computations of the same quantity disagreed."""
