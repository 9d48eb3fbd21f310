"""Exception types raised by the library.

Most map onto ValueError so callers that only care about "bad input" can
catch one base class; index problems subclass IndexError instead.
"""


class KsetsError(ValueError):
    """Base class for input and contract violations."""


class IndexOutOfRange(KsetsError, IndexError):
    """A point index is outside [0, n)."""


class DuplicateEntry(KsetsError):
    """The same (i, j) pair was supplied more than once."""


class AsymmetricDuplicate(KsetsError):
    """(i, j) and (j, i) were supplied with conflicting values."""


class NonSquareInput(KsetsError):
    """A dense matrix input is not square."""


class NonFiniteValue(KsetsError):
    """A measure value is NaN or infinite."""


class NotADistance(KsetsError):
    """Values violate nonnegativity or the zero-diagonal requirement."""


class NotACohesion(KsetsError):
    """A measure fails the symmetry, zero-row-sum, or diagonal-dominance checks."""


class TooFewPoints(KsetsError):
    """The operation needs at least two points."""


class SigmaTooSmall(KsetsError):
    """The shift constant is too small for the lifted measure to be valid."""


class EmptySet(KsetsError):
    """A point set argument is empty."""


class EmptySetInPartition(KsetsError):
    """A partition contains an empty set."""


class WouldEmptySet(KsetsError):
    """Moving the point would leave its current set empty."""


class KOutOfRange(KsetsError):
    """The requested number of sets is not in [2, n]."""


class InvalidProbability(KsetsError):
    """A probability parameter falls outside its allowed range."""


class ArityMismatch(KsetsError):
    """Two inputs that must describe the same points disagree in size or labels."""


class CoordinateOutOfRange(KsetsError):
    """A latitude or longitude is outside its valid range."""
