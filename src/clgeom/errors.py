"""Exception hierarchy shared by all clgeom modules."""


class ClgeomError(Exception):
    """Base class for all clgeom errors."""


# -- field construction ------------------------------------------------------

class NotPrime(ClgeomError):
    """The requested characteristic is not a prime number."""


class OrderTooLarge(ClgeomError):
    """The requested field order exceeds the configured maximum."""


class DivisionByZero(ClgeomError):
    """Multiplicative inverse of the zero element."""


# -- geometry ----------------------------------------------------------------

class InvalidRange(ClgeomError):
    """Gaussian binomial arguments out of range (k < 0 or k > n)."""


class TooManySubspaces(ClgeomError):
    """Subspace enumeration would exceed the configured cap."""

    def __init__(self, count, cap):
        super().__init__(f"enumeration of {count} subspaces exceeds cap {cap}")
        self.count = count
        self.cap = cap


class DimensionMismatch(ClgeomError):
    """Operands live in incompatible ambient spaces."""


class NotDivisible(ClgeomError):
    """Spread construction requires (k+1) | (n+1)."""


# -- families ----------------------------------------------------------------

class AnchorInvalid(ClgeomError):
    """Anchor point/hyperplane invalid for the requested construction."""


class NotDisjoint(ClgeomError):
    """Union of families requires disjoint member sets."""


class NotContained(ClgeomError):
    """Difference of families requires containment."""


class DimensionTooSmall(ClgeomError):
    """Restriction target must have dimension at least k+1."""


class DimensionTooLarge(ClgeomError):
    """Projection centre must have dimension at most k-1."""


class MemberInsideHyperplane(ClgeomError):
    """Projective-to-affine conversion hit a member inside the hyperplane."""

    def __init__(self, index):
        super().__init__(f"member {index} is contained in the removed hyperplane")
        self.index = index


class NotASpread(ClgeomError):
    """The given collection is not a spread of the geometry."""


class PointNotInSubspace(ClgeomError):
    """The identity requires the point to lie in the subspace."""


class PreconditionNotMet(ClgeomError):
    """A checker's structural precondition does not hold."""


class FamilyFormatError(ClgeomError):
    """Family JSON is malformed or not in canonical form."""


# -- sieve / cli -------------------------------------------------------------

class GuardViolated(ClgeomError):
    """A rule or operation was invoked outside its guard."""
