"""Exception types shared across the library."""


class CoxError(Exception):
    """Base class for all errors raised by this package."""


class PresentationError(CoxError):
    """Malformed presentation file, cycle in a quiver, or bad order data."""


class UnknownVertex(CoxError):
    pass


class EmptyWindow(CoxError):
    pass


class UndefinedProduct(CoxError):
    """A matrix/vector product entry whose defining sum is not certified finite.

    Raised instead of returning a truncated partial sum.
    """


class IntervalFinitenessViolated(CoxError):
    """A walk exceeded COX_NODE_BUDGET: a path list of an injective, a
    transpose kernel walk, or the chains of an order complex."""


class HypothesisViolated(CoxError):
    """A translate/Coxeter comparison was requested outside its certified hypotheses."""


class HomCNotZero(HypothesisViolated):
    """The no-injective-hom certificate failed, so the transpose shortcut is invalid."""


class NotInDomain(CoxError):
    """Vector given neither finitely supported nor as a generator combination."""


class NotInKnittedRegion(CoxError):
    pass


class KnittingStuck(CoxError):
    """No mesh can be completed, or a completed mesh failed its consistency checks."""


class InfiniteDimensional(CoxError):
    """An operation needed a finite-dimensional injective or transpose kernel
    that is infinite-dimensional here."""
