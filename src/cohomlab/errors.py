"""Exception types shared across the package."""


class CohomLabError(Exception):
    """Base class for package-specific errors."""


class NotAUnit(CohomLabError):
    """Element of Z/p^nZ divisible by p has no multiplicative inverse."""


class DimensionMismatch(CohomLabError):
    """Vector/matrix shapes or moduli do not line up."""


class NotASubmodule(CohomLabError):
    """Claimed submodule containment fails."""


class NonInvertibleGenerator(CohomLabError):
    """A group generator has non-unit determinant."""


class NonInvertibleConjugator(CohomLabError):
    """A conjugating matrix has non-unit determinant."""


class CapExceeded(CohomLabError):
    """Multiplicative closure grew past the element cap."""


class BudgetExceeded(CohomLabError):
    """A search or enumeration ran out of its stated budget."""


class NotASubgroup(CohomLabError):
    """Restriction target is not a subgroup of the ambient group."""


class StabilizerMismatch(CohomLabError):
    """A cocycle to inflate is not defined on the faithful quotient of the action."""


class HypothesisViolated(CohomLabError):
    """A normal-form hypothesis fails; the message names the culprit."""


class WrongLevel(CohomLabError):
    """Operation requires a group at a different level n."""
