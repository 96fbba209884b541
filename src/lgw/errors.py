"""Exception types shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(WorkbenchError):
    """Operands have incompatible qubit counts or matrix shapes."""


class CapacityError(WorkbenchError):
    """A dense realization would exceed the fixed qubit cap."""


class ValidationError(WorkbenchError):
    """An input violates a documented precondition."""


class NormalizationError(WorkbenchError):
    """A zero (or numerically zero) object cannot be normalized."""


class NoSteadyStateError(WorkbenchError):
    """The generator has an empty numerical null space."""


class InstabilityError(WorkbenchError):
    """Fixed-step integration produced non-finite values; use more steps."""


class IllConditionedRatioError(WorkbenchError):
    """The sampled purity came out non-positive; the ratio is unusable
    at this shot budget."""


class DegenerateObservableError(WorkbenchError):
    """The observable is numerically zero; no shot budget exists."""


class StructuralRejectionError(WorkbenchError):
    """The target Hamiltonian lacks the exchange-conjugation structure
    every squared generator carries, so no generator can produce it."""


class UnsolvableError(WorkbenchError):
    """Every search branch was exhausted without a consistent assignment."""


class BudgetExceededError(WorkbenchError):
    """The branching search hit its node budget.

    The partial assignment reached when the budget ran out is attached
    as ``partial_assignment``.
    """

    def __init__(self, message, partial_assignment=None):
        super().__init__(message)
        self.partial_assignment = dict(partial_assignment or {})
