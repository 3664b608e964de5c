"""Exception hierarchy shared across the package."""


class ValidationError(ValueError):
    """Input data violates a structural contract (bad dataset, bad class, ...)."""


class BudgetError(RuntimeError):
    """Kernel-word enumeration would exceed its box-size cap."""


class PowerCapError(BudgetError):
    """A map power to walk is above the power cap."""


class CapabilityError(RuntimeError):
    """A map's rank is above 2, the most its exact hulls and lattices handle."""


class SubconeError(ValueError):
    """The chosen subcone is unusable (not strictly interior, too wide, ...)."""
