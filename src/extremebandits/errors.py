"""Exception types shared across the package.

Every error raised on a contract violation derives from ExtremeBanditsError so
callers (and the CLI) can catch the package's failures in one place without
swallowing genuine bugs like TypeError.
"""

from __future__ import annotations


class ExtremeBanditsError(Exception):
    """Base class for all package-specific failures."""


class NonNormalized(ExtremeBanditsError):
    """Atom probabilities are not a probability vector (bad sum or sign)."""


class OutOfRange(ExtremeBanditsError):
    """A support value lies outside the unit interval."""


class NotContinuous(ExtremeBanditsError):
    """Operation requires a continuous distribution (uniform01)."""


class IndexTooLarge(ExtremeBanditsError):
    """Canonical atom-mass index beyond the supported range."""


class PropertyViolation(ExtremeBanditsError):
    """Atom-mass sequence fails a property required by the construction."""


class HorizonOverflow(ExtremeBanditsError):
    """Closed-form horizon exceeds the integer range.

    Carries ``log_horizon`` (natural log of the horizon) so callers can keep
    working in log domain.
    """

    def __init__(self, message: str, log_horizon: float):
        super().__init__(message)
        self.log_horizon = log_horizon


class UnknownPolicy(ExtremeBanditsError):
    """Policy not recognized, or not usable where it was asked for: a name
    with no baseline, an arm outside the bandit, or a randomized policy
    given to the exact evaluator."""


class ContinuousArm(ExtremeBanditsError):
    """Exact enumeration requested on a tuple with a continuous arm."""


class BudgetExceeded(ExtremeBanditsError):
    """Exact computation would exceed its declared compute guard."""


class ConfigInvalid(ExtremeBanditsError):
    """Experiment config failed schema validation.

    ``schema_path`` points at the offending config element.
    """

    def __init__(self, message: str, schema_path: str = ""):
        super().__init__(message)
        self.schema_path = schema_path


class IoFailure(ExtremeBanditsError):
    """Could not read or write an artifact file."""
