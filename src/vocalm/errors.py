"""Exception types shared across the package."""


class VocalmError(Exception):
    """Base class for all package-specific errors."""


class EmptySpectrogramError(VocalmError):
    """Signal too short to produce a single analysis frame."""


class InsufficientDataError(VocalmError):
    """Not enough samples/frames to fit the requested model."""


class IneligibleWindowError(VocalmError):
    """Window does not satisfy the preconditions of a benchmark generator."""


class NoStationaryDistributionError(VocalmError):
    """Stationary distribution iteration failed to converge."""


class FingerprintMismatchError(VocalmError):
    """Artifacts from different run configurations were mixed."""


class ConfigError(VocalmError):
    """Run configuration is malformed or incomplete."""


class StageFailureError(VocalmError):
    """A pipeline stage failed; the report is marked partial."""
