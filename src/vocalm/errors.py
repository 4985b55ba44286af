"""Exception types shared across the package."""


class VocalmError(Exception):
    """Base class for all package-specific errors."""


class EmptySpectrogramError(VocalmError):
    """Signal too short to produce a single analysis frame."""


class InsufficientDataError(VocalmError, ValueError):
    """Not enough samples/frames to fit the requested model; a ValueError
    too, so fileio.checked refuses it naming its source."""


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
