"""Exception types shared across the package."""


class BridgeError(Exception):
    """Base class for domain errors raised by this package."""


class UnsolvableSupportError(BridgeError):
    """The source distribution has no mass where the target needs it."""


class DegenerateStateError(BridgeError):
    """A marginal probability underflowed below any usable floor."""


class DivergenceError(BridgeError):
    """An optimization loop produced a non-finite or runaway loss.

    Carries a ``diagnostics`` dict with whatever state the loop could attach.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class CheckpointError(BridgeError):
    """A checkpoint file is malformed or has an unsupported version."""


class ConfigError(BridgeError):
    """A run configuration file is malformed or fails validation."""


class VocabularyOverflowError(ConfigError):
    """A corpus contains more distinct symbols than the configured state count."""
