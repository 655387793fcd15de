"""Exception hierarchy shared across the package."""


class EntailTypingError(Exception):
    """Base class for all errors raised by this package."""


class DatasetLoadError(EntailTypingError):
    """A dataset file could not be parsed (message names the line)."""


class SchemaError(EntailTypingError):
    """A record is missing a required key or holds the wrong type."""


class ValidationError(EntailTypingError):
    """A loaded record violates a dataset-level constraint."""


class SplitError(EntailTypingError):
    """A requested few-shot split target is unreachable."""


class SamplingError(EntailTypingError):
    """A negative-sampling candidate pool is empty."""


class RenderingError(EntailTypingError):
    """A template cannot be instantiated for the given mention/label."""


class UnsupportedTemplateError(RenderingError):
    """The template kind is not defined for this kind of pair."""


class TransportError(EntailTypingError):
    """An external scorer endpoint is unreachable or went away."""


class ProtocolError(EntailTypingError):
    """An external scorer endpoint violated the wire protocol."""


class CacheError(EntailTypingError):
    """A score-cache file holds a corrupt record (message names path:line)."""


class EvaluationError(EntailTypingError):
    """Predictions and gold annotations cannot be aligned."""


class ConfigError(EntailTypingError):
    """A run configuration is inconsistent or incomplete."""


class TrainingError(EntailTypingError):
    """Training aborted; the last good checkpoint is retained.

    Attributes:
        best_tag: checkpoint tag the scorer was restored to before raising.
    """

    def __init__(self, message: str, best_tag: str | None = None):
        super().__init__(message)
        self.best_tag = best_tag
