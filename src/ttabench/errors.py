"""Exception hierarchy shared across the toolkit.

Every error raised by library code derives from :class:`TtaBenchError` so
callers (and the CLI) can distinguish our failures from genuine bugs.
"""

from __future__ import annotations


class TtaBenchError(Exception):
    """Base class for all toolkit errors."""


# --- manifest / corpus -------------------------------------------------------

class ManifestError(TtaBenchError):
    """Invalid or unreadable corpus manifest."""


class MissingFieldError(ManifestError):
    def __init__(self, field: str, line: int):
        super().__init__(f"manifest record at line {line} is missing field {field!r}")
        self.field = field
        self.line = line


class InvalidFieldError(ManifestError):
    def __init__(self, field: str, line: int, reason: str):
        super().__init__(f"manifest record at line {line}: field {field!r} {reason}")
        self.field = field
        self.line = line


class DuplicateIdError(ManifestError):
    def __init__(self, utterance_id: str, line: int):
        super().__init__(f"duplicate utterance_id {utterance_id!r} at line {line}")
        self.utterance_id = utterance_id


class UnreadableFileError(TtaBenchError):
    """File missing, unreadable, or not decodable."""


class UnreadableManifestError(ManifestError, UnreadableFileError):
    """Manifest file missing, unreadable, or not UTF-8: an input-validation error."""


# --- audio / features --------------------------------------------------------

class UnsupportedFormatError(TtaBenchError):
    """Audio file exists but is not a format we handle."""


class CorruptFileError(TtaBenchError):
    """Audio file could not be parsed."""


class AudioTooShortError(TtaBenchError):
    """Waveform shorter than one analysis frame."""


class EmptyTranscriptError(TtaBenchError):
    """Transcript empty after normalization."""


# --- model -------------------------------------------------------------------

class ShapeMismatchError(TtaBenchError):
    """Logit width disagrees with vocabulary size."""


class UnknownGroupError(TtaBenchError):
    def __init__(self, group: str, known: list[str]):
        super().__init__(f"unknown parameter group {group!r}; known groups: {known}")
        self.group = group


class CheckpointError(TtaBenchError):
    """Checkpoint file missing, corrupt, or wrong version."""


class FrozenParameterError(TtaBenchError):
    """Update attempted on a parameter outside the selected groups."""


# --- adaptation engine -------------------------------------------------------

class ConfigError(TtaBenchError):
    """Adaptation or run configuration fails validation."""


class NonFiniteLossError(TtaBenchError):
    """Adaptation loss became NaN/Inf; utterance is flagged and skipped."""


class NonFiniteLogitsError(NonFiniteLossError, ValueError):
    """A model produced NaN/Inf logits; during adaptation, flagged like a NaN loss."""


# --- evaluation / statistics -------------------------------------------------

class EvaluationError(TtaBenchError):
    """Base for scoring errors."""


class EmptyReferenceError(EvaluationError):
    """Reference transcript empty after normalization."""


class EmptyListError(EvaluationError):
    """Aggregate requested over an empty collection."""


class TooFewPairsError(EvaluationError):
    """Not enough nonzero paired differences for a signed-rank test."""


class AllZeroDifferencesError(EvaluationError):
    """Every paired difference is zero; the test statistic is undefined."""


class SpeakerSetMismatchError(EvaluationError):
    """Two runs or tables do not cover the same speakers."""


# --- analysis ----------------------------------------------------------------

class AnalysisError(TtaBenchError):
    """Base for analysis errors."""


class TooFewFramesError(AnalysisError):
    """Need at least two samples to estimate a covariance."""


class DimensionMismatchError(AnalysisError):
    """Gaussian summaries of different dimensionality."""


class SingularCovarianceError(AnalysisError):
    """Covariance not invertible even after the ridge."""


class TooFewPointsError(AnalysisError):
    """Projection requested on fewer than three points."""


class LengthMismatchError(AnalysisError):
    """Paired vectors of unequal length."""


class ZeroVarianceError(AnalysisError):
    """Correlation undefined because one input is constant."""


class InvalidPError(AnalysisError):
    """A p-value outside [0, 1] was supplied."""
