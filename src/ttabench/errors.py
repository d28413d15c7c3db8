"""Exception hierarchy shared across the toolkit.

Every error raised by library code derives from :class:`TtaBenchError` so
callers (and the CLI) can distinguish our failures from genuine bugs. Each
class is a family the CLI maps to one exit code (see ``cli``), or one that an
``except`` clause tells apart; the message says which check failed.
"""

from __future__ import annotations


class TtaBenchError(Exception):
    """Base class for all toolkit errors."""


# --- manifest / corpus -------------------------------------------------------

class ManifestError(TtaBenchError):
    """Invalid or unreadable corpus manifest: a missing or invalid field, a
    duplicate utterance id, or a file that cannot be read as UTF-8."""


class UnreadableFileError(TtaBenchError):
    """File missing, unreadable, or not decodable."""


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


class CheckpointError(TtaBenchError):
    """Checkpoint file missing, unreadable or of the wrong version, metadata of the
    wrong type or out of range, or a tensor missing, misshapen or not finite."""


class FrozenParameterError(TtaBenchError):
    """Update attempted on a parameter outside the selected groups."""


# --- adaptation engine -------------------------------------------------------

class ConfigError(TtaBenchError):
    """Adaptation or run configuration fails validation, an unknown parameter
    group among it, or a run directory holds another configuration or inputs."""


class NonFiniteLossError(TtaBenchError):
    """Adaptation loss became NaN/Inf; utterance is flagged and skipped."""


class NonFiniteLogitsError(NonFiniteLossError, ValueError):
    """A model produced NaN/Inf logits; during adaptation, flagged like a NaN loss."""


# --- evaluation / statistics -------------------------------------------------

class EvaluationError(TtaBenchError):
    """Scoring failed: an empty reference or collection, or runs that cover
    different speakers."""


class TooFewPairsError(EvaluationError):
    """Fewer than 5 nonzero paired differences for a signed-rank test."""


# --- analysis ----------------------------------------------------------------

class AnalysisError(TtaBenchError):
    """An analysis input is degenerate: too few frames or points, mismatched
    dimensions or lengths, a singular covariance, a constant input, or a
    p-value or significance level outside its range."""
