"""Corpus manifests: JSON-lines ingestion, duration filtering, speaker grouping.

A manifest is a UTF-8 JSON-lines file with one utterance per line and the
fields ``utterance_id``, ``speaker_id``, ``audio_path``, ``transcript``,
``duration_s``. File order is preserved everywhere; grouping by speaker
partitions the list without reordering within a speaker.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from ..errors import EmptyTranscriptError, ManifestError
from ..evaluation import normalize_text
from ..jsonfields import NUMBER, STRING, Fields, check_object

MANIFEST_FIELDS = ("utterance_id", "speaker_id", "audio_path", "transcript", "duration_s")

# a line may carry keys beyond these, such as a child's age, which go unread
_LINE_FIELDS = Fields(
    {**dict.fromkeys(("utterance_id", "speaker_id", "audio_path", "transcript"), STRING),
     "duration_s": NUMBER},
    open=True,
)


class Split(Enum):
    """A corpus split label. No command acts on it and manifests do not store it."""

    TRAIN = "train"
    VALIDATION = "validation"
    TEST = "test"


@dataclass(frozen=True)
class Utterance:
    """One audio file plus its reference transcript and speaker identity."""

    utterance_id: str
    speaker_id: str
    audio_path: str
    transcript: str
    duration_s: float

    def __post_init__(self) -> None:
        if not self.utterance_id:
            raise ValueError("field 'utterance_id' must be non-empty")
        if not self.speaker_id:
            raise ValueError("field 'speaker_id' must be non-empty")
        if not (self.duration_s >= 0 and math.isfinite(self.duration_s)):
            raise ValueError("field 'duration_s' must be a finite non-negative number")


@dataclass(frozen=True)
class CorpusManifest:
    utterances: tuple[Utterance, ...]
    split: Split = Split.TEST
    # the sha256 of the bytes load_manifest parsed; None for one built in memory
    source_sha256: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for u in self.utterances:
            if u.utterance_id in seen:
                raise ValueError(f"duplicate utterance_id {u.utterance_id!r}")
            seen.add(u.utterance_id)

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)

    def speakers(self) -> dict[str, list[Utterance]]:
        """Utterances grouped by speaker, preserving manifest order throughout."""
        groups: dict[str, list[Utterance]] = {}
        for u in self.utterances:
            groups.setdefault(u.speaker_id, []).append(u)
        return groups


def load_manifest(path: str | os.PathLike) -> CorpusManifest:
    """Parse a JSON-lines manifest, read once, preserving file order; its
    ``source_sha256`` is the sha256 of the bytes parsed.

    Raises:
        ManifestError: file missing or undecodable, a record that is not a JSON
            object, misses or mistypes a field or holds an empty id or a bad
            duration (the message names the file, the line and the field), or a
            repeated utterance_id.
    """
    try:
        raw = Path(path).read_bytes()
        raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc

    utterances: list[Utterance] = []
    seen: set[str] = set()
    # a line ends at a newline byte, never at a line separator inside a transcript
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path} line {lineno}"
        record = check_object(line, _LINE_FIELDS, where, ManifestError)
        if record["utterance_id"] in seen:
            raise ManifestError(
                f"duplicate utterance_id {record['utterance_id']!r} at line {lineno}"
            )
        seen.add(record["utterance_id"])
        fields = {name: record[name] for name in MANIFEST_FIELDS}
        try:
            fields["duration_s"] = float(fields["duration_s"])
            utterances.append(Utterance(**fields))
        except (OverflowError, ValueError) as exc:
            raise ManifestError(f"{where}: {exc}") from exc

    return CorpusManifest(
        utterances=tuple(utterances), source_sha256=hashlib.sha256(raw).hexdigest()
    )


def save_manifest(manifest: CorpusManifest, path: str | os.PathLike) -> None:
    """Write a manifest as JSON-lines with a stable field order."""
    with open(path, "w", encoding="utf-8") as f:
        for u in manifest.utterances:
            record = {name: getattr(u, name) for name in MANIFEST_FIELDS}
            f.write(json.dumps(record, ensure_ascii=False) + "\n")


def filter_max_duration(manifest: CorpusManifest, max_s: float) -> CorpusManifest:
    """Keep utterances strictly shorter than ``max_s`` seconds, order preserved."""
    if not max_s > 0:
        raise ValueError("max_s must be positive")
    kept = tuple(u for u in manifest.utterances if u.duration_s < max_s)
    return CorpusManifest(utterances=kept)


@dataclass(frozen=True)
class DurationStats:
    n_speakers: int
    total_hours: float
    mean_duration_s: float
    sd_duration_s: float


def duration_stats(manifest: CorpusManifest) -> DurationStats:
    """Speaker count and duration total / mean / SD, the summary ``ingest`` prints."""
    n = len(manifest)
    if not n:
        return DurationStats(0, 0.0, 0.0, 0.0)
    durations = [u.duration_s for u in manifest.utterances]
    mean = sum(durations) / n
    sd = math.sqrt(sum((d - mean) ** 2 for d in durations) / (n - 1)) if n > 1 else 0.0
    return DurationStats(
        n_speakers=len(manifest.speakers()),
        total_hours=sum(durations) / 3600.0,
        mean_duration_s=mean,
        sd_duration_s=sd,
    )


def word_duration(u: Utterance) -> float:
    """Seconds per transcript word: duration / word count.

    Word counts use the same text normalizer as WER scoring so the two
    denominators stay consistent.

    Raises:
        EmptyTranscriptError: no words remain after normalization.
    """
    words = normalize_text(u.transcript).split()
    if not words:
        raise EmptyTranscriptError(
            f"utterance {u.utterance_id!r} has an empty transcript after normalization"
        )
    if not u.duration_s > 0:
        raise ValueError(f"utterance {u.utterance_id!r} has zero duration")
    return u.duration_s / len(words)
