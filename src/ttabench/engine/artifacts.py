"""Run directory layout: config, per-utterance results, integrity manifest.

A run directory contains:

* ``config.json``       fully resolved configuration (canonical JSON)
* ``inputs.json``       sha256 of the checkpoint and of the corpus manifest the
                        run reads; a resumed run must read the same two files
* ``results.jsonl``     one line per utterance, deterministic given the run
                        inputs (no timestamps or timings)
* ``run_manifest.json`` timestamps, input hashes, timings, library version,
                        and the BLAS thread count the run used
* ``speakers/``         one ``<speaker_id>.jsonl`` plus ``<speaker_id>.done``
                        marker per completed speaker, enabling resume

``results.jsonl`` is assembled from the per-speaker files in sorted speaker
order once all speakers are done, so its bytes do not depend on scheduling.
Every file is written whole to a temporary file beside it and then renamed
over its final name, so a run that dies mid-write leaves the previous
version (or nothing) under that name, never a truncated file.
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping

from .. import __version__
from ..errors import ConfigError
from ..evaluation import WerCount, speaker_wer
from ..jsonfields import (
    INTEGER, NUMBER, NUMBERS, STRING, STRINGS, Fields, check_object, object_of, or_null,
)
from ..model.threads import blas_threads
from .config import AdaptationConfig
from .runner import AdaptationTrace, ExperimentResult, SpeakerRunResult, StepRecord, UtteranceRecord

RESULTS_NAME = "results.jsonl"
CONFIG_NAME = "config.json"
INPUTS_NAME = "inputs.json"
RUN_MANIFEST_NAME = "run_manifest.json"
SPEAKERS_DIR = "speakers"

_COUNTS = ("substitutions", "deletions", "insertions", "reference_words")

# one line of results.jsonl or speakers/*.jsonl, as record_to_dict writes it
_RECORD_FIELDS = Fields({
    **dict.fromkeys(("utterance_id", "speaker_id", "reference", "hypothesis"), STRING),
    **dict.fromkeys(_COUNTS, or_null(INTEGER)),
    "flags": STRINGS,
    "loss": object_of(
        Fields({"initial": or_null(NUMBER), "final": or_null(NUMBER), "steps": NUMBERS})
    ),
})
_INPUT_TYPES = dict.fromkeys(("checkpoint_fingerprint", "corpus_manifest_sha256"), STRING)
_INPUT_FIELDS = Fields(_INPUT_TYPES, optional=_INPUT_TYPES)  # a missing one reads as changed


def canonical_json(obj: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace, shortest float repr."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same directory and
    ``os.replace``, so ``path`` holds either its old contents or all of ``text``."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def record_to_dict(record: UtteranceRecord) -> dict:
    count = record.count
    return {
        "utterance_id": record.utterance_id,
        "speaker_id": record.speaker_id,
        "reference": record.reference,
        "hypothesis": record.hypothesis,
        "substitutions": count.substitutions if count else None,
        "deletions": count.deletions if count else None,
        "insertions": count.insertions if count else None,
        "reference_words": count.reference_words if count else None,
        "flags": list(record.flags),
        "loss": {
            "initial": record.trace.initial_total,
            "final": record.trace.final_total,
            "steps": [s.total for s in record.trace.steps],
        },
    }


def record_from_dict(data: Mapping) -> UtteranceRecord:
    """The record of a dict that passed ``_RECORD_FIELDS``; ValueError if its
    edit counts are partly null or out of range."""
    counts = [data[name] for name in _COUNTS]
    count = None
    if counts != [None] * len(_COUNTS):
        if None in counts:
            raise ValueError(f"edit counts {_COUNTS} must be all null or all integers")
        count = WerCount(*counts)
    loss = data["loss"]
    trace = AdaptationTrace(
        steps=tuple(StepRecord(total=t, components={}) for t in loss["steps"]),
        initial_total=loss["initial"],
        final_total=loss["final"],
        wall_time_s=0.0,
        parameters_restored=False,
        non_finite="non_finite_loss" in data["flags"],
    )
    return UtteranceRecord(
        utterance_id=data["utterance_id"],
        speaker_id=data["speaker_id"],
        reference=data["reference"],
        hypothesis=data["hypothesis"],
        count=count,
        trace=trace,
        flags=tuple(data["flags"]),
    )


class RunWriter:
    """Incrementally persists an experiment so it can be resumed.

    ``inputs`` maps ``checkpoint_fingerprint`` and ``corpus_manifest_sha256`` to
    the sha256 of the files the run reads. A directory is tied to its
    configuration for good, and to its inputs until a run with ``resume`` off
    records new ones and forgets every finished speaker; either mismatch is a
    ``ConfigError``, raised before anything in the directory is written.
    """

    def __init__(
        self,
        out_dir: Path,
        config: AdaptationConfig,
        inputs: Mapping[str, str],
        resume: bool = True,
    ) -> None:
        self.out_dir = Path(out_dir)
        self.config = config
        self.inputs = dict(inputs)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / SPEAKERS_DIR).mkdir(exist_ok=True)
        self._bind(resume)
        self._started_at = datetime.now(timezone.utc)
        self._timings: dict[str, float] = {}

    def _bind(self, resume: bool) -> None:
        config_path = self.out_dir / CONFIG_NAME
        inputs_path = self.out_dir / INPUTS_NAME
        blob = canonical_json(self.config.to_dict())
        self._config_sha256 = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        if config_path.exists():
            if config_path.read_bytes().strip() != blob.encode("utf-8"):
                raise ConfigError(
                    f"{config_path} holds a different configuration; refusing to mix runs"
                )
            if resume:
                recorded = {}
                if inputs_path.exists():
                    raw = inputs_path.read_bytes()
                    recorded = check_object(raw, _INPUT_FIELDS, str(inputs_path), ConfigError)
                changed = [k for k in sorted(self.inputs) if recorded.get(k) != self.inputs[k]]
                if changed:
                    raise ConfigError(
                        f"{inputs_path} does not record this run's {', '.join(changed)}; "
                        "pass --no-resume to recompute the run"
                    )
        if not resume:
            # a speaker finished on the old inputs must not count as done on the new
            for marker in (self.out_dir / SPEAKERS_DIR).glob("*.done"):
                marker.unlink()
        # inputs first: a directory holding config.json always holds inputs.json
        _write_atomic(inputs_path, canonical_json(self.inputs) + "\n")
        if not config_path.exists():
            _write_atomic(config_path, blob + "\n")

    def completed_speakers(self) -> dict[str, SpeakerRunResult]:
        """Load speakers already finished by an earlier invocation."""
        done: dict[str, SpeakerRunResult] = {}
        for marker in sorted((self.out_dir / SPEAKERS_DIR).glob("*.done")):
            speaker_id = marker.stem
            rows_path = marker.with_suffix(".jsonl")
            if not rows_path.exists():
                continue
            records = tuple(_read_records(rows_path))
            done[speaker_id] = SpeakerRunResult(
                speaker_id=speaker_id,
                records=records,
                wer=speaker_wers_from_records(records).get(speaker_id),
                wall_time_s=0.0,
            )
        return done

    def speaker_done(self, result: SpeakerRunResult) -> None:
        rows_path = self.out_dir / SPEAKERS_DIR / f"{result.speaker_id}.jsonl"
        _write_atomic(rows_path, _jsonl(result.records))
        self._timings[result.speaker_id] = result.wall_time_s
        _write_atomic(rows_path.with_suffix(".done"), "")

    def finalize(self, result: ExperimentResult) -> Path:
        """Assemble results.jsonl in sorted speaker order and write the manifest."""
        results_path = self.out_dir / RESULTS_NAME
        _write_atomic(results_path, _jsonl(r for s in result.speakers for r in s.records))

        finished_at = datetime.now(timezone.utc)
        run_manifest = {
            "started_at": self._started_at.isoformat(),
            "finished_at": finished_at.isoformat(),
            "config_fingerprint": self._config_sha256,
            **self.inputs,
            "results_sha256": sha256_file(results_path),
            "speaker_wall_time_s": {k: self._timings.get(k) for k in sorted(self._timings)},
            "n_speakers": len(result.speakers),
            "n_utterances": sum(len(s.records) for s in result.speakers),
            "blas_threads": blas_threads(),
            "ttabench_version": __version__,
        }
        blob = json.dumps(run_manifest, indent=2, sort_keys=True)
        _write_atomic(self.out_dir / RUN_MANIFEST_NAME, blob + "\n")
        return results_path


def _jsonl(records: Iterable[UtteranceRecord]) -> str:
    return "".join(canonical_json(record_to_dict(r)) + "\n" for r in records)


def read_run_config(run_dir: Path) -> AdaptationConfig:
    path = Path(run_dir) / CONFIG_NAME
    if not path.exists():
        raise ConfigError(f"{path} does not exist")
    return AdaptationConfig.from_dict(path.read_bytes(), str(path))


def read_run_records(run_dir: Path) -> list[UtteranceRecord]:
    path = Path(run_dir) / RESULTS_NAME
    if not path.exists():
        raise ConfigError(f"{path} does not exist; run has not finished")
    return _read_records(path)


def _read_records(path: Path) -> list[UtteranceRecord]:
    """Parse a JSONL file of ``record_to_dict`` lines, split at newline bytes only; a
    damaged line is a ``ConfigError`` naming the file, the line and the field."""
    records = []
    for lineno, line in enumerate(path.read_bytes().splitlines(), start=1):
        if not line:
            continue
        where = f"{path} line {lineno}"
        data = check_object(line, _RECORD_FIELDS, where, ConfigError)
        try:
            records.append(record_from_dict(data))
        except ValueError as exc:
            raise ConfigError(f"{where}: invalid record: {exc}") from exc
    return records


def speaker_wers_from_records(records: Iterable[UtteranceRecord]) -> dict[str, float]:
    """Pooled WER of each speaker with at least one scored utterance, by speaker id."""
    counts: dict[str, list[WerCount]] = {}
    for r in records:
        if r.count is not None:
            counts.setdefault(r.speaker_id, []).append(r.count)
    return {s: speaker_wer(counts[s]) for s in sorted(counts)}
