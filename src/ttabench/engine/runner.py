"""Per-utterance adaptation loop, speaker loop, and whole-experiment driver."""

from __future__ import annotations

import functools
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from ..corpus.audio import Waveform, read_audio
from ..corpus.manifest import CorpusManifest, Utterance
from ..corpus.vad import detect_nonspeech
from ..errors import AudioTooShortError, CorruptFileError, NonFiniteLossError
from ..evaluation import WerCount, normalize_text, speaker_wer, unweighted_mean_wer, wer
from ..model.decode import greedy_ctc_decode
from ..model.reference import ReferenceModel
from ..model.types import LossFunctional
from ..objectives import TtaLossValue, make_loss_functional
from .config import AdaptationConfig, AdaptationMethod, AdaptationMode
from .optim import Optimizer, build_optimizer

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class StepRecord:
    """Loss evaluated immediately before one parameter update."""

    total: float
    components: dict[str, float]


@dataclass(frozen=True)
class AdaptationTrace:
    """What happened to the loss while adapting one utterance.

    ``steps`` holds the loss before each update (one entry per update taken,
    across all chunks of the utterance). ``initial_total`` is the first of
    those; ``final_total`` is the loss after the last update, on the last
    chunk's decode logits. All three are empty/None when no updates ran.
    """

    steps: tuple[StepRecord, ...]
    initial_total: float | None
    final_total: float | None
    wall_time_s: float
    parameters_restored: bool
    non_finite: bool = False

    @property
    def n_steps(self) -> int:
        return len(self.steps)


# the trace of an utterance whose audio could not be adapted on
_NOT_ADAPTED = AdaptationTrace(
    steps=(), initial_total=None, final_total=None, wall_time_s=0.0, parameters_restored=False
)


@dataclass(frozen=True)
class UtteranceRecord:
    utterance_id: str
    speaker_id: str
    reference: str
    hypothesis: str
    count: WerCount | None
    trace: AdaptationTrace
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class SpeakerRunResult:
    speaker_id: str
    records: tuple[UtteranceRecord, ...]
    wer: float | None
    wall_time_s: float


@dataclass(frozen=True)
class ExperimentResult:
    config: AdaptationConfig
    speakers: tuple[SpeakerRunResult, ...]

    def speaker_wers(self) -> dict[str, float]:
        return {s.speaker_id: s.wer for s in self.speakers if s.wer is not None}

    def mean_speaker_wer(self) -> float:
        return unweighted_mean_wer(list(self.speaker_wers().values()))

    def records(self) -> list[UtteranceRecord]:
        return [r for s in self.speakers for r in s.records]


def _loss_functional(config: AdaptationConfig) -> LossFunctional:
    return make_loss_functional(
        config.method.value,
        alpha=config.alpha,
        lam=config.lam,
        rho=config.rho,
        temperature=config.temperature,
        neg_k=config.neg_k,
        exclude_blank_frames=config.exclude_blank_frames,
    )


def _chunk_cut_points(
    duration_s: float, candidates: Sequence[float], target_s: float
) -> list[float]:
    """Greedy cut placement: latest candidate within each target window."""
    cuts: list[float] = []
    start = 0.0
    min_chunk_s = 0.5
    while duration_s - start > target_s:
        eligible = [c for c in candidates if start + min_chunk_s <= c <= start + target_s]
        cut = max(eligible) if eligible else start + target_s
        cuts.append(cut)
        start = cut
    return cuts


def split_waveform(w: Waveform, max_s: float, target_s: float) -> list[Waveform]:
    """Split audio longer than max_s into chunks of roughly target_s.

    Cuts land at midpoints of detected non-speech regions where possible so
    words are not bisected; stretches with no usable pause are cut at the
    target length.
    """
    if w.duration_s <= max_s:
        return [w]
    nonspeech = detect_nonspeech(w)
    candidates = [(a + b) / 2.0 for a, b in nonspeech.segments]
    cuts = _chunk_cut_points(w.duration_s, candidates, target_s)
    edges = [0] + [round(c * w.sample_rate_hz) for c in cuts] + [len(w.samples)]
    chunks = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            chunks.append(Waveform(samples=w.samples[a:b], sample_rate_hz=w.sample_rate_hz))
    return chunks


def _finite_record(value: TtaLossValue, grads: Mapping[str, np.ndarray]) -> None:
    if not np.isfinite(value.total):
        raise NonFiniteLossError(f"loss is not finite: {value.total}")
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteLossError(f"gradient for {name!r} is not finite")


def adapt_utterance(
    model: ReferenceModel,
    w: Waveform,
    config: AdaptationConfig,
    optimizer: Optimizer | None = None,
) -> tuple[str, AdaptationTrace]:
    """Adapt the model on one utterance and decode it.

    Audio longer than ``max_utterance_s`` is split into chunks
    (``split_waveform``), each forwarded and decoded in turn. With method
    "none" (or no steps) the chunk decodes are joined by spaces, so a single
    chunk's hypothesis is its plain decode. Otherwise the selected parameter
    groups are updated for ``steps_n`` steps per chunk; in episodic mode the
    pre-utterance parameters are restored before returning, in continual mode
    the updates persist. Each chunk's ``frozen_features``
    (the activation below every selected group) is computed once and passed
    to all of its steps and to its decode forward, so norm- or head-only
    adaptation runs the conv stack once per chunk. Non-finite logits, loss or
    gradient abort adaptation, restore the pre-utterance parameters, and mark
    the trace instead of raising.
    """
    t0 = time.perf_counter()
    vocab = model.vocabulary()
    chunks = split_waveform(w, config.max_utterance_s, config.chunk_target_s)
    if config.method is AdaptationMethod.NONE or config.steps_n == 0:
        hypothesis = " ".join(greedy_ctc_decode(model.forward(chunk), vocab) for chunk in chunks)
        return hypothesis, AdaptationTrace(
            steps=(),
            initial_total=None,
            final_total=None,
            wall_time_s=time.perf_counter() - t0,
            parameters_restored=False,
        )

    model.select_adaptable(list(config.adapted_groups))
    loss_fn = _loss_functional(config)
    snap = model.snapshot()
    if optimizer is None:
        optimizer = build_optimizer(config.optimizer.value, config.learning_rate)

    steps: list[StepRecord] = []
    parts: list[str] = []
    non_finite = False
    final_total: float | None = None
    try:
        # a diverging update overflows on the way to non-finite logits, loss or
        # gradients; _finite_record and LogitMatrix catch those, so stay quiet
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for chunk in chunks:
                frozen = model.frozen_features(chunk)
                for _ in range(config.steps_n):
                    value, grads = model.gradient(chunk, loss_fn, frozen)
                    _finite_record(value, grads)
                    steps.append(StepRecord(total=value.total, components=dict(value.components)))
                    model.apply_update(optimizer.step(grads))
                logits = model.forward(chunk, frozen)
                parts.append(greedy_ctc_decode(logits, vocab))
            final_value, _ = loss_fn(logits, need_grad=False)
        final_total = final_value.total
    except NonFiniteLossError:
        non_finite = True
        model.restore(snap)
        parts = [greedy_ctc_decode(model.forward(chunk), vocab) for chunk in chunks]
        final_total = None

    restored = False
    if not non_finite and config.mode is AdaptationMode.EPISODIC:
        model.restore(snap)
        restored = True

    hypothesis = " ".join(p for p in parts if p).strip()
    return hypothesis, AdaptationTrace(
        steps=tuple(steps),
        initial_total=steps[0].total if steps else None,
        final_total=final_total,
        wall_time_s=time.perf_counter() - t0,
        parameters_restored=restored,
        non_finite=non_finite,
    )


def adapt_speaker(
    model: ReferenceModel,
    speaker_id: str,
    utterances: Sequence[Utterance],
    config: AdaptationConfig,
) -> SpeakerRunResult:
    """Run one speaker's utterances through the adaptation loop in order.

    In continual mode one optimizer persists across the speaker's utterances;
    in episodic mode each utterance starts fresh. An utterance whose audio is
    too short or cannot be decoded is flagged (``audio_too_short``,
    ``corrupt_audio``) with an empty hypothesis, and the rest still adapt. The
    model is left in its post-run state; callers that reuse it across speakers
    must restore their own base snapshot between speakers.
    """
    t0 = time.perf_counter()
    persistent: Optimizer | None = None
    if config.mode is AdaptationMode.CONTINUAL and config.method is not AdaptationMethod.NONE:
        persistent = build_optimizer(config.optimizer.value, config.learning_rate)

    records: list[UtteranceRecord] = []
    for u in utterances:
        flags: list[str] = []
        reference = normalize_text(u.transcript)
        hypothesis, trace = "", _NOT_ADAPTED
        try:
            w = read_audio(Path(u.audio_path))
            hypothesis, trace = adapt_utterance(model, w, config, optimizer=persistent)
        except AudioTooShortError:
            flags.append("audio_too_short")
        except CorruptFileError as exc:
            logger.warning("utterance %s flagged corrupt_audio: %s", u.utterance_id, exc)
            flags.append("corrupt_audio")
        if trace.non_finite:
            flags.append("non_finite_loss")
        count: WerCount | None = None
        if reference:
            count = wer(reference, hypothesis)
        else:
            flags.append("empty_reference")
        records.append(
            UtteranceRecord(
                utterance_id=u.utterance_id,
                speaker_id=speaker_id,
                reference=reference,
                hypothesis=hypothesis,
                count=count,
                trace=trace,
                flags=tuple(flags),
            )
        )

    counts = [r.count for r in records if r.count is not None]
    return SpeakerRunResult(
        speaker_id=speaker_id,
        records=tuple(records),
        wer=speaker_wer(counts) if counts else None,
        wall_time_s=time.perf_counter() - t0,
    )


def run_experiment(
    model: ReferenceModel,
    manifest: CorpusManifest,
    config: AdaptationConfig,
    workers: int = 1,
    completed: Mapping[str, SpeakerRunResult] | None = None,
    on_speaker_done: Callable[[SpeakerRunResult], None] | None = None,
) -> ExperimentResult:
    """Adapt and score every speaker in the manifest.

    Speakers are independent: each starts from the parameters ``model`` holds
    when the call begins (its base), restored before each speaker in-process
    and pickled, without workspaces, into each pool task. So results are
    identical for any worker count and any completion order, and ``model``
    holds its base again when the call returns or raises. Speakers present in
    ``completed`` are reused as-is (resume support); ``on_speaker_done`` fires
    as each speaker finishes. The returned speaker order is sorted by speaker id.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    completed = dict(completed or {})
    todo = {
        speaker_id: tuple(utts)
        for speaker_id, utts in sorted(manifest.speakers().items())
        if speaker_id not in completed
    }

    results: dict[str, SpeakerRunResult] = dict(completed)
    base = model.snapshot()
    try:
        if workers == 1 or len(todo) <= 1:
            for speaker_id, utterances in todo.items():
                model.restore(base)
                result = adapt_speaker(model, speaker_id, utterances, config)
                results[result.speaker_id] = result
                if on_speaker_done is not None:
                    on_speaker_done(result)
        else:
            adapt = functools.partial(adapt_speaker, model, config=config)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for result in pool.map(adapt, todo, todo.values()):
                    results[result.speaker_id] = result
                    if on_speaker_done is not None:
                        on_speaker_done(result)
    finally:
        model.restore(base)

    ordered = tuple(results[sid] for sid in sorted(results))
    return ExperimentResult(config=config, speakers=ordered)
