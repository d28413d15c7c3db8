"""Procedurally generated audio corpus with known transcripts.

Each vocabulary symbol is rendered as a short pure tone at a distinct
frequency, separated by brief silences, so a transcript maps to a waveform
whose exact frame-level labeling is known. That supports (a) supervised
training of the reference model with per-frame cross-entropy and (b) a
controlled benchmark where every "speaker" applies a known domain shift
(volume gain plus additive noise at a speaker-specific SNR).

The tones are computed once per sample rate, into a small table that every
render shares read-only and copies into its own output array.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus.audio import CANONICAL_RATE_HZ, Waveform, write_wav
from .corpus.manifest import CorpusManifest, Utterance, save_manifest
from .errors import EmptyTranscriptError
from .evaluation import normalize_text
from .model.reference import ReferenceModel
from .model.types import LogitMatrix, LossFunctional
from .objectives import TtaLossValue, softmax_temperature
from .engine.optim import Adam

# Letters are spaced three vocabulary slots apart so their tone frequencies
# sit 750 Hz apart, comfortably wider than the model's receptive field can
# confuse; the word delimiter gets the top slot.
TONE_LETTERS = ("a", "d", "g", "j", "m", "p", "s", "v", "y")
TONE_S = 0.050
GAP_S = 0.010
EDGE_SILENCE_S = 0.040
RAMP_S = 0.004
AMPLITUDE = 0.4
BASE_FREQ_HZ = 500.0
FREQ_STEP_HZ = 250.0
_N_SYMBOLS = 29  # blank, 26 letters, apostrophe, word delimiter
_N_WORDS = 24
_WORD_SEED = 20240801


def symbol_frequency(symbol_index: int) -> float:
    """Tone frequency for a non-blank vocabulary index (1-based)."""
    if symbol_index < 1:
        raise ValueError("blank has no tone")
    return BASE_FREQ_HZ + FREQ_STEP_HZ * (symbol_index - 1)


@dataclass(frozen=True)
class RenderedUtterance:
    waveform: Waveform
    sample_labels: np.ndarray  # per-sample vocabulary index, blank in gaps
    transcript: str


@functools.lru_cache(maxsize=8)
def _tone_table(sample_rate_hz: int) -> np.ndarray:
    """Read-only (29, tone samples) table of every symbol's ramped tone at one rate.

    Row i is the tone of vocabulary index i; row 0 (blank) is silence.
    """
    tone_n = round(TONE_S * sample_rate_hz)
    ramp_n = round(RAMP_S * sample_rate_hz)
    envelope = np.ones(tone_n)
    ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp_n) / ramp_n)
    envelope[:ramp_n] = ramp
    envelope[-ramp_n:] = ramp[::-1]
    t = np.arange(tone_n) / sample_rate_hz
    table = np.zeros((_N_SYMBOLS, tone_n))
    for idx in range(1, _N_SYMBOLS):
        table[idx] = AMPLITUDE * envelope * np.sin(2.0 * np.pi * symbol_frequency(idx) * t)
    table.flags.writeable = False
    return table


def render_transcript(
    transcript: str, sample_rate_hz: int = CANONICAL_RATE_HZ
) -> RenderedUtterance:
    """Render a transcript as a tone sequence with per-sample labels."""
    samples, labels, text = _render(transcript, sample_rate_hz)
    return RenderedUtterance(
        waveform=Waveform(samples=samples, sample_rate_hz=sample_rate_hz),
        sample_labels=labels,
        transcript=text,
    )


def _render(transcript: str, sample_rate_hz: int) -> tuple[np.ndarray, np.ndarray, str]:
    """``render_transcript``'s samples, per-sample labels and normalized text, with
    the samples not yet validated as a ``Waveform``: a new array the caller owns."""
    text = normalize_text(transcript).lower()
    if not text:
        raise EmptyTranscriptError(f"nothing to render in {transcript!r}")
    indices = []
    for ch in text:
        if ch == " ":
            idx = 28  # word delimiter
        elif "a" <= ch <= "z":
            idx = ord(ch) - ord("a") + 1
        elif ch == "'":
            idx = 27
        else:
            raise ValueError(f"cannot render character {ch!r}")
        indices.append(idx)

    tones = _tone_table(sample_rate_hz)
    tone_n = tones.shape[1]
    gap_n = round(GAP_S * sample_rate_hz)
    edge_n = round(EDGE_SILENCE_S * sample_rate_hz)
    n_chars, slot_n = len(indices), tone_n + gap_n
    # edge silence, a tone-then-gap slot per character, then the rest of the
    # closing edge silence (the last gap counts towards it)
    slots = slice(edge_n, edge_n + n_chars * slot_n)
    n = slots.stop + edge_n - gap_n
    samples = np.zeros(n)
    samples[slots].reshape(n_chars, slot_n)[:, :tone_n] = tones[indices]
    labels = np.zeros(n, dtype=np.int64)
    labels[slots].reshape(n_chars, slot_n)[:, :tone_n] = np.array(indices)[:, None]
    return samples, labels, text


def frame_labels_for(model: ReferenceModel, sample_labels: np.ndarray) -> np.ndarray:
    """Label each model output frame by the sample at its receptive-field center."""
    n_frames = model.output_length(len(sample_labels))
    centers = model.HOP * np.arange(n_frames) + model.FIELD // 2
    return sample_labels[centers]


def frame_ce_functional(labels: np.ndarray) -> LossFunctional:
    """Per-frame cross-entropy against known labels, for supervised training."""
    labels = np.asarray(labels, dtype=np.int64)

    def functional(z: LogitMatrix) -> tuple[TtaLossValue, np.ndarray]:
        if z.n_frames != len(labels):
            raise ValueError(f"{len(labels)} labels for {z.n_frames} frames")
        p = softmax_temperature(z, 1.0).values
        rows = np.arange(z.n_frames)
        ce = float(-np.log(p[rows, labels] + 1e-300).mean())
        dz = p.copy(order="K")  # class-major like p, the layout the model's backward reads
        dz[rows, labels] -= 1.0
        dz /= z.n_frames
        value = TtaLossValue(total=ce, components={"ce": ce}, weights={"ce": 1.0})
        return value, dz

    return functional


@dataclass(frozen=True)
class TrainingExample:
    waveform: Waveform
    frame_labels: np.ndarray
    transcript: str


def make_word_list() -> list[str]:
    """The corpus vocabulary: 24 fixed pseudo-words over the tone-friendly letter subset."""
    rng = np.random.default_rng(_WORD_SEED)
    words: list[str] = []
    seen = set()
    while len(words) < _N_WORDS:
        length = int(rng.integers(2, 5))
        word = "".join(rng.choice(list(TONE_LETTERS), size=length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def make_sentences(n: int, rng: np.random.Generator) -> list[str]:
    """n sentences of 3-5 words drawn from ``make_word_list``."""
    words = make_word_list()
    out = []
    for _ in range(n):
        k = int(rng.integers(3, 6))
        out.append(" ".join(rng.choice(words) for _ in range(k)))
    return out


def _mix_shift(samples: np.ndarray, gain: float, snr_db: float, rng: np.random.Generator) -> float:
    """Apply a speaker shift in place: gain, white noise ``snr_db`` below the
    gained signal's RMS, then clipping to [-1, 1]. Returns the noise RMS."""
    samples *= gain
    noise_rms = float(np.sqrt(np.mean(samples**2))) * 10.0 ** (-snr_db / 20.0)
    samples += rng.normal(0.0, noise_rms, size=len(samples))
    np.clip(samples, -1.0, 1.0, out=samples)
    return noise_rms


def build_training_set(
    model: ReferenceModel,
    n_utterances: int = 120,
    seed: int = 11,
    gain_range: tuple[float, float] = (0.5, 1.8),
    dither_snr_db_range: tuple[float, float] = (22.0, 40.0),
) -> list[TrainingExample]:
    """Clean rendered sentences with per-utterance volume variety.

    Volume is drawn uniformly per utterance so the trained model treats
    loudness as a nuisance dimension. A near-inaudible dither (SNR >= 28 dB)
    is mixed in so the silence class is learned from spectral shape rather
    than exact zeros; the per-frame normalization in the model makes exact
    zeros a degenerate cue that would not survive any playback chain.
    """
    rng = np.random.default_rng(seed)
    examples = []
    for sentence in make_sentences(n_utterances, rng):
        samples, labels, text = _render(sentence, CANONICAL_RATE_HZ)
        gain = float(rng.uniform(*gain_range))
        snr_db = float(rng.uniform(*dither_snr_db_range))
        _mix_shift(samples, gain, snr_db, rng)
        examples.append(
            TrainingExample(
                waveform=Waveform(samples=samples, sample_rate_hz=CANONICAL_RATE_HZ),
                frame_labels=frame_labels_for(model, labels),
                transcript=text,
            )
        )
    return examples


def train_reference_model(
    model: ReferenceModel,
    examples: list[TrainingExample],
    epochs: int = 12,
    learning_rate: float = 2e-3,
    seed: int = 7,
) -> list[float]:
    """Supervised frame-level training; returns the mean loss per epoch.

    All parameter groups are trained; afterwards the adaptable selection is
    reset to the standard feature-extractor plus layer-norm subset.
    """
    rng = np.random.default_rng(seed)
    model.select_adaptable(["feature_extractor", "layer_norm", "head"])
    optimizer = Adam(learning_rate)
    history: list[float] = []
    order = np.arange(len(examples))
    for _ in range(epochs):
        rng.shuffle(order)
        losses = []
        for i in order:
            ex = examples[i]
            value, grads = model.gradient(ex.waveform, frame_ce_functional(ex.frame_labels))
            model.apply_update(optimizer.step(grads))
            losses.append(value.total)
        history.append(float(np.mean(losses)))
    model.select_adaptable(["feature_extractor", "layer_norm"])
    return history


@dataclass(frozen=True)
class SpeakerShift:
    """The domain shift applied to one synthetic speaker."""

    speaker_id: str
    volume_gain: float
    snr_db: float
    noise_rms: float


def build_shifted_corpus(
    out_dir: Path,
    n_speakers: int = 10,
    utterances_per_speaker: int = 8,
    seed: int = 404,
    volume_range: tuple[float, float] = (1.6, 0.4),
    snr_range_db: tuple[float, float] = (25.0, 8.0),
) -> tuple[Path, list[SpeakerShift]]:
    """Write a benchmark corpus where each speaker has a distinct shift.

    Speaker index runs from mild to severe: volume drifts across
    ``volume_range`` while SNR drops across ``snr_range_db``, so later
    speakers are both quieter and noisier. Returns the manifest path and the
    per-speaker shift descriptions (also saved as ``speakers.json``).
    """
    out_dir = Path(out_dir)
    audio_dir = out_dir / "audio"
    audio_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    volumes = np.linspace(volume_range[0], volume_range[1], n_speakers)
    snrs = np.linspace(snr_range_db[0], snr_range_db[1], n_speakers)

    utterances: list[Utterance] = []
    shifts: list[SpeakerShift] = []
    for s in range(n_speakers):
        speaker_id = f"spk{s:02d}"
        sentences = make_sentences(utterances_per_speaker, rng)
        noise_rms_used = 0.0
        for k, sentence in enumerate(sentences):
            samples, _, text = _render(sentence, CANONICAL_RATE_HZ)
            noise_rms_used = _mix_shift(samples, volumes[s], snrs[s], rng)
            utterance_id = f"{speaker_id}_utt{k:03d}"
            wav_path = audio_dir / f"{utterance_id}.wav"
            w = Waveform(samples=samples, sample_rate_hz=CANONICAL_RATE_HZ)
            write_wav(wav_path, w)
            utterances.append(
                Utterance(
                    utterance_id=utterance_id,
                    speaker_id=speaker_id,
                    audio_path=str(wav_path),
                    transcript=text,
                    duration_s=w.duration_s,
                )
            )
        shifts.append(
            SpeakerShift(
                speaker_id=speaker_id,
                volume_gain=float(volumes[s]),
                snr_db=float(snrs[s]),
                noise_rms=noise_rms_used,
            )
        )

    manifest = CorpusManifest(utterances=tuple(utterances))
    manifest_path = out_dir / "manifest.jsonl"
    save_manifest(manifest, manifest_path)
    meta = {
        s.speaker_id: {
            "volume_gain": s.volume_gain,
            "snr_db": s.snr_db,
            "noise_rms": s.noise_rms,
        }
        for s in shifts
    }
    (out_dir / "speakers.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest_path, shifts
