"""Small builders shared across test modules."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ttabench.corpus.audio import CANONICAL_RATE_HZ, Waveform, write_wav
from ttabench.corpus.manifest import CorpusManifest, Utterance, save_manifest
from ttabench import synthetic
from ttabench.evaluation import normalize_text
from ttabench.synthetic import render_transcript


def sine(
    freq_hz: float,
    duration_s: float,
    amplitude: float = 0.3,
    rate_hz: int = CANONICAL_RATE_HZ,
) -> Waveform:
    t = np.arange(int(round(duration_s * rate_hz))) / rate_hz
    return Waveform(samples=amplitude * np.sin(2.0 * np.pi * freq_hz * t), sample_rate_hz=rate_hz)


def noise(
    duration_s: float,
    rms: float = 0.05,
    seed: int = 0,
    rate_hz: int = CANONICAL_RATE_HZ,
) -> Waveform:
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, rms, int(round(duration_s * rate_hz)))
    return Waveform(samples=np.clip(x, -1.0, 1.0), sample_rate_hz=rate_hz)


def write_tone_corpus(
    root: Path,
    transcripts_by_speaker: dict[str, list[str]],
) -> Path:
    """Render tone utterances to WAV files and save a manifest next to them."""
    audio_dir = root / "audio"
    audio_dir.mkdir(parents=True, exist_ok=True)
    utterances = []
    for speaker_id, texts in transcripts_by_speaker.items():
        for i, text in enumerate(texts):
            rendered = render_transcript(text)
            utt_id = f"{speaker_id}-{i:03d}"
            wav_path = audio_dir / f"{utt_id}.wav"
            write_wav(wav_path, rendered.waveform)
            utterances.append(
                Utterance(
                    utterance_id=utt_id,
                    speaker_id=speaker_id,
                    audio_path=str(wav_path),
                    transcript=rendered.transcript,
                    duration_s=rendered.waveform.duration_s,
                )
            )
    manifest = CorpusManifest(utterances=tuple(utterances))
    path = root / "manifest.jsonl"
    save_manifest(manifest, path)
    return path


def render_per_character(
    transcript: str, rate_hz: int = CANONICAL_RATE_HZ
) -> tuple[np.ndarray, np.ndarray, str]:
    """Oracle for ``render_transcript``: samples, labels and text.

    The straightforward layout: every character's tone is computed afresh and
    the pieces are concatenated.
    """
    text = normalize_text(transcript).lower()
    tone_n = round(synthetic.TONE_S * rate_hz)
    gap_n = round(synthetic.GAP_S * rate_hz)
    edge_n = round(synthetic.EDGE_SILENCE_S * rate_hz)
    ramp_n = round(synthetic.RAMP_S * rate_hz)

    envelope = np.ones(tone_n)
    ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp_n) / ramp_n)
    envelope[:ramp_n] = ramp
    envelope[-ramp_n:] = ramp[::-1]

    pieces = [np.zeros(edge_n)]
    labels = [np.zeros(edge_n, dtype=np.int64)]
    t = np.arange(tone_n) / rate_hz
    for ch in text:
        idx = 28 if ch == " " else 27 if ch == "'" else ord(ch) - ord("a") + 1
        freq = synthetic.symbol_frequency(idx)
        pieces.append(synthetic.AMPLITUDE * envelope * np.sin(2.0 * np.pi * freq * t))
        labels.append(np.full(tone_n, idx, dtype=np.int64))
        pieces.append(np.zeros(gap_n))
        labels.append(np.zeros(gap_n, dtype=np.int64))
    pieces.append(np.zeros(edge_n - gap_n))
    labels.append(np.zeros(edge_n - gap_n, dtype=np.int64))
    return np.concatenate(pieces), np.concatenate(labels), text
