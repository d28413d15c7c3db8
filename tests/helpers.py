"""Small builders shared across test modules."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ttabench.corpus.audio import CANONICAL_RATE_HZ, Waveform, write_wav
from ttabench.corpus.manifest import CorpusManifest, Utterance, save_manifest
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
