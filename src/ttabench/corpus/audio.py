"""PCM WAV reading with the canonical 16 kHz mono float contract."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from ..errors import CorruptFileError, UnreadableFileError, UnsupportedFormatError

CANONICAL_RATE_HZ = 16000
# declared sample rates outside this range are treated as a damaged header
_MIN_RATE_HZ = 1000
_MAX_RATE_HZ = 192000

_INT_SCALES = {
    np.dtype(np.int16): 32768.0,
    np.dtype(np.int32): 2147483648.0,
    np.dtype(np.int64): 9223372036854775808.0,
}


@dataclass(frozen=True)
class Waveform:
    """Mono audio samples in [-1, 1] at a fixed sample rate."""

    samples: np.ndarray
    sample_rate_hz: int = CANONICAL_RATE_HZ

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if np.max(np.abs(samples)) > 1.0 + 1e-9:
            raise ValueError("samples must lie in [-1, 1]")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "samples", samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz

    def __len__(self) -> int:
        return len(self.samples)


def read_audio(path: str | os.PathLike) -> Waveform:
    """Read a PCM (or IEEE-float) WAV file as 16 kHz mono in [-1, 1].

    Multichannel input is mean-downmixed; integer PCM is scaled by its full
    range; other rates are polyphase-resampled to 16 kHz.

    Raises:
        UnreadableFileError: file missing or unreadable.
        UnsupportedFormatError: not a RIFF/WAVE file.
        CorruptFileError: WAVE file that cannot be parsed, that declares a
            sample rate outside 1-192 kHz, or whose float samples include
            NaN or infinity or lie outside [-1, 1].
    """
    try:
        with open(path, "rb") as f:
            head = f.read(12)
    except OSError as exc:
        raise UnreadableFileError(f"cannot read audio {path}: {exc}") from exc
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise UnsupportedFormatError(f"{path} is not a RIFF/WAVE file")

    try:
        rate, data = wavfile.read(path)
    except Exception as exc:
        raise CorruptFileError(f"cannot parse WAV file {path}: {exc}") from exc
    if not _MIN_RATE_HZ <= rate <= _MAX_RATE_HZ:
        raise CorruptFileError(
            f"{path} declares sample rate {rate} Hz, outside {_MIN_RATE_HZ}-{_MAX_RATE_HZ} Hz"
        )

    x = np.asarray(data)
    if x.size == 0:
        raise CorruptFileError(f"{path} contains no samples")
    if x.ndim == 2:
        x = x.mean(axis=1, dtype=np.float64)
    x = x.astype(np.float64)
    if not np.all(np.isfinite(x)):
        raise CorruptFileError(f"{path} holds NaN or infinite samples")

    if data.dtype == np.uint8:
        x = (x - 128.0) / 128.0
    elif data.dtype in _INT_SCALES:
        x = x / _INT_SCALES[data.dtype]
    elif data.dtype.kind == "f":
        # float WAVs store [-1, 1] directly; beyond that is damage, not loudness
        peak = float(np.max(np.abs(data)))
        if peak > 1.0 + 1e-9:
            raise CorruptFileError(
                f"{path} holds float samples up to |x| = {peak:g}, outside [-1, 1]"
            )

    if rate != CANONICAL_RATE_HZ:
        # imported here: scipy.signal is slow to import and 16 kHz input never needs it
        from scipy.signal import resample_poly

        g = math.gcd(int(rate), CANONICAL_RATE_HZ)
        x = resample_poly(x, CANONICAL_RATE_HZ // g, int(rate) // g)
        if x.size == 0:
            raise CorruptFileError(f"{path} too short to resample")
    # resampling and downmix can overshoot slightly
    x = np.clip(x, -1.0, 1.0)
    return Waveform(samples=x, sample_rate_hz=CANONICAL_RATE_HZ)


def write_wav(path: str | os.PathLike, w: Waveform) -> None:
    """Write a waveform as 16-bit PCM WAV (test fixtures and synthetic corpora)."""
    pcm = np.round(np.clip(w.samples, -1.0, 1.0) * 32767.0).astype(np.int16)
    wavfile.write(path, w.sample_rate_hz, pcm)
