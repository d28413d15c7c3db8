"""MFCC extraction: deterministic, dependency-free, tail frames dropped.

Frame count follows T = floor((len - frame_len) / hop) + 1 with no padding,
so identical audio always yields bitwise-identical features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dct

from ..errors import AudioTooShortError
from .audio import Waveform

LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class FeatureMatrix:
    """T x D frame-level features plus the hop used to produce them."""

    frames: np.ndarray
    frame_hop_s: float

    def __post_init__(self) -> None:
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
            raise ValueError("frames must be a T x D matrix with T, D >= 1")
        if not np.all(np.isfinite(frames)):
            raise ValueError("frames must contain no NaN/Inf")
        if self.frame_hop_s <= 0:
            raise ValueError("frame_hop_s must be positive")
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


def frame_signal(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Slice a signal into T = floor((len - frame_len)/hop) + 1 frames."""
    n = len(x)
    if n < frame_len:
        raise AudioTooShortError(f"signal of {n} samples shorter than one {frame_len}-sample frame")
    t = (n - frame_len) // hop + 1
    idx = hop * np.arange(t)[:, None] + np.arange(frame_len)[None, :]
    return x[idx]


def mel_filterbank(n_filters: int, nfft: int, sample_rate_hz: int) -> np.ndarray:
    """Triangular mel filterbank (HTK mel scale) over rfft bins, 0..Nyquist."""

    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate_hz / 2.0), n_filters + 2)
    bins = np.floor((nfft + 1) * mel_to_hz(mel_points) / sample_rate_hz).astype(int)
    fb = np.zeros((n_filters, nfft // 2 + 1))
    for j in range(n_filters):
        left, center, right = bins[j], bins[j + 1], bins[j + 2]
        for i in range(left, center):
            fb[j, i] = (i - left) / max(center - left, 1)
        for i in range(center, right):
            fb[j, i] = (right - i) / max(right - center, 1)
    return fb


def compute_mfcc(
    w: Waveform,
    n_coeffs: int = 13,
    frame_len_s: float = 0.025,
    frame_hop_s: float = 0.010,
    n_mels: int = 26,
) -> FeatureMatrix:
    """Mel-frequency cepstral coefficients of a waveform.

    Hamming window, power spectrum, triangular mel filterbank, log with a
    1e-10 floor (so all-zero audio stays finite), orthonormal DCT-II.

    Raises:
        AudioTooShortError: fewer samples than one analysis frame.
    """
    if n_coeffs < 1 or n_mels < n_coeffs:
        raise ValueError("need 1 <= n_coeffs <= n_mels")
    if frame_len_s < frame_hop_s:
        raise ValueError("frame_len_s must be >= frame_hop_s")
    sr = w.sample_rate_hz
    frame_len = int(round(frame_len_s * sr))
    hop = int(round(frame_hop_s * sr))

    frames = frame_signal(w.samples, frame_len, hop)
    nfft = 1
    while nfft < frame_len:
        nfft *= 2
    windowed = frames * np.hamming(frame_len)
    power = np.abs(np.fft.rfft(windowed, n=nfft)) ** 2 / nfft
    fb = mel_filterbank(n_mels, nfft, sr)
    energies = np.log(np.maximum(power @ fb.T, LOG_FLOOR))
    coeffs = dct(energies, type=2, axis=1, norm="ortho")[:, :n_coeffs]
    return FeatureMatrix(frames=coeffs, frame_hop_s=frame_hop_s)
