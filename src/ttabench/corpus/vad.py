"""Non-speech region detection and effective mean squared (EMS) energy.

The voice activity detector is a deterministic frame-RMS threshold:
30 ms frames, 10 ms hop, threshold max(1e-4, 0.05 x median frame RMS), and
speech segments closer than 200 ms are merged (hangover).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .audio import Waveform
from .features import frame_signal


class SegmentLabel(Enum):
    SPEECH = "speech"
    NONSPEECH = "nonspeech"


@dataclass(frozen=True)
class SegmentList:
    """Sorted, non-overlapping (start_s, end_s) intervals with one label."""

    segments: tuple[tuple[float, float], ...]
    label: SegmentLabel

    def __post_init__(self) -> None:
        prev_end = -np.inf
        for start, end in self.segments:
            if not start < end:
                raise ValueError(f"segment ({start}, {end}) must have start < end")
            if start < prev_end:
                raise ValueError("segments must be sorted and non-overlapping")
            if start < 0:
                raise ValueError("segments must not start before 0")
            prev_end = end

    def __len__(self) -> int:
        return len(self.segments)


@dataclass(frozen=True)
class EnergyVad:
    """Dependency-free frame-RMS voice activity detector."""

    frame_len_s: float = 0.030
    frame_hop_s: float = 0.010
    relative_threshold: float = 0.05
    absolute_floor: float = 1e-4
    hangover_s: float = 0.200

    def __call__(self, w: Waveform) -> SegmentList:
        sr = w.sample_rate_hz
        frame_len = int(round(self.frame_len_s * sr))
        hop = int(round(self.frame_hop_s * sr))
        if len(w.samples) < frame_len:
            frames = w.samples[None, :]
        else:
            frames = frame_signal(w.samples, frame_len, hop)
        rms = np.sqrt(np.mean(frames**2, axis=1))
        threshold = max(self.absolute_floor, self.relative_threshold * float(np.median(rms)))
        active = rms >= threshold

        segments: list[tuple[float, float]] = []
        start = None
        for i, a in enumerate(active):
            if a and start is None:
                start = i
            elif not a and start is not None:
                segments.append(self._span(start, i - 1, hop, frame_len, sr, w.duration_s))
                start = None
        if start is not None:
            segments.append(self._span(start, len(active) - 1, hop, frame_len, sr, w.duration_s))

        merged: list[tuple[float, float]] = []
        for seg in segments:
            if merged and seg[0] - merged[-1][1] < self.hangover_s:
                merged[-1] = (merged[-1][0], seg[1])
            else:
                merged.append(seg)
        return SegmentList(segments=tuple(merged), label=SegmentLabel.SPEECH)

    @staticmethod
    def _span(
        first: int, last: int, hop: int, frame_len: int, sr: int, duration_s: float
    ) -> tuple[float, float]:
        return (first * hop / sr, min((last * hop + frame_len) / sr, duration_s))


def detect_nonspeech(w: Waveform, min_segment_s: float = 0.030) -> SegmentList:
    """Complement of the energy VAD's speech segments within [0, duration].

    Non-speech gaps shorter than ``min_segment_s`` (one VAD frame) are
    dropped.
    """
    speech = EnergyVad()(w)
    duration = w.duration_s
    gaps: list[tuple[float, float]] = []
    cursor = 0.0
    for start, end in speech.segments:
        if start > cursor:
            gaps.append((cursor, min(start, duration)))
        cursor = max(cursor, end)
    if cursor < duration:
        gaps.append((cursor, duration))
    kept = tuple(g for g in gaps if g[1] - g[0] >= min_segment_s and g[1] <= duration + 1e-9)
    return SegmentList(segments=kept, label=SegmentLabel.NONSPEECH)


@dataclass(frozen=True)
class EmsEnergy:
    """Mean squared sample energy over non-speech regions.

    ``empty_region`` flags the 0-by-convention case where no non-speech
    samples were available.
    """

    value: float
    empty_region: bool


def ems_energy(w: Waveform, nonspeech: SegmentList) -> EmsEnergy:
    """Mean of squared samples over the union of non-speech segments."""
    sr = w.sample_rate_hz
    n = len(w.samples)
    total = 0.0
    count = 0
    for start, end in nonspeech.segments:
        i0 = max(0, int(round(start * sr)))
        i1 = min(n, int(round(end * sr)))
        if i1 <= i0:
            continue
        if end > w.duration_s + 1e-9:
            raise ValueError(f"segment ({start}, {end}) exceeds waveform duration")
        chunk = w.samples[i0:i1]
        total += float(np.sum(chunk**2))
        count += i1 - i0
    if count == 0:
        return EmsEnergy(value=0.0, empty_region=True)
    return EmsEnergy(value=total / count, empty_region=False)
