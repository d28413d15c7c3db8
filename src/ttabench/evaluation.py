"""Word error rate scoring, speaker-level aggregation, and paired statistics.

Scoring conventions:

* Text is normalized (uppercase, punctuation stripped except intra-word
  apostrophes, whitespace collapsed) before alignment, and the same
  normalizer is used for transcript word counts elsewhere in the toolkit.
* WER within a speaker is word-pooled: (sum S + sum D + sum I) / (sum N).
* WER across speakers is the unweighted mean of per-speaker WERs, so every
  speaker counts equally regardless of how many utterances they have.
"""

from __future__ import annotations

import csv
import math
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    AllZeroDifferencesError,
    EmptyListError,
    EmptyReferenceError,
    SpeakerSetMismatchError,
    TooFewPairsError,
)

_NON_WORD = re.compile(r"[^A-Z0-9']+")
_LONE_APOSTROPHE = re.compile(r"(?<![A-Z0-9])'|'(?![A-Z0-9])")


def normalize_text(s: str) -> str:
    """Uppercase, strip punctuation except intra-word apostrophes, collapse spaces."""
    s = s.upper()
    s = _NON_WORD.sub(" ", s)
    s = _LONE_APOSTROPHE.sub("", s)
    return " ".join(s.split())


@dataclass(frozen=True)
class WerCount:
    """Edit counts from aligning one hypothesis against one reference."""

    substitutions: int
    deletions: int
    insertions: int
    reference_words: int

    def __post_init__(self) -> None:
        if min(self.substitutions, self.deletions, self.insertions) < 0:
            raise ValueError("negative edit count")
        if self.reference_words < 1:
            raise ValueError("reference_words must be positive")
        if self.substitutions + self.deletions > self.reference_words:
            raise ValueError("S + D cannot exceed reference length")

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self) -> float:
        return self.errors / self.reference_words


def wer(reference: str, hypothesis: str) -> WerCount:
    """Word error counts from a minimum edit-distance alignment.

    Both strings are normalized first. Costs are unit for substitution,
    insertion, and deletion. When several alignments reach the minimum
    distance the backtrace prefers substitution over insertion over
    deletion, so the S/D/I decomposition is deterministic.

    Raises:
        EmptyReferenceError: reference is empty after normalization.
    """
    ref = normalize_text(reference).split()
    hyp = normalize_text(hypothesis).split()
    if not ref:
        raise EmptyReferenceError("reference transcript empty after normalization")

    m, n = len(ref), len(hyp)
    # d[i][j] = edit distance between ref[:i] and hyp[:j]
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        d[i][0] = i
    for j in range(1, n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        ref_i = ref[i - 1]
        row, prev = d[i], d[i - 1]
        for j in range(1, n + 1):
            sub = prev[j - 1] + (0 if ref_i == hyp[j - 1] else 1)
            ins = row[j - 1] + 1
            dele = prev[j] + 1
            row[j] = min(sub, ins, dele)

    subs = dels = ins = 0
    i, j = m, n
    while i > 0 or j > 0:
        cur = d[i][j]
        if i > 0 and j > 0:
            diag = d[i - 1][j - 1]
            if ref[i - 1] == hyp[j - 1] and cur == diag:
                i, j = i - 1, j - 1
                continue
            if cur == diag + 1:
                subs += 1
                i, j = i - 1, j - 1
                continue
        if j > 0 and cur == d[i][j - 1] + 1:
            ins += 1
            j -= 1
            continue
        dels += 1
        i -= 1
    return WerCount(substitutions=subs, deletions=dels, insertions=ins, reference_words=m)


def speaker_wer(counts: Sequence[WerCount]) -> float:
    """Word-pooled WER for one speaker: (sum of errors) / (sum of reference words)."""
    if not counts:
        raise EmptyListError("speaker_wer needs at least one utterance")
    errors = sum(c.errors for c in counts)
    words = sum(c.reference_words for c in counts)
    return errors / words


def unweighted_mean_wer(speaker_wers: Sequence[float]) -> float:
    """Arithmetic mean of per-speaker WERs; every speaker weighted equally."""
    if not speaker_wers:
        raise EmptyListError("no speaker has a scoreable utterance")
    return sum(speaker_wers) / len(speaker_wers)


@dataclass(frozen=True)
class SpeakerReport:
    """Baseline vs adapted WER for one speaker; delta = adapted - baseline."""

    speaker_id: str
    baseline_wer: float
    adapted_wer: float
    delta: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", self.adapted_wer - self.baseline_wer)

    @property
    def gain(self) -> float:
        """Performance gain from adaptation (positive = WER went down)."""
        return self.baseline_wer - self.adapted_wer


class Direction(Enum):
    ADAPTED_BETTER = "adapted_better"
    ADAPTED_WORSE = "adapted_worse"
    TIED = "tied"


@dataclass(frozen=True)
class PairedTestResult:
    statistic: float  # W+: rank sum of pairs where baseline > adapted
    p_value: float
    n_effective: int
    direction: Direction

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p_value outside [0, 1]")


def midranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks of ``values``; tied values share the mean of their ranks."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _exact_signed_rank_p(ranks: Sequence[float], w_plus: float) -> float:
    """Exact two-sided p for W+ conditional on the observed |d| midranks.

    Under the null every sign vector is equally likely, so the distribution
    of W+ is the subset-sum distribution of the ranks. Midranks are
    multiples of 1/2; doubling makes them integers for an exact DP.
    """
    doubled = [round(2 * r) for r in ranks]
    total = sum(doubled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled:
        for s in range(total, r - 1, -1):
            if counts[s - r]:
                counts[s] += counts[s - r]
    denom = 2 ** len(ranks)
    w2 = round(2 * w_plus)
    p_le = sum(counts[: w2 + 1]) / denom
    p_ge = sum(counts[w2:]) / denom
    return min(1.0, 2.0 * min(p_le, p_ge))


def wilcoxon_signed_rank(
    baseline: Sequence[float], adapted: Sequence[float]
) -> PairedTestResult:
    """Two-sided Wilcoxon signed-rank test on paired per-speaker values.

    Zero differences are dropped. For up to 25 effective pairs the p-value
    comes from the exact subset-sum distribution conditional on the observed
    midranks; above that a normal approximation with tie correction is used
    (no continuity correction).

    Raises:
        AllZeroDifferencesError: every pair is identical.
        TooFewPairsError: fewer than 5 nonzero differences.
    """
    if len(baseline) != len(adapted):
        raise TooFewPairsError("paired samples must have equal length")
    diffs = [b - a for b, a in zip(baseline, adapted) if b != a]
    if not diffs:
        raise AllZeroDifferencesError("all paired differences are zero")
    n = len(diffs)
    if n < 5:
        raise TooFewPairsError(f"need >= 5 nonzero differences, got {n}")

    ranks = midranks([abs(d) for d in diffs]).tolist()
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, diffs) if d < 0)

    if n <= 25:
        p = _exact_signed_rank_p(ranks, w_plus)
    else:
        mu = n * (n + 1) / 4
        var = n * (n + 1) * (2 * n + 1) / 24
        # tie correction over groups of equal |d|
        seen: dict[float, int] = {}
        for d in diffs:
            seen[abs(d)] = seen.get(abs(d), 0) + 1
        var -= sum(t**3 - t for t in seen.values()) / 48
        z = (w_plus - mu) / math.sqrt(var)
        p = min(1.0, math.erfc(abs(z) / math.sqrt(2)))

    if w_plus > w_minus:
        direction = Direction.ADAPTED_BETTER
    elif w_plus < w_minus:
        direction = Direction.ADAPTED_WORSE
    else:
        direction = Direction.TIED
    return PairedTestResult(statistic=w_plus, p_value=p, n_effective=n, direction=direction)


# --- delta tables -------------------------------------------------------------


@dataclass(frozen=True)
class DeltaRow:
    """One row of the method-comparison table."""

    setting: str
    method: str
    mean_wer: float
    delta: float | None  # None for the unadapted row
    p_value: float | None
    n_speakers: int


def _speaker_map(reports: Sequence[SpeakerReport]) -> dict[str, SpeakerReport]:
    return {r.speaker_id: r for r in reports}


def build_delta_table(
    runs: Mapping[tuple[str, str] | str, Sequence[SpeakerReport]],
) -> list[DeltaRow]:
    """Build method-comparison rows from per-speaker reports.

    ``runs`` maps a (setting, method) pair -- or a bare method name, which is
    placed under setting "default" -- to that method's speaker reports. Each
    report carries the unadapted baseline alongside the adapted WER, so every
    setting gets a derived "unadapted" row followed by one row per method
    with the mean delta and a Wilcoxon p-value against the baseline.

    Raises:
        SpeakerSetMismatchError: settings cover different speakers, or two
            methods within a setting disagree on the baseline.
    """
    if not runs:
        raise EmptyListError("no runs supplied")

    by_setting: dict[str, dict[str, Sequence[SpeakerReport]]] = {}
    for key, reports in runs.items():
        setting, method = key if isinstance(key, tuple) else ("default", key)
        by_setting.setdefault(setting, {})[method] = reports

    speaker_sets = {
        frozenset(r.speaker_id for r in reports)
        for methods in by_setting.values()
        for reports in methods.values()
    }
    if len(speaker_sets) != 1:
        raise SpeakerSetMismatchError("runs do not cover the same speaker set")

    rows: list[DeltaRow] = []
    for setting, methods in by_setting.items():
        baselines: dict[str, float] | None = None
        for method, reports in methods.items():
            m = {r.speaker_id: r.baseline_wer for r in reports}
            if baselines is None:
                baselines = m
            elif any(abs(m[s] - baselines[s]) > 1e-12 for s in m):
                raise SpeakerSetMismatchError(
                    f"methods within setting {setting!r} disagree on baseline WERs"
                )
        assert baselines is not None
        speakers = sorted(baselines)
        base_mean = unweighted_mean_wer([baselines[s] for s in speakers])
        rows.append(
            DeltaRow(
                setting=setting,
                method="unadapted",
                mean_wer=base_mean,
                delta=None,
                p_value=None,
                n_speakers=len(speakers),
            )
        )
        for method, reports in methods.items():
            rmap = _speaker_map(reports)
            adapted = [rmap[s].adapted_wer for s in speakers]
            base = [baselines[s] for s in speakers]
            try:
                p: float | None = wilcoxon_signed_rank(base, adapted).p_value
            except (TooFewPairsError, AllZeroDifferencesError):
                p = None
            mean = unweighted_mean_wer(adapted)
            rows.append(
                DeltaRow(
                    setting=setting,
                    method=method,
                    mean_wer=mean,
                    delta=mean - base_mean,
                    p_value=p,
                    n_speakers=len(speakers),
                )
            )
    return rows


def format_delta_table(rows: Sequence[DeltaRow]) -> str:
    """Aligned-text rendering; WER and delta shown as percent with one decimal."""
    header = ("setting", "method", "WER", "delta", "p", "speakers")
    body = []
    for r in rows:
        body.append(
            (
                r.setting,
                r.method,
                f"{100 * r.mean_wer:.1f}%",
                "--" if r.delta is None else f"{100 * r.delta:+.1f}%",
                "--" if r.p_value is None else _format_p(r.p_value),
                str(r.n_speakers),
            )
        )
    widths = [max(len(row[i]) for row in [header, *body]) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in body)
    return "\n".join(lines)


def _format_p(p: float) -> str:
    return "<.001" if p < 0.001 else f"{p:.3f}"


def write_delta_table_csv(rows: Sequence[DeltaRow], path: str) -> None:
    """Delta table as CSV (percent, one decimal; p at full precision)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["setting", "method", "mean_wer_pct", "delta_pct", "p_value", "n_speakers"])
        for r in rows:
            w.writerow(
                [
                    r.setting,
                    r.method,
                    f"{100 * r.mean_wer:.1f}",
                    "" if r.delta is None else f"{100 * r.delta:.1f}",
                    "" if r.p_value is None else repr(r.p_value),
                    r.n_speakers,
                ]
            )


def rank_speakers_by_baseline(reports: Sequence[SpeakerReport]) -> list[str]:
    """Speaker ids ordered by descending baseline WER (rank 1 = hardest speaker)."""
    return [
        r.speaker_id
        for r in sorted(reports, key=lambda r: (-r.baseline_wer, r.speaker_id))
    ]


def write_speaker_gains_csv(
    runs: Mapping[str, Sequence[SpeakerReport]],
    ranking: Sequence[str],
    path: str,
) -> None:
    """Per-speaker gain rows (full precision) in baseline-rank order.

    One row per (speaker, setting); suitable for heatmap rendering.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["rank", "speaker_id", "setting", "baseline_wer", "adapted_wer", "gain"])
        for setting, reports in runs.items():
            rmap = _speaker_map(reports)
            if set(rmap) != set(ranking):
                raise SpeakerSetMismatchError(
                    f"setting {setting!r} does not cover the ranked speaker set"
                )
            for rank, speaker in enumerate(ranking, start=1):
                r = rmap[speaker]
                w.writerow(
                    [rank, speaker, setting, repr(r.baseline_wer), repr(r.adapted_wer), repr(r.gain)]
                )
