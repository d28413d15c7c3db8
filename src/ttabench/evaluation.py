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
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EvaluationError, TooFewPairsError

_NON_WORD = re.compile(r"[^A-Z0-9']+")
_LONE_APOSTROPHE = re.compile(r"(?<![A-Z0-9])'|'(?![A-Z0-9])")


def _words(s: str) -> list[str]:
    """The words of ``normalize_text(s)``, without joining them back into one string."""
    s = _NON_WORD.sub(" ", s.upper())
    if "'" in s:
        s = _LONE_APOSTROPHE.sub("", s)
    return s.split()


def normalize_text(s: str) -> str:
    """Uppercase, strip punctuation except intra-word apostrophes, collapse spaces."""
    return " ".join(_words(s))


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
        EvaluationError: reference is empty after normalization.
    """
    ref = _words(reference)
    hyp = _words(hypothesis)
    if not ref:
        raise EvaluationError("reference transcript empty after normalization")

    m, n = len(ref), len(hyp)
    # d[i][j] = edit distance between ref[:i] and hyp[:j], built one row at a
    # time; each cell is the least of diagonal (+1 unless the words match),
    # up + 1 and left + 1.
    prev = list(range(n + 1))
    d = [prev]
    for ref_i in ref:
        left = prev[0] + 1
        row = [left]
        for diag, up, hyp_j in zip(prev, prev[1:], hyp):
            if ref_i != hyp_j:
                diag += 1
            up += 1
            left += 1
            if up < diag:
                diag = up
            if diag < left:
                left = diag
            row.append(left)
        d.append(row)
        prev = row

    subs = dels = ins = 0
    i, j = m, n
    while i and j:
        cur = d[i][j]
        diag = d[i - 1][j - 1]
        if cur == diag and ref[i - 1] == hyp[j - 1]:
            i, j = i - 1, j - 1
        elif cur == diag + 1:
            subs += 1
            i, j = i - 1, j - 1
        elif cur == d[i][j - 1] + 1:
            ins += 1
            j -= 1
        else:
            dels += 1
            i -= 1
    # Off the grid's inner part only one move is left: ref words still
    # unmatched are deletions, hyp words are insertions.
    return WerCount(
        substitutions=subs, deletions=dels + i, insertions=ins + j, reference_words=m
    )


def speaker_wer(counts: Sequence[WerCount]) -> float:
    """Word-pooled WER for one speaker: (sum of errors) / (sum of reference words)."""
    if not counts:
        raise EvaluationError("speaker_wer needs at least one utterance")
    errors = sum(c.errors for c in counts)
    words = sum(c.reference_words for c in counts)
    return errors / words


def unweighted_mean_wer(speaker_wers: Sequence[float]) -> float:
    """Arithmetic mean of per-speaker WERs; every speaker weighted equally."""
    if not speaker_wers:
        raise EvaluationError("no speaker has a scoreable utterance")
    return sum(speaker_wers) / len(speaker_wers)


@dataclass(frozen=True)
class PairedTestResult:
    statistic: float  # W+: rank sum of pairs where baseline > adapted
    p_value: float

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
        EvaluationError: the samples differ in length.
        TooFewPairsError: fewer than 5 nonzero differences.
    """
    if len(baseline) != len(adapted):
        raise EvaluationError("paired samples must have equal length")
    diffs = [b - a for b, a in zip(baseline, adapted) if b != a]
    n = len(diffs)
    if n < 5:
        raise TooFewPairsError(f"need >= 5 nonzero differences, got {n}")

    ranks = midranks([abs(d) for d in diffs]).tolist()
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)

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
    return PairedTestResult(statistic=w_plus, p_value=p)


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


def build_delta_table(
    setting: str,
    baseline: Mapping[str, float],
    adapted: Mapping[str, Mapping[str, float]],
) -> list[DeltaRow]:
    """Method-comparison rows for one setting from per-speaker WERs.

    ``baseline`` maps speaker to unadapted WER; ``adapted`` maps each method
    to its own speaker -> WER map. The table opens with an "unadapted" row,
    followed by one row per method (in ``adapted`` order) with the mean
    delta and a Wilcoxon p-value against the baseline.

    Raises:
        EvaluationError: no adapted method, or a method covers other speakers
            than the baseline.
    """
    if not adapted:
        raise EvaluationError("no adapted runs supplied")
    for method, wers in adapted.items():
        if set(wers) != set(baseline):
            raise EvaluationError(
                f"run {method!r} covers different speakers than the baseline"
            )
    speakers = sorted(baseline)
    base = [baseline[s] for s in speakers]
    base_mean = unweighted_mean_wer(base)
    rows = [DeltaRow(setting, "unadapted", base_mean, None, None, len(speakers))]
    for method, wers in adapted.items():
        values = [wers[s] for s in speakers]
        try:
            p: float | None = wilcoxon_signed_rank(base, values).p_value
        except TooFewPairsError:
            p = None
        mean = unweighted_mean_wer(values)
        rows.append(DeltaRow(setting, method, mean, mean - base_mean, p, len(speakers)))
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


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """``header``, then each of ``rows``, as a UTF-8 CSV file at ``path`` (the csv
    module's default dialect). Every CSV ttabench writes goes through here."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def write_delta_table_csv(rows: Sequence[DeltaRow], path: str) -> None:
    """Delta table as CSV (percent, one decimal; p at full precision)."""
    header = ["setting", "method", "mean_wer_pct", "delta_pct", "p_value", "n_speakers"]
    cells = (
        [
            r.setting,
            r.method,
            f"{100 * r.mean_wer:.1f}",
            "" if r.delta is None else f"{100 * r.delta:.1f}",
            "" if r.p_value is None else repr(r.p_value),
            r.n_speakers,
        ]
        for r in rows
    )
    write_csv(path, header, cells)


def write_speaker_gains_csv(
    baseline: Mapping[str, float],
    adapted: Mapping[str, Mapping[str, float]],
    path: str,
) -> None:
    """Per-speaker gain rows (full precision); gain = baseline - adapted WER.

    Speakers are ranked by descending baseline WER (rank 1 = hardest
    speaker), ties by id. One row per (speaker, method), methods in
    ``adapted`` order; the ``setting`` column holds the method name.
    Suitable for heatmap rendering.
    """
    ranking = sorted(baseline, key=lambda s: (-baseline[s], s))
    header = ["rank", "speaker_id", "setting", "baseline_wer", "adapted_wer", "gain"]
    rows = (
        [rank, s, method, repr(baseline[s]), repr(wers[s]), repr(baseline[s] - wers[s])]
        for method, wers in adapted.items()
        for rank, s in enumerate(ranking, start=1)
    )
    write_csv(path, header, rows)
