"""Domain-shift analyses: feature-space geometry and rank correlations."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from scipy.special import betainc

from .errors import (
    DimensionMismatchError,
    InvalidPError,
    LengthMismatchError,
    SingularCovarianceError,
    SpeakerSetMismatchError,
    TooFewFramesError,
    TooFewPointsError,
    ZeroVarianceError,
)
from .evaluation import midranks

_RIDGE = 1e-6


@dataclass(frozen=True)
class GaussianSummary:
    """Mean and covariance of a set of feature frames."""

    mean: np.ndarray
    cov: np.ndarray
    n_frames: int

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def gaussian_summary(frames: np.ndarray) -> GaussianSummary:
    """Fit a Gaussian to T x D frames; the covariance is unbiased plus a
    1e-6 ridge on the diagonal so downstream inverses stay well posed."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise DimensionMismatchError("frames must be a T x D matrix")
    t, d = frames.shape
    if t < 2:
        raise TooFewFramesError(f"need at least 2 frames, got {t}")
    mean = frames.mean(axis=0)
    centered = frames - mean
    cov = centered.T @ centered / (t - 1) + _RIDGE * np.eye(d)
    return GaussianSummary(mean=mean, cov=cov, n_frames=t)


def bhattacharyya_distance(a: GaussianSummary, b: GaussianSummary) -> float:
    """Closed-form Bhattacharyya distance between two Gaussians."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    pooled = (a.cov + b.cov) / 2.0
    sign_p, logdet_p = np.linalg.slogdet(pooled)
    sign_a, logdet_a = np.linalg.slogdet(a.cov)
    sign_b, logdet_b = np.linalg.slogdet(b.cov)
    if min(sign_p, sign_a, sign_b) <= 0:
        raise SingularCovarianceError("covariance matrix is not positive definite")
    diff = a.mean - b.mean
    try:
        maha = float(diff @ np.linalg.solve(pooled, diff))
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(str(exc)) from exc
    return float(0.125 * maha + 0.5 * (logdet_p - 0.5 * (logdet_a + logdet_b)))


def within_speaker_variance(frames: np.ndarray) -> float:
    """Total variance (trace of the unbiased sample covariance) of T x D frames."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise DimensionMismatchError("frames must be a T x D matrix")
    if frames.shape[0] < 2:
        raise TooFewFramesError(f"need at least 2 frames, got {frames.shape[0]}")
    return float(frames.var(axis=0, ddof=1).sum())


@dataclass(frozen=True)
class Projection2d:
    points: np.ndarray
    explained_variance_ratio: tuple[float, float]


def project_2d(x: np.ndarray) -> Projection2d:
    """Project N x D points to their top two principal components.

    Component signs follow a fixed convention (largest-magnitude loading is
    positive) so repeated runs produce identical output.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise DimensionMismatchError("points must be N x D with D >= 2")
    if x.shape[0] < 3:
        raise TooFewPointsError(f"need at least 3 points, got {x.shape[0]}")
    centered = x - x.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:2]
    for i in range(2):
        pivot = np.argmax(np.abs(components[i]))
        if components[i, pivot] < 0:
            components[i] = -components[i]
    points = centered @ components.T
    total = float((s**2).sum())
    ratio = (
        (float(s[0] ** 2 / total), float(s[1] ** 2 / total)) if total > 0 else (0.0, 0.0)
    )
    return Projection2d(points=points, explained_variance_ratio=ratio)


def write_projection_input(ids: Sequence[str], x: np.ndarray, path: Path) -> None:
    """Write high-dimensional points to CSV for an external embedding tool.

    Header ``point_id,d0..d{D-1}``, then one row per point in ``ids`` order.
    """
    x = np.asarray(x, dtype=np.float64)
    if len(ids) != x.shape[0]:
        raise LengthMismatchError(f"{len(ids)} ids for {x.shape[0]} rows")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point_id"] + [f"d{j}" for j in range(x.shape[1])])
        for row_id, row in zip(ids, x):
            writer.writerow([row_id] + [repr(float(v)) for v in row])


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    p_value: float
    n: int


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc**2).sum() * (yc**2).sum())
    if denom == 0:
        raise ZeroVarianceError("an input is constant; correlation is undefined")
    return float((xc * yc).sum() / denom)


def _t_sf_two_sided(t: float, df: int) -> float:
    # P(|T| >= t) for T ~ Student-t via the regularized incomplete beta function
    if not np.isfinite(t):
        return 0.0
    return float(betainc(df / 2.0, 0.5, df / (df + t * t)))


def spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Spearman rank correlation with a two-sided p-value from the Student-t
    approximation on n-2 degrees of freedom."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise DimensionMismatchError("inputs must be 1-D")
    if len(x) != len(y):
        raise LengthMismatchError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise TooFewPointsError(f"need at least 3 pairs, got {n}")
    r = _pearson(midranks(x), midranks(y))
    if abs(r) >= 1.0:
        p = 0.0
    else:
        t = r * np.sqrt((n - 2) / (1.0 - r * r))
        p = _t_sf_two_sided(t, n - 2)
    return CorrelationResult(r=r, p_value=p, n=n)


@dataclass(frozen=True)
class HbDecision:
    index: int
    p_value: float
    adjusted_p: float
    reject: bool


def holm_bonferroni(p_values: Sequence[float], alpha: float = 0.05) -> list[HbDecision]:
    """Holm's step-down multiple-comparison procedure.

    Adjusted p-values are the running maximum of (m - j + 1) * p_(j), capped
    at 1; a hypothesis is rejected when its adjusted p is strictly below
    alpha. Decisions are returned in the input order.
    """
    if not 0 < alpha < 1:
        raise InvalidPError(f"alpha must lie in (0, 1), got {alpha}")
    p = list(p_values)
    if not p:
        return []
    for v in p:
        if not 0.0 <= v <= 1.0:
            raise InvalidPError(f"p-value out of range: {v}")
    m = len(p)
    order = sorted(range(m), key=lambda i: p[i])
    decisions: list[HbDecision | None] = [None] * m
    running = 0.0
    rejecting = True
    for j, idx in enumerate(order):
        adjusted = min(1.0, max(running, (m - j) * p[idx]))
        running = adjusted
        reject = rejecting and adjusted < alpha
        if not reject:
            rejecting = False
        decisions[idx] = HbDecision(index=idx, p_value=p[idx], adjusted_p=adjusted, reject=reject)
    return [d for d in decisions if d is not None]


@dataclass(frozen=True)
class GainCorrelation:
    metric: str
    r: float
    p_value: float
    adjusted_p: float
    reject: bool
    n: int


def correlate_gains(
    gains: Mapping[str, float],
    metrics: Mapping[str, Mapping[str, float]],
    alpha: float = 0.05,
) -> list[GainCorrelation]:
    """Rank-correlate per-speaker gains with each shift metric.

    Every metric must cover exactly the speakers present in ``gains``; the
    family of correlation tests is corrected with ``holm_bonferroni``.
    """
    speakers = sorted(gains)
    gain_vec = [gains[s] for s in speakers]
    results: list[tuple[str, CorrelationResult]] = []
    for name in sorted(metrics):
        table = metrics[name]
        if set(table) != set(speakers):
            raise SpeakerSetMismatchError(
                f"metric {name!r} covers {sorted(table)} but gains cover {speakers}"
            )
        results.append((name, spearman(gain_vec, [table[s] for s in speakers])))
    decisions = holm_bonferroni([r.p_value for _, r in results], alpha=alpha)
    return [
        GainCorrelation(
            metric=name,
            r=res.r,
            p_value=res.p_value,
            adjusted_p=dec.adjusted_p,
            reject=dec.reject,
            n=res.n,
        )
        for (name, res), dec in zip(results, decisions)
    ]


def write_correlations_csv(rows: Sequence[tuple[str, GainCorrelation]], path: Path) -> None:
    """One CSV row per (label, correlation) pair, in the given order.

    The label fills the first (``setting``) column; ``report`` passes the
    adapted method's name there.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["setting", "feature", "r", "raw_p", "adjusted_p", "reject"])
        for label, row in rows:
            writer.writerow(
                [label, row.metric, repr(row.r), repr(row.p_value), repr(row.adjusted_p), row.reject]
            )
