import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from helpers import write_tone_corpus

from ttabench.analysis import (
    GaussianSummary,
    bhattacharyya_distance,
    correlate_gains,
    gaussian_summary,
    holm_bonferroni,
    project_2d,
    spearman,
    within_speaker_variance,
    speaker_shift_metrics,
    write_correlations_csv,
)
from ttabench.corpus.audio import read_audio
from ttabench.corpus.features import compute_mfcc
from ttabench.corpus.manifest import CorpusManifest, load_manifest, word_duration
from ttabench.errors import AnalysisError, ManifestError

# --- Gaussian summaries and Bhattacharyya distance --------------------------------


def test_gaussian_summary_matches_numpy():
    rng = np.random.default_rng(0)
    frames = rng.normal(size=(50, 4))
    g = gaussian_summary(frames)
    assert g.n_frames == 50
    assert np.allclose(g.mean, frames.mean(axis=0))
    expected = np.cov(frames, rowvar=False) + 1e-6 * np.eye(4)
    assert np.allclose(g.cov, expected)


def test_gaussian_summary_needs_two_frames():
    with pytest.raises(AnalysisError, match="at least 2 frames, got 1"):
        gaussian_summary(np.zeros((1, 3)))
    with pytest.raises(AnalysisError, match="T x D matrix"):
        gaussian_summary(np.zeros(5))


def _gauss_1d(mean: float, var: float) -> GaussianSummary:
    return GaussianSummary(mean=np.array([mean]), cov=np.array([[var]]), n_frames=100)


def test_bhattacharyya_unit_variance_mean_shift():
    # equal unit variances, means two apart: D = (1/8) * 4 / 1 = 0.5
    assert bhattacharyya_distance(_gauss_1d(0.0, 1.0), _gauss_1d(2.0, 1.0)) == pytest.approx(
        0.5, abs=1e-9
    )


def test_bhattacharyya_variance_ratio():
    # equal means, variances 1 and 4: D = 0.5 * ln(2.5 / 2)
    expected = 0.5 * math.log(2.5 / 2.0)
    assert bhattacharyya_distance(_gauss_1d(0.0, 1.0), _gauss_1d(0.0, 4.0)) == pytest.approx(
        expected, abs=1e-9
    )


def test_bhattacharyya_multivariate_identity_and_symmetry():
    rng = np.random.default_rng(1)
    frames_a = rng.normal(size=(80, 3))
    frames_b = rng.normal(loc=0.5, size=(80, 3))
    a, b = gaussian_summary(frames_a), gaussian_summary(frames_b)
    assert bhattacharyya_distance(a, a) == pytest.approx(0.0, abs=1e-9)
    assert bhattacharyya_distance(a, b) == pytest.approx(bhattacharyya_distance(b, a), abs=1e-12)
    assert bhattacharyya_distance(a, b) > 0.0


def test_bhattacharyya_rejects_singular_covariance():
    bad = GaussianSummary(mean=np.zeros(2), cov=np.zeros((2, 2)), n_frames=10)
    with pytest.raises(AnalysisError, match="not positive definite"):
        bhattacharyya_distance(bad, bad)


def test_bhattacharyya_rejects_dimension_mismatch():
    a = _gauss_1d(0.0, 1.0)
    b = GaussianSummary(mean=np.zeros(2), cov=np.eye(2), n_frames=10)
    with pytest.raises(AnalysisError, match="dimension mismatch: 1 vs 2"):
        bhattacharyya_distance(a, b)


@given(
    shift=st.floats(min_value=-3, max_value=3, allow_nan=False),
    scale=st.floats(min_value=0.5, max_value=2.0, allow_nan=False),
)
@settings(max_examples=30)
def test_bhattacharyya_symmetry_property(shift, scale):
    a = _gauss_1d(0.0, 1.0)
    b = _gauss_1d(shift, scale)
    d_ab = bhattacharyya_distance(a, b)
    d_ba = bhattacharyya_distance(b, a)
    assert d_ab == pytest.approx(d_ba, abs=1e-12)
    assert d_ab >= 0.0


# --- within-speaker variance ----------------------------------------------------------


def test_within_speaker_variance_is_covariance_trace():
    rng = np.random.default_rng(2)
    frames = rng.normal(size=(40, 5))
    expected = float(np.trace(np.cov(frames, rowvar=False)))
    assert within_speaker_variance(frames) == pytest.approx(expected)


def test_within_speaker_variance_translation_invariant():
    rng = np.random.default_rng(3)
    frames = rng.normal(size=(30, 4))
    shifted = frames + np.array([10.0, -5.0, 3.0, 100.0])
    assert within_speaker_variance(shifted) == pytest.approx(
        within_speaker_variance(frames), rel=1e-12
    )


# --- 2-D projection ----------------------------------------------------------------------


def test_project_2d_orders_axes_by_variance():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(40, 5)) * np.array([8.0, 2.0, 0.5, 0.1, 0.05])
    points = project_2d(x)
    assert points.shape == (40, 2)
    assert points[:, 0].var() >= points[:, 1].var()


def test_project_2d_collinear_points_flatten():
    t = np.linspace(0, 1, 12)
    x = np.stack([t, 2 * t, -t], axis=1)
    assert np.allclose(project_2d(x)[:, 1], 0.0, atol=1e-9)


def test_project_2d_is_deterministic():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 6))
    assert np.array_equal(project_2d(x), project_2d(x))


def test_project_2d_validation():
    with pytest.raises(AnalysisError, match="at least 3 points, got 2"):
        project_2d(np.zeros((2, 4)))
    with pytest.raises(AnalysisError, match="N x D with D >= 2"):
        project_2d(np.zeros((5, 1)))


# --- per-speaker shift metrics ---------------------------------------------------------


def test_speaker_shift_metrics_rows_and_points(tmp_path):
    manifest = load_manifest(
        write_tone_corpus(tmp_path, {"s1": ["jm", "ps vy"], "s0": ["ad", "ga", "ad ga"]})
    )
    metrics = ["ems_energy", "word_duration_s", "within_variance", "bhattacharyya_to_pool"]

    rows, points = speaker_shift_metrics(manifest, metrics)

    assert list(rows) == ["s0", "s1"]
    assert [pid for pid, _ in points] == ["s0-000", "s0-001", "s0-002", "s1-000", "s1-001"]
    by_id = {u.utterance_id: u for u in manifest.utterances}
    for pid, vec in points:
        expect = compute_mfcc(read_audio(by_id[pid].audio_path)).frames.mean(axis=0)
        assert np.array_equal(vec, expect)
    pooled = gaussian_summary(np.vstack([v for _, v in points]))
    for speaker, utterances in manifest.speakers().items():
        row = rows[speaker]
        x = np.vstack([v for pid, v in points if pid.startswith(speaker)])
        assert row["n_utterances"] == len(utterances)
        assert row["word_duration_s"] == pytest.approx(
            np.mean([word_duration(u) for u in utterances])
        )
        assert np.isfinite(row["ems_energy"]) and row["ems_energy"] >= 0.0
        assert row["within_variance"] == within_speaker_variance(x)
        assert row["bhattacharyya_to_pool"] == bhattacharyya_distance(gaussian_summary(x), pooled)


def test_speaker_shift_metrics_reads_audio_only_when_needed(tmp_path, monkeypatch):
    manifest = load_manifest(write_tone_corpus(tmp_path, {"s0": ["ad", "ga"], "s1": ["jm"]}))

    def no_audio(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr("ttabench.analysis.read_audio", no_audio)
    rows, points = speaker_shift_metrics(manifest, ["word_duration_s"])

    assert points == []
    assert rows["s1"] == {"n_utterances": 1, "word_duration_s": word_duration(manifest.utterances[2])}


def test_speaker_shift_metrics_rejects_empty_manifest():
    with pytest.raises(ManifestError):
        speaker_shift_metrics(CorpusManifest(utterances=()), ["word_duration_s"])


# --- rank correlation -------------------------------------------------------------------


def test_spearman_perfect_monotone():
    res = spearman([1, 2, 3, 4, 5], [10, 20, 30, 40, 50])
    assert res.r == pytest.approx(1.0)
    assert res.p_value == 0.0
    res = spearman([1, 2, 3, 4, 5], [5, 4, 3, 2, 1])
    assert res.r == pytest.approx(-1.0)


def test_spearman_matches_scipy():
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = rng.normal(size=12)
        y = 0.5 * x + rng.normal(size=12)
        ours = spearman(x, y)
        ref_r, ref_p = scipy_stats.spearmanr(x, y)
        assert ours.r == pytest.approx(ref_r, abs=1e-12)
        assert ours.p_value == pytest.approx(ref_p, rel=1e-6)


def test_spearman_handles_ties_like_scipy():
    x = [1.0, 1.0, 2.0, 3.0, 3.0, 4.0]
    y = [2.0, 1.0, 2.0, 5.0, 4.0, 4.0]
    ours = spearman(x, y)
    ref_r, ref_p = scipy_stats.spearmanr(x, y)
    assert ours.r == pytest.approx(ref_r, abs=1e-12)
    assert ours.p_value == pytest.approx(ref_p, rel=1e-6)


def test_spearman_monotone_transform_invariance():
    rng = np.random.default_rng(8)
    x = rng.normal(size=15)
    y = rng.normal(size=15)
    base = spearman(x, y)
    warped = spearman(np.exp(x), y)
    assert warped.r == pytest.approx(base.r, abs=1e-12)
    assert warped.p_value == pytest.approx(base.p_value, abs=1e-12)


def test_spearman_validation():
    with pytest.raises(AnalysisError, match="at least 3 pairs, got 2"):
        spearman([1, 2], [3, 4])
    with pytest.raises(AnalysisError, match="length mismatch: 3 vs 2"):
        spearman([1, 2, 3], [1, 2])
    with pytest.raises(AnalysisError, match="an input is constant; correlation is undefined"):
        spearman([1.0, 1.0, 1.0, 1.0], [1, 2, 3, 4])


# --- multiple-comparison correction ---------------------------------------------------------


def _holm_oracle(p: list[float], alpha: float) -> list[tuple[float, bool]]:
    """Definitional step-down procedure, computed independently."""
    m = len(p)
    order = sorted(range(m), key=lambda i: p[i])
    adjusted = [0.0] * m
    running = 0.0
    for j, idx in enumerate(order):
        running = max(running, (m - j) * p[idx])
        adjusted[idx] = min(1.0, running)
    reject = [False] * m
    for j, idx in enumerate(order):
        if adjusted[idx] < alpha:
            reject[idx] = True
        else:
            break
    return list(zip(adjusted, reject))


def test_holm_bonferroni_matches_definitional_oracle():
    rng = np.random.default_rng(9)
    for _ in range(200):
        m = rng.integers(1, 8)
        p = rng.uniform(0, 1, size=m).round(3).tolist()
        decisions = holm_bonferroni(p, alpha=0.05)
        oracle = _holm_oracle(p, 0.05)
        assert len(decisions) == m
        for d, (adj, rej) in zip(decisions, oracle):
            assert d.adjusted_p == pytest.approx(adj, abs=1e-12)
            assert d.reject == rej


def test_holm_rejections_contain_bonferroni_rejections():
    rng = np.random.default_rng(10)
    for _ in range(100):
        m = int(rng.integers(2, 10))
        p = rng.uniform(0, 0.2, size=m).tolist()
        holm = {i for i, d in enumerate(holm_bonferroni(p, alpha=0.05)) if d.reject}
        bonferroni = {i for i, v in enumerate(p) if v * m < 0.05}
        assert bonferroni <= holm


def test_holm_known_example():
    decisions = holm_bonferroni([0.01, 0.04, 0.03, 0.005], alpha=0.05)
    assert [d.reject for d in decisions] == [True, False, False, True]
    assert decisions[3].adjusted_p == pytest.approx(0.02)
    assert decisions[0].adjusted_p == pytest.approx(0.03)


def test_holm_validation():
    with pytest.raises(AnalysisError, match="p-value out of range: 1.5"):
        holm_bonferroni([0.5, 1.5])
    with pytest.raises(AnalysisError, match="alpha must lie in"):
        holm_bonferroni([0.5], alpha=0.0)
    assert holm_bonferroni([]) == []


# --- gain/metric correlation table -----------------------------------------------------------


def _gains_and_metrics():
    speakers = [f"s{i}" for i in range(8)]
    gains = {s: 0.1 * i for i, s in enumerate(speakers)}
    aligned = {s: 2.0 * i + 1.0 for i, s in enumerate(speakers)}
    noise_metric = {s: v for s, v in zip(speakers, [3.0, 1.0, 4.0, 1.5, 9.0, 2.0, 6.0, 5.0])}
    return gains, {"aligned": aligned, "noisy": noise_metric}


def test_correlate_gains_orders_and_corrects():
    gains, metrics = _gains_and_metrics()
    rows = correlate_gains(gains, metrics, alpha=0.05)
    assert [r.metric for r in rows] == ["aligned", "noisy"]
    aligned = rows[0]
    assert aligned.r == pytest.approx(1.0)
    assert aligned.adjusted_p >= aligned.p_value
    assert aligned.reject


def test_correlate_gains_rejects_speaker_mismatch():
    gains, metrics = _gains_and_metrics()
    del metrics["aligned"]["s0"]
    metrics["aligned"]["s99"] = 1.0
    with pytest.raises(AnalysisError, match="metric 'aligned' covers"):
        correlate_gains(gains, metrics)


def test_write_correlations_csv(tmp_path):
    gains, metrics = _gains_and_metrics()
    rows = correlate_gains(gains, metrics)
    path = tmp_path / "corr.csv"
    write_correlations_csv([("shift-a", row) for row in rows] + [("shift-b", rows[1])], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "setting,feature,r,raw_p,adjusted_p,reject"
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["shift-a", "aligned"], ["shift-a", "noisy"], ["shift-b", "noisy"]
    ]
    assert lines[1].split(",")[2:] == [
        repr(rows[0].r), repr(rows[0].p_value), repr(rows[0].adjusted_p), str(rows[0].reject)
    ]
