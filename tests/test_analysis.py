import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from ttabench.analysis import (
    GaussianSummary,
    bhattacharyya_distance,
    correlate_gains,
    gaussian_summary,
    holm_bonferroni,
    project_2d,
    spearman,
    within_speaker_variance,
    write_correlations_csv,
    write_projection_input,
)
from ttabench.errors import (
    DimensionMismatchError,
    InvalidPError,
    LengthMismatchError,
    SingularCovarianceError,
    SpeakerSetMismatchError,
    TooFewFramesError,
    TooFewPointsError,
    ZeroVarianceError,
)

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
    with pytest.raises(TooFewFramesError):
        gaussian_summary(np.zeros((1, 3)))
    with pytest.raises(DimensionMismatchError):
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
    with pytest.raises(SingularCovarianceError):
        bhattacharyya_distance(bad, bad)


def test_bhattacharyya_rejects_dimension_mismatch():
    a = _gauss_1d(0.0, 1.0)
    b = GaussianSummary(mean=np.zeros(2), cov=np.eye(2), n_frames=10)
    with pytest.raises(DimensionMismatchError):
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
    proj = project_2d(x)
    assert proj.points.shape == (40, 2)
    assert proj.points[:, 0].var() >= proj.points[:, 1].var()
    ratio = proj.explained_variance_ratio
    assert ratio is not None and ratio[0] >= ratio[1]


def test_project_2d_collinear_points_flatten():
    t = np.linspace(0, 1, 12)
    x = np.stack([t, 2 * t, -t], axis=1)
    proj = project_2d(x)
    assert np.allclose(proj.points[:, 1], 0.0, atol=1e-9)


def test_project_2d_is_deterministic():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 6))
    a, b = project_2d(x), project_2d(x)
    assert np.array_equal(a.points, b.points)


def test_project_2d_validation():
    with pytest.raises(TooFewPointsError):
        project_2d(np.zeros((2, 4)))
    with pytest.raises(DimensionMismatchError):
        project_2d(np.zeros((5, 1)))


def test_projection_exchange_round_trip(tmp_path):
    ids = ["s1", "s2", "s3"]
    x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.5]])
    out_path = tmp_path / "points.csv"
    write_projection_input(ids, x, out_path)
    lines = out_path.read_text().splitlines()
    assert lines[0] == "point_id,d0,d1,d2"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ids
    assert np.array_equal(np.array([[float(v) for v in r[1:]] for r in rows]), x)


def test_write_projection_input_validates(tmp_path):
    with pytest.raises(LengthMismatchError):
        write_projection_input(["a"], np.zeros((2, 3)), tmp_path / "x.csv")


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
    with pytest.raises(TooFewPointsError):
        spearman([1, 2], [3, 4])
    with pytest.raises(LengthMismatchError):
        spearman([1, 2, 3], [1, 2])
    with pytest.raises(ZeroVarianceError):
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
        assert [d.index for d in decisions] == list(range(m))
        for d, (adj, rej) in zip(decisions, oracle):
            assert d.adjusted_p == pytest.approx(adj, abs=1e-12)
            assert d.reject == rej


def test_holm_rejections_contain_bonferroni_rejections():
    rng = np.random.default_rng(10)
    for _ in range(100):
        m = int(rng.integers(2, 10))
        p = rng.uniform(0, 0.2, size=m).tolist()
        holm = {d.index for d in holm_bonferroni(p, alpha=0.05) if d.reject}
        bonferroni = {i for i, v in enumerate(p) if v * m < 0.05}
        assert bonferroni <= holm


def test_holm_known_example():
    decisions = holm_bonferroni([0.01, 0.04, 0.03, 0.005], alpha=0.05)
    assert [d.reject for d in decisions] == [True, False, False, True]
    assert decisions[3].adjusted_p == pytest.approx(0.02)
    assert decisions[0].adjusted_p == pytest.approx(0.03)


def test_holm_validation():
    with pytest.raises(InvalidPError):
        holm_bonferroni([0.5, 1.5])
    with pytest.raises(InvalidPError):
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
    assert rows[1].n == 8


def test_correlate_gains_rejects_speaker_mismatch():
    gains, metrics = _gains_and_metrics()
    del metrics["aligned"]["s0"]
    metrics["aligned"]["s99"] = 1.0
    with pytest.raises(SpeakerSetMismatchError):
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
