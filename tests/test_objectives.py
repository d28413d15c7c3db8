import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ttabench import objectives
from ttabench.model.types import LogitMatrix
from ttabench.objectives import (
    ProbMatrix,
    TtaLossValue,
    entropy_loss,
    make_loss_functional,
    mcc_loss,
    negative_sampling_loss,
    renyi_entropy_loss,
    sgem_loss_and_grad,
    softmax_temperature,
    suta_loss_and_grad,
)


def uniform_probs(n_frames: int, n_classes: int) -> ProbMatrix:
    v = np.full((n_frames, n_classes), 1.0 / n_classes)
    return ProbMatrix(values=v, temperature_used=1.0)


def onehot_probs(n_frames: int, n_classes: int, hot: int = 0) -> ProbMatrix:
    v = np.zeros((n_frames, n_classes))
    v[:, hot] = 1.0
    return ProbMatrix(values=v, temperature_used=1.0)


def random_logits(seed: int, n_frames: int = 4, n_classes: int = 6) -> LogitMatrix:
    rng = np.random.default_rng(seed)
    return LogitMatrix(values=rng.normal(0.0, 2.0, (n_frames, n_classes)), blank_index=0)


# --- containers -----------------------------------------------------------------


def test_prob_matrix_rejects_non_stochastic_rows():
    with pytest.raises(ValueError):
        ProbMatrix(values=np.array([[0.5, 0.6]]), temperature_used=1.0)
    with pytest.raises(ValueError):
        ProbMatrix(values=np.array([[1.2, -0.2]]), temperature_used=1.0)


def test_loss_value_rejects_inconsistent_total():
    with pytest.raises(ValueError):
        TtaLossValue(total=1.0, components={"em": 0.3}, weights={"em": 1.0})


def test_softmax_rows_sum_to_one():
    z = random_logits(0)
    p = softmax_temperature(z, 2.5)
    assert np.allclose(p.values.sum(axis=1), 1.0, atol=1e-12)
    assert p.temperature_used == 2.5


def test_higher_temperature_flattens_distribution():
    z = random_logits(1)
    sharp = entropy_loss(softmax_temperature(z, 1.0))
    smooth = entropy_loss(softmax_temperature(z, 5.0))
    assert smooth > sharp


def test_softmax_stores_probabilities_class_major():
    p = softmax_temperature(random_logits(0, n_frames=9, n_classes=29), 2.5)
    assert p.values.shape == (9, 29)
    assert p.values.T.flags.c_contiguous


def test_softmax_requires_positive_temperature():
    with pytest.raises(ValueError):
        softmax_temperature(random_logits(2), 0.0)


# --- closed-form loss values ---------------------------------------------------


def test_entropy_of_uniform_is_log_c():
    assert entropy_loss(uniform_probs(7, 32)) == pytest.approx(math.log(32), abs=1e-12)


def test_entropy_of_onehot_is_zero():
    assert entropy_loss(onehot_probs(5, 10)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("c", [2, 5, 29])
def test_mcc_of_uniform_is_c_minus_one_over_c(c):
    assert mcc_loss(uniform_probs(6, c)) == pytest.approx((c - 1) / c, abs=1e-9)


def test_mcc_of_single_class_onehot_is_zero():
    assert mcc_loss(onehot_probs(6, 10, hot=3)) == pytest.approx(0.0, abs=1e-9)


def test_renyi_approaches_shannon_near_one():
    z = random_logits(3, n_frames=5, n_classes=8)
    p = softmax_temperature(z, 2.5)
    shannon = entropy_loss(p)
    assert renyi_entropy_loss(p, 1.0 + 1e-6) == pytest.approx(shannon, abs=1e-4)
    assert renyi_entropy_loss(p, 1.0 - 1e-6) == pytest.approx(shannon, abs=1e-4)


def test_renyi_order_two_closed_form():
    p = softmax_temperature(random_logits(4), 2.0)
    expected = -np.log((p.values**2).sum(axis=1)).mean()
    assert renyi_entropy_loss(p, 2.0) == pytest.approx(expected, abs=1e-12)


def test_renyi_rejects_bad_rho():
    p = uniform_probs(2, 4)
    with pytest.raises(ValueError):
        renyi_entropy_loss(p, 1.0)
    with pytest.raises(ValueError):
        renyi_entropy_loss(p, 0.0)


def test_negative_sampling_zero_when_mass_in_top_k():
    assert negative_sampling_loss(onehot_probs(4, 10), k=5) == pytest.approx(0.0, abs=1e-9)


def test_negative_sampling_positive_for_uniform():
    # uniform over 10 classes keeps half the mass in the top 5
    expected = -math.log(0.5 + 1e-12)
    assert negative_sampling_loss(uniform_probs(3, 10), k=5) == pytest.approx(expected, abs=1e-9)


def test_negative_sampling_rejects_bad_k():
    p = uniform_probs(2, 4)
    with pytest.raises(ValueError):
        negative_sampling_loss(p, k=0)
    with pytest.raises(ValueError):
        negative_sampling_loss(p, k=4)


# --- composite totals -----------------------------------------------------------


def test_suta_total_is_exact_weighted_sum():
    value, _ = suta_loss_and_grad(random_logits(5), alpha=0.3, temperature=2.5, need_grad=False)
    assert value.total == 0.3 * value.components["em"] + 0.7 * value.components["mcc"]
    assert value.weights == {"em": 0.3, "mcc": 0.7}


def test_sgem_total_is_exact_weighted_sum():
    value, _ = sgem_loss_and_grad(
        random_logits(6), lam=0.3, rho=0.5, temperature=2.5, neg_k=3, need_grad=False
    )
    assert value.total == value.components["gem"] + 0.3 * value.components["ns"]
    assert value.weights == {"gem": 1.0, "ns": 0.3}


def test_suta_alpha_bounds():
    with pytest.raises(ValueError):
        suta_loss_and_grad(random_logits(7), alpha=1.5)


def test_sgem_lambda_bounds():
    with pytest.raises(ValueError):
        sgem_loss_and_grad(random_logits(8), lam=-0.1)


# --- gradients -------------------------------------------------------------------


def _fd_grad(fn, values: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(values)
    for idx in np.ndindex(values.shape):
        zp = values.copy()
        zp[idx] += eps
        zm = values.copy()
        zm[idx] -= eps
        g[idx] = (fn(zp) - fn(zm)) / (2 * eps)
    return g


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_suta_gradient_matches_finite_differences(seed):
    z = random_logits(seed, n_frames=4, n_classes=6)
    _, dz = suta_loss_and_grad(z, alpha=0.3, temperature=2.5)

    def fn(v):
        z = LogitMatrix(values=v, blank_index=0)
        return suta_loss_and_grad(z, alpha=0.3, temperature=2.5, need_grad=False)[0].total

    assert _rel_err(dz, _fd_grad(fn, z.values)) < 1e-7


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sgem_gradient_matches_finite_differences(seed):
    z = random_logits(seed + 10, n_frames=4, n_classes=6)
    _, dz = sgem_loss_and_grad(z, lam=0.3, rho=0.5, temperature=2.5, neg_k=3)

    def fn(v):
        z = LogitMatrix(values=v, blank_index=0)
        return sgem_loss_and_grad(
            z, lam=0.3, rho=0.5, temperature=2.5, neg_k=3, need_grad=False
        )[0].total

    assert _rel_err(dz, _fd_grad(fn, z.values)) < 1e-7


def test_softmax_chain_rule_matches_finite_differences():
    z = random_logits(20, n_frames=3, n_classes=5)
    temperature = 2.5
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 5))

    # loss = sum(w * p) exercises the softmax Jacobian alone
    p = softmax_temperature(z, temperature)
    dz = objectives._softmax_chain(p.values.T, np.array(w.T, order="C"), temperature).T

    def fn(v):
        q = softmax_temperature(LogitMatrix(values=v, blank_index=0), temperature)
        return float((w * q.values).sum())

    assert _rel_err(dz, _fd_grad(fn, z.values)) < 1e-7


# --- invariances ------------------------------------------------------------------


logit_matrices = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 5), st.integers(2, 6)),
    elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
)


@given(values=logit_matrices, seed=st.integers(0, 100))
@settings(max_examples=40)
def test_losses_invariant_under_class_permutation(values, seed):
    z = LogitMatrix(values=values, blank_index=0)
    perm = np.random.default_rng(seed).permutation(values.shape[1])
    zp = LogitMatrix(values=values[:, perm], blank_index=0)
    p, pp = softmax_temperature(z, 2.5), softmax_temperature(zp, 2.5)
    assert entropy_loss(pp) == pytest.approx(entropy_loss(p), abs=1e-9)
    assert mcc_loss(pp) == pytest.approx(mcc_loss(p), abs=1e-9)
    assert renyi_entropy_loss(pp, 0.5) == pytest.approx(renyi_entropy_loss(p, 0.5), abs=1e-9)


@given(values=logit_matrices)
@settings(max_examples=40)
def test_losses_invariant_under_frame_duplication(values):
    z = LogitMatrix(values=values, blank_index=0)
    zd = LogitMatrix(values=np.vstack([values, values]), blank_index=0)
    p, pd = softmax_temperature(z, 2.5), softmax_temperature(zd, 2.5)
    assert entropy_loss(pd) == pytest.approx(entropy_loss(p), abs=1e-9)
    assert mcc_loss(pd) == pytest.approx(mcc_loss(p), abs=1e-9)
    assert renyi_entropy_loss(pd, 0.5) == pytest.approx(renyi_entropy_loss(p, 0.5), abs=1e-9)
    k = min(2, p.n_classes - 1)
    assert negative_sampling_loss(pd, k) == pytest.approx(negative_sampling_loss(p, k), abs=1e-9)


# --- frame masking ----------------------------------------------------------------


def _blank_heavy_logits() -> LogitMatrix:
    v = np.zeros((4, 6))
    v[0, 0] = 30.0  # blank dominates frame 0
    v[2, 0] = 30.0  # and frame 2
    v[1, 1] = 3.0
    v[3, 4] = 2.0
    return LogitMatrix(values=v, blank_index=0)


def test_blank_frame_mask_flags_dominant_blank_frames():
    # frames 0 and 2 are blank-dominated, so they get no gradient; 1 and 3 do
    z = _blank_heavy_logits()
    for loss_and_grad in (suta_loss_and_grad, sgem_loss_and_grad):
        _, dz = loss_and_grad(z, temperature=1.0, exclude_blank_frames=True)
        assert np.any(dz != 0.0, axis=1).tolist() == [False, True, False, True]


def test_masked_loss_equals_loss_on_kept_rows():
    z = _blank_heavy_logits()
    masked, dz = suta_loss_and_grad(z, alpha=0.3, temperature=1.0, exclude_blank_frames=True)
    sub = LogitMatrix(values=z.values[[1, 3]], blank_index=0)
    direct, _ = suta_loss_and_grad(sub, alpha=0.3, temperature=1.0, need_grad=False)
    assert masked.total == pytest.approx(direct.total, abs=1e-12)
    assert np.all(dz[[0, 2]] == 0.0)


def test_sgem_masked_loss_equals_loss_on_kept_rows():
    z = _blank_heavy_logits()
    masked, dz = sgem_loss_and_grad(z, temperature=1.0, neg_k=3, exclude_blank_frames=True)
    sub = LogitMatrix(values=z.values[[1, 3]], blank_index=0)
    direct, direct_dz = sgem_loss_and_grad(sub, temperature=1.0, neg_k=3)
    assert masked.total == pytest.approx(direct.total, abs=1e-12)
    assert np.all(dz[[0, 2]] == 0.0)
    assert np.allclose(dz[[1, 3]], direct_dz, rtol=0.0, atol=1e-15)


def test_all_masked_frames_falls_back_to_full_matrix():
    v = random_logits(30).values
    v[:, 0] = 30.0  # blank dominates every frame
    z = LogitMatrix(values=v, blank_index=0)
    masked, _ = suta_loss_and_grad(z, exclude_blank_frames=True)
    full, _ = suta_loss_and_grad(z)
    assert masked.total == pytest.approx(full.total, abs=1e-12)


@pytest.mark.parametrize("dominance", [None, 0.9, 0.0], ids=["all", "masked", "all-masked"])
@pytest.mark.parametrize("loss_and_grad", [suta_loss_and_grad, sgem_loss_and_grad])
def test_blocks_of_the_frame_budget_match_one_pass(monkeypatch, loss_and_grad, dominance):
    from ttabench.model import types

    v = random_logits(50, n_frames=300, n_classes=29).values
    v[::3, 0] += 20.0  # blank dominates every third frame
    z = LogitMatrix(values=v, blank_index=0)
    exclude = dominance is not None
    if exclude:
        monkeypatch.setattr(objectives, "_BLANK_DOMINANCE", dominance)
    value, dz = loss_and_grad(z, exclude_blank_frames=exclude)
    monkeypatch.setattr(types, "FRAME_BUDGET", 64)  # five blocks, the last of 44 frames
    for need_grad in (False, True):
        block_value, block_dz = loss_and_grad(z, need_grad=need_grad, exclude_blank_frames=exclude)
        assert block_value.total == pytest.approx(value.total, rel=1e-12, abs=0.0)
        for name, component in value.components.items():
            assert block_value.components[name] == pytest.approx(component, rel=1e-12, abs=0.0)
    assert np.array_equal(block_dz == 0.0, dz == 0.0)
    assert np.max(np.abs(block_dz - dz)) <= 1e-12 * np.max(np.abs(dz))


@pytest.mark.parametrize("dominance", [None, 0.9], ids=["all", "masked"])
@pytest.mark.parametrize("frame_budget", [None, 64], ids=["one-block", "budget-64"])
def test_gradients_stay_caller_owned(monkeypatch, frame_budget, dominance):
    from ttabench.model import types

    if frame_budget is not None:  # five blocks, the last of 44 frames
        monkeypatch.setattr(types, "FRAME_BUDGET", frame_budget)
    v = random_logits(50, n_frames=300, n_classes=29).values
    v[::3, 0] += 20.0  # blank dominates every third frame
    z = LogitMatrix(values=v, blank_index=0)
    exclude = dominance is not None
    functional = make_loss_functional("suta", exclude_blank_frames=exclude)
    calls = {
        "suta": lambda **kw: suta_loss_and_grad(z, exclude_blank_frames=exclude, **kw),
        "sgem": lambda **kw: sgem_loss_and_grad(z, exclude_blank_frames=exclude, **kw),
        "functional": lambda **kw: functional(z, **kw),
    }
    for name, call in calls.items():
        _, first = call()
        kept = first.copy()
        _, second = call()
        scratch = objectives._workspace()._buffers.values()
        assert scratch, name
        assert not np.shares_memory(first, second), name
        for grad in (first, second):
            assert not any(np.shares_memory(grad, buf) for buf in scratch), name
        assert np.array_equal(first, kept), name
        # a lent array takes the same gradient, zero on frames left out
        out = np.full(v.shape, np.nan)
        _, lent = call(out=out)
        assert np.shares_memory(lent, out), name
        assert np.array_equal(out, first), name


# --- functional factory -----------------------------------------------------------


def test_make_loss_functional_matches_direct_calls():
    z = random_logits(40)
    fn = make_loss_functional("suta", alpha=0.4, temperature=2.0)
    value, dz = fn(z)
    direct, direct_dz = suta_loss_and_grad(z, alpha=0.4, temperature=2.0)
    assert value.total == direct.total
    assert np.array_equal(dz, direct_dz)

    fn = make_loss_functional("sgem", lam=0.2, rho=0.5, temperature=2.0, neg_k=4)
    value, dz = fn(z)
    direct, direct_dz = sgem_loss_and_grad(z, lam=0.2, rho=0.5, temperature=2.0, neg_k=4)
    assert value.total == direct.total
    assert np.array_equal(dz, direct_dz)


@pytest.mark.parametrize("method", ["suta", "sgem"])
def test_functional_excluding_blank_frames_equals_blank_frame_mask(method):
    z = _blank_heavy_logits()
    fn = make_loss_functional(method, temperature=1.0, neg_k=3, exclude_blank_frames=True)
    value, dz = fn(z)
    if method == "suta":
        direct, direct_dz = suta_loss_and_grad(z, temperature=1.0, exclude_blank_frames=True)
    else:
        direct, direct_dz = sgem_loss_and_grad(
            z, temperature=1.0, neg_k=3, exclude_blank_frames=True
        )
    assert value == direct
    assert np.array_equal(dz, direct_dz)
    no_grad_value, no_grad = fn(z, need_grad=False)
    assert no_grad_value == direct
    assert no_grad is None


def test_make_loss_functional_rejects_unknown_method():
    with pytest.raises(ValueError):
        make_loss_functional("none")


# --- agreement with the row-major formulas ------------------------------------------
# The objectives compute on class-major probabilities; these are the same
# losses and gradients written row-major, as plainly as possible.


def _reference_softmax(v: np.ndarray, temperature: float) -> np.ndarray:
    scaled = v / temperature
    scaled = scaled - scaled.max(axis=1, keepdims=True)
    e = np.exp(scaled)
    return e / e.sum(axis=1, keepdims=True)


def _reference_topk_mask(v: np.ndarray, k: int) -> np.ndarray:
    idx = np.argpartition(-v, k - 1, axis=1)[:, :k]
    mask = np.zeros_like(v, dtype=bool)
    np.put_along_axis(mask, idx, True, axis=1)
    return mask


def _reference_chain(v: np.ndarray, grad_p: np.ndarray, temperature: float) -> np.ndarray:
    inner = (v * grad_p).sum(axis=1, keepdims=True)
    return v * (grad_p - inner) / temperature


def _reference_suta(v, alpha, temperature):
    n, c = v.shape
    em = float(-(v * np.log(np.where(v > 0, v, 1.0))).sum(axis=1).mean())
    mass = v.sum(axis=0)
    k_diag = (v * v).sum(axis=0)
    denom = mass + 1e-12
    mcc = float(((mass - k_diag) / denom).mean())
    entropy_grad = -(np.log(v) + 1.0) / n
    mcc_grad = ((1.0 - 2.0 * v) * denom - (mass - k_diag)) / (denom**2) / c
    grad_p = alpha * entropy_grad + (1.0 - alpha) * mcc_grad
    return {"em": em, "mcc": mcc}, alpha * em + (1.0 - alpha) * mcc, grad_p


def _reference_sgem(v, lam, rho, k):
    n, c = v.shape
    s = np.power(v, rho).sum(axis=1)
    gem = float((np.log(s) / (1.0 - rho)).mean())
    retained = np.partition(v, c - k, axis=1)[:, c - k :].sum(axis=1)
    ns = float(-np.log(retained + 1e-12).mean())
    gem_grad = rho * np.power(v, rho - 1.0) / s[:, None] / (1.0 - rho) / n
    ns_grad = -_reference_topk_mask(v, k).astype(np.float64) / (retained[:, None] + 1e-12) / n
    return {"gem": gem, "ns": ns}, gem + lam * ns, gem_grad + lam * ns_grad


def _reference_loss_and_grad(method, z, temperature, blank_dominance):
    v = _reference_softmax(z.values, temperature)
    rows = None
    if blank_dominance is not None:
        rows = np.flatnonzero(v[:, z.blank_index] <= blank_dominance)
    if rows is not None and rows.size:
        v = v[rows]
    if method == "suta":
        components, total, grad_p = _reference_suta(v, 0.3, temperature)
    else:
        components, total, grad_p = _reference_sgem(v, 0.3, 0.5, 5)
    dz = _reference_chain(v, grad_p, temperature)
    if rows is not None and rows.size:
        full = np.zeros(z.values.shape)
        full[rows] = dz
        dz = full
    return components, total, dz


def _assert_matches_reference(method, z, blank_dominance, need_grad):
    loss_and_grad = suta_loss_and_grad if method == "suta" else sgem_loss_and_grad
    value, dz = loss_and_grad(
        z, temperature=2.5, need_grad=need_grad, exclude_blank_frames=blank_dominance is not None
    )
    components, total, ref_dz = _reference_loss_and_grad(method, z, 2.5, blank_dominance)
    assert abs(value.total - total) <= 1e-12 * abs(total)
    for name, ref in components.items():
        assert abs(value.components[name] - ref) <= 1e-12 * abs(ref)
    if not need_grad:
        assert dz is None
        return
    assert dz.shape == ref_dz.shape
    assert np.max(np.abs(dz - ref_dz)) <= 1e-12 * np.max(np.abs(ref_dz))


@pytest.mark.parametrize("method", ["suta", "sgem"])
@pytest.mark.parametrize("n_frames", [1, 7, 4000])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("need_grad", [True, False])
def test_objectives_match_row_major_reference(method, n_frames, masked, need_grad):
    rng = np.random.default_rng(n_frames)
    values = rng.normal(0.0, 3.0, (n_frames, 29))
    blank_dominance = None
    if masked:
        # make blank dominate about 40% of the frames, never frame 0, so they are excluded
        dominated = rng.random(n_frames) >= 0.6
        dominated[0] = False
        values[dominated, 0] += 40.0
        blank_dominance = 0.9
    z = LogitMatrix(values=values, blank_index=0)
    _assert_matches_reference(method, z, blank_dominance, need_grad)


def _tied_logits(k: int) -> LogitMatrix:
    rng = np.random.default_rng(7)
    v = rng.normal(0.0, 3.0, (5, 29))
    v[0] = 0.0  # uniform rows: every class ties
    v[1] = 1.5
    order = np.argsort(-v[2])
    v[2, order[k]] = v[2, order[k - 1]]  # the k-th and (k+1)-th largest tie
    order = np.argsort(-v[3])
    v[3, order[1]] = v[3, order[0]]  # a tie inside the top k needs no fallback
    return LogitMatrix(values=v, blank_index=0)


@pytest.mark.parametrize("k", [1, 5, 28])
def test_topk_mask_ties_keep_exactly_k_as_argpartition_does(k):
    p = softmax_temperature(_tied_logits(k), 2.5)
    part = objectives._topk_partition(p.values, k)
    mask = objectives._topk_mask(p.values.T, part, k)
    assert np.all(mask.sum(axis=0) == k)
    assert np.array_equal(mask.T, _reference_topk_mask(p.values, k))


def test_sgem_with_tied_rows_matches_row_major_reference():
    _assert_matches_reference("sgem", _tied_logits(5), None, True)


@pytest.mark.parametrize("method", ["suta", "sgem"])
@pytest.mark.parametrize("blank_dominance", [None, 0.9])
def test_objectives_read_class_major_logits_bitwise_as_row_major(method, blank_dominance):
    # the model's logits are the L x C transpose of a C-contiguous C x L array
    values = np.random.default_rng(3).normal(0.0, 3.0, (301, 29))
    values[::3, 0] += 40.0  # blank dominates a third of the frames
    row_major = LogitMatrix(values=values, blank_index=0)
    class_major = LogitMatrix(values=np.ascontiguousarray(values.T).T, blank_index=0)
    assert class_major.values.T.flags.c_contiguous
    loss_and_grad = suta_loss_and_grad if method == "suta" else sgem_loss_and_grad
    value, dz = loss_and_grad(class_major, exclude_blank_frames=blank_dominance is not None)
    ref_value, ref_dz = loss_and_grad(row_major, exclude_blank_frames=blank_dominance is not None)
    assert value == ref_value
    assert dz.tobytes(order="A") == ref_dz.tobytes(order="A")
    _assert_matches_reference(method, class_major, blank_dominance, True)
