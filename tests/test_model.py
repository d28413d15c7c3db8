import numpy as np
import pytest

from helpers import noise, sine
from ttabench.errors import (
    AudioTooShortError,
    CheckpointError,
    FrozenParameterError,
    ShapeMismatchError,
    UnknownGroupError,
)
from ttabench.model.decode import collapse_ctc_labels, greedy_ctc_decode
from ttabench.model import reference
from ttabench.model.reference import (
    ReferenceModel,
    build_reference_model,
    checkpoint_fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from ttabench.model.types import LogitMatrix, default_vocabulary
from ttabench.objectives import make_loss_functional

# --- vocabulary and decoding ----------------------------------------------------


def test_default_vocabulary_layout():
    v = default_vocabulary()
    assert len(v) == 29
    assert v.symbols[0] == "<blank>"
    assert v.blank_index == 0
    assert v.symbols[1] == "a" and v.symbols[26] == "z"
    assert v.symbols[27] == "'"
    assert v.word_delimiter_index == 28


def _logits_for(labels: list[int], n_classes: int = 29) -> LogitMatrix:
    z = np.zeros((len(labels), n_classes))
    for t, lab in enumerate(labels):
        z[t, lab] = 5.0
    return LogitMatrix(values=z, blank_index=0)


def test_greedy_decode_collapses_and_maps_delimiter():
    # blank a a blank b | c  ->  "ab c"
    z = _logits_for([0, 1, 1, 0, 2, 28, 3])
    assert greedy_ctc_decode(z, default_vocabulary()) == "ab c"


def test_greedy_decode_blank_separates_repeats():
    z = _logits_for([1, 0, 1])
    assert greedy_ctc_decode(z, default_vocabulary()) == "aa"


def test_greedy_decode_all_blank_is_empty():
    z = _logits_for([0, 0, 0])
    assert greedy_ctc_decode(z, default_vocabulary()) == ""


def test_greedy_decode_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        greedy_ctc_decode(_logits_for([1], n_classes=12), default_vocabulary())


def test_collapse_ctc_labels():
    assert collapse_ctc_labels([0, 3, 3, 0, 3, 5], blank_index=0) == [3, 3, 5]
    assert collapse_ctc_labels([], blank_index=0) == []


# --- shapes and determinism ------------------------------------------------------


def test_same_seed_same_parameters():
    a = build_reference_model(seed=7).snapshot().parameters
    b = build_reference_model(seed=7).snapshot().parameters
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name], b[name])


def test_different_seed_different_parameters():
    a = build_reference_model(seed=7).snapshot().parameters
    b = build_reference_model(seed=8).snapshot().parameters
    assert any(not np.array_equal(a[n], b[n]) for n in a)


def test_output_length_formula(model):
    assert model.min_input_samples == 62
    assert model.output_length(62) == 1
    assert model.output_length(16000) == 3985
    with pytest.raises(AudioTooShortError):
        model.output_length(61)


def test_forward_shapes(model):
    z = model.forward(sine(440, 0.1))
    assert z.n_frames == model.output_length(1600)
    assert z.n_classes == 29
    assert z.blank_index == 0
    assert np.all(np.isfinite(z.values))


def test_forward_rejects_wrong_sample_rate(model):
    w = sine(440, 0.1, rate_hz=8000)
    with pytest.raises(ValueError):
        model.forward(w)


def test_forward_is_deterministic(model):
    w = noise(0.1, seed=5)
    a = model.forward(w).values
    b = model.forward(w).values
    assert np.array_equal(a, b)


# --- parameter management ---------------------------------------------------------


def test_groups_and_default_selection(model):
    assert model.selected_groups == ("feature_extractor", "layer_norm")
    assert model.select_adaptable(["head", "layer_norm", "feature_extractor"]) is None
    assert model.selected_groups == ("head", "layer_norm", "feature_extractor")


def test_select_adaptable_unknown_group(model):
    with pytest.raises(UnknownGroupError):
        model.select_adaptable(["feature_extractor", "attention"])


def test_apply_update_rejects_frozen_parameter(model):
    head_w = model.snapshot().parameters["head_w"]
    with pytest.raises(FrozenParameterError):
        model.apply_update({"head_w": np.zeros_like(head_w)})
    model.select_adaptable(["head"])
    model.apply_update({"head_w": np.ones_like(head_w)})
    assert np.array_equal(model.snapshot().parameters["head_w"], head_w + 1.0)


def test_apply_update_rejects_unknown_and_bad_shape(model):
    with pytest.raises(FrozenParameterError):
        model.apply_update({"mystery": np.zeros(3)})
    with pytest.raises(ValueError):
        model.apply_update({"conv1_b": np.zeros(999)})


def test_snapshot_restore_is_bit_exact(model):
    before = model.snapshot()
    model.apply_update({"ln_gamma": np.full_like(before.parameters["ln_gamma"], 0.25)})
    assert not np.array_equal(model.snapshot().parameters["ln_gamma"], before.parameters["ln_gamma"])
    model.restore(before)
    after = model.snapshot().parameters
    for name, value in before.parameters.items():
        assert np.array_equal(after[name], value)


def test_snapshot_is_isolated_from_later_updates(model):
    snap = model.snapshot()
    frozen = snap.parameters["conv1_b"].copy()
    model.apply_update({"conv1_b": np.ones_like(frozen)})
    assert np.array_equal(snap.parameters["conv1_b"], frozen)


# --- gradients ----------------------------------------------------------------------


def _linear_functional(g: np.ndarray):
    """loss = sum(g * z); exact gradient g, exercises the backward pass alone."""

    def fn(z: LogitMatrix):
        return float((g * z.values).sum()), g

    return fn


def _fd_check(model: ReferenceModel, w, loss_fn, names_and_grads, n_coords=4, eps=1e-6):
    rng = np.random.default_rng(0)
    analytic, fd = [], []
    params = model._params
    for name, grad in names_and_grads.items():
        flat = params[name].reshape(-1)
        idxs = rng.choice(flat.size, size=min(n_coords, flat.size), replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            plus = loss_fn(model.forward(w))[0]
            flat[i] = orig - eps
            minus = loss_fn(model.forward(w))[0]
            flat[i] = orig
            if hasattr(plus, "total"):
                plus, minus = plus.total, minus.total
            fd.append((plus - minus) / (2 * eps))
            analytic.append(grad.reshape(-1)[i])
    analytic, fd = np.array(analytic), np.array(fd)
    return float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12))


_GROUP_PARAMS = {
    "feature_extractor": {"conv1_w", "conv1_b", "conv2_w", "conv2_b"},
    "layer_norm": {"ln_gamma", "ln_beta"},
    "head": {"head_w", "head_b"},
}


@pytest.mark.parametrize(
    "groups",
    [
        ("layer_norm",),
        ("head",),
        ("feature_extractor",),
        ("feature_extractor", "layer_norm"),
        ("feature_extractor", "layer_norm", "head"),
    ],
    ids="+".join,
)
def test_gradient_matches_finite_differences(groups):
    model = build_reference_model(seed=1, feature_dim=8)
    model.select_adaptable(list(groups))
    w = noise(0.02, rms=0.1, seed=2)
    n_frames = model.output_length(len(w.samples))
    g = np.random.default_rng(3).normal(size=(n_frames, 29))
    loss_fn = _linear_functional(g)
    _, grads = model.gradient(w, loss_fn)
    assert set(grads) == set().union(*(_GROUP_PARAMS[name] for name in groups))
    assert _fd_check(model, w, loss_fn, grads) < 1e-6


def _conv1d_backward_per_tap(x, w, stride, dout):
    """Reference gradients of the strided cross-correlation, one kernel tap at a time."""
    k = w.shape[2]
    span = stride * dout.shape[1]
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    for kk in range(k):
        dx[:, kk : kk + span : stride] += w[:, :, kk].T @ dout
        dw[:, :, kk] = dout @ x[:, kk : kk + span : stride].T
    return dx, dw, dout.sum(axis=1)


@pytest.mark.parametrize("cin,cout,k,stride", [(3, 4, 6, 2), (4, 8, 16, 2), (2, 3, 9, 3)])
def test_conv1d_backward_matches_per_tap_across_tiles(monkeypatch, cin, cout, k, stride):
    monkeypatch.setattr(reference, "_TILE_FRAMES", 5)
    rng = np.random.default_rng(11)
    n = 151  # odd, and leaves input samples past the last window
    x = rng.normal(size=(cin, n))
    w = rng.normal(size=(cout, cin, k))
    dout = rng.normal(size=(cout, (n - k) // stride + 1))
    dx, dw, db = reference._conv1d_backward(x, w, stride, dout)
    ref_dx, ref_dw, ref_db = _conv1d_backward_per_tap(x, w, stride, dout)
    np.testing.assert_allclose(dx, ref_dx, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(dw, ref_dw, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(db, ref_db, rtol=1e-12, atol=1e-12)
    no_dx, dw2, db2 = reference._conv1d_backward(x, w, stride, dout, need_dx=False)
    assert no_dx is None
    assert np.array_equal(dw2, dw) and np.array_equal(db2, db)


def test_gradient_through_adaptation_objective():
    model = build_reference_model(seed=4, feature_dim=8)
    model.select_adaptable(["feature_extractor", "layer_norm", "head"])
    w = noise(0.02, rms=0.1, seed=5)
    loss_fn = make_loss_functional("suta", alpha=0.3, temperature=2.5)
    _, grads = model.gradient(w, loss_fn)
    assert _fd_check(model, w, loss_fn, grads) < 1e-5


def test_gradient_returns_only_selected_groups(model):
    w = noise(0.02, rms=0.1, seed=6)
    loss_fn = make_loss_functional("suta")
    _, grads = model.gradient(w, loss_fn)
    assert "head_w" not in grads and "head_b" not in grads
    assert "conv1_w" in grads and "ln_gamma" in grads
    model.select_adaptable(["head"])
    _, head_only = model.gradient(w, loss_fn)
    assert set(head_only) == {"head_w", "head_b"}


# --- checkpoints ----------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, model):
    model.apply_update({"conv2_b": np.full(32, 0.125)})
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    a, b = model.snapshot().parameters, loaded.snapshot().parameters
    for name in a:
        assert np.array_equal(a[name], b[name])
    assert loaded.vocabulary() == model.vocabulary()
    assert loaded.selected_groups == model.selected_groups


def test_checkpoint_fingerprint_stable(tmp_path, model):
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    assert checkpoint_fingerprint(path) == checkpoint_fingerprint(path)
    assert len(checkpoint_fingerprint(path)) == 64


def test_load_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "absent.npz")


def test_load_checkpoint_rejects_foreign_npz(tmp_path):
    path = tmp_path / "foreign.npz"
    np.savez(path, weights=np.zeros(3))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
