import sys
import threading

import numpy as np
import pytest
from scipy.special import erf

from helpers import noise, sine
from ttabench.corpus.audio import Waveform
from ttabench.engine.artifacts import sha256_file
from ttabench.errors import (
    AudioTooShortError,
    CheckpointError,
    ConfigError,
    FrozenParameterError,
    NonFiniteLogitsError,
    ShapeMismatchError,
)
from ttabench.model.decode import collapse_ctc_labels, greedy_ctc_decode
from ttabench.model import reference, threads, types
from ttabench.model.reference import (
    ReferenceModel,
    build_reference_model,
    load_checkpoint,
    save_checkpoint,
)
from ttabench.model.types import LogitMatrix, default_vocabulary
from ttabench.objectives import make_loss_functional
from ttabench.synthetic import frame_ce_functional

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


def test_greedy_decode_reads_class_major_logits():
    # the model's logits are the transpose of a C-contiguous C x L array; ties
    # between classes go to the lower index in either layout
    labels = [0, 1, 1, 0, 2, 28, 3, 3]
    z = _logits_for(labels).values
    z[6, 5] = z[6, 3]
    class_major = LogitMatrix(values=np.ascontiguousarray(z.T).T, blank_index=0)
    assert not class_major.values.flags.c_contiguous
    v = default_vocabulary()
    assert greedy_ctc_decode(class_major, v) == greedy_ctc_decode(_logits_for(labels), v) == "ab c"


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
    assert model.FIELD == 62
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


def test_gelu_matches_closed_form_bitwise():
    x = np.concatenate(
        [np.linspace(-40.0, 40.0, 4001), [-1e300, -1e10, -5e-324, -0.0, 0.0, 5e-324, 1e10, 1e300]]
    )
    h, one_plus_erf = reference._gelu(x, np.empty_like(x), np.empty_like(x))
    erf_term = 1.0 + reference.erf(x / np.sqrt(2.0))
    assert h.tobytes() == (0.5 * x * erf_term).tobytes()
    assert one_plus_erf.tobytes() == erf_term.tobytes()
    dh = np.random.default_rng(0).normal(size=x.shape)
    with np.errstate(over="ignore"):
        expected = dh * (0.5 * erf_term + x * np.exp(-0.5 * x * x) * (1.0 / np.sqrt(2.0 * np.pi)))
        da = reference._gelu_backward(dh.copy(), x, one_plus_erf, np.empty_like(x))
    assert da.tobytes() == expected.tobytes()


def _check_frozen_features(model, groups, stage):
    w = noise(0.1, seed=5)
    model.select_adaptable(list(groups))
    frozen = model.frozen_features(w)
    assert np.array_equal(frozen, model._forward_cached(w.samples, None)[stage])
    assert model.forward(w, frozen).values.tobytes() == model.forward(w).values.tobytes()
    loss_fn = make_loss_functional("sgem")
    record, grads = model.gradient(w, loss_fn, frozen)
    full_record, full_grads = model.gradient(w, loss_fn)
    assert record.total == full_record.total
    assert set(grads) == set(full_grads)
    assert all(grads[k].tobytes() == full_grads[k].tobytes() for k in full_grads)


@pytest.mark.parametrize(
    "groups,stage", [(("layer_norm",), "xhat"), (("layer_norm", "head"), "xhat")], ids="+".join
)
def test_frozen_features_are_the_deepest_unselected_activation(model, groups, stage):
    _check_frozen_features(model, groups, stage)


def test_frozen_features_under_head_only_adaptation_are_xhat(model):
    # head-only steps recompute the layer-norm affine from xhat rather than
    # start from its output, so there is one frozen stage
    _check_frozen_features(model, ("head",), "xhat")


def test_frozen_features_none_when_feature_extractor_selected(model):
    w = noise(0.1, seed=5)
    assert model.frozen_features(w) is None
    model.select_adaptable(["layer_norm"])
    frozen = model.frozen_features(w)
    with pytest.raises(ValueError, match="shape"):
        model.forward(noise(0.2, seed=5), frozen)
    model.select_adaptable(["feature_extractor", "layer_norm"])
    with pytest.raises(ValueError, match="feature_extractor"):
        model.forward(w, frozen)


# --- parameter management ---------------------------------------------------------


def test_groups_and_default_selection(model):
    assert model.selected_groups == ("feature_extractor", "layer_norm")
    assert model.select_adaptable(["head", "layer_norm", "feature_extractor"]) is None
    assert model.selected_groups == ("head", "layer_norm", "feature_extractor")


def test_select_adaptable_unknown_group(model):
    with pytest.raises(ConfigError, match="unknown parameter group 'attention'; known groups"):
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

    def fn(z: LogitMatrix, out: np.ndarray | None = None):
        out = np.empty_like(g) if out is None else out
        out[...] = g
        return float((g * z.values).sum()), out

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


_SELECTIONS_CHECKED = (
    ("layer_norm",),
    ("head",),
    ("feature_extractor",),
    ("feature_extractor", "layer_norm"),
    ("feature_extractor", "layer_norm", "head"),
)


@pytest.mark.parametrize("groups", _SELECTIONS_CHECKED, ids="+".join)
def test_gradient_matches_finite_differences(groups):
    model = build_reference_model(seed=1, feature_dim=8)
    # an affine away from the identity, so folding it into the head shows
    model.apply_update(
        {"ln_gamma": np.linspace(-0.5, 1.5, 8), "ln_beta": np.linspace(-0.3, 0.4, 8)}
    )
    model.select_adaptable(list(groups))
    w = noise(0.02, rms=0.1, seed=2)
    n_frames = model.output_length(len(w.samples))
    g = np.random.default_rng(3).normal(size=(n_frames, 29))
    loss_fn = _linear_functional(g)
    _, grads = model.gradient(w, loss_fn)
    assert set(grads) == set().union(*(_GROUP_PARAMS[name] for name in groups))
    assert _fd_check(model, w, loss_fn, grads) < 1e-6
    # the model computes z = (W diag(gamma)) xhat + (W beta + b); the reference
    # forms gamma xhat + beta, and backpropagates through it
    ref_z, ref_grads = _whole_chunk_reference(model.snapshot().parameters, w.samples, g)
    assert _relative_error(model.forward(w).values, ref_z) <= 1e-12
    for name, grad in grads.items():
        assert _relative_error(grad, ref_grads[name]) <= 1e-12, name


def _conv1d_per_tap(x, w, b, stride):
    """Reference forward and gradients of the strided cross-correlation, one kernel tap at a time."""
    k = w.shape[2]
    t_total = (x.shape[1] - k) // stride + 1
    span = stride * t_total

    def backward(dout):
        dx = np.zeros_like(x)
        dw = np.zeros_like(w)
        for kk in range(k):
            dx[:, kk : kk + span : stride] += w[:, :, kk].T @ dout
            dw[:, :, kk] = dout @ x[:, kk : kk + span : stride].T
        return dx, dw, dout.sum(axis=1)

    out = sum(w[:, :, kk] @ x[:, kk : kk + span : stride] for kk in range(k)) + b[:, None]
    return out, backward


@pytest.mark.parametrize(
    "cin,cout,k,stride", [(3, 4, 6, 2), (4, 8, 16, 2), (2, 3, 9, 3), (1, 4, 8, 2)]
)
def test_conv1d_backward_matches_per_tap(cin, cout, k, stride):
    rng = np.random.default_rng(11)
    n = 151  # odd, and leaves input samples past the last window
    x = rng.normal(size=(cin, n))
    w = rng.normal(size=(cout, cin, k))
    b = rng.normal(size=cout)
    t_total = (n - k) // stride + 1
    dout = rng.normal(size=(cout, t_total))
    ref_out, ref_backward = _conv1d_per_tap(x, w, b, stride)
    ref_dx, ref_dw, ref_db = ref_backward(dout)
    ws = types.Workspace()
    # the polyphase helpers read and write the input phase-major,
    # xp[(r, c), u] = x[c, S u + r]; the samples at S U and beyond feed no output
    u = t_total + k // stride - 1
    assert stride * u < n and not ref_dx[:, stride * u :].any()
    xp = x[:, : stride * u].reshape(cin, u, stride).transpose(2, 0, 1).reshape(stride * cin, u)
    taps = reference._phase_taps(w, stride)
    # outputs start as NaN, so an entry the helpers leave unwritten shows
    out = reference._polyphase_conv(xp, taps, b, np.full((cout, t_total), np.nan), ws)
    dw, db = reference._polyphase_weight_grad(dout, xp, stride)
    dxp = np.full((stride * cin, u), np.nan)
    reference._polyphase_input_grad(taps, dout, dxp, ws, "pad")
    dx = dxp.reshape(stride, cin, u).transpose(1, 2, 0).reshape(cin, stride * u)
    np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(dx, ref_dx[:, : stride * u], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(dw, ref_dw, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(db, ref_db, rtol=1e-12, atol=1e-12)
    if cin == 1:  # conv1's helpers write and read the output phase-major over two phases
        assert t_total % 2 == 0
        out1 = reference._conv1_phases(x[0], w, b, stride, 2, ws)
        dout_phases = dout.reshape(cout, t_total // 2, 2).transpose(2, 0, 1)
        dw1, db1 = reference._conv1_weight_grad(x[0], dout_phases, k, stride)
        ref_phases = ref_out.reshape(cout, t_total // 2, 2).transpose(2, 0, 1)
        np.testing.assert_allclose(out1, ref_phases, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dw1, ref_dw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(db1, ref_db, rtol=1e-12, atol=1e-12)


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


# --- frame spans ------------------------------------------------------------------


def _wave_with_frames(n_frames: int, seed: int) -> Waveform:
    """Noise giving ``n_frames`` logit frames, plus 3 trailing samples that feed none."""
    n = ReferenceModel.HOP * (n_frames - 1) + ReferenceModel.FIELD + 3
    x = np.random.default_rng(seed).normal(0.0, 0.1, n)
    return Waveform(samples=x, sample_rate_hz=16000)


def _whole_chunk_reference(params, x, dz):
    """Logits and every gradient of the whole chunk in one pass on this thread, with the
    per-tap convolution and textbook GELU and layer norm."""

    def gelu(a):
        cdf = 0.5 * (1.0 + erf(a / np.sqrt(2.0)))
        return a * cdf, cdf + a * np.exp(-0.5 * a * a) / np.sqrt(2.0 * np.pi)

    p = params
    a1, back1 = _conv1d_per_tap(x[None, :], p["conv1_w"], p["conv1_b"], ReferenceModel.S1)
    h1, dgelu1 = gelu(a1)
    a2, back2 = _conv1d_per_tap(h1, p["conv2_w"], p["conv2_b"], ReferenceModel.S2)
    h2, dgelu2 = gelu(a2)
    inv = 1.0 / np.sqrt(h2.var(axis=0) + 1e-5)
    xhat = (h2 - h2.mean(axis=0)) * inv
    h3 = p["ln_gamma"][:, None] * xhat + p["ln_beta"][:, None]
    z = (p["head_w"] @ h3 + p["head_b"][:, None]).T
    dzt = dz.T
    grads = {"head_w": dzt @ h3.T, "head_b": dzt.sum(axis=1)}
    dh3 = p["head_w"].T @ dzt
    grads["ln_gamma"], grads["ln_beta"] = (dh3 * xhat).sum(axis=1), dh3.sum(axis=1)
    dxhat = dh3 * p["ln_gamma"][:, None]
    dh2 = inv * (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0))
    dh1, grads["conv2_w"], grads["conv2_b"] = back2(dh2 * dgelu2)
    _, grads["conv1_w"], grads["conv1_b"] = back1(dh1 * dgelu1)
    return z, grads


def _relative_error(got, expected):
    return float(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))


@pytest.mark.parametrize("frame_budget", [None, 5], ids=["budget-default", "budget-5"])
@pytest.mark.parametrize("n_frames", [1, 2, 101])
def test_spans_match_a_whole_chunk_reference(monkeypatch, n_frames, frame_budget):
    if frame_budget is not None:  # 101 frames then run as 22 spans, recomputed
        monkeypatch.setattr(types, "FRAME_BUDGET", frame_budget)
    model = build_reference_model(seed=3)
    model.select_adaptable(["feature_extractor", "layer_norm", "head"])
    w = _wave_with_frames(n_frames, seed=n_frames)
    assert model.output_length(len(w.samples)) == n_frames
    n_spans = len(reference._frame_spans(n_frames))
    assert n_spans == (22 if frame_budget and n_frames == 101 else min(n_frames, 2))
    dz = np.random.default_rng(5).normal(size=(n_frames, 29))
    ref_z, ref_grads = _whole_chunk_reference(model.snapshot().parameters, w.samples, dz)

    for _ in range(2):  # a cold call, then one on the workspaces it grew
        assert _relative_error(model.forward(w).values, ref_z) <= 1e-12
        _, grads = model.gradient(w, _linear_functional(dz))
        assert set(grads) == set(ref_grads)
        for name, g in grads.items():
            assert _relative_error(g, ref_grads[name]) <= 1e-12, name


def test_span_on_the_helper_thread_or_inline_is_bitwise_the_same(monkeypatch):
    chunks = [_wave_with_frames(n, seed=n) for n in (2, 101, 736)]
    threaded = [_calls(build_reference_model(seed=3), w) for w in chunks]
    monkeypatch.setattr(threads, "in_parallel", lambda first, second: (first(), second()))
    inline = [_calls(build_reference_model(seed=3), w) for w in chunks]
    for got, expected in zip(inline, threaded):
        _assert_bitwise(got, expected)


def test_models_on_more_threads_than_cores_share_the_helper_safely():
    # one model per caller thread, as the class allows; three callers on two
    # cores hand span 1 to the one helper thread, and a short switch interval
    # interleaves them as much as it can
    chunks = [_wave_with_frames(n, seed=n) for n in (301, 517, 736)]
    loss_fn = make_loss_functional("sgem")

    def run(w):
        model = build_reference_model(seed=3)
        out = []
        for _ in range(4):
            record, grads = model.gradient(w, loss_fn)
            out.append((record.total, grads))
            model.apply_update({k: -1e-3 * g for k, g in grads.items()})
        return out

    expected = [run(w) for w in chunks]
    got = [None] * len(chunks)

    def caller(i):
        got[i] = run(chunks[i])

    callers = [threading.Thread(target=caller, args=(i,)) for i in range(len(chunks))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for steps, ref_steps in zip(got, expected):
        assert steps is not None
        for (total, grads), (ref_total, ref_grads) in zip(steps, ref_steps):
            assert total == ref_total
            _assert_bitwise(grads, ref_grads)


def test_logits_are_class_major():
    model = build_reference_model(seed=3)
    z = model.forward(_wave_with_frames(50, seed=1))
    assert z.values.shape == (50, 29)
    assert z.values.T.flags.c_contiguous


# --- scratch workspace ------------------------------------------------------------------

_SELECTIONS = (("feature_extractor", "layer_norm"), ("layer_norm",), ("head",))


def _calls(model, w):
    """forward, frozen_features and gradient of ``w`` under each selection, as named arrays."""
    loss_fn = make_loss_functional("sgem")
    out = {}
    for groups in _SELECTIONS:
        model.select_adaptable(list(groups))
        key = "+".join(groups)
        frozen = model.frozen_features(w)
        if frozen is not None:
            out[f"{key}/frozen"] = frozen
        out[f"{key}/forward"] = model.forward(w).values
        out[f"{key}/forward_frozen"] = model.forward(w, frozen).values
        record, grads = model.gradient(w, loss_fn)
        out[f"{key}/loss"] = np.array(record.total)
        out.update({f"{key}/grad/{k}": v for k, v in grads.items()})
        _, grads = model.gradient(w, loss_fn, frozen)
        out.update({f"{key}/grad_frozen/{k}": v for k, v in grads.items()})
    model.select_adaptable(list(_SELECTIONS[0]))
    return out


def _fresh_twin(model):
    twin = build_reference_model(seed=3)
    twin.restore(model.snapshot())
    return twin


def _assert_bitwise(got, expected):
    assert set(got) == set(expected)
    for name, value in expected.items():
        assert got[name].tobytes() == value.tobytes(), name


@pytest.mark.parametrize("frame_budget", [None, 5])
def test_workspace_leaves_no_stale_state_between_chunks(model, monkeypatch, frame_budget):
    if frame_budget is not None:
        monkeypatch.setattr(types, "FRAME_BUDGET", frame_budget)
    # long, short, long: the short chunk leaves the tails of grown buffers untouched
    chunks = [noise(d, rms=0.1, seed=s) for d, s in ((0.12, 1), (0.02, 2), (0.1, 3))]
    for w in chunks:
        _assert_bitwise(_calls(model, w), _calls(_fresh_twin(model), w))
    # an update that makes the logits non-finite fills the buffers with inf and NaN
    snap = model.snapshot()
    model.apply_update({"conv2_b": np.full(32, 1e308)})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLogitsError):
            model.forward(chunks[0])
        with pytest.raises(NonFiniteLogitsError):
            model.gradient(chunks[0], make_loss_functional("sgem"))
    model.restore(snap)
    for w in chunks:
        _assert_bitwise(_calls(model, w), _calls(_fresh_twin(model), w))


def test_returned_arrays_are_owned_by_the_caller(model):
    first = _calls(model, noise(0.1, rms=0.1, seed=4))
    kept = {name: value.copy() for name, value in first.items()}
    # both frame spans' workspaces, and the chunk workspace with the whole-chunk buffers
    workspaces = (*model._span_ws, model._chunk_ws)
    assert len(workspaces) == 3
    assert all(ws._buffers for ws in workspaces)
    assert {"xhat", "inv", "z", "dz"} <= set(model._chunk_ws._buffers)
    buffers = [buf for ws in workspaces for buf in ws._buffers.values()]
    for name, value in first.items():
        assert not any(np.shares_memory(value, buf) for buf in buffers), name
    for w in (noise(0.15, rms=0.1, seed=5), noise(0.03, rms=0.1, seed=6)):
        _calls(model, w)
    _assert_bitwise(first, kept)


def test_frozen_features_leave_no_conv_stack_buffer_behind():
    import tracemalloc

    w = noise(0.79, rms=0.1, seed=7)  # 3,145 logit frames
    warm, model = build_reference_model(seed=3), build_reference_model(seed=3)
    for m in (warm, model):
        m.select_adaptable(["layer_norm"])
    warm.frozen_features(w)  # starts the helper thread outside the trace
    tracemalloc.start()
    try:
        xhat = model.frozen_features(w)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= xhat.nbytes + 64 * 1024, (held, xhat.nbytes)


def test_frozen_features_peak_at_three_conv1_buffers_per_span():
    import tracemalloc

    w = noise(0.6, rms=0.1, seed=7)  # 2,385 logit frames, two spans
    warm, model = build_reference_model(seed=3), build_reference_model(seed=3)
    for m in (warm, model):
        m.select_adaptable(["layer_norm"])
    warm.frozen_features(w)  # starts the helper thread outside the trace
    # what the design allows: per span, conv1's phase-major output (GELU in
    # place), its erf scratch (conv2's output and its GELU over it) and the
    # scratch for conv2's products (GELU's erf over it), each conv1-sized and no
    # im2col window; then xhat, and 1 MiB for everything else
    n_frames = model.output_length(len(w.samples))
    t = n_frames - n_frames // 2  # the longer span
    u = t + ReferenceModel.K2 // ReferenceModel.S2 - 1
    c1, c2 = (model.snapshot().parameters[k].shape[0] for k in ("conv1_w", "conv2_w"))
    per_span = 8 * (2 * ReferenceModel.S2 * c1 * u + c2 * t)
    bound = 2 * per_span + 8 * c2 * n_frames + 2**20
    tracemalloc.start()
    try:
        model.frozen_features(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)


def test_forward_only_spans_keep_no_backward_state(model):
    # a forward pass, or a gradient under a selection that freezes the conv
    # stack, writes only conv1's buffer, the erf scratch and the products'
    # scratch in the span workspaces (the whole-chunk xhat and inv live in the
    # chunk workspace); the folded head needs no h3 buffer
    w = noise(0.1, rms=0.1, seed=4)
    forward_only = {"a1", "erf1", "scratch"}
    fresh = build_reference_model(seed=3)
    fresh.forward(w)
    assert set().union(*(ws._buffers for ws in fresh._span_ws)) <= forward_only
    fresh.select_adaptable(["layer_norm", "head"])
    fresh.gradient(w, make_loss_functional("sgem"))
    assert set().union(*(ws._buffers for ws in fresh._span_ws)) <= forward_only
    for groups in _SELECTIONS_CHECKED:
        model.select_adaptable(list(groups))
        model.gradient(w, make_loss_functional("sgem"))
        assert not any("h3" in ws._buffers for ws in model._span_ws), groups


def test_warm_gradient_allocates_a_fraction_of_the_cold_call(model):
    import tracemalloc

    w = noise(0.73, rms=0.1, seed=7)  # 2,905 logit frames
    loss_fn = make_loss_functional("sgem")
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            model.gradient(w, loss_fn)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    cold, warm = peaks
    assert warm <= 0.4 * cold, (cold, warm)


def _package_functional(name: str, n_frames: int):
    """A loss functional the package makes, by name; ``frame_ce`` against fixed labels."""
    if name == "frame_ce":
        return frame_ce_functional(np.random.default_rng(0).integers(0, 29, n_frames))
    method, _, exclude = name.partition("+")
    return make_loss_functional(method, exclude_blank_frames=bool(exclude))


@pytest.mark.parametrize(
    "name", ["suta", "suta+exclude-blank", "sgem", "sgem+exclude-blank", "frame_ce"]
)
def test_loss_functionals_write_into_the_out_they_are_lent(model, name):
    w = noise(0.1, rms=0.1, seed=4)
    loss_fn = _package_functional(name, model.output_length(len(w.samples)))
    logits = model.forward(w)
    record, unlent = loss_fn(logits)
    # an L x C view of a class-major buffer, as the model lends it
    out = np.full(logits.values.T.shape, np.nan).T
    lent_record, lent = loss_fn(logits, out=out)
    assert lent_record == record
    assert np.shares_memory(lent, out)
    assert (lent.shape, lent.strides) == (out.shape, out.strides)
    assert lent.tobytes() == unlent.tobytes()
    model.gradient(w, loss_fn)
    # a functional that returns any other array breaks the contract
    with pytest.raises(ValueError, match="out"):
        model.gradient(w, lambda z, out=None: loss_fn(z))


@pytest.mark.parametrize("groups", _SELECTIONS, ids="+".join)
@pytest.mark.parametrize("method", ["suta", "sgem", "frame_ce"])
def test_warm_gradient_steps_allocate_no_chunk_sized_array(groups, method):
    import tracemalloc

    w = noise(0.79, rms=0.1, seed=7)  # 3,145 logit frames
    model = build_reference_model(seed=3)
    model.select_adaptable(list(groups))
    frozen = model.frozen_features(w)
    loss_fn = _package_functional(method, model.output_length(len(w.samples)))
    model.gradient(w, loss_fn, frozen)  # grows the workspaces and the objectives' scratch
    # the logits and their gradient stay in the model's workspace, the objectives'
    # block arrays in their scratch; what a warm step allocates is parameter-sized,
    # a boolean check of the logits, or one value per frame (frame_ce's labels)
    tracemalloc.start()
    try:
        _, grads = model.gradient(w, loss_fn, frozen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    logits = model.forward(w, frozen).values
    assert peak < logits.nbytes / 2, (peak, logits.nbytes)
    # what leaves the model is still the caller's
    for buf in model._chunk_ws._buffers.values():
        assert not any(np.shares_memory(a, buf) for a in (logits, *grads.values()))


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


def test_load_checkpoint_records_the_sha256_of_the_bytes_it_read(tmp_path, model):
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    assert load_checkpoint(path).source_sha256 == sha256_file(path)
    assert model.source_sha256 is None


def test_load_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "absent.npz")


@pytest.mark.parametrize("keep", [0.0, 0.5, 0.99])
def test_load_checkpoint_rejects_a_truncated_file(tmp_path, model, keep):
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: int(keep * len(raw))])
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_foreign_npz(tmp_path):
    path = tmp_path / "foreign.npz"
    np.savez(path, weights=np.zeros(3))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
