"""Self-contained reference CTC model with exact analytic gradients.

A two-layer strided convolutional front-end (group ``feature_extractor``),
per-frame channel normalization with learnable scale/shift (group
``layer_norm``), and a linear class head (group ``head``). Roughly 10k
parameters at the default width: small enough for finite-difference
verification, large enough to show entropy-reduction dynamics under
adaptation.

Stride arithmetic (total stride 4):

    n1 = (n_samples - K1) // S1 + 1
    L  = (n1 - K2) // S2 + 1

The backward pass skips what frozen groups need: the head gradients without
``head``, everything below the layer-norm gradients without
``feature_extractor``, and always conv1's input gradient.

All math is float64 numpy; forward is deterministic and snapshot/restore is
bit-exact by construction.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from ..corpus.audio import Waveform
from ..errors import (
    AudioTooShortError,
    CheckpointError,
    FrozenParameterError,
    UnknownGroupError,
)
from .types import LogitMatrix, LossFunctional, ModelSnapshot, Vocabulary, default_vocabulary

CHECKPOINT_MAGIC = "ttabench-refmodel-v1"

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
_LN_EPS = 1e-5
_TILE_FRAMES = 16384


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / _SQRT2))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    return cdf + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


def _conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int) -> np.ndarray:
    """Strided valid cross-correlation; x (Cin, N), w (Cout, Cin, K) -> (Cout, T)."""
    cin, n = x.shape
    cout, _, k = w.shape
    t_total = (n - k) // stride + 1
    w2 = w.reshape(cout, cin * k)
    out = np.empty((cout, t_total))
    for t0 in range(0, t_total, _TILE_FRAMES):
        t1 = min(t0 + _TILE_FRAMES, t_total)
        span = x[:, t0 * stride : (t1 - 1) * stride + k]
        win = sliding_window_view(span, k, axis=1)[:, ::stride, :]
        winmat = win.transpose(1, 0, 2).reshape(t1 - t0, cin * k)
        out[:, t0:t1] = w2 @ winmat.T
    return out + b[:, None]


def _conv1d_input_grad(w: np.ndarray, stride: int, dout: np.ndarray, n: int) -> np.ndarray:
    """Input gradient of the strided cross-correlation, as a polyphase transposed
    convolution (needs K % S == 0): with Q = K // S, one matmul per tile of u gives
    dx[c, S*u + r] = sum_{o,q} dout[o, u - q] * w[o, c, S*q + r]."""
    cout, cin, k = w.shape
    q = k // stride
    # wmat[(c, r), (o, m)] = w[o, c, S*(Q-1-m) + r]
    wmat = w.reshape(cout, cin, q, stride)[:, :, ::-1, :].transpose(1, 3, 0, 2)
    wmat = wmat.reshape(cin * stride, cout * q)
    dpad = np.pad(dout, ((0, 0), (q - 1, q - 1)))
    u_total = dout.shape[1] + q - 1  # samples at S * u_total and beyond feed no output
    dx = np.zeros((cin, n))
    for u0 in range(0, u_total, _TILE_FRAMES):
        u1 = min(u0 + _TILE_FRAMES, u_total)
        win = sliding_window_view(dpad[:, u0 : u1 + q - 1], q, axis=1)
        g = (wmat @ win.transpose(0, 2, 1).reshape(cout * q, u1 - u0)).reshape(cin, stride, -1)
        dx[:, u0 * stride : u1 * stride] = g.transpose(0, 2, 1).reshape(cin, -1)
    return dx


def _conv1d_backward(
    x: np.ndarray, w: np.ndarray, stride: int, dout: np.ndarray, need_dx: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) of the strided cross-correlation; dx is None unless need_dx."""
    cin, n = x.shape
    cout, _, k = w.shape
    t_total = dout.shape[1]
    # first, so its tiles are freed before the weight gradient's
    dx = _conv1d_input_grad(w, stride, dout, n) if need_dx else None
    dw = np.zeros_like(w)
    db = dout.sum(axis=1)
    for t0 in range(0, t_total, _TILE_FRAMES):
        t1 = min(t0 + _TILE_FRAMES, t_total)
        span = x[:, t0 * stride : (t1 - 1) * stride + k]
        win = sliding_window_view(span, k, axis=1)[:, ::stride, :]
        winmat = win.transpose(0, 2, 1).reshape(cin * k, t1 - t0)
        dw += (dout[:, t0:t1] @ winmat.T).reshape(cout, cin, k)
    return dx, dw, db


class ReferenceModel:
    """Desk-scale stand-in for a CTC acoustic model, and the model the engine drives.

    Parameter groups: ``feature_extractor`` (both conv layers),
    ``layer_norm`` (scale/shift), ``head`` (class projection). The default
    selection adapts feature_extractor + layer_norm; the head stays frozen.

    Contract the engine relies on: ``forward`` is deterministic given the
    parameters, ``snapshot``/``restore`` are bit-exact, and ``gradient``
    returns the gradients of exactly the selected groups' parameters, which
    agree with central finite differences.
    """

    K1, S1 = 32, 2
    K2, S2 = 16, 2

    def __init__(self, seed: int, vocab: Vocabulary | None = None, feature_dim: int = 32):
        if feature_dim < 4:
            raise ValueError("feature_dim must be >= 4")
        self._vocab = vocab if vocab is not None else default_vocabulary()
        self._seed = int(seed)
        self._feature_dim = int(feature_dim)
        c1 = max(4, feature_dim // 2)
        c2 = feature_dim
        c_out = len(self._vocab)
        rng = np.random.default_rng(seed)
        self._params: dict[str, np.ndarray] = {
            "conv1_w": rng.normal(0.0, 1.0 / np.sqrt(self.K1), size=(c1, 1, self.K1)),
            "conv1_b": np.zeros(c1),
            "conv2_w": rng.normal(0.0, 1.0 / np.sqrt(c1 * self.K2), size=(c2, c1, self.K2)),
            "conv2_b": np.zeros(c2),
            "ln_gamma": np.ones(c2),
            "ln_beta": np.zeros(c2),
            "head_w": rng.normal(0.0, 1.0 / np.sqrt(c2), size=(c_out, c2)),
            "head_b": np.zeros(c_out),
        }
        self._groups: dict[str, tuple[str, ...]] = {
            "feature_extractor": ("conv1_w", "conv1_b", "conv2_w", "conv2_b"),
            "layer_norm": ("ln_gamma", "ln_beta"),
            "head": ("head_w", "head_b"),
        }
        self._selected: tuple[str, ...] = ("feature_extractor", "layer_norm")
        self.sample_rate_hz = 16000

    # --- shape arithmetic ---------------------------------------------------

    @property
    def min_input_samples(self) -> int:
        return (self.K2 - 1) * self.S1 + self.K1

    def output_length(self, n_samples: int) -> int:
        """Number of logit frames produced for an input of ``n_samples``."""
        if n_samples < self.min_input_samples:
            raise AudioTooShortError(
                f"need >= {self.min_input_samples} samples, got {n_samples}"
            )
        n1 = (n_samples - self.K1) // self.S1 + 1
        return (n1 - self.K2) // self.S2 + 1

    # --- forward / backward ---------------------------------------------------

    def _forward_cached(self, x: np.ndarray) -> dict[str, np.ndarray]:
        p = self._params
        a1 = _conv1d(x[None, :], p["conv1_w"], p["conv1_b"], self.S1)
        h1 = _gelu(a1)
        a2 = _conv1d(h1, p["conv2_w"], p["conv2_b"], self.S2)
        h2 = _gelu(a2)
        mu = h2.mean(axis=0)
        var = h2.var(axis=0)
        inv = 1.0 / np.sqrt(var + _LN_EPS)
        xhat = (h2 - mu) * inv
        h3 = p["ln_gamma"][:, None] * xhat + p["ln_beta"][:, None]
        z = h3.T @ p["head_w"].T + p["head_b"][None, :]
        return {"x": x, "a1": a1, "h1": h1, "a2": a2, "xhat": xhat, "inv": inv, "h3": h3, "z": z}

    def forward(self, w: Waveform) -> LogitMatrix:
        self._check_rate(w)
        self.output_length(len(w.samples))  # raises AudioTooShortError early
        cache = self._forward_cached(w.samples)
        return LogitMatrix(values=cache["z"], blank_index=self._vocab.blank_index)

    def gradient(
        self, w: Waveform, loss_fn: LossFunctional
    ) -> tuple[object, dict[str, np.ndarray]]:
        self._check_rate(w)
        self.output_length(len(w.samples))
        cache = self._forward_cached(w.samples)
        record, dz = loss_fn(LogitMatrix(values=cache["z"], blank_index=self._vocab.blank_index))
        dz = np.asarray(dz, dtype=np.float64)
        if dz.shape != cache["z"].shape:
            raise ValueError(f"loss gradient shape {dz.shape} != logits shape {cache['z'].shape}")

        p = self._params
        selected = set(self._selected)
        grads: dict[str, np.ndarray] = {}
        if "head" in selected:
            grads["head_w"] = dz.T @ cache["h3"].T
            grads["head_b"] = dz.sum(axis=0)
        if not selected & {"layer_norm", "feature_extractor"}:
            return record, grads
        dh3 = p["head_w"].T @ dz.T
        # layer norm (statistics over the channel axis, per frame)
        xhat, inv = cache["xhat"], cache["inv"]
        if "layer_norm" in selected:
            grads["ln_gamma"] = (dh3 * xhat).sum(axis=1)
            grads["ln_beta"] = dh3.sum(axis=1)
        if "feature_extractor" not in selected:
            return record, grads
        dxhat = dh3 * p["ln_gamma"][:, None]
        dh2 = inv[None, :] * (
            dxhat
            - dxhat.mean(axis=0, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=0, keepdims=True)
        )
        # conv stack; conv1's input is the waveform, whose gradient nothing uses
        da2 = dh2 * _gelu_grad(cache["a2"])
        dh1, dw2, db2 = _conv1d_backward(cache["h1"], p["conv2_w"], self.S2, da2)
        grads["conv2_w"], grads["conv2_b"] = dw2, db2
        da1 = dh1 * _gelu_grad(cache["a1"])
        _, dw1, db1 = _conv1d_backward(cache["x"][None, :], p["conv1_w"], self.S1, da1, False)
        grads["conv1_w"], grads["conv1_b"] = dw1, db1
        return record, grads

    # --- parameter management -------------------------------------------------

    def _selected_param_names(self) -> list[str]:
        return [name for g in self._selected for name in self._groups[g]]

    def apply_update(self, deltas: dict[str, np.ndarray]) -> None:
        selected = set(self._selected_param_names())
        for name, delta in deltas.items():
            if name not in self._params:
                raise FrozenParameterError(f"unknown parameter {name!r}")
            if name not in selected:
                raise FrozenParameterError(f"parameter {name!r} is frozen (group not selected)")
            delta = np.asarray(delta, dtype=np.float64)
            if delta.shape != self._params[name].shape:
                raise ValueError(f"delta shape {delta.shape} != parameter {name!r} shape")
            self._params[name] = self._params[name] + delta

    def snapshot(self) -> ModelSnapshot:
        return ModelSnapshot(parameters=self._params)

    def restore(self, snap: ModelSnapshot) -> None:
        for name in self._params:
            if name not in snap.parameters:
                raise ValueError(f"snapshot is missing parameter {name!r}")
            self._params[name] = np.array(snap.parameters[name], copy=True)

    @property
    def selected_groups(self) -> tuple[str, ...]:
        """The parameter groups that ``gradient`` and ``apply_update`` act on."""
        return self._selected

    def select_adaptable(self, groups: list[str] | tuple[str, ...]) -> None:
        for g in groups:
            if g not in self._groups:
                raise UnknownGroupError(g, list(self._groups))
        self._selected = tuple(groups)

    def vocabulary(self) -> Vocabulary:
        return self._vocab

    def _check_rate(self, w: Waveform) -> None:
        if w.sample_rate_hz != self.sample_rate_hz:
            raise ValueError(
                f"model expects {self.sample_rate_hz} Hz audio, got {w.sample_rate_hz}"
            )


def build_reference_model(
    seed: int, vocab: Vocabulary | None = None, feature_dim: int = 32
) -> ReferenceModel:
    """Deterministically initialized reference model (same seed, same weights)."""
    return ReferenceModel(seed=seed, vocab=vocab, feature_dim=feature_dim)


# --- checkpoints ----------------------------------------------------------------


def save_checkpoint(model: ReferenceModel, path: str | Path) -> None:
    """Write named parameter tensors plus model/vocabulary metadata (.npz)."""
    meta = {
        "magic": CHECKPOINT_MAGIC,
        "seed": model._seed,
        "feature_dim": model._feature_dim,
        "sample_rate_hz": model.sample_rate_hz,
        "symbols": list(model.vocabulary().symbols),
        "blank_index": model.vocabulary().blank_index,
        "word_delimiter_index": model.vocabulary().word_delimiter_index,
        "selected_groups": list(model.selected_groups),
    }
    with open(path, "wb") as f:
        np.savez(f, __meta__=np.array(json.dumps(meta)), **model._params)


def load_checkpoint(path: str | Path) -> ReferenceModel:
    """Rebuild a reference model from a checkpoint file.

    Raises:
        CheckpointError: missing file, wrong magic, or missing tensors.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: np.array(data[k]) for k in data.files}
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if "__meta__" not in arrays:
        raise CheckpointError(f"{path} has no metadata record")
    try:
        meta = json.loads(str(arrays.pop("__meta__")))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path} has corrupt metadata") from exc
    if meta.get("magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"{path} is not a {CHECKPOINT_MAGIC} checkpoint (magic={meta.get('magic')!r})"
        )
    vocab = Vocabulary(
        symbols=tuple(meta["symbols"]),
        blank_index=int(meta["blank_index"]),
        word_delimiter_index=int(meta["word_delimiter_index"]),
    )
    model = ReferenceModel(int(meta["seed"]), vocab, int(meta["feature_dim"]))
    missing = [k for k in model._params if k not in arrays]
    if missing:
        raise CheckpointError(f"{path} is missing tensors: {missing}")
    for name in model._params:
        if arrays[name].shape != model._params[name].shape:
            raise CheckpointError(f"{path}: tensor {name} has wrong shape {arrays[name].shape}")
        model._params[name] = arrays[name].astype(np.float64)
    model.select_adaptable(meta.get("selected_groups", ["feature_extractor", "layer_norm"]))
    return model


def checkpoint_fingerprint(path: str | Path) -> str:
    """sha256 of the checkpoint file, used in run manifests."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
