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

The forward pass runs in three stages: the conv stack (conv1, GELU, conv2,
GELU), the layer-norm statistics (giving ``xhat``), and the layer-norm
affine plus the head (giving ``h3``, then the logits, stored class-major: a
C-contiguous C x L array whose transpose is ``LogitMatrix.values``, the
layout the objectives compute in). ``frozen_features
returns the deepest activation no selected group changes: ``xhat`` without
``feature_extractor``, ``h3`` when only ``head`` is selected, None otherwise.
``forward`` and ``gradient`` accept it and start from there, so repeated
steps on one chunk under norm- or head-only adaptation run the conv stack
once.

The backward pass skips what frozen groups need: the head gradients without
``head``, everything below the layer-norm gradients without
``feature_extractor``, and always conv1's input gradient. GELU's derivative
reuses the erf the forward pass computed, and conv2's weight gradient the
im2col matrix its forward pass built, when one tile covered the frames.

Threads. Importing this module pins numpy's OpenBLAS to one thread (see
``threads``), so no result depends on the BLAS thread count. The conv stack
runs on two threads instead: each chunk of L output frames is cut into two
frame spans, [0, L // 2) and [L // 2, L) (one span when L < 2). The caller's
thread runs span 0 and the module-level helper thread runs span 1, at the
same time, with numpy releasing the GIL inside each array operation. A span
reads only the samples its frames see, [S t0, S (t1 - 1) + R) with S the
total stride and R the receptive field, so neighbouring spans share a few
conv1 frames. Per span, the forward pass runs conv1, GELU, conv2, GELU and
the layer-norm statistics, writing its columns of one full-length ``xhat``;
the backward pass runs the layer-norm backward, both GELU backwards, conv2's
input gradient and both conv layers' weight and bias gradients. Everything
else (layer-norm affine, head, loss, head and layer-norm gradients) runs on
the whole chunk in the caller's thread, and each conv gradient is span 0's
plus span 1's, in that order, so results do not depend on which thread
finishes first. ``frozen_features`` runs the same span code, which keeps
``forward(w, frozen)`` bitwise equal to ``forward(w)``. The helper runs only
private functions, under the caller's numpy ``errstate``.

Each span keeps a scratch workspace between calls: named float64 buffers
that its activations, backward temporaries and im2col window tiles are
written into with ``out=``; span 0's also holds the whole-chunk arrays
(``xhat``, ``h3`` and their gradients). Buffers whose contents are dead are
handed on (dxhat, for example, takes h2's buffer), so the workspaces hold
one call's working set for the longest chunk seen so far, and are freed
with the model. Without them every step would allocate and free about ten
full-length arrays, which the C allocator returns to the kernel and then
takes back page by page. Every call writes a buffer before reading it, so
snapshot, restore and ``select_adaptable`` need no invalidation. Nothing
that leaves the model is a view into a workspace: the logits,
``frozen_features`` and the gradients are newly allocated arrays the caller
owns. One model must not be called from two threads at once.

All math is float64 numpy; forward is deterministic and snapshot/restore is
bit-exact by construction.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from pathlib import Path
from typing import Callable, Iterable, TypeVar

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
from . import threads
from .types import LogitMatrix, LossFunctional, ModelSnapshot, Vocabulary, default_vocabulary

CHECKPOINT_MAGIC = "ttabench-refmodel-v1"

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
_LN_EPS = 1e-5
_TILE_FRAMES = 16384

_T = TypeVar("_T")


class _Workspace:
    """Named float64 scratch buffers that persist between calls.

    ``get(name, shape)`` returns a C-contiguous view of the first
    ``prod(shape)`` entries of the buffer called ``name``. A buffer grows to
    the largest size asked of it and never shrinks; its contents are whatever
    its last user wrote, so every caller writes a view before reading it.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        if name not in self._buffers or self._buffers[name].size < size:
            self._buffers.pop(name, None)  # free the old buffer before allocating its successor
            self._buffers[name] = np.empty(size)
        return self._buffers[name][:size].reshape(shape)


def _gelu(
    x: np.ndarray, out: np.ndarray, one_plus_erf: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """GELU of x into ``out``, and 1 + erf(x / sqrt 2) (twice the normal CDF) into
    ``one_plus_erf`` for ``_gelu_backward``; returns both."""
    np.divide(x, _SQRT2, out=one_plus_erf)
    erf(one_plus_erf, out=one_plus_erf)
    np.add(1.0, one_plus_erf, out=one_plus_erf)
    np.multiply(0.5, x, out=out)
    return np.multiply(out, one_plus_erf, out=out), one_plus_erf


def _gelu_backward(
    dh: np.ndarray, x: np.ndarray, one_plus_erf: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """dh * GELU'(x), written over ``dh``; ``one_plus_erf`` and ``tmp`` are overwritten.

    GELU'(x) = 0.5 * (1 + erf(x / sqrt 2)) + x * exp(-x^2 / 2) / sqrt(2 pi).
    """
    np.multiply(-0.5, x, out=tmp)
    np.multiply(tmp, x, out=tmp)
    np.exp(tmp, out=tmp)
    np.multiply(x, tmp, out=tmp)
    np.multiply(tmp, _INV_SQRT_2PI, out=tmp)
    np.multiply(0.5, one_plus_erf, out=one_plus_erf)
    np.add(one_plus_erf, tmp, out=tmp)
    return np.multiply(dh, tmp, out=dh)


def _layer_norm_stats(
    h: np.ndarray, xhat: np.ndarray, inv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame normalization of h (C, L) over the channel axis into ``xhat``, and
    1 / std into ``inv`` (L,); returns both and leaves ``h - mean`` in ``h``.

    The arithmetic is ``(h - h.mean(0)) / sqrt(h.var(0) + eps)`` step for step,
    without the temporaries ``np.var`` allocates.
    """
    np.mean(h, axis=0, out=inv)
    np.subtract(h, inv, out=h)
    np.multiply(h, h, out=xhat)
    np.sum(xhat, axis=0, out=inv)
    np.divide(inv, h.shape[0], out=inv)
    np.add(inv, _LN_EPS, out=inv)
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    return np.multiply(h, inv, out=xhat), inv


def _layer_norm_backward(
    dxhat: np.ndarray, xhat: np.ndarray, inv: np.ndarray, tmp: np.ndarray, ws: _Workspace
) -> np.ndarray:
    """Gradient through ``_layer_norm_stats``, written over ``dxhat``; ``tmp`` is overwritten:
    inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), means over channels."""
    means = ws.get("ln_means", (2, 1, dxhat.shape[1]))
    np.mean(dxhat, axis=0, keepdims=True, out=means[0])
    np.mean(np.multiply(dxhat, xhat, out=tmp), axis=0, keepdims=True, out=means[1])
    np.subtract(dxhat, means[0], out=dxhat)
    np.subtract(dxhat, np.multiply(xhat, means[1], out=tmp), out=dxhat)
    return np.multiply(inv, dxhat, out=dxhat)


def _windows(x: np.ndarray, k: int, stride: int, t0: int, t1: int) -> np.ndarray:
    """The (Cin, t1 - t0, K) view of x's input windows for output frames t0..t1-1."""
    span = x[:, t0 * stride : (t1 - 1) * stride + k]
    return sliding_window_view(span, k, axis=1)[:, ::stride, :]


def _as_matrix(a: np.ndarray, shape: tuple[int, int], ws: _Workspace) -> np.ndarray:
    """``a.reshape(shape)`` without allocating: the view when one exists (one input
    channel), else a copy in ``ws``'s tile-sized window buffer. Either way it is the
    array ``reshape`` returns, laid out the same, so matmul takes the same path."""
    try:
        return a.reshape(shape, copy=False)
    except ValueError:
        out = ws.get("window", shape)
        np.copyto(out.reshape(a.shape), a)
        return out


def _frame_spans(n_frames: int) -> list[tuple[int, int]]:
    """The frame spans a chunk of ``n_frames`` output frames is cut into:
    [0, L // 2) and [L // 2, L), or the whole chunk when L < 2."""
    if n_frames < 2:
        return [(0, n_frames)]
    mid = n_frames // 2
    return [(0, mid), (mid, n_frames)]


def _run_spans(tasks: Iterable[Callable[[], _T]]) -> list[_T]:
    """Each task's result, in order; the second of two runs on the helper thread."""
    tasks = list(tasks)
    if len(tasks) == 1:
        return [tasks[0]()]
    return list(threads.in_parallel(*tasks))


def _conv1d(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, out: np.ndarray, ws: _Workspace
) -> tuple[np.ndarray, np.ndarray | None]:
    """Strided valid cross-correlation into ``out``; x (Cin, N), w (Cout, Cin, K),
    out (Cout, T) with T = (N - K) // stride + 1. Tiles go through ``ws``'s window.

    Returns ``out`` and, when one tile covers all T frames, x's (Cin K, T) im2col
    matrix, which stays valid until ``ws``'s window is next written; else None.
    """
    cin = x.shape[0]
    cout, _, k = w.shape
    t_total = out.shape[1]
    w2 = w.reshape(cout, cin * k)
    for t0 in range(0, t_total, _TILE_FRAMES):
        t1 = min(t0 + _TILE_FRAMES, t_total)
        cols = _as_matrix(_windows(x, k, stride, t0, t1).transpose(0, 2, 1), (cin * k, t1 - t0), ws)
        np.matmul(w2, cols, out=out[:, t0:t1])
    return np.add(out, b[:, None], out=out), cols if t_total <= _TILE_FRAMES else None


def _conv1d_input_grad(
    w: np.ndarray, stride: int, dout: np.ndarray, dx: np.ndarray, ws: _Workspace, pad: str, tile: str
) -> np.ndarray:
    """Input gradient of the strided cross-correlation into ``dx`` (Cin, N), as a
    polyphase transposed convolution (needs K % S == 0): with Q = K // S, one matmul
    per tile of u gives dx[c, S*u + r] = sum_{o,q} dout[o, u - q] * w[o, c, S*q + r].

    ``pad`` and ``tile`` name the workspace buffers for the zero-padded ``dout``
    and each tile's matmul result, so a caller can hand over buffers it is done with.
    """
    cout, cin, k = w.shape
    q = k // stride
    t_total = dout.shape[1]
    # wmat[(c, r), (o, m)] = w[o, c, S*(Q-1-m) + r]
    wmat = w.reshape(cout, cin, q, stride)[:, :, ::-1, :].transpose(1, 3, 0, 2)
    wmat = wmat.reshape(cin * stride, cout * q)
    dpad = ws.get(pad, (cout, t_total + 2 * (q - 1)))
    dpad[:, : q - 1] = 0.0
    dpad[:, q - 1 : q - 1 + t_total] = dout
    dpad[:, q - 1 + t_total :] = 0.0
    u_total = t_total + q - 1  # samples at S * u_total and beyond feed no output
    dx[:, u_total * stride :] = 0.0
    for u0 in range(0, u_total, _TILE_FRAMES):
        u1 = min(u0 + _TILE_FRAMES, u_total)
        win = sliding_window_view(dpad[:, u0 : u1 + q - 1], q, axis=1).transpose(0, 2, 1)
        g = ws.get(tile, (cin * stride, u1 - u0))
        np.matmul(wmat, _as_matrix(win, (cout * q, u1 - u0), ws), out=g)
        dx_tile = dx[:, u0 * stride : u1 * stride].reshape((cin, u1 - u0, stride), copy=False)
        np.copyto(dx_tile, g.reshape(cin, stride, u1 - u0).transpose(0, 2, 1))
    return dx


def _conv1d_weight_grad(
    x: np.ndarray,
    w: np.ndarray,
    stride: int,
    dout: np.ndarray,
    ws: _Workspace,
    cols: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (dw, db) of the strided cross-correlation, newly allocated. ``cols``
    is x's (Cin K, T) im2col matrix of every frame, when the caller still has it
    from ``_conv1d``; without it each tile's is built again in ``ws``'s window."""
    cin = x.shape[0]
    cout, _, k = w.shape
    t_total = dout.shape[1]
    dw = np.zeros_like(w)
    db = dout.sum(axis=1)
    for t0 in range(0, t_total, _TILE_FRAMES):
        t1 = min(t0 + _TILE_FRAMES, t_total)
        if cols is None:
            win = _windows(x, k, stride, t0, t1).transpose(0, 2, 1)
            tile = _as_matrix(win, (cin * k, t1 - t0), ws)
        else:
            tile = cols[:, t0:t1]
        dw += (dout[:, t0:t1] @ tile.T).reshape(cout, cin, k)
    return dw, db


class ReferenceModel:
    """Desk-scale stand-in for a CTC acoustic model, and the model the engine drives.

    Parameter groups: ``feature_extractor`` (both conv layers),
    ``layer_norm`` (scale/shift), ``head`` (class projection). The default
    selection adapts feature_extractor + layer_norm; the head stays frozen.

    Contract the engine relies on: ``forward`` is deterministic given the
    parameters, ``snapshot``/``restore`` are bit-exact, and ``gradient``
    returns the gradients of exactly the selected groups' parameters, which
    agree with central finite differences.

    ``frozen_features(w)`` returns ``xhat`` when ``feature_extractor`` is not
    selected and ``layer_norm`` is, ``h3`` when neither is (``head`` only),
    and None when ``feature_extractor`` is selected. ``forward(w, frozen)``
    and ``gradient(w, loss_fn, frozen)`` given that value return bitwise the
    same as without it, as long as the selection and the unselected groups
    have not changed since it was computed.

    Between calls the model keeps a private workspace per frame span (one
    call's working set for the longest chunk seen so far, freed with the
    model); see the module docstring for the spans and their threads. The
    arrays ``forward``, ``frozen_features`` and ``gradient`` return are
    newly allocated and owned by the caller; later calls never write to them.
    """

    K1, S1 = 32, 2
    K2, S2 = 16, 2
    _HOP = S1 * S2  # samples between consecutive output frames
    _FIELD = (K2 - 1) * S1 + K1  # samples one output frame reads

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
        self._span_ws = (_Workspace(), _Workspace())  # one per frame span

    # --- shape arithmetic ---------------------------------------------------

    @property
    def min_input_samples(self) -> int:
        return self._FIELD

    def output_length(self, n_samples: int) -> int:
        """Number of logit frames produced for an input of ``n_samples``."""
        if n_samples < self.min_input_samples:
            raise AudioTooShortError(
                f"need >= {self.min_input_samples} samples, got {n_samples}"
            )
        n1 = (n_samples - self.K1) // self.S1 + 1
        return (n1 - self.K2) // self.S2 + 1

    # --- forward / backward ---------------------------------------------------

    def _span_forward(
        self, x: np.ndarray, t0: int, t1: int, ws: _Workspace, xhat: np.ndarray, inv: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Conv stack and layer-norm statistics of output frames t0..t1-1, from the
        samples they read; writes ``xhat[:, t0:t1]`` and ``inv[t0:t1]``. Returns what
        the span's backward pass reads, as views into ``ws``."""
        p = self._params
        xs = x[self._HOP * t0 : self._HOP * (t1 - 1) + self._FIELD]
        n1 = (len(xs) - self.K1) // self.S1 + 1
        shape1 = (p["conv1_w"].shape[0], n1)
        shape2 = (p["conv2_w"].shape[0], t1 - t0)
        a1, _ = _conv1d(xs[None, :], p["conv1_w"], p["conv1_b"], self.S1, ws.get("a1", shape1), ws)
        h1, erf1 = _gelu(a1, ws.get("h1", shape1), ws.get("erf1", shape1))
        a2, cols2 = _conv1d(h1, p["conv2_w"], p["conv2_b"], self.S2, ws.get("a2", shape2), ws)
        h2, erf2 = _gelu(a2, ws.get("h2", shape2), ws.get("erf2", shape2))
        _layer_norm_stats(h2, xhat[:, t0:t1], inv[t0:t1])
        # nothing writes the window again before the backward pass takes conv2's
        # weight gradient from cols2
        return {
            "x": xs, "a1": a1, "erf1": erf1, "h1": h1, "a2": a2, "erf2": erf2, "cols2": cols2
        }

    def _span_backward(
        self,
        span: dict[str, np.ndarray],
        dh3: np.ndarray,
        xhat: np.ndarray,
        inv: np.ndarray,
        t0: int,
        t1: int,
        ws: _Workspace,
    ) -> dict[str, np.ndarray]:
        """The conv gradients of output frames t0..t1-1, newly allocated; ``span`` is
        what ``_span_forward`` returned for them.

        Spans share conv1 frames near their border, so each span's conv1 gradients
        cover only its own conv2 frames' share; the sum over spans is the whole.
        """
        p = self._params
        shape2 = (dh3.shape[0], t1 - t0)
        # each buffer below takes over from an activation the backward pass has
        # finished with: h2 once the statistics are taken, then a2, erf2 and tmp
        # once da2 is formed
        dxhat = np.multiply(dh3[:, t0:t1], p["ln_gamma"][:, None], out=ws.get("h2", shape2))
        tmp = ws.get("tmp", shape2)
        dh2 = _layer_norm_backward(dxhat, xhat[:, t0:t1], inv[t0:t1], tmp, ws)
        da2 = _gelu_backward(dh2, span["a2"], span["erf2"], tmp)
        h1 = span["h1"]
        # conv2's weight gradient before its input gradient, which writes the window
        # that cols2 is a view of; popped, cols2 no longer keeps the window's old
        # buffer alive when the input gradient grows it
        grads: dict[str, np.ndarray] = {}
        grads["conv2_w"], grads["conv2_b"] = _conv1d_weight_grad(
            h1, p["conv2_w"], self.S2, da2, ws, span.pop("cols2")
        )
        dh1 = _conv1d_input_grad(
            p["conv2_w"], self.S2, da2, ws.get("erf2", h1.shape), ws, pad="a2", tile="tmp"
        )
        # conv1's input is the waveform, whose gradient nothing uses
        da1 = _gelu_backward(dh1, span["a1"], span["erf1"], ws.get("tmp", h1.shape))
        x = span["x"][None, :]
        grads["conv1_w"], grads["conv1_b"] = _conv1d_weight_grad(x, p["conv1_w"], self.S1, da1, ws)
        return grads

    def _conv_features(
        self, x: np.ndarray, xhat: np.ndarray, inv: np.ndarray
    ) -> list[dict[str, np.ndarray]]:
        """``_span_forward`` of every frame span, in parallel; fills ``xhat`` and ``inv``."""
        return _run_spans(
            functools.partial(self._span_forward, x, t0, t1, ws, xhat, inv)
            for (t0, t1), ws in zip(_frame_spans(xhat.shape[1]), self._span_ws)
        )

    def _ln_affine(self, xhat: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(self._params["ln_gamma"][:, None], xhat, out=out)
        return np.add(out, self._params["ln_beta"][:, None], out=out)

    def _frozen_stage(self) -> str | None:
        selected = set(self._selected)
        if "feature_extractor" in selected:
            return None
        return "xhat" if "layer_norm" in selected else "h3"

    def _features_shape(self, n_samples: int) -> tuple[int, int]:
        return self._params["ln_gamma"].shape[0], self.output_length(n_samples)

    def frozen_features(self, w: Waveform) -> np.ndarray | None:
        """The deepest activation of ``w`` that no selected group changes, or None.

        ``xhat`` is the normalized conv output before the layer-norm affine,
        ``h3`` the layer-norm output (see the class docstring for which one).
        Pass it to ``forward`` and ``gradient`` for the same waveform under
        the same selection; updates of the selected groups keep it valid.
        The array is newly allocated and owned by the caller.
        """
        stage = self._frozen_stage()
        if stage is None:
            return None
        self._check_rate(w)
        shape = self._features_shape(len(w.samples))
        xhat = np.empty(shape)
        self._conv_features(w.samples, xhat, self._span_ws[0].get("inv", shape[1:]))
        return xhat if stage == "xhat" else self._ln_affine(xhat, xhat)

    def _forward_cached(self, x: np.ndarray, frozen: np.ndarray | None) -> dict[str, np.ndarray]:
        """Every activation the backward pass reads, and the class-major C x L logits
        ``z``; all but ``z`` and ``frozen`` are views into the workspaces, valid until
        the next call."""
        ws = self._span_ws[0]
        shape = self._features_shape(len(x))
        if frozen is None:
            xhat, inv = ws.get("xhat", shape), ws.get("inv", shape[1:])
            cache: dict = {"xhat": xhat, "inv": inv, "spans": self._conv_features(x, xhat, inv)}
        else:
            stage = self._frozen_stage()
            if stage is None:
                raise ValueError("frozen features given, but feature_extractor is selected")
            if frozen.shape != shape:
                raise ValueError(f"frozen features shape {frozen.shape} != {shape}")
            cache = {stage: frozen}
        if "h3" not in cache:
            cache["h3"] = self._ln_affine(cache["xhat"], ws.get("h3", shape))
        p = self._params
        z = np.matmul(p["head_w"], cache["h3"])
        cache["z"] = np.add(z, p["head_b"][:, None], out=z)
        return cache

    def forward(self, w: Waveform, frozen: np.ndarray | None = None) -> LogitMatrix:
        """Logits for ``w``; ``frozen`` is ``frozen_features(w)``, or None to run every layer."""
        self._check_rate(w)
        cache = self._forward_cached(w.samples, frozen)
        return LogitMatrix(values=cache["z"].T, blank_index=self._vocab.blank_index)

    def gradient(
        self, w: Waveform, loss_fn: LossFunctional, frozen: np.ndarray | None = None
    ) -> tuple[object, dict[str, np.ndarray]]:
        """Loss record and selected-group gradients; ``frozen`` as in ``forward``."""
        self._check_rate(w)
        cache = self._forward_cached(w.samples, frozen)
        z = cache["z"].T
        record, dz = loss_fn(LogitMatrix(values=z, blank_index=self._vocab.blank_index))
        dz = np.asarray(dz, dtype=np.float64)
        if dz.shape != z.shape:
            raise ValueError(f"loss gradient shape {dz.shape} != logits shape {z.shape}")

        p, ws = self._params, self._span_ws[0]
        dzt = dz.T  # class-major, as the objectives return it
        selected = set(self._selected)
        grads: dict[str, np.ndarray] = {}
        if "head" in selected:
            grads["head_w"] = dzt @ cache["h3"].T
            grads["head_b"] = dzt.sum(axis=1)
        if not selected & {"layer_norm", "feature_extractor"}:
            return record, grads
        xhat = cache["xhat"]
        # h3 is spent once the head gradient is taken; its buffer takes dh3
        dh3 = np.matmul(p["head_w"].T, dzt, out=ws.get("h3", xhat.shape))
        # layer norm (statistics over the channel axis, per frame)
        if "layer_norm" in selected:
            grads["ln_gamma"] = np.einsum("cl,cl->c", dh3, xhat)
            grads["ln_beta"] = dh3.sum(axis=1)
        if "feature_extractor" not in selected:
            return record, grads
        parts = _run_spans(
            functools.partial(self._span_backward, span, dh3, xhat, cache["inv"], t0, t1, ws_i)
            for span, (t0, t1), ws_i in zip(
                cache["spans"], _frame_spans(xhat.shape[1]), self._span_ws
            )
        )
        grads.update(parts[0])
        for part in parts[1:]:
            for name, g in part.items():
                grads[name] += g
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
