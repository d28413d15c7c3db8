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
GELU), the layer-norm statistics (giving ``xhat``), and the head with the
layer-norm affine folded in. With W, b the head and gamma, beta the affine,
the logits z = W (gamma xhat + beta) + b are computed as z = A xhat + c,
A = W diag(gamma) (C x F) and c = W beta + b, so no layer-norm output is
ever formed. The logits are stored class-major: a C-contiguous C x L array
whose transpose is ``LogitMatrix.values``, the layout the objectives compute
in. ``frozen_features`` returns ``xhat`` when ``feature_extractor`` is not
selected, None otherwise. ``forward`` and ``gradient`` accept it and start
from there, so repeated steps on one chunk under norm- or head-only
adaptation run the conv stack once.

The backward pass reads the logit gradient dz through two small products,
M = dz xhat^T (C x F) and s, the sum of dz over frames: the head gradients
are dW = M diag(gamma) + s beta^T and db = s, and the layer-norm gradients
are dgamma = sum over classes of W * M and dbeta = W^T s. Each frame span
forms its own dxhat = A^T dz over its frames. The backward pass skips what
frozen groups need: the head gradients without ``head``, everything below
the layer-norm gradients without ``feature_extractor``, and always conv1's
input gradient. GELU's derivative reuses the erf the forward pass computed.

Polyphase convolution, with no im2col matrix. Conv1's output is stored
phase-major: (S2, C1, U) with U = T + Q - 1 for T output frames and
Q = K2 / S2 = 8, so out[r, :, u] is conv1 frame S2 u + r. Conv1 runs as one
matmul per phase over a stride-4 view of the samples, and GELU and its
backward read the layout as it is. Conv2 reads X = h1 as an (S2 C1, U)
matrix, and with W_j[o, (r, c)] = w[o, c, S2 j + r] (``_phase_taps``, formed
once per call) it runs as Q matmuls with K = S2 C1 = 32 over contiguous rows:
a2 = b + sum_j W_j X[:, j : j + T]. Its weight gradient is the Q blocks
da2 X[:, j : j + T]^T, transposed once into w's layout, and its input
gradient sum_j W_j^T pad(da2)[:, Q - 1 - j : Q - 1 - j + U], with Q - 1 zero
columns on each side of da2, which comes out phase-major like h1. Conv1's
weight gradient takes the same strided views of the samples as its forward
pass.

Threads. Importing this module pins numpy's OpenBLAS to one thread (see
``threads``), so no result depends on the BLAS thread count. The conv stack
runs on two threads instead: each chunk of L output frames is cut into frame
spans of at most B = ``FRAME_BUDGET`` frames (``model/types.py``), which run
two at a time, the first of each pair on the caller's thread and the second
on the module-level helper thread, with numpy releasing the GIL inside each
array operation. A chunk of L <= 2 B frames is two spans, [0, L // 2) and
[L // 2, L) (one span when L < 2); a longer one is the fewest near-equal
spans that come in pairs. A span reads only the samples its frames see,
[S t0, S (t1 - 1) + R) with S the total stride and R the receptive field, so
neighbouring spans share a few conv1 frames. Per span, the forward pass runs
conv1, GELU, conv2, GELU and the layer-norm statistics, writing its columns
of one full-length ``xhat``; the backward pass runs the layer-norm backward,
both GELU backwards, conv2's input gradient and both conv layers' weight and
bias gradients. Everything else (head, loss, head and layer-norm gradients)
runs on the whole chunk in the caller's thread, and each conv gradient is
the sum of the spans' in span order, so results do not depend on which
thread finishes first. ``frozen_features`` and ``forward`` run the same span
code as ``gradient``, which keeps ``forward(w, frozen)`` bitwise equal to
``forward(w)``. The helper runs only private functions, under the caller's
numpy ``errstate``.

Recompute above the budget (Chen et al. 2016, arXiv:1604.06174). With two
spans the forward pass keeps each span's conv activations for the backward
pass. With more, a pair's activations overwrite the pair's before it, so the
forward pass keeps only ``xhat`` and the layer-norm ``inv``, and the
backward pass runs each span's conv stack again just before that span's
backward. That costs one more conv forward per step on chunks above 2 B
frames; their conv gradients differ from a two-span pass by reassociation
only.

Each of the two threads' spans keeps a scratch workspace between calls:
named float64 buffers that its activations and backward temporaries are
written into with ``out=``. What a span keeps depends on whether a backward
pass will read it. ``gradient`` with ``feature_extractor`` selected keeps
each span's samples (a view), conv1's output, erf term and GELU h1 (conv2's
input X), and conv2's output and erf term; with h2, whose buffer the
backward pass reuses, and one scratch buffer for conv2's products and the
backward temporaries, a span takes seven buffers of about C2 T floats. Every
other call (``frozen_features``, ``forward``, ``gradient`` under a selection
that freezes the conv stack, and the forward pass above two spans, whose
activations are recomputed) keeps nothing: GELU runs in place, conv2 writes
its output over conv1's erf scratch and GELU's erf over the products'
scratch, so a span takes three such buffers. Buffers whose contents are dead
are handed on (dxhat, for example, takes h2's buffer), so the workspaces
hold one call's working set for at most 2 B frames, however long the
chunks, and are freed with the model; ``frozen_features`` frees them before
it returns, since no step reads them under a selection that freezes the
conv stack.

A third workspace, the chunk workspace, holds the whole-chunk arrays of a
chunk of at most 2 B frames: ``xhat`` and the layer-norm ``inv`` when the
conv stack runs, and ``gradient``'s logits and logit gradient; a longer
chunk's live in a workspace of their own, freed when the call returns.
``gradient`` lends the logit-gradient buffer to every loss functional as
``out``, and takes back only that buffer, so a warm step allocates no array
the size of the chunk. Without workspaces every step would allocate and free
about ten full-length arrays, which the C allocator maps and unmaps, or
returns to the kernel and then takes back page by page. Every call writes a
buffer before reading it, so snapshot, restore and ``select_adaptable`` need
no invalidation. Nothing that leaves the model is a view into a workspace:
``forward``'s logits, ``frozen_features`` and the gradients are newly
allocated arrays the caller owns. One model must not be called from two
threads at once.

All math is float64 numpy; forward is deterministic and snapshot/restore is
bit-exact by construction.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import zipfile
import zlib
from pathlib import Path
from typing import Callable, Iterable, TypeVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from ..corpus.audio import Waveform
from ..errors import (
    AudioTooShortError,
    CheckpointError,
    ConfigError,
    FrozenParameterError,
)
from ..jsonfields import INTEGER, STRING, STRINGS, Fields, check_object
from . import threads, types
from .types import (
    LogitMatrix,
    LossFunctional,
    ModelSnapshot,
    Vocabulary,
    Workspace,
    default_vocabulary,
)

CHECKPOINT_MAGIC = "ttabench-refmodel-v1"

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
_LN_EPS = 1e-5

_T = TypeVar("_T")


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
    dxhat: np.ndarray, xhat: np.ndarray, inv: np.ndarray, tmp: np.ndarray, ws: Workspace
) -> np.ndarray:
    """Gradient through ``_layer_norm_stats``, written over ``dxhat``; ``tmp`` is overwritten:
    inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), means over channels."""
    means = ws.get("ln_means", (2, 1, dxhat.shape[1]))
    np.mean(dxhat, axis=0, keepdims=True, out=means[0])
    np.mean(np.multiply(dxhat, xhat, out=tmp), axis=0, keepdims=True, out=means[1])
    np.subtract(dxhat, means[0], out=dxhat)
    np.subtract(dxhat, np.multiply(xhat, means[1], out=tmp), out=dxhat)
    return np.multiply(inv, dxhat, out=dxhat)


def _frame_spans(n_frames: int) -> list[tuple[int, int]]:
    """The frame spans a chunk of ``n_frames`` output frames is cut into: the whole
    chunk when L < 2, else the fewest near-equal spans of at most ``FRAME_BUDGET``
    frames that come in pairs, which is [0, L // 2) and [L // 2, L) when L <= 2 B."""
    if n_frames < 2:
        return [(0, n_frames)]
    n_spans = 2 * -(-n_frames // (2 * types.FRAME_BUDGET))
    edges = [i * n_frames // n_spans for i in range(n_spans + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _run_spans(tasks: Iterable[Callable[[], _T]]) -> list[_T]:
    """Each task's result, in order; tasks run two at a time, the second of each pair
    on the helper thread."""
    tasks = list(tasks)
    results: list[_T] = []
    for i in range(0, len(tasks), 2):
        pair = tasks[i : i + 2]
        results.extend(threads.in_parallel(*pair) if len(pair) == 2 else [pair[0]()])
    return results


def _phase_frames(x: np.ndarray, k: int, stride: int, phases: int) -> list[np.ndarray]:
    """Per output phase r, the (U, K) view of the input windows of the strided
    cross-correlation of the samples ``x``: row u is the window of output frame
    ``phases * u + r``, for the first ``phases * U`` frames."""
    frames = sliding_window_view(x, k)[::stride]
    u = len(frames) // phases
    return [frames[r::phases][:u] for r in range(phases)]


def _conv1_phases(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, phases: int, ws: Workspace
) -> np.ndarray:
    """Strided valid cross-correlation of the samples ``x`` with w (Cout, 1, K),
    phase-major in ``ws``'s a1 buffer: out[r, :, u] is output frame
    ``phases * u + r``. One matmul per phase, over a strided view of x."""
    cout, _, k = w.shape
    views = _phase_frames(x, k, stride, phases)
    out = ws.get("a1", (phases, cout, len(views[0])))
    for r, view in enumerate(views):
        np.matmul(w.reshape(cout, k), view.T, out=out[r])
    return np.add(out, b[:, None], out=out)


def _conv1_weight_grad(
    x: np.ndarray, dout: np.ndarray, k: int, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (dw, db) of ``_conv1_phases``, newly allocated; ``dout`` is
    phase-major like its output."""
    phases, cout, _ = dout.shape
    views = _phase_frames(x, k, stride, phases)
    dw = sum(dout[r] @ view for r, view in enumerate(views))
    return dw.reshape(cout, 1, k), dout.sum(axis=(0, 2))


def _phase_taps(w: np.ndarray, stride: int) -> np.ndarray:
    """The Q = K / S tap blocks of w (Cout, Cin, K) for ``_polyphase_conv`` (needs
    K % S == 0), as one (Q, Cout, S Cin) array: taps[j][o, (r, c)] = w[o, c, S j + r]."""
    cout, cin, k = w.shape
    q = k // stride
    return w.reshape(cout, cin, q, stride).transpose(2, 0, 3, 1).reshape(q, cout, stride * cin)


def _polyphase_conv(
    x: np.ndarray, taps: np.ndarray, b: np.ndarray, out: np.ndarray, ws: Workspace
) -> np.ndarray:
    """Strided valid cross-correlation into ``out`` (Cout, T) of an input stored
    phase-major, x[(r, c), u] = input[c, S u + r] with U = T + Q - 1 columns:
    out = b + sum_j taps[j] x[:, j : j + T], Q matmuls over contiguous rows and no
    im2col matrix. Products after the first pass through ``ws``'s scratch buffer."""
    t = out.shape[1]
    np.matmul(taps[0], x[:, :t], out=out)
    prod = ws.get("scratch", out.shape)
    for j in range(1, len(taps)):
        out += np.matmul(taps[j], x[:, j : j + t], out=prod)
    return np.add(out, b[:, None], out=out)


def _polyphase_weight_grad(
    dout: np.ndarray, x: np.ndarray, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (dw, db) of ``_polyphase_conv``, newly allocated: the Q blocks
    dout x[:, j : j + T]^T are written into one array and transposed once into
    w's (Cout, Cin, K) layout."""
    cout, t = dout.shape
    q = x.shape[1] - t + 1
    blocks = np.empty((q, cout, x.shape[0]))
    for j in range(q):
        np.matmul(dout, x[:, j : j + t].T, out=blocks[j])
    dw = blocks.reshape(q, cout, stride, -1).transpose(1, 3, 0, 2).reshape(cout, -1, q * stride)
    return dw, dout.sum(axis=1)


def _polyphase_input_grad(
    taps: np.ndarray, dout: np.ndarray, dx: np.ndarray, ws: Workspace, pad: str
) -> np.ndarray:
    """Input gradient of ``_polyphase_conv`` into ``dx`` (S Cin, U), phase-major like
    its input: dx = sum_j taps[j]^T dpad[:, Q - 1 - j : Q - 1 - j + U], with dpad
    ``dout`` between Q - 1 zero columns on each side. Input samples at S U and
    beyond feed no output, so their gradient is zero and not stored.

    ``pad`` names the workspace buffer for dpad, so a caller can hand over one it
    is done with; products after the first pass through the scratch buffer.
    """
    q = len(taps)
    cout, t = dout.shape
    u = dx.shape[1]
    dpad = ws.get(pad, (cout, t + 2 * (q - 1)))
    dpad[:, : q - 1] = 0.0
    dpad[:, q - 1 : q - 1 + t] = dout
    dpad[:, q - 1 + t :] = 0.0
    np.matmul(taps[0].T, dpad[:, q - 1 : q - 1 + u], out=dx)
    prod = ws.get("scratch", dx.shape)
    for j in range(1, q):
        dx += np.matmul(taps[j].T, dpad[:, q - 1 - j : q - 1 - j + u], out=prod)
    return dx


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
    selected, and None when it is. ``forward(w, frozen)``
    and ``gradient(w, loss_fn, frozen)`` given that value return bitwise the
    same as without it, as long as the selection and the unselected groups
    have not changed since it was computed.

    Between calls the model keeps a private workspace per thread (one call's
    working set for at most ``2 * FRAME_BUDGET`` output frames, freed with the
    model); see the module docstring for the spans and their threads. The
    arrays ``forward``, ``frozen_features`` and ``gradient`` return are
    newly allocated and owned by the caller; later calls never write to them.
    A pickled model carries its parameters, not its workspaces: the copy
    starts with empty ones.
    """

    K1, S1 = 32, 2
    K2, S2 = 16, 2
    HOP = S1 * S2  # samples between consecutive output frames
    FIELD = (K2 - 1) * S1 + K1  # samples one output frame reads

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
        self._source_sha256: str | None = None
        self._new_workspaces()

    def _new_workspaces(self) -> None:
        self._span_ws = (Workspace(), Workspace())  # one per frame span
        self._chunk_ws = Workspace()  # the whole-chunk arrays of at most 2 B frames

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_span_ws"], state["_chunk_ws"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._new_workspaces()

    @property
    def source_sha256(self) -> str | None:
        """sha256 of the checkpoint bytes ``load_checkpoint`` built the model from;
        None for a model built in memory."""
        return self._source_sha256

    # --- shape arithmetic ---------------------------------------------------

    def output_length(self, n_samples: int) -> int:
        """Number of logit frames produced for an input of ``n_samples``."""
        if n_samples < self.FIELD:
            raise AudioTooShortError(f"need >= {self.FIELD} samples, got {n_samples}")
        n1 = (n_samples - self.K1) // self.S1 + 1
        return (n1 - self.K2) // self.S2 + 1

    # --- forward / backward ---------------------------------------------------

    def _span_convs(
        self, x: np.ndarray, t0: int, t1: int, ws: Workspace, taps2: np.ndarray, keep: bool
    ) -> dict[str, np.ndarray]:
        """Conv stack of output frames t0..t1-1, from the samples ``xs`` they read, as
        views into ``ws``; conv1's output and its GELU are phase-major, (S2, C1, U) with
        U = t1 - t0 + Q - 1, and ``taps2`` is ``_phase_taps`` of conv2's weights. With
        ``keep``, returns what the span's backward pass reads, and ``h2``; without, only
        ``h2``, computed in three conv1-sized buffers: conv1's output with its GELU in
        place, the erf scratch, which conv2's output and its GELU then take over, and
        the scratch for conv2's products, which GELU's erf then takes over."""
        p = self._params
        xs = x[self.HOP * t0 : self.HOP * (t1 - 1) + self.FIELD]
        a1 = _conv1_phases(xs, p["conv1_w"], p["conv1_b"], self.S1, self.S2, ws)
        h1, erf1 = _gelu(a1, ws.get("h1", a1.shape) if keep else a1, ws.get("erf1", a1.shape))
        x2 = h1.reshape(-1, a1.shape[2])
        shape2 = (p["conv2_w"].shape[0], t1 - t0)
        out2 = ws.get("a2" if keep else "erf1", shape2)
        a2 = _polyphase_conv(x2, taps2, p["conv2_b"], out2, ws)
        erf2 = ws.get("erf2" if keep else "scratch", shape2)
        h2, erf2 = _gelu(a2, ws.get("h2", shape2) if keep else a2, erf2)
        if not keep:
            return {"h2": h2}
        return {"xs": xs, "a1": a1, "erf1": erf1, "x2": x2, "a2": a2, "erf2": erf2, "h2": h2}

    def _span_forward(
        self,
        x: np.ndarray,
        t0: int,
        t1: int,
        ws: Workspace,
        taps2: np.ndarray,
        xhat: np.ndarray,
        inv: np.ndarray,
        keep: bool,
    ) -> dict[str, np.ndarray]:
        """``_span_convs`` and the layer-norm statistics of output frames t0..t1-1;
        writes ``xhat[:, t0:t1]`` and ``inv[t0:t1]``."""
        span = self._span_convs(x, t0, t1, ws, taps2, keep)
        _layer_norm_stats(span.pop("h2"), xhat[:, t0:t1], inv[t0:t1])
        return span

    def _span_backward(
        self,
        span: dict[str, np.ndarray],
        taps2: np.ndarray,
        a_t: np.ndarray,
        dzt: np.ndarray,
        xhat: np.ndarray,
        inv: np.ndarray,
        t0: int,
        t1: int,
        ws: Workspace,
    ) -> dict[str, np.ndarray]:
        """The conv gradients of output frames t0..t1-1, newly allocated; ``span`` is
        what ``_span_forward`` kept for them, ``a_t`` the transposed folded head and
        ``dzt`` the class-major logit gradient of the whole chunk.

        Spans share conv1 frames near their border, so each span's conv1 gradients
        cover only its own conv2 frames' share; the sum over spans is the whole.
        """
        shape2 = (a_t.shape[0], t1 - t0)
        # each buffer below takes over from an activation the backward pass has
        # finished with: h2 once the statistics are taken, then a2 and erf2 once
        # da2 is formed
        dxhat = np.matmul(a_t, dzt[:, t0:t1], out=ws.get("h2", shape2))
        tmp = ws.get("scratch", shape2)
        dh2 = _layer_norm_backward(dxhat, xhat[:, t0:t1], inv[t0:t1], tmp, ws)
        da2 = _gelu_backward(dh2, span["a2"], span["erf2"], tmp)
        x2, a1 = span["x2"], span["a1"]
        grads: dict[str, np.ndarray] = {}
        grads["conv2_w"], grads["conv2_b"] = _polyphase_weight_grad(da2, x2, self.S2)
        # phase-major like h1, so GELU's backward reads it as it is
        dh1 = _polyphase_input_grad(taps2, da2, ws.get("erf2", x2.shape), ws, pad="a2")
        # conv1's input is the waveform, whose gradient nothing uses
        da1 = _gelu_backward(dh1.reshape(a1.shape), a1, span["erf1"], ws.get("scratch", a1.shape))
        grads["conv1_w"], grads["conv1_b"] = _conv1_weight_grad(span["xs"], da1, self.K1, self.S1)
        return grads

    def _conv_features(
        self, x: np.ndarray, taps2: np.ndarray, xhat: np.ndarray, inv: np.ndarray, keep: bool
    ) -> list[dict[str, np.ndarray]] | None:
        """``_span_forward`` of every frame span, two at a time; fills ``xhat`` and
        ``inv``. With ``keep``, returns each span's activations when there are two
        spans or one; else, or with more spans (whose pairs would overwrite the
        pairs' before them), None."""
        spans = _frame_spans(xhat.shape[1])
        keep = keep and len(spans) <= 2
        acts = _run_spans(
            functools.partial(
                self._span_forward, x, t0, t1, self._span_ws[i % 2], taps2, xhat, inv, keep
            )
            for i, (t0, t1) in enumerate(spans)
        )
        return acts if keep else None

    def _head(self) -> tuple[np.ndarray, np.ndarray]:
        """The head with the layer-norm affine folded in: A = W diag(gamma), c = W beta + b."""
        p = self._params
        return p["head_w"] * p["ln_gamma"], p["head_w"] @ p["ln_beta"] + p["head_b"]

    def _features_frozen(self) -> bool:
        return "feature_extractor" not in self._selected

    def _features_shape(self, n_samples: int) -> tuple[int, int]:
        return self._params["ln_gamma"].shape[0], self.output_length(n_samples)

    def frozen_features(self, w: Waveform) -> np.ndarray | None:
        """``xhat``, the normalized conv output of ``w`` before the layer-norm affine,
        when ``feature_extractor`` is not selected; else None.

        Pass it to ``forward`` and ``gradient`` for the same waveform under
        the same selection; updates of the selected groups keep it valid.
        The array is newly allocated and owned by the caller. The model's span
        workspaces are freed before it returns.
        """
        if not self._features_frozen():
            return None
        self._check_rate(w)
        shape = self._features_shape(len(w.samples))
        xhat = np.empty(shape)
        taps2 = _phase_taps(self._params["conv2_w"], self.S2)
        try:  # no step reads the conv stack's buffers under this selection
            self._conv_features(w.samples, taps2, xhat, np.empty(shape[1:]), keep=False)
        finally:
            for ws in self._span_ws:
                ws.clear()
        return xhat

    def _chunk_workspace(self, n_frames: int) -> Workspace:
        """Where a chunk's whole-chunk arrays go: the model's own workspace for at
        most two spans' budget, else a new one, freed with them."""
        return self._chunk_ws if n_frames <= 2 * types.FRAME_BUDGET else Workspace()

    def _forward_cached(
        self,
        x: np.ndarray,
        frozen: np.ndarray | None,
        keep: bool = False,
        z: np.ndarray | None = None,
    ) -> dict[str, np.ndarray]:
        """The folded head's ``a`` (``_head``), the class-major C x L logits ``z``
        (written into the given ``z``, else newly allocated) and ``xhat``; unless
        ``frozen`` is given, also the layer-norm ``inv``, conv2's ``taps`` and what
        ``_conv_features`` returns under ``keep``. ``xhat`` and ``inv`` are views
        into ``_chunk_workspace``, the activations views into the span workspaces,
        all valid until the next call."""
        shape = self._features_shape(len(x))
        cache: dict = {}
        if frozen is None:
            ws = self._chunk_workspace(shape[1])
            xhat, inv = ws.get("xhat", shape), ws.get("inv", shape[1:])
            taps2 = _phase_taps(self._params["conv2_w"], self.S2)
            spans = self._conv_features(x, taps2, xhat, inv, keep)
            cache.update(xhat=xhat, inv=inv, taps=taps2, spans=spans)
        else:
            if not self._features_frozen():
                raise ValueError("frozen features given, but feature_extractor is selected")
            if frozen.shape != shape:
                raise ValueError(f"frozen features shape {frozen.shape} != {shape}")
            cache["xhat"] = frozen
        cache["a"], c = self._head()
        z = np.matmul(cache["a"], cache["xhat"], out=z)
        cache["z"] = np.add(z, c[:, None], out=z)
        return cache

    def forward(self, w: Waveform, frozen: np.ndarray | None = None) -> LogitMatrix:
        """Logits for ``w``; ``frozen`` is ``frozen_features(w)``, or None to run every layer."""
        self._check_rate(w)
        cache = self._forward_cached(w.samples, frozen)
        return LogitMatrix(values=cache["z"].T, blank_index=self._vocab.blank_index)

    def gradient(
        self, w: Waveform, loss_fn: LossFunctional, frozen: np.ndarray | None = None
    ) -> tuple[object, dict[str, np.ndarray]]:
        """Loss record and selected-group gradients; ``frozen`` as in ``forward``.

        The logits ``loss_fn`` is given are a view into the model's workspace,
        valid during the call. ``loss_fn`` is called as ``loss_fn(logits, out=dz)``,
        with ``dz`` an L x C view of the workspace's logit-gradient buffer; it
        writes d loss / d logits into ``dz`` and returns ``dz`` or a view of it
        with the same shape and strides. Anything else raises ValueError.
        """
        self._check_rate(w)
        p = self._params
        shape = (p["head_w"].shape[0], self.output_length(len(w.samples)))
        ws = self._chunk_workspace(shape[1])
        keep = not self._features_frozen()
        cache = self._forward_cached(w.samples, frozen, keep, z=ws.get("z", shape))
        logits = LogitMatrix(values=cache["z"].T, blank_index=self._vocab.blank_index)
        dzt = ws.get("dz", shape)  # class-major, the layout the backward pass reads
        record, dz = loss_fn(logits, out=dzt.T)
        # the same memory, shape and strides as the lent view
        if getattr(dz, "__array_interface__", None) != dzt.T.__array_interface__:
            raise ValueError("a loss functional must return the gradient array it is lent as out")

        xhat = cache["xhat"]
        selected = set(self._selected)
        grads: dict[str, np.ndarray] = {}
        if selected & {"head", "layer_norm"}:
            # with M = dz xhat^T and s the frame sum of dz, every head and layer-norm
            # gradient is a C x F product, so no whole-chunk array is formed
            m, s = dzt @ xhat.T, dzt.sum(axis=1)
            if "head" in selected:
                grads["head_w"] = m * p["ln_gamma"] + np.outer(s, p["ln_beta"])
                grads["head_b"] = s
            if "layer_norm" in selected:
                grads["ln_gamma"] = np.einsum("ck,ck->k", p["head_w"], m)
                grads["ln_beta"] = p["head_w"].T @ s
        if "feature_extractor" not in selected:
            return record, grads
        spans, acts, inv = _frame_spans(xhat.shape[1]), cache["spans"], cache["inv"]
        a_t, taps2 = cache["a"].T, cache["taps"]

        def span_grads(i: int, t0: int, t1: int) -> dict[str, np.ndarray]:
            ws_i = self._span_ws[i % 2]
            if acts is not None:
                act = acts[i]
            else:
                act = self._span_convs(w.samples, t0, t1, ws_i, taps2, True)
            return self._span_backward(act, taps2, a_t, dzt, xhat, inv, t0, t1, ws_i)

        parts = _run_spans(
            functools.partial(span_grads, i, t0, t1) for i, (t0, t1) in enumerate(spans)
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
                known = list(self._groups)
                raise ConfigError(f"unknown parameter group {g!r}; known groups: {known}")
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


# the metadata keys save_checkpoint writes, with the JSON type of each; a
# checkpoint may leave out selected_groups
_META_FIELDS = Fields(
    {
        "magic": STRING,
        **dict.fromkeys(("seed", "feature_dim", "sample_rate_hz"), INTEGER),
        **dict.fromkeys(("blank_index", "word_delimiter_index"), INTEGER),
        **dict.fromkeys(("symbols", "selected_groups"), STRINGS),
    },
    optional=("selected_groups",),
)


def load_checkpoint(path: str | Path) -> ReferenceModel:
    """Rebuild a reference model from a checkpoint file, read once.

    The model's ``source_sha256`` is the sha256 of the bytes it was built from.

    Raises:
        CheckpointError: an unreadable file or archive, wrong magic, metadata
            that is not a JSON object holding each key of ``save_checkpoint``
            with its type and in range (distinct symbols, two distinct indices
            among them, feature_dim >= 4, seed >= 0, the model's sample rate,
            known groups), or a tensor that is missing, unknown, not real
            floating, of the wrong shape or not finite. The message names the
            key or tensor.
    """
    try:
        raw = Path(path).read_bytes()
        with np.load(io.BytesIO(raw), allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if "__meta__" not in arrays:
        raise CheckpointError(f"{path} has no metadata record")
    text = str(arrays.pop("__meta__"))
    meta = check_object(text, _META_FIELDS, f"{path} metadata", CheckpointError)
    if meta["magic"] != CHECKPOINT_MAGIC:
        magic = meta["magic"]
        raise CheckpointError(f"{path} is not a {CHECKPOINT_MAGIC} checkpoint (magic={magic!r})")
    if meta["feature_dim"] < 4:
        raise CheckpointError(f"{path}: metadata 'feature_dim' must be >= 4")
    if meta["seed"] < 0:
        raise CheckpointError(f"{path}: metadata 'seed' must be >= 0")
    try:
        vocab = Vocabulary(
            symbols=tuple(meta["symbols"]),
            blank_index=meta["blank_index"],
            word_delimiter_index=meta["word_delimiter_index"],
        )
    except ValueError as exc:
        raise CheckpointError(f"{path}: metadata {exc}") from exc
    # building the model draws every tensor at random, so first bound its size by the file's
    if np.shape(arrays.get("ln_gamma")) != (meta["feature_dim"],):
        raise CheckpointError(f"{path}: metadata 'feature_dim' does not match tensor ln_gamma")
    model = ReferenceModel(meta["seed"], vocab, meta["feature_dim"])
    if meta["sample_rate_hz"] != model.sample_rate_hz:
        raise CheckpointError(
            f"{path}: metadata 'sample_rate_hz' is {meta['sample_rate_hz']}, "
            f"the model reads {model.sample_rate_hz} Hz audio"
        )
    groups = meta.get("selected_groups", ["feature_extractor", "layer_norm"])
    if not all(g in model._groups for g in groups):
        raise CheckpointError(
            f"{path}: metadata 'selected_groups' {groups} names a group not in "
            f"{list(model._groups)}"
        )
    missing = [k for k in model._params if k not in arrays]
    if missing:
        raise CheckpointError(f"{path} is missing tensors: {missing}")
    unknown = sorted(set(arrays) - set(model._params))
    if unknown:
        raise CheckpointError(f"{path} holds unknown tensors: {unknown}")
    for name, value in arrays.items():
        if value.dtype.kind != "f":
            raise CheckpointError(f"{path}: tensor {name} is {value.dtype}, not real floating")
        if value.shape != model._params[name].shape:
            raise CheckpointError(f"{path}: tensor {name} has wrong shape {value.shape}")
        if not np.all(np.isfinite(value)):
            raise CheckpointError(f"{path}: tensor {name} is not finite")
        model._params[name] = value.astype(np.float64)
    model.select_adaptable(groups)
    model._source_sha256 = hashlib.sha256(raw).hexdigest()
    return model
