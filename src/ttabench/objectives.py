"""Unsupervised test-time adaptation objectives over CTC logit matrices.

Two composite losses, each built from independently testable parts:

* ``suta_loss_and_grad``:  alpha * entropy + (1 - alpha) * class-confusion.
* ``sgem_loss_and_grad``:  Renyi entropy + lambda * negative-sampling penalty.

Both operate on temperature-smoothed softmax probabilities of the logits.
Every loss has a closed-form gradient; ``*_loss_and_grad`` returns the loss
record together with d(loss)/d(logits) so a model can backpropagate it, or
the record alone with ``need_grad=False``.

Probabilities are stored class-major: ``softmax_temperature`` fills one
C-contiguous C x L buffer and ``ProbMatrix.values`` is its L x C transpose.
With C = 29 classes, a per-frame reduction over the classes then runs as C
vectorised passes over all frames, not L short inner loops. The interface
stays L x C: ``values``, the logits and the returned gradients (F-ordered
L x C views) are indexed [frame, class].

The composite objectives work through the frames in blocks of at most
``FRAME_BUDGET`` (``model/types.py``), so besides the logits and the
gradient they return they hold one block's arrays at a time. A chunk of one
block computes exactly what a whole-chunk pass does; over several blocks,
sums over frames change by reassociation only.

A block's arrays (its softmax, log p or p^rho, the top-k partition and mask)
live in scratch buffers kept per thread (a ``Workspace``), which grow to the
largest block seen and are reused by every later call on that thread. The
gradient goes into the L x C array a caller lends as ``out`` (the reference
model lends one from its own workspace), else into a new array, so a direct
caller owns what it gets back. A warm gradient step thus allocates no array
the size of the chunk, which the C allocator would otherwise map and unmap,
faulting its pages in, on every step. ``softmax_temperature`` and the value
functions still return or use new arrays.

Gradient formulas assume strictly positive probabilities, which softmax
guarantees; hand-built probability matrices with exact zeros are fine for
the value functions only.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import types as model_types
from .model.types import LogitMatrix, LossFunctional, Workspace

logger = logging.getLogger(__name__)

_MCC_EPS = 1e-12
_NS_EPS = 1e-12
# with blank frames excluded, a frame whose blank probability exceeds this is left out
_BLANK_DOMINANCE = 0.9

_scratch = threading.local()


def _workspace() -> Workspace:
    """This thread's scratch buffers for the composite objectives' block arrays."""
    if not hasattr(_scratch, "ws"):
        _scratch.ws = Workspace()
    return _scratch.ws


@dataclass(frozen=True)
class ProbMatrix:
    """Row-stochastic L x C matrix plus the smoothing temperature that made it.

    ``values`` is indexed [frame, class] whatever its memory order; from
    ``softmax_temperature`` it is the transpose of a C-contiguous C x L buffer.
    """

    values: np.ndarray
    temperature_used: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("probabilities must be an L x C matrix")
        if not np.all(np.isfinite(values)) or np.any(values < -1e-12):
            raise ValueError("probabilities must be finite and non-negative")
        if np.max(np.abs(values.sum(axis=1) - 1.0)) > 1e-6:
            raise ValueError("each row must sum to 1 within 1e-6")
        if self.temperature_used <= 0:
            raise ValueError("temperature must be positive")
        object.__setattr__(self, "values", values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class TtaLossValue:
    """Total loss plus its named components and their weights."""

    total: float
    components: dict[str, float]
    weights: dict[str, float]

    def __post_init__(self) -> None:
        if set(self.components) != set(self.weights):
            raise ValueError("components and weights must share keys")
        combined = sum(self.weights[k] * self.components[k] for k in self.components)
        if abs(self.total - combined) > 1e-9:
            raise ValueError(
                f"total {self.total} != weighted combination {combined} of components"
            )


def softmax_temperature(z: LogitMatrix, temperature: float) -> ProbMatrix:
    """Row-wise softmax of z / T, stabilized by per-row max subtraction; stored class-major."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    return _softmax(z.values.T, temperature)


def _softmax(zt: np.ndarray, temperature: float, out: np.ndarray | None = None) -> ProbMatrix:
    """``softmax_temperature`` of the class-major C x n logits ``zt``, written into the
    C-contiguous ``out`` when given, else into a new array."""
    buf = np.divide(zt, temperature, out=out, order="C")
    buf -= buf.max(axis=0)
    np.exp(buf, out=buf)
    buf /= buf.sum(axis=0)
    return ProbMatrix(values=buf.T, temperature_used=temperature)


# --- individual losses (values) ------------------------------------------------
# The helpers take class-major C x L arrays (``p.values.T``), so their
# reductions over classes run along axis 0 and their reductions over frames
# along axis 1.


def entropy_loss(p: ProbMatrix) -> float:
    """Mean per-frame Shannon entropy, with 0 log 0 := 0."""
    vt = p.values.T
    return float(-_p_log_p(vt, np.log(np.where(vt > 0, vt, 1.0))).mean())


def _p_log_p(vt: np.ndarray, log_vt: np.ndarray) -> np.ndarray:
    """Per frame, the sum over classes of p log p."""
    return np.einsum("cl,cl->l", vt, log_vt)


def mcc_loss(p: ProbMatrix) -> float:
    """Mean off-diagonal mass of the row-normalized class-confusion matrix.

    K[j, j'] = sum_i p[i, j] p[i, j']; rows are normalized (with a 1e-12
    guard against all-zero class columns) and the average off-diagonal mass
    is returned. Zero when every frame is one-hot on a single class;
    (C-1)/C at the uniform distribution.
    """
    return _mcc(*_confusion_sums(p.values.T))


def _confusion_sums(vt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per class: the row sum of K (the class's mass) and its diagonal K[c, c]."""
    return vt.sum(axis=1), np.einsum("cl,cl->c", vt, vt)


def _mcc(mass: np.ndarray, k_diag: np.ndarray) -> float:
    if np.any(mass <= 0):
        logger.warning("class-confusion matrix has an all-zero class column; using 1e-12 guard")
    return float(((mass - k_diag) / (mass + _MCC_EPS)).mean())


def renyi_entropy_loss(p: ProbMatrix, rho: float) -> float:
    """Mean per-frame Renyi entropy of order rho (rho > 0, rho != 1)."""
    return _renyi(_renyi_powers(p.values.T, rho).sum(axis=0), rho)


def _renyi_powers(vt: np.ndarray, rho: float, out: np.ndarray | None = None) -> np.ndarray:
    """p^rho, written into ``out`` when given, else into a new array."""
    if rho <= 0 or rho == 1.0:
        raise ValueError("rho must be positive and != 1")
    if out is None:
        return vt**rho
    # ``vt**rho`` takes numpy's sqrt path at rho = 0.5, which np.power does not
    return np.sqrt(vt, out=out) if rho == 0.5 else np.power(vt, rho, out=out)


def _renyi(frame_sums: np.ndarray, rho: float) -> float:
    return float((np.log(frame_sums) / (1.0 - rho)).mean())


def negative_sampling_loss(p: ProbMatrix, k: int) -> float:
    """Penalty on probability mass outside each frame's top-k classes.

    Per frame, with M the mass outside the top-k classes, the penalty is
    -log(1 - M + 1e-12); the mean over frames is returned.
    """
    return _negative_sampling(_topk_partition(p.values, k)[:, -k:].sum(axis=1))


def _negative_sampling(retained: np.ndarray) -> float:
    return float(-np.log(retained + _NS_EPS).mean())


def _topk_partition(v: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """Row-major copy of the L x C ``v`` with each row's k largest entries last,
    written into the C-contiguous ``out`` when given, else into a new array.

    Column C-k holds each row's k-th largest value (1 <= k < C).
    """
    if not 1 <= k < v.shape[1]:
        raise ValueError("need 1 <= k < C")
    if out is None:
        part = np.array(v, order="C")  # partitioning contiguous rows is the fastest layout
    else:
        part = out
        np.copyto(part, v)
    part.partition(v.shape[1] - k, axis=1)
    return part


def _topk_mask(
    vt: np.ndarray, part: np.ndarray, k: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Class-major C x L mask of each frame's k largest classes, written into the
    boolean ``out`` when given, else into a new array.

    ``part`` is ``_topk_partition(vt.T, k)``. A frame whose k-th largest value
    is tied with a smaller-ranked one falls back to ``argpartition``, which
    picks exactly k of the tied classes.
    """
    mask = np.greater_equal(vt, part[:, vt.shape[0] - k], out=out)
    ties = np.flatnonzero(np.count_nonzero(mask, axis=0) != k)
    if ties.size:
        tied = np.zeros((vt.shape[0], ties.size), dtype=bool)
        idx = np.argpartition(-vt[:, ties], k - 1, axis=0)[:k]
        np.put_along_axis(tied, idx, True, axis=0)
        mask[:, ties] = tied
    return mask


# --- gradients with respect to the logits ----------------------------------------


def _softmax_chain(
    vt: np.ndarray, g: np.ndarray, temperature: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Chain the class-major d(loss)/d(prob) ``g`` through the temperature softmax
    to the logits, overwriting ``g``; the result goes into ``out`` when given,
    else into ``g``."""
    g -= np.einsum("cl,cl->l", vt, g)
    g *= vt
    return np.divide(g, temperature, out=g if out is None else out)


# --- composite objectives --------------------------------------------------------


class _KeptFrames:
    """The frames an objective is computed on, in blocks of at most ``FRAME_BUDGET``.

    With ``blank_dominance`` set, a frame whose blank probability exceeds it is
    left out, unless that would leave no frame at all. Iterating yields, for
    each block that keeps a frame, the kept frames' columns of the logits (a
    slice, or an index array when frames are left out) and their class-major
    C x n probabilities, in this thread's scratch buffers. Every pass computes a
    block's softmax again, so it holds one block's arrays at a time; a single
    block keeps its softmax. ``add_grad`` chains each block's d(loss)/d(prob)
    into the logit gradient, and ``logit_grad`` returns its L x C whole, zero on
    frames left out: ``out`` when one is given, else a new array.
    """

    def __init__(
        self,
        z: LogitMatrix,
        temperature: float,
        blank_dominance: float | None,
        out: np.ndarray | None = None,
    ):
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self._zt, self._temperature = z.values.T, temperature
        self._ws = _workspace()
        n, budget = z.n_frames, model_types.FRAME_BUDGET
        self._blocks: list[tuple[slice, np.ndarray | None]] = [
            (slice(t0, min(t0 + budget, n)), None) for t0 in range(0, n, budget)
        ]
        self._cached: np.ndarray | None = None
        if blank_dominance is not None:
            kept = [
                np.flatnonzero(self._probs(block)[z.blank_index] <= blank_dominance)
                for block, _ in self._blocks
            ]
            if any(k.size for k in kept):  # never optimize over an empty frame set
                self._blocks = [(block, k) for (block, _), k in zip(self._blocks, kept)]
        self.n_frames = sum(
            block.stop - block.start if k is None else k.size for block, k in self._blocks
        )
        if out is not None and out.shape != z.values.shape:
            raise ValueError(f"out shape {out.shape} != logits shape {z.values.shape}")
        self._out = out
        self._grad: np.ndarray | None = None

    @property
    def single(self) -> bool:
        """Whether the frames form one block, whose arrays a later pass may reuse."""
        return len(self._blocks) == 1

    def scratch(self, name: str, vt: np.ndarray, dtype: type = np.float64) -> np.ndarray:
        """This thread's scratch array ``name``, of ``vt``'s shape."""
        return self._ws.get(name, vt.shape, dtype)

    def _probs(self, block: slice) -> np.ndarray:
        if self._cached is not None:
            return self._cached
        zt = self._zt[:, block]
        vt = _softmax(zt, self._temperature, out=self._ws.get("probs", zt.shape)).values.T
        if self.single:
            self._cached = vt
        return vt

    def __iter__(self) -> Iterator[tuple[slice | np.ndarray, np.ndarray]]:
        for block, kept in self._blocks:
            if kept is None:
                yield block, self._probs(block)
            elif kept.size:
                vt = self._probs(block)
                out = self._ws.get("kept", (vt.shape[0], kept.size))
                # the indices are in range; "clip" writes out unbuffered, "raise" would not
                yield block.start + kept, np.take(vt, kept, axis=1, out=out, mode="clip")

    def add_grad(self, cols: slice | np.ndarray, vt: np.ndarray, g: np.ndarray) -> None:
        """Chain the class-major d(loss)/d(prob) ``g`` (overwritten) of the block
        ``cols`` with probabilities ``vt`` into the logit gradient."""
        if self._grad is None:
            n = self._zt.shape[1]
            self._grad = np.empty((g.shape[0], n)) if self._out is None else self._out.T
            if self.n_frames < n:
                self._grad.fill(0.0)
        if isinstance(cols, slice):
            _softmax_chain(vt, g, self._temperature, out=self._grad[:, cols])
        else:
            self._grad[:, cols] = _softmax_chain(vt, g, self._temperature)

    def logit_grad(self) -> np.ndarray:
        return self._grad.T


def suta_loss_and_grad(
    z: LogitMatrix,
    alpha: float = 0.3,
    temperature: float = 2.5,
    need_grad: bool = True,
    blank_dominance: float | None = None,
    out: np.ndarray | None = None,
) -> tuple[TtaLossValue, np.ndarray | None]:
    """Entropy-plus-class-confusion objective alpha*em + (1-alpha)*mcc, and its
    gradient with respect to the logits, written into the L x C ``out`` when
    given, else into a new array.

    With ``blank_dominance`` set, only frames whose blank probability is at
    most that value contribute (all frames, if none is). A first pass over
    the frames takes the entropy and each class's mass; the gradient takes a
    second.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    frames = _KeptFrames(z, temperature, blank_dominance, out)
    p_log_p, masses, k_diags = [], [], []
    for _, vt in frames:
        log_vt = np.log(vt, out=frames.scratch("g", vt))
        block = _p_log_p(vt, log_vt)
        if np.isnan(block).any():  # a probability underflowed to 0, where 0 log 0 := 0
            block = _p_log_p(vt, np.log(np.where(vt > 0, vt, 1.0)))
        p_log_p.append(block)
        mass, k_diag = _confusion_sums(vt)
        masses.append(mass)
        k_diags.append(k_diag)
    em = float(-np.concatenate(p_log_p).mean())
    mass, k_diag = sum(masses), sum(k_diags)
    mcc = _mcc(mass, k_diag)
    value = TtaLossValue(
        total=alpha * em + (1.0 - alpha) * mcc,
        components={"em": em, "mcc": mcc},
        weights={"em": alpha, "mcc": 1.0 - alpha},
    )
    if not need_grad:
        return value, None
    c, n = z.n_classes, frames.n_frames
    # alpha * d em/dp = -alpha (log p + 1) / n; (1 - alpha) * d mcc/dp, per
    # class, is ((1 - 2p) denom - (mass - K_cc)) / denom^2 / C * (1 - alpha)
    denom = mass + _MCC_EPS
    scale = (1.0 - alpha) / (denom * denom) / c
    shift = ((denom - (mass - k_diag)) * scale - alpha / n)[:, None]
    slope = (2.0 * denom * scale)[:, None]
    for cols, vt in frames:
        # the first pass's log p, for one block
        g = log_vt if frames.single else np.log(vt, out=frames.scratch("g", vt))
        g *= -alpha / n
        g += shift
        g -= np.multiply(slope, vt, out=frames.scratch("tmp", vt))
        frames.add_grad(cols, vt, g)
    return value, frames.logit_grad()


def sgem_loss_and_grad(
    z: LogitMatrix,
    lam: float = 0.3,
    rho: float = 0.5,
    temperature: float = 2.5,
    neg_k: int = 5,
    need_grad: bool = True,
    blank_dominance: float | None = None,
    out: np.ndarray | None = None,
) -> tuple[TtaLossValue, np.ndarray | None]:
    """Renyi-entropy-plus-negative-sampling objective gem + lambda*ns, and its
    gradient, written as in ``suta_loss_and_grad``; frames selected as there.
    One pass over the frames takes both, since each frame's gradient needs only
    its own values."""
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    frames = _KeptFrames(z, temperature, blank_dominance, out)
    n = frames.n_frames
    all_sums, all_retained = [], []
    for cols, vt in frames:
        # the top-k partition and p^rho serve the value and the gradient; p^rho
        # takes over the partition's buffer once the mask is read from it
        g = frames.scratch("g", vt)
        part = _topk_partition(vt.T, neg_k, out=g.reshape(vt.T.shape))
        retained = part[:, -neg_k:].sum(axis=1)
        if need_grad:
            mask = _topk_mask(vt, part, neg_k, out=frames.scratch("mask", vt, bool))
        pw = _renyi_powers(vt, rho, out=g)
        frame_sums = pw.sum(axis=0)
        all_sums.append(frame_sums)
        all_retained.append(retained)
        if need_grad:
            # d gem/dp = rho p^(rho-1) / s / (1 - rho) / n, with p^(rho-1) = p^rho / p;
            # d ns/dp = -1 / (retained + eps) / n on each frame's top-k classes
            g = np.divide(pw, vt, out=pw)
            g *= rho / (1.0 - rho) / n / frame_sums
            coef = lam * (-1.0 / (retained + _NS_EPS) / n)
            np.add(g, coef, out=g, where=mask)
            frames.add_grad(cols, vt, g)
    gem = _renyi(np.concatenate(all_sums), rho)
    ns = _negative_sampling(np.concatenate(all_retained))
    value = TtaLossValue(
        total=gem + lam * ns,
        components={"gem": gem, "ns": ns},
        weights={"gem": 1.0, "ns": lam},
    )
    return value, frames.logit_grad() if need_grad else None


def make_loss_functional(
    method: str,
    alpha: float = 0.3,
    lam: float = 0.3,
    rho: float = 0.5,
    temperature: float = 2.5,
    neg_k: int = 5,
    exclude_blank_frames: bool = False,
) -> LossFunctional:
    """Bind objective hyperparameters into a loss functional for a model.

    The functional maps logits to (TtaLossValue, d total / d logits); called
    with ``need_grad=False`` it returns (TtaLossValue, None) and skips the
    gradient, and given ``out`` it writes the gradient there. With
    ``exclude_blank_frames`` set, frames whose blank probability exceeds 0.9
    contribute neither loss nor gradient (unless that would leave no frames
    at all).
    """
    if method not in ("suta", "sgem"):
        raise ValueError(f"no loss functional for method {method!r}")
    dominance = _BLANK_DOMINANCE if exclude_blank_frames else None

    def functional(
        z: LogitMatrix, need_grad: bool = True, out: np.ndarray | None = None
    ) -> tuple[TtaLossValue, np.ndarray | None]:
        if method == "suta":
            return suta_loss_and_grad(
                z, alpha=alpha, temperature=temperature, need_grad=need_grad,
                blank_dominance=dominance, out=out,
            )
        return sgem_loss_and_grad(
            z, lam=lam, rho=rho, temperature=temperature, neg_k=neg_k, need_grad=need_grad,
            blank_dominance=dominance, out=out,
        )

    return functional
