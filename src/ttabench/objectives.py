"""Unsupervised test-time adaptation objectives over CTC logit matrices.

Two composite losses, each built from independently testable parts:

* ``suta_loss``:  alpha * entropy + (1 - alpha) * class-confusion.
* ``sgem_loss``:  Renyi entropy + lambda * negative-sampling penalty.

Both operate on temperature-smoothed softmax probabilities of the logits.
Every loss has a closed-form gradient; ``*_loss_and_grad`` returns the loss
record together with d(loss)/d(logits) so a model can backpropagate it.

Gradient formulas assume strictly positive probabilities, which softmax
guarantees; hand-built probability matrices with exact zeros are fine for
the value functions only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .model.types import LogitMatrix, LossFunctional

logger = logging.getLogger(__name__)

_MCC_EPS = 1e-12
_NS_EPS = 1e-12


@dataclass(frozen=True)
class ProbMatrix:
    """Row-stochastic L x C matrix plus the smoothing temperature that made it."""

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
    """Row-wise softmax of z / T, stabilized by per-row max subtraction."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    scaled = z.values / temperature
    scaled = scaled - scaled.max(axis=1, keepdims=True)
    e = np.exp(scaled)
    p = e / e.sum(axis=1, keepdims=True)
    return ProbMatrix(values=p, temperature_used=temperature)


# --- individual losses (values) ------------------------------------------------


def entropy_loss(p: ProbMatrix) -> float:
    """Mean per-frame Shannon entropy, with 0 log 0 := 0."""
    v = p.values
    plogp = v * np.log(np.where(v > 0, v, 1.0))
    return float(-plogp.sum(axis=1).mean())


def mcc_loss(p: ProbMatrix) -> float:
    """Mean off-diagonal mass of the row-normalized class-confusion matrix.

    K[j, j'] = sum_i p[i, j] p[i, j']; rows are normalized (with a 1e-12
    guard against all-zero class columns) and the average off-diagonal mass
    is returned. Zero when every frame is one-hot on a single class;
    (C-1)/C at the uniform distribution.
    """
    v = p.values
    mass = v.sum(axis=0)  # row sums of K
    if np.any(mass <= 0):
        logger.warning("class-confusion matrix has an all-zero class column; using 1e-12 guard")
    k_diag = (v * v).sum(axis=0)
    denom = mass + _MCC_EPS
    off_diag = (mass - k_diag) / denom
    return float(off_diag.mean())


def renyi_entropy_loss(p: ProbMatrix, rho: float) -> float:
    """Mean per-frame Renyi entropy of order rho (rho > 0, rho != 1)."""
    return _renyi_from_sums(_renyi_row_sums(p.values, rho), rho)


def _renyi_row_sums(v: np.ndarray, rho: float) -> np.ndarray:
    if rho <= 0 or rho == 1.0:
        raise ValueError("rho must be positive and != 1")
    return np.power(v, rho).sum(axis=1)


def _renyi_from_sums(s: np.ndarray, rho: float) -> float:
    return float((np.log(s) / (1.0 - rho)).mean())


def negative_sampling_loss(p: ProbMatrix, k: int) -> float:
    """Penalty on probability mass outside each frame's top-k classes.

    Per frame, with M the mass outside the top-k classes, the penalty is
    -log(1 - M + 1e-12); the mean over frames is returned.
    """
    return _negative_sampling_from_retained(_topk_mass(p.values, k))


def _negative_sampling_from_retained(retained: np.ndarray) -> float:
    return float(-np.log(retained + _NS_EPS).mean())


def _topk_mass(v: np.ndarray, k: int) -> np.ndarray:
    """Per-row sum of the k largest entries (1 <= k < C)."""
    if not 1 <= k < v.shape[1]:
        raise ValueError("need 1 <= k < C")
    part = np.partition(v, v.shape[1] - k, axis=1)
    return part[:, v.shape[1] - k :].sum(axis=1)


def _topk_mask(v: np.ndarray, k: int) -> np.ndarray:
    idx = np.argpartition(-v, k - 1, axis=1)[:, :k]
    mask = np.zeros_like(v, dtype=bool)
    np.put_along_axis(mask, idx, True, axis=1)
    return mask


# --- gradients with respect to the probability matrix ---------------------------


def entropy_grad(p: ProbMatrix) -> np.ndarray:
    v = p.values
    return -(np.log(v) + 1.0) / v.shape[0]


def mcc_grad(p: ProbMatrix) -> np.ndarray:
    v = p.values
    c = v.shape[1]
    mass = v.sum(axis=0)
    k_diag = (v * v).sum(axis=0)
    denom = mass + _MCC_EPS
    # d/dp[i,c] of (mass_c - K_cc) / denom_c, then averaged over classes
    return ((1.0 - 2.0 * v) * denom - (mass - k_diag)) / (denom**2) / c


def softmax_grad_to_logits(p: ProbMatrix, grad_p: np.ndarray) -> np.ndarray:
    """Chain a d(loss)/d(prob) through the temperature softmax to the logits."""
    v = p.values
    inner = (v * grad_p).sum(axis=1, keepdims=True)
    return v * (grad_p - inner) / p.temperature_used


# --- composite objectives --------------------------------------------------------


def suta_loss(z: LogitMatrix, alpha: float = 0.3, temperature: float = 2.5) -> TtaLossValue:
    """Entropy-plus-class-confusion objective: alpha*em + (1-alpha)*mcc."""
    value, _ = suta_loss_and_grad(z, alpha=alpha, temperature=temperature, need_grad=False)
    return value


def sgem_loss(
    z: LogitMatrix,
    lam: float = 0.3,
    rho: float = 0.5,
    temperature: float = 2.5,
    neg_k: int = 5,
) -> TtaLossValue:
    """Renyi-entropy-plus-negative-sampling objective: gem + lambda*ns."""
    value, _ = sgem_loss_and_grad(
        z, lam=lam, rho=rho, temperature=temperature, neg_k=neg_k, need_grad=False
    )
    return value


def suta_loss_and_grad(
    z: LogitMatrix,
    alpha: float = 0.3,
    temperature: float = 2.5,
    need_grad: bool = True,
    frame_mask: np.ndarray | None = None,
) -> tuple[TtaLossValue, np.ndarray | None]:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    p, rows = _masked_probs(z, temperature, frame_mask)
    em = entropy_loss(p)
    mcc = mcc_loss(p)
    value = TtaLossValue(
        total=alpha * em + (1.0 - alpha) * mcc,
        components={"em": em, "mcc": mcc},
        weights={"em": alpha, "mcc": 1.0 - alpha},
    )
    if not need_grad:
        return value, None
    grad_p = alpha * entropy_grad(p) + (1.0 - alpha) * mcc_grad(p)
    return value, _expand_rows(softmax_grad_to_logits(p, grad_p), rows, z.values.shape)


def sgem_loss_and_grad(
    z: LogitMatrix,
    lam: float = 0.3,
    rho: float = 0.5,
    temperature: float = 2.5,
    neg_k: int = 5,
    need_grad: bool = True,
    frame_mask: np.ndarray | None = None,
) -> tuple[TtaLossValue, np.ndarray | None]:
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    p, rows = _masked_probs(z, temperature, frame_mask)
    v = p.values
    # shared by the value and the gradient
    s = _renyi_row_sums(v, rho)
    retained = _topk_mass(v, neg_k)
    gem = _renyi_from_sums(s, rho)
    ns = _negative_sampling_from_retained(retained)
    value = TtaLossValue(
        total=gem + lam * ns,
        components={"gem": gem, "ns": ns},
        weights={"gem": 1.0, "ns": lam},
    )
    if not need_grad:
        return value, None
    n = v.shape[0]
    gem_grad = rho * np.power(v, rho - 1.0) / s[:, None] / (1.0 - rho) / n
    ns_grad = -_topk_mask(v, neg_k).astype(np.float64) / (retained[:, None] + _NS_EPS) / n
    grad_p = gem_grad + lam * ns_grad
    return value, _expand_rows(softmax_grad_to_logits(p, grad_p), rows, z.values.shape)


def _masked_probs(
    z: LogitMatrix, temperature: float, frame_mask: np.ndarray | None
) -> tuple[ProbMatrix, np.ndarray | None]:
    p = softmax_temperature(z, temperature)
    if frame_mask is None:
        return p, None
    rows = np.flatnonzero(frame_mask)
    if rows.size == 0:  # never optimize over an empty frame set
        return p, None
    return ProbMatrix(values=p.values[rows], temperature_used=temperature), rows


def _expand_rows(
    dz: np.ndarray, rows: np.ndarray | None, shape: tuple[int, ...]
) -> np.ndarray:
    if rows is None:
        return dz
    full = np.zeros(shape)
    full[rows] = dz
    return full


def blank_frame_mask(z: LogitMatrix, temperature: float, dominance: float = 0.9) -> np.ndarray:
    """True for frames that should be kept (blank probability <= dominance)."""
    p = softmax_temperature(z, temperature)
    return p.values[:, z.blank_index] <= dominance


def make_loss_functional(
    method: str,
    alpha: float = 0.3,
    lam: float = 0.3,
    rho: float = 0.5,
    temperature: float = 2.5,
    neg_k: int = 5,
    exclude_blank_frames: bool = False,
    blank_dominance: float = 0.9,
) -> LossFunctional:
    """Bind objective hyperparameters into a loss functional for a model.

    The functional maps logits to (TtaLossValue, d total / d logits). With
    ``exclude_blank_frames`` set, frames whose blank probability exceeds
    ``blank_dominance`` contribute neither loss nor gradient (unless that
    would leave no frames at all).
    """
    if method not in ("suta", "sgem"):
        raise ValueError(f"no loss functional for method {method!r}")

    def functional(z: LogitMatrix) -> tuple[TtaLossValue, np.ndarray]:
        mask = (
            blank_frame_mask(z, temperature, blank_dominance) if exclude_blank_frames else None
        )
        if method == "suta":
            value, dz = suta_loss_and_grad(z, alpha=alpha, temperature=temperature, frame_mask=mask)
        else:
            value, dz = sgem_loss_and_grad(
                z, lam=lam, rho=rho, temperature=temperature, neg_k=neg_k, frame_mask=mask
            )
        assert dz is not None
        return value, dz

    return functional
