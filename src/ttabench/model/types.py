"""Model-facing value types: logits, vocabulary, snapshots, loss functionals."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import NonFiniteLogitsError

# Output frames in one unit of work (2 s of audio): a frame span of the
# reference model's conv stack, or a block of an objective. A chunk's working
# set beyond its output-sized arrays is bounded by this, not by its length.
FRAME_BUDGET = 8192


class Workspace:
    """Named scratch buffers that persist between calls.

    ``get(name, shape, dtype)`` returns a C-contiguous view of the first
    ``prod(shape)`` entries of the buffer called ``name``. A buffer grows to
    the largest size asked of it and never shrinks; its contents are whatever
    its last user wrote, so every caller writes a view before reading it.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype: type = np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = None  # free the old buffer before allocating its successor
            self._buffers.pop(name, None)
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def clear(self) -> None:
        """Drop every buffer; each is freed once no view of it is left."""
        self._buffers.clear()


@dataclass(frozen=True)
class LogitMatrix:
    """L x C frame-level class scores (C includes the blank).

    ``values`` is indexed [frame, class] whatever its memory order; from
    ``ReferenceModel`` it is the transpose of a C-contiguous C x L array.
    """

    values: np.ndarray
    blank_index: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 2:
            raise ValueError("logits must be L x C with L >= 1, C >= 2")
        if not np.all(np.isfinite(values)):
            raise NonFiniteLogitsError("logits must be finite")
        if not 0 <= self.blank_index < values.shape[1]:
            raise ValueError("blank_index out of range")
        object.__setattr__(self, "values", values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Vocabulary:
    """Ordered output symbols, with blank and word-delimiter positions."""

    symbols: tuple[str, ...]
    blank_index: int
    word_delimiter_index: int

    def __post_init__(self) -> None:
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("symbols must be distinct")
        if len(self.symbols) < 2:
            raise ValueError("need at least two symbols (blank + one class)")
        for name in ("blank_index", "word_delimiter_index"):
            idx = getattr(self, name)
            if not 0 <= idx < len(self.symbols):
                raise ValueError(f"{name} out of range")
        if self.blank_index == self.word_delimiter_index:
            raise ValueError("blank and word delimiter must differ")

    def __len__(self) -> int:
        return len(self.symbols)


def default_vocabulary() -> Vocabulary:
    """29 symbols: blank, a-z, apostrophe, and '|' as the word delimiter."""
    symbols = ("<blank>", *"abcdefghijklmnopqrstuvwxyz", "'", "|")
    return Vocabulary(symbols=symbols, blank_index=0, word_delimiter_index=len(symbols) - 1)


@dataclass(frozen=True)
class ModelSnapshot:
    """Bit-exact copy of all adaptable parameter tensors."""

    parameters: dict[str, np.ndarray] = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "parameters", {k: np.array(v, copy=True) for k, v in self.parameters.items()}
        )


# A TTA loss functional: logits -> (loss record, d loss / d logits).
# The loss record is opaque to the model; the engine passes objective
# functions from ttabench.objectives. A functional whose signature has an
# ``out`` keyword is lent an L x C array to write the gradient into.
LossFunctional = Callable[[LogitMatrix], tuple[object, np.ndarray]]

