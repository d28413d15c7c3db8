"""Best-path CTC decoding: argmax, collapse repeats, drop blanks."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatchError
from .types import LogitMatrix, Vocabulary


def greedy_ctc_decode(z: LogitMatrix, v: Vocabulary) -> str:
    """Collapse per-frame argmaxes into a transcript.

    Adjacent repeats merge, blanks separate repeats and are dropped, and the
    word-delimiter symbol maps to a space.

    Raises:
        ShapeMismatchError: logit width or blank index disagrees with the
            vocabulary.
    """
    if z.n_classes != len(v):
        raise ShapeMismatchError(
            f"logits have {z.n_classes} classes but vocabulary has {len(v)} symbols"
        )
    if z.blank_index != v.blank_index:
        raise ShapeMismatchError(
            f"logits use blank {z.blank_index} but vocabulary uses {v.blank_index}"
        )
    labels = collapse_ctc_labels(np.argmax(z.values, axis=1).tolist(), v.blank_index)
    return "".join(" " if idx == v.word_delimiter_index else v.symbols[idx] for idx in labels)


def collapse_ctc_labels(labels: list[int], blank_index: int) -> list[int]:
    """CTC collapse on an integer label sequence (repeats merged, blanks dropped)."""
    out: list[int] = []
    prev = -1
    for idx in labels:
        if idx != prev and idx != blank_index:
            out.append(idx)
        prev = idx
    return out
