"""Gradient clipping and the Adam update.

A gradient is either a dense array shaped like its parameter or a
RowGradient: the gradient of an embedding table, which is zero outside the
few rows a batch used. Adam keeps two moments shaped like each parameter.
Each step decays every row of both, adds the gradient into the rows it
holds, and updates the parameter BLOCK_ROWS rows at a time, so no temporary
is as large as an embedding table. A RowGradient gives the same bits as
dense Adam on the same gradient made dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

# Rows per block of the parameter update. A 1024 x 128 block of float64 is
# 1 MiB, so the update's temporaries take a few MiB whatever the table's
# size, and stay in cache from one operation to the next.
BLOCK_ROWS = 1024


@dataclass(frozen=True)
class RowGradient:
    """Gradient of a (num_rows, dim) table that is zero outside `rows`."""

    rows: np.ndarray  # unique row indices, ascending
    values: np.ndarray  # (len(rows), dim)
    num_rows: int

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.num_rows, self.values.shape[1]))
        dense[self.rows] = self.values
        return dense


Gradient = Union[np.ndarray, RowGradient]


def global_norm(arrays: Sequence[Gradient]) -> float:
    total = 0.0
    for a in arrays:
        values = a.values if isinstance(a, RowGradient) else a
        total += float(np.sum(np.square(values)))
    return float(np.sqrt(total))


def clip_gradients(arrays: Sequence[Gradient], max_norm: float) -> list[Gradient]:
    """Scale all gradients down together when their global L2 norm exceeds
    max_norm; otherwise return them unchanged."""
    norm = global_norm(arrays)
    if norm <= max_norm or norm == 0.0:
        return list(arrays)
    scale = max_norm / norm
    return [
        RowGradient(a.rows, a.values * scale, a.num_rows) if isinstance(a, RowGradient)
        else a * scale
        for a in arrays
    ]


@dataclass
class AdamState:
    """First and second moments shaped like each parameter, and the step count."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: Sequence[np.ndarray]) -> "AdamState":
        return cls(m=[np.zeros(p.shape) for p in params], v=[np.zeros(p.shape) for p in params])


def adam_step(
    params: Sequence[np.ndarray],
    grads: Sequence[Gradient],
    state: AdamState,
    lr: float = 0.001,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Bias-corrected Adam; updates params and state in place.

    A RowGradient gives the same bits as dense Adam for two reasons. A row
    with a zero gradient gets b1*m + (1-b1)*0 == b1*m exactly, so decaying
    every row and then adding (1-b1)*g into the gradient's rows runs the
    dense formula's operations in its order. A row no step has touched has
    m == v == 0, so its update is lr*0 / (0 + eps) == 0 and leaves it as it
    is. The update lr * m_hat / (sqrt(v_hat) + eps) runs one block of rows
    at a time, in the dense formula's order.
    """
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        rows, g = (g.rows, g.values) if isinstance(g, RowGradient) else (slice(None), g)
        m *= beta1
        v *= beta2
        m[rows] += (1.0 - beta1) * g
        v[rows] += (1.0 - beta2) * np.square(g)
        for start in range(0, len(p), BLOCK_ROWS):
            b = slice(start, start + BLOCK_ROWS)
            p[b] -= lr * (m[b] / c1) / (np.sqrt(v[b] / c2) + eps)
