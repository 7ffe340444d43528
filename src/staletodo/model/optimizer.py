"""Gradient clipping and the Adam update.

A gradient is either a dense array shaped like its parameter or a
RowGradient: the gradient of an embedding table, which is zero outside the
few rows a batch used. Adam on a RowGradient does work in proportion to the
rows any step has touched so far, and gives the same bits as dense Adam on
the same gradient made dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np


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


def clip_gradients(arrays: Sequence[Gradient], max_norm: float = 2.0) -> list[Gradient]:
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


class DenseMoments:
    """Adam moments of a parameter with dense gradients."""

    def __init__(self, shape: tuple[int, ...]):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)

    def step(self, p, g, t, lr, beta1, beta2, eps) -> None:
        self.m = beta1 * self.m + (1.0 - beta1) * g
        self.v = beta2 * self.v + (1.0 - beta2) * np.square(g)
        m_hat = self.m / (1.0 - beta1**t)
        v_hat = self.v / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


class RowMoments:
    """Adam moments of the rows of a table that some step has touched.

    This gives the same bits as dense Adam for two reasons. A row with a
    zero gradient gets b1*m + (1-b1)*0 == b1*m exactly, so decaying every
    stored row and then adding (1-b1)*g into the touched ones is the dense
    update. A row no step has touched has m == v == 0, so its update is
    exactly zero and it needs neither storage nor work. Rows take slots in
    the order they are first touched. The buffers are sized for the whole
    table, but numpy allocates them lazily from the system, so only the
    slots in use take memory.
    """

    def __init__(self, shape: tuple[int, int]):
        num_rows, _ = shape
        self.slot = np.full(num_rows, -1, dtype=np.int64)
        self.rows = np.empty(num_rows, dtype=np.int64)
        self.count = 0
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self._num = np.empty(shape)
        self._den = np.empty(shape)

    def step(self, p, g: RowGradient, t, lr, beta1, beta2, eps) -> None:
        new = g.rows[self.slot[g.rows] < 0]
        start, n = self.count, self.count + new.size
        self.slot[new] = np.arange(start, n)
        self.rows[start:n] = new
        self.count = n

        m, v = self.m[:n], self.v[:n]
        m *= beta1
        v *= beta2
        slots = self.slot[g.rows]
        m[slots] += (1.0 - beta1) * g.values
        v[slots] += (1.0 - beta2) * np.square(g.values)

        # lr * m_hat / (sqrt(v_hat) + eps), one operation at a time in the
        # dense formula's order.
        num, den = self._num[:n], self._den[:n]
        np.divide(m, 1.0 - beta1**t, out=num)
        np.multiply(lr, num, out=num)
        np.divide(v, 1.0 - beta2**t, out=den)
        np.sqrt(den, out=den)
        den += eps
        num /= den
        p[self.rows[:n]] -= num


@dataclass
class AdamState:
    """Per-parameter moments, made at a parameter's first step to suit the
    kind of gradient it gets."""

    moments: list[Union[DenseMoments, RowMoments, None]] = field(default_factory=list)
    t: int = 0

    @classmethod
    def for_params(cls, params: Sequence[np.ndarray]) -> "AdamState":
        return cls(moments=[None] * len(params), t=0)


def adam_step(
    params: Sequence[np.ndarray],
    grads: Sequence[Gradient],
    state: AdamState,
    lr: float = 0.001,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Bias-corrected Adam; updates params and state in place."""
    state.t += 1
    for i, (p, g) in enumerate(zip(params, grads)):
        if state.moments[i] is None:
            kind = RowMoments if isinstance(g, RowGradient) else DenseMoments
            state.moments[i] = kind(p.shape)
        state.moments[i].step(p, g, state.t, lr, beta1, beta2, eps)
