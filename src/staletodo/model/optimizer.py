"""Gradient clipping and the Adam update.

A gradient is either a dense array shaped like its parameter or a
RowGradient: the gradient of an embedding table, which is zero outside the
few rows a batch used. Adam keeps two moments shaped like each parameter,
in its dtype, and runs each step in that dtype, as one loop over each
parameter's blocks of BLOCK_ROWS rows on the calling thread. Per block it
decays both moments' rows, adds the gradient rows that fall in the block,
and updates the parameter's rows through two scratch buffers made once per
parameter, so no temporary is as large as an embedding table and a block
stays in cache from one operation to the next. A RowGradient gives the same
bits as dense Adam on the same gradient made dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

# Rows per block of the step. A 1024 x 128 block is 0.5 MiB of float32 (1 MiB
# of float64), so the scratch buffers take a few MiB whatever the table's size.
BLOCK_ROWS = 1024


@dataclass(frozen=True)
class RowGradient:
    """Gradient of a (num_rows, dim) table that is zero outside `rows`."""

    rows: np.ndarray  # unique row indices, ascending
    values: np.ndarray  # (len(rows), dim)
    num_rows: int


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
    """First and second moments shaped like each parameter, in its dtype,
    and the step count."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: Sequence[np.ndarray]) -> "AdamState":
        return cls(
            m=[np.zeros(p.shape, p.dtype) for p in params],
            v=[np.zeros(p.shape, p.dtype) for p in params],
        )


def adam_step(
    params: Sequence[np.ndarray],
    grads: Sequence[Gradient],
    state: AdamState,
    lr: float = 0.001,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Bias-corrected Adam; updates params and state in place, block by
    block in the dense formula's order: m = b1*m + (1-b1)*g,
    v = b2*v + (1-b2)*g^2, then p -= lr * (m / c1) / (sqrt(v / c2) + eps).

    A RowGradient gives the same bits as dense Adam for two reasons. A row
    with a zero gradient gets b1*m + (1-b1)*0 == b1*m exactly, so decaying
    every row and then adding (1-b1)*g into the gradient's rows runs the
    dense formula's operations in its order. A row no step has touched has
    m == v == 0, so its update is lr*0 / (0 + eps) == 0 and leaves it as it
    is.
    """
    state.t += 1
    c1, c2 = 1.0 - beta1**state.t, 1.0 - beta2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        starts = range(0, len(p), BLOCK_ROWS)
        if isinstance(g, RowGradient):
            # The gradient's rows ascend, so each block's rows are one slice of them.
            edges = np.searchsorted(g.rows, [*starts, len(p)]).tolist()
        num_buf, den_buf = np.empty_like(p[:BLOCK_ROWS]), np.empty_like(p[:BLOCK_ROWS])
        for k, start in enumerate(starts):
            b = slice(start, start + BLOCK_ROWS)
            pb, mb, vb = p[b], m[b], v[b]
            mb *= beta1
            vb *= beta2
            if not isinstance(g, RowGradient):
                mb += (1.0 - beta1) * g[b]
                vb += (1.0 - beta2) * np.square(g[b])
            elif edges[k] < edges[k + 1]:
                hit = slice(edges[k], edges[k + 1])
                rows, values = g.rows[hit] - start, g.values[hit]
                mb[rows] += (1.0 - beta1) * values
                vb[rows] += (1.0 - beta2) * np.square(values)
            num, den = num_buf[: len(mb)], den_buf[: len(mb)]
            np.divide(mb, c1, out=num)
            num *= lr
            np.divide(vb, c2, out=den)
            np.sqrt(den, out=den)
            den += eps
            num /= den
            pb -= num
