"""Gradient clipping and the Adam update.

A gradient is either a dense array shaped like its parameter or a
RowGradient: the gradient of an embedding table, which is zero outside the
few rows a batch used. Adam keeps two moments shaped like each parameter,
in its dtype, and runs each step in that dtype.
Each step runs BLOCK_ROWS rows at a time, in one pass per block: it decays
the block's rows of both moments, adds the gradient rows that fall in the
block, and updates the block's parameter rows through two block-sized
scratch buffers, so no temporary is as large as an embedding table and a
block stays in cache from one operation to the next. Every block runs on
the calling thread. A RowGradient gives the same bits as dense Adam on the
same gradient made dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

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
    """Bias-corrected Adam; updates params and state in place.

    A RowGradient gives the same bits as dense Adam for two reasons. A row
    with a zero gradient gets b1*m + (1-b1)*0 == b1*m exactly, so decaying
    every row and then adding (1-b1)*g into the gradient's rows runs the
    dense formula's operations in its order. A row no step has touched has
    m == v == 0, so its update is lr*0 / (0 + eps) == 0 and leaves it as it
    is.
    """
    state.t += 1
    hyper = (lr, beta1, beta2, 1.0 - beta1**state.t, 1.0 - beta2**state.t, eps)
    blocks = [
        block
        for p, g, m, v in zip(params, grads, state.m, state.v)
        for block in _blocks(p, g, m, v)
    ]
    # Scratch for any block, in the parameters' dtype.
    scratch = (
        max((p.size for p, *_ in blocks), default=0),
        np.result_type(*params) if params else np.float64,
    )
    _step_blocks(blocks, hyper, scratch)


# One block: views of p, m and v over the same rows, then the gradient's
# rows within the block, counted from its first row (None for a dense
# gradient), and their values.
_Block = tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray]


def _blocks(p: np.ndarray, g: Gradient, m: np.ndarray, v: np.ndarray) -> list[_Block]:
    starts = range(0, len(p), BLOCK_ROWS)
    if not isinstance(g, RowGradient):
        return [
            (p[b], m[b], v[b], None, g[b])
            for b in (slice(start, start + BLOCK_ROWS) for start in starts)
        ]
    # The gradient's rows ascend, so each block's rows are one slice of them.
    edges = np.searchsorted(g.rows, [*starts, len(p)]).tolist()
    blocks = []
    for start, lo, hi in zip(starts, edges, edges[1:]):
        b = slice(start, start + BLOCK_ROWS)
        blocks.append((p[b], m[b], v[b], g.rows[lo:hi] - start, g.values[lo:hi]))
    return blocks


def _step_blocks(
    blocks: Iterable[_Block], hyper: tuple[float, ...], scratch: tuple[int, np.dtype]
) -> None:
    """The whole Adam step of each block, in the dense formula's order:
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g^2, then
    p -= lr * (m / c1) / (sqrt(v / c2) + eps). scratch gives the size, at
    least any block's, and the dtype of the two scratch buffers."""
    lr, beta1, beta2, c1, c2, eps = hyper
    num_buf, den_buf = np.empty(*scratch), np.empty(*scratch)
    for p, m, v, rows, g in blocks:
        m *= beta1
        v *= beta2
        if rows is None:
            m += (1.0 - beta1) * g
            v += (1.0 - beta2) * np.square(g)
        elif rows.size:
            m[rows] += (1.0 - beta1) * g
            v[rows] += (1.0 - beta2) * np.square(g)
        num = num_buf[: p.size].reshape(p.shape)
        den = den_buf[: p.size].reshape(p.shape)
        np.divide(m, c1, out=num)
        num *= lr
        np.divide(v, c2, out=den)
        np.sqrt(den, out=den)
        den += eps
        num /= den
        p -= num
