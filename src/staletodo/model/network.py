"""Encoder pooling, the MLP fusion head, loss and analytic gradients.

The classifier concatenates one vector per active input component
(code change, todo comment, commit message) and pushes it through three
ReLU hidden layers into a single sigmoid output. All math is plain numpy;
gradients are derived by hand and checked against finite differences in
the test suite. An id matrix is (batch, tokens) with PAD after each text's
tokens; pooling and the embedding gradient read as many columns as it has,
and columns that are PAD in every row change neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .optimizer import RowGradient
from .vocab import PAD_INDEX, Vocab

LOSS_EPS = 1e-7
# Share of each dense layer's inputs that training drops.
DROPOUT_RATE = 0.2
_SCORE_FLOOR = np.nextafter(0.0, 1.0)
_SCORE_CEIL = np.nextafter(1.0, 0.0)
# Columns that embedding_gradient scatters per bincount.
_SCATTER_COLUMNS = 16


class ShapeMismatch(ValueError):
    pass


class Component(Enum):
    CC = "cc"
    TD = "td"
    MSG = "msg"


# Concatenation order is fixed; never iterate a set of components.
COMPONENT_ORDER = (Component.CC, Component.TD, Component.MSG)


@dataclass
class EncoderParams:
    """One component's encoder: its own vocabulary and the table it indexes."""

    vocab: Vocab
    embedding: np.ndarray  # (len(vocab), dim)


@dataclass
class MlpParams:
    weights: list[np.ndarray]  # weights[i]: (in_dim, out_dim)
    biases: list[np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]


@dataclass
class Gradients:
    mlp_w: list[np.ndarray]
    mlp_b: list[np.ndarray]


def default_hidden_sizes(dim: int) -> tuple[int, int, int]:
    """Pyramid of three hidden widths scaled to the encoder width.

    Widths are floored at 8: narrower ReLU layers die too easily under
    zero-bias init with small-scale embedding inputs.
    """
    if dim == 768:
        return (256, 128, 64)
    start = max(dim // 2, 8)
    return (start, max(start // 2, 8), max(start // 4, 8))


def init_encoder(rng: np.random.Generator, vocab: Vocab, dim: int) -> EncoderParams:
    table = rng.uniform(-0.05, 0.05, size=(len(vocab), dim))
    table[PAD_INDEX] = 0.0
    return EncoderParams(vocab=vocab, embedding=table)


def init_mlp(rng: np.random.Generator, input_dim: int, hidden_sizes: Sequence[int]) -> MlpParams:
    sizes = [input_dim, *hidden_sizes, 1]
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights=weights, biases=biases)


def mean_pool(ids: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Mean of the embedding rows of non-PAD tokens, in the table's dtype;
    zero when all PAD.

    PAD tokens add the PAD row, which is zero and which training never updates.
    For dim > 1 numpy sums the token axis in order, so all-PAD columns after
    the tokens only add +0.0 (no table entry is -0.0) and change no bit; at
    dim 1 it sums that axis pairwise, and they may.
    """
    counts = np.maximum((ids != PAD_INDEX).sum(axis=1), 1).astype(table.dtype)
    return table[ids].sum(axis=1) / counts[:, None]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class ForwardCache:
    layer_inputs: list[np.ndarray]  # post-dropout input to each dense layer
    preacts: list[np.ndarray]
    masks: list[Optional[np.ndarray]]
    scores: np.ndarray


def forward(
    parts: Sequence[np.ndarray],
    mlp: MlpParams,
    rng: Optional[np.random.Generator] = None,
):
    """Score a batch; returns (scores, cache).

    `parts` holds one (batch, width) array per active component, in
    COMPONENT_ORDER; a masked component has no part. Given an rng, an
    inverted-scaling dropout mask is drawn from it before every dense
    layer, so inference, which passes none, needs no rescaling.
    """
    if not parts:
        raise ShapeMismatch("at least one component vector is required")
    batch = parts[0].shape[0]
    if any(p.shape[0] != batch for p in parts):
        raise ShapeMismatch("component batches differ in size")
    z = np.concatenate(parts, axis=1)
    if z.shape[1] != mlp.input_dim:
        raise ShapeMismatch(
            f"concatenated width {z.shape[1]} != mlp input width {mlp.input_dim}"
        )

    layer_inputs: list[np.ndarray] = []
    preacts: list[np.ndarray] = []
    masks: list[Optional[np.ndarray]] = []
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        if rng is not None:
            keep = 1.0 - DROPOUT_RATE
            mask = ((rng.random(z.shape) < keep) / keep).astype(z.dtype)
            z = z * mask
        else:
            mask = None
        masks.append(mask)
        layer_inputs.append(z)
        a = z @ w + b
        preacts.append(a)
        z = np.maximum(a, 0.0) if i < last else a

    logits = z[:, 0]
    scores = np.clip(_sigmoid(logits), _SCORE_FLOOR, _SCORE_CEIL)
    cache = ForwardCache(layer_inputs=layer_inputs, preacts=preacts, masks=masks, scores=scores)
    return scores, cache


def bce_loss(score, label) -> float:
    """Binary cross entropy with scores clamped into [eps, 1-eps].

    Accepts scalars or arrays; arrays reduce to the batch mean.
    """
    s = np.clip(np.asarray(score, dtype=float), LOSS_EPS, 1.0 - LOSS_EPS)
    y = np.asarray(label, dtype=float)
    losses = -(y * np.log(s) + (1.0 - y) * np.log(1.0 - s))
    return float(np.mean(losses))


def mlp_backward(mlp: MlpParams, cache: ForwardCache, label) -> tuple[Gradients, np.ndarray]:
    """Gradients of the mean BCE loss for the MLP, plus d(loss)/d(inputs).

    The returned input gradient has the columns of the concatenated parts,
    so callers slice it per component. Dropout masks are reused from the
    forward pass; scores pushed into the loss clamp get zero gradient,
    matching the implemented (clamped) loss exactly.
    """
    scores = cache.scores
    y = np.atleast_1d(np.asarray(label, dtype=float))
    if y.shape[0] != scores.shape[0]:
        raise ShapeMismatch(f"{y.shape[0]} labels for {scores.shape[0]} scores")
    batch = scores.shape[0]
    inner = (scores > LOSS_EPS) & (scores < 1.0 - LOSS_EPS)
    g = (np.where(inner, scores - y, 0.0)[:, None] / batch).astype(cache.preacts[-1].dtype)

    grad_w: list[np.ndarray] = [np.empty(0)] * len(mlp.weights)
    grad_b: list[np.ndarray] = [np.empty(0)] * len(mlp.biases)
    for i in range(len(mlp.weights) - 1, -1, -1):
        x = cache.layer_inputs[i]
        grad_w[i] = x.T @ g
        grad_b[i] = g.sum(axis=0)
        gx = g @ mlp.weights[i].T
        if cache.masks[i] is not None:
            gx = gx * cache.masks[i]
        if i > 0:
            g = gx * (cache.preacts[i - 1] > 0)
        else:
            d_input = gx
    return Gradients(mlp_w=grad_w, mlp_b=grad_b), d_input


def embedding_gradient(
    d_h: np.ndarray, ids: np.ndarray, vocab_size: int, dim: int
) -> RowGradient:
    """Scatter mean-pooling gradients back onto the rows of the embedding
    table that the batch used.

    Each token's share of its text's gradient, d_h over the text's length,
    is computed in float64. The scatter runs over blocks of _SCATTER_COLUMNS
    columns: one bincount per block at slot*width + column, written straight
    into the (rows, dim) result of d_h's dtype. Each entry adds its
    contributions in token order from 0.0 in float64, as a scatter into a
    dense zero table would add them, so the values are bit-identical to it,
    rounded once. No (tokens, dim) temporary is made.
    """
    mask = ids != PAD_INDEX
    lengths = mask.sum(axis=1)
    scale = d_h.astype(np.float64) / np.maximum(lengths, 1)[:, None]
    owner = np.nonzero(mask)[0]
    rows, slots = np.unique(ids[mask], return_inverse=True)
    values = np.empty((rows.size, dim), d_h.dtype)
    for c0 in range(0, dim, _SCATTER_COLUMNS):
        block = scale[:, c0 : c0 + _SCATTER_COLUMNS][owner]
        width = block.shape[1]
        if c0 == 0 or width < _SCATTER_COLUMNS:  # full blocks share one index
            index = ((slots * width)[:, None] + np.arange(width)).reshape(-1)
        sums = np.bincount(index, weights=block.reshape(-1), minlength=rows.size * width)
        values[:, c0 : c0 + width] = sums.reshape(rows.size, width)
    return RowGradient(rows=rows, values=values, num_rows=vocab_size)
