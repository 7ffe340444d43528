"""Supervised training loop and online prediction.

Training is deterministic given the seed: parameter init, epoch shuffles
and dropout all come from one generator, and the validation history is
bit-identical across runs. Every validate_every batches the validation F1
is computed and the best-scoring parameters (earliest on ties) are the
ones returned.

Training ids come from vocab.encode_corpus, in the pass that builds each
vocabulary; those of validation, eval and scan from Vocab.encode.

ModelParams.arrays names every parameter once, for the model file, the
checkpoint and Adam. TrainConfig's fields are exactly the `train` options.

A model computes in the dtype of its arrays. train creates float32 ones:
half the memory of float64 for the tables, Adam's moments and the model
file. A float64 model, such as a file written before training used float32,
stays float64 and scores exactly as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from ..corpus import DatasetSplit, Label, TripleSample
from ..metrics import Status, confusion, metrics, status_of
from .network import (
    COMPONENT_ORDER,
    Component,
    EncoderParams,
    MlpParams,
    bce_loss,
    default_hidden_sizes,
    embedding_gradient,
    forward,
    init_encoder,
    init_mlp,
    mean_pool,
    mlp_backward,
)
from .optimizer import AdamState, adam_step, clip_gradients
from .storage import EXTERNAL_DIM, ExternalVectorStore
# build_vocab is not called here: bench/tracing.py patches this name.
from .vocab import Vocab, build_vocab, encode_corpus

INTERNAL = "internal"
EXTERNAL = "external"
# Samples pooled and scored at once: bounds the (chunk, max_len, dim)
# embedding gather that mean pooling makes.
SCORE_CHUNK = 64
# Tokens each encoder reads; longer texts are truncated.
MAX_LEN = {Component.CC: 200, Component.TD: 30, Component.MSG: 30}
# Each step's gradients are scaled down together to at most this global L2 norm.
GRAD_CLIP_NORM = 2.0
_TEXT_FIELD = {
    Component.CC: "code_change",
    Component.TD: "todo_comment",
    Component.MSG: "commit_msg",
}


# The least value of each integer TrainConfig field.
_INT_FIELD_LEAST = {
    "batch_size": 1, "validate_every": 0, "max_epochs": 0, "seed": 0, "dim": 1, "min_freq": 1,
}


@dataclass
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 0.001
    validate_every: int = 1000
    max_epochs: int = 10
    seed: int = 0
    component_mask: frozenset[Component] = frozenset(COMPONENT_ORDER)
    backend: str = INTERNAL
    dim: int = 128
    min_freq: int = 2

    def __post_init__(self):
        for name, least in _INT_FIELD_LEAST.items():
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, (int, float)) or not 0 < lr < math.inf:
            raise ValueError(f"learning_rate must be a finite number above 0, got {lr!r}")
        if not self.component_mask:
            raise ValueError("component_mask must not be empty")
        if self.backend not in (INTERNAL, EXTERNAL):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == EXTERNAL:
            self.dim = EXTERNAL_DIM
        if isinstance(self.component_mask, (list, tuple, set)):
            self.component_mask = frozenset(self.component_mask)

    def active_components(self) -> tuple[Component, ...]:
        return tuple(c for c in COMPONENT_ORDER if c in self.component_mask)


def parse_mask(spec: str) -> frozenset[Component]:
    parts = [p.strip().lower() for p in spec.split(",") if p.strip()]
    return frozenset(Component(p) for p in parts)


def component_text(sample: TripleSample, component: Component) -> str:
    return getattr(sample, _TEXT_FIELD[component])


@dataclass(frozen=True)
class Prediction:
    score: float
    status: Status
    sample: TripleSample


@dataclass(frozen=True)
class ValidationPoint:
    batch: int
    epoch: int
    train_loss: float
    val_f1: Optional[float]


@dataclass
class TrainHistory:
    validations: list[ValidationPoint] = field(default_factory=list)
    best_batch: int = -1
    final_batch: int = 0
    diverged: bool = False


@dataclass
class ModelParams:
    encoders: dict[Component, EncoderParams]  # in COMPONENT_ORDER; empty for the external backend
    mlp: MlpParams
    config: TrainConfig

    def arrays(self) -> dict[str, np.ndarray]:
        """Every parameter, not copied, under its model-file name: mlp_w0...,
        mlp_b0..., then emb_<component>. global_norm sums in this order."""
        named = {f"mlp_w{i}": w for i, w in enumerate(self.mlp.weights)}
        named.update({f"mlp_b{i}": b for i, b in enumerate(self.mlp.biases)})
        named.update({f"emb_{c.value}": e.embedding for c, e in self.encoders.items()})
        return named

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray], vocabs: dict[Component, Vocab], config: TrainConfig
    ) -> ModelParams:
        """The inverse of arrays(), with one vocabulary per encoder; the
        mlp_w* names give the layer count. A missing name raises KeyError."""
        n_layers = sum(1 for name in arrays if name.startswith("mlp_w"))
        mlp = MlpParams(
            weights=[arrays[f"mlp_w{i}"] for i in range(n_layers)],
            biases=[arrays[f"mlp_b{i}"] for i in range(n_layers)],
        )
        encoders = {
            c: EncoderParams(vocab=vocab, embedding=arrays[f"emb_{c.value}"])
            for c, vocab in vocabs.items()
        }
        return cls(encoders=encoders, mlp=mlp, config=config)


def _encode_samples(
    samples: Sequence[TripleSample],
    model: ModelParams,
    store: Optional[ExternalVectorStore],
) -> dict[Component, np.ndarray]:
    """Precompute per-component model inputs: id matrices, each in its own
    encoder's vocabulary, or fixed vectors in the model's dtype.

    An id matrix is Vocab.encode's with the encoder's MAX_LEN: as wide as
    the longest text it encodes, at least 1 column, each row's PAD ids after
    its tokens.
    """
    encoded: dict[Component, np.ndarray] = {}
    for component in model.config.active_components():
        if component in model.encoders:
            texts = [component_text(s, component) for s in samples]
            encoded[component] = model.encoders[component].vocab.encode(texts, MAX_LEN[component])
        else:
            encoded[component] = np.stack(
                [store.lookup(component_text(s, component)) for s in samples]
            ).astype(model.mlp.weights[0].dtype, copy=False)
    return encoded


def _component_vectors(
    encoded: dict[Component, np.ndarray],
    idx: Union[np.ndarray, slice],
    model: ModelParams,
) -> list[np.ndarray]:
    """forward's parts for the samples at idx: each active component's ids
    mean-pooled through its encoder, or its fixed vectors when it has none."""
    return [
        mean_pool(data[idx], model.encoders[c].embedding) if c in model.encoders else data[idx]
        for c, data in encoded.items()
    ]


def _scores(n: int, encoded: dict[Component, np.ndarray], model: ModelParams) -> np.ndarray:
    """Dropout-free scores of n encoded samples, SCORE_CHUNK at a time.

    Pooling runs in the tables' dtype and the MLP in float64: its inputs are
    float64, so numpy computes every layer in float64 whatever the weights'
    dtype. The batch size picks the BLAS kernel, so a sample's score moves
    with it by float64 rounding, about 1e-16; in float32 it moved by up to
    6e-8 on a dim-128 model.
    """
    scores = np.empty(n)
    for start in range(0, n, SCORE_CHUNK):
        chunk = slice(start, start + SCORE_CHUNK)
        parts = _component_vectors(encoded, chunk, model)
        scores[chunk], _ = forward([p.astype(np.float64, copy=False) for p in parts], model.mlp)
    return scores


def _init_model(
    rng: np.random.Generator, vocabs: dict[Component, Vocab], config: TrainConfig
) -> ModelParams:
    """Draw the initial parameters, in float64: one table per vocabulary (in
    COMPONENT_ORDER), then the MLP; then cast them to float32."""
    encoders = {c: init_encoder(rng, vocab, config.dim) for c, vocab in vocabs.items()}
    input_dim = config.dim * len(config.active_components())
    mlp = init_mlp(rng, input_dim, default_hidden_sizes(config.dim))
    drawn = ModelParams(encoders=encoders, mlp=mlp, config=config).arrays()
    return ModelParams.from_arrays(
        {name: a.astype(np.float32) for name, a in drawn.items()}, vocabs, config
    )


def train(
    split: DatasetSplit,
    config: TrainConfig,
    store: Optional[ExternalVectorStore] = None,
) -> tuple[ModelParams, TrainHistory]:
    """Train on split.train, checkpointing on split.val F1.

    Returns the parameters of the best validation (earliest on ties). A
    non-finite training loss aborts the loop with history.diverged set and
    the best checkpoint so far is returned; when no validation ran, the
    seed's initial parameters are.
    """
    if not split.train or not split.val:
        raise ValueError("train and validation sets must be non-empty")
    if config.backend == EXTERNAL and store is None:
        raise ValueError("external backend requires a vector store")

    rng = np.random.default_rng(config.seed)

    # Each encoder has its own vocabulary, built from its own component's
    # training texts only, in the pass that encodes them.
    vocabs, train_encoded = {}, {}
    if config.backend == INTERNAL:
        for c in config.active_components():
            texts = [component_text(s, c) for s in split.train]
            vocabs[c], train_encoded[c] = encode_corpus(texts, MAX_LEN[c], config.min_freq)
    model = _init_model(rng, vocabs, config)
    mlp = model.mlp

    if config.backend == EXTERNAL:
        train_encoded = _encode_samples(split.train, model, store)
    val_encoded = _encode_samples(split.val, model, store)
    y_train = np.array([1.0 if s.label is Label.POSITIVE else 0.0 for s in split.train])
    val_labels = [s.label for s in split.val]

    params_list = list(model.arrays().values())
    adam = AdamState.for_params(params_list)

    history = TrainHistory()
    best_f1 = -math.inf
    best: Optional[ModelParams] = None
    n_train = len(split.train)
    batches_done = 0
    running_loss = 0.0
    running_batches = 0

    def validate(epoch: int, last: bool = False) -> None:
        """Score the validation set and keep the model if it is the best so
        far: copied into the buffers of the first copy, or the live model
        itself when no step follows."""
        nonlocal best_f1, best, running_loss, running_batches
        scores = _scores(len(split.val), val_encoded, model)
        f1 = metrics(confusion([status_of(s) for s in scores], val_labels)).f1
        avg_loss = running_loss / running_batches if running_batches else float("nan")
        history.validations.append(
            ValidationPoint(batch=batches_done, epoch=epoch, train_loss=avg_loss, val_f1=f1)
        )
        running_loss = 0.0
        running_batches = 0
        comparable = -1.0 if f1 is None else f1
        if comparable > best_f1:
            best_f1 = comparable
            if last:
                best = model
            elif best is None:
                copies = {name: a.copy() for name, a in model.arrays().items()}
                best = ModelParams.from_arrays(copies, vocabs, config)
            else:
                for kept, live in zip(best.arrays().values(), model.arrays().values()):
                    np.copyto(kept, live)
            history.best_batch = batches_done

    diverged = False
    for epoch in range(config.max_epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, config.batch_size):
            idx = order[start : start + config.batch_size]
            parts = _component_vectors(train_encoded, idx, model)
            scores, cache = forward(parts, mlp, rng=rng)
            labels = y_train[idx]
            loss = bce_loss(scores, labels)
            if not math.isfinite(loss):
                diverged = True
                break
            grads, d_input = mlp_backward(mlp, cache, labels)
            grad_list = list(grads.mlp_w) + list(grads.mlp_b)
            # Either every part comes from an encoder or none does (external
            # backend); each is config.dim wide and in the encoders' order.
            for i, (component, encoder) in enumerate(model.encoders.items()):
                d_h = d_input[:, i * config.dim : (i + 1) * config.dim]
                ids = train_encoded[component][idx]
                grad_list.append(embedding_gradient(d_h, ids, len(encoder.vocab), config.dim))
            grad_list = clip_gradients(grad_list, GRAD_CLIP_NORM)
            adam_step(params_list, grad_list, adam, lr=config.learning_rate)
            batches_done += 1
            running_loss += loss
            running_batches += 1
            if config.validate_every > 0 and batches_done % config.validate_every == 0:
                validate(epoch)
        if diverged:
            break

    if not diverged and running_batches:
        validate(config.max_epochs - 1, last=True)

    history.final_batch = batches_done
    history.diverged = diverged
    if best is None:
        # Init is the generator's first use, so a fresh one redraws it.
        best = _init_model(np.random.default_rng(config.seed), vocabs, config)
    return best, history


def predict_scores(
    samples: Sequence[TripleSample],
    model: ModelParams,
    store: Optional[ExternalVectorStore] = None,
) -> np.ndarray:
    """Dropout-free scores for a batch of samples: the one scoring path.

    A sample is resolved iff its score reaches metrics.DECISION_THRESHOLD.
    """
    config = model.config
    if config.backend == EXTERNAL and store is None:
        raise ValueError("external backend requires a vector store")
    if not samples:
        return np.empty(0)
    encoded = _encode_samples(samples, model, store)
    return _scores(len(samples), encoded, model)


def predict(
    sample: TripleSample,
    model: ModelParams,
    store: Optional[ExternalVectorStore] = None,
) -> Prediction:
    """Score one sample through predict_scores."""
    score = float(predict_scores([sample], model, store)[0])
    return Prediction(score=score, status=status_of(score), sample=sample)
