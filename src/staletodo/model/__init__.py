"""Trainable three-encoder classifier with an MLP fusion head.

The package exports what the CLI and README's "Library" section use; the
layers live in network, optimizer, storage, training and vocab.
"""

from .storage import ExternalVectorStore, MissingExternalVector, load_model, save_model
from .training import TrainConfig, parse_mask, predict, predict_scores, train

__all__ = [
    "ExternalVectorStore",
    "MissingExternalVector",
    "TrainConfig",
    "load_model",
    "parse_mask",
    "predict",
    "predict_scores",
    "save_model",
    "train",
]
