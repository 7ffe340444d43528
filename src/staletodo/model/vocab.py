"""Token vocabulary for the trainable encoder backend. Texts become id
matrices through _id_matrix only: encode_corpus for the texts a vocabulary
is built from, in the same pass, and Vocab.encode for any other texts."""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
CLS_TOKEN = "<cls>"
PAD_INDEX = 0
UNK_INDEX = 1
CLS_INDEX = 2
_SPECIALS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN)

# Placeholders survive as single tokens; +/- diff markers are kept so the
# encoder can tell added from removed code. A word is a run of Unicode
# letters and digits, which on ASCII text is a run of [a-z0-9] after
# lowercasing.
_MODEL_TOKEN_RE = re.compile(r"<commit_id>|<issue_id>|[^\W_]+|[+-]")


class EmptyCorpus(ValueError):
    pass


def tokenize_for_model(text: str) -> list[str]:
    return _MODEL_TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocab:
    tokens: tuple[str, ...]
    index: dict[str, int] = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, texts: Sequence[str], max_len: int) -> np.ndarray:
        """Ids of each text's first max_len tokens, unknown ones as UNK, one
        row per text, padded with PAD: see _id_matrix for the width."""
        flat = array("q")
        lengths = np.empty(len(texts), np.int64)
        for i, text in enumerate(texts):
            tokens = tokenize_for_model(text)[:max_len]
            flat.extend([self.index.get(t, UNK_INDEX) for t in tokens])
            lengths[i] = len(tokens)
        return _id_matrix(np.frombuffer(flat, np.int64), lengths, max_len)


def make_vocab(tokens: Sequence[str]) -> Vocab:
    if tuple(tokens[: len(_SPECIALS)]) != _SPECIALS:
        tokens = list(_SPECIALS) + [t for t in tokens if t not in _SPECIALS]
    tokens = tuple(tokens)
    return Vocab(tokens=tokens, index={t: i for i, t in enumerate(tokens)})


def build_vocab(corpus: Iterable[str], min_freq: int = 2) -> Vocab:
    """Vocabulary of corpus tokens seen at least min_freq times.

    Token order is first occurrence, so the result is deterministic given
    corpus order. Rarer tokens all map to UNK.
    """
    return encode_corpus(list(corpus), 1, min_freq)[0]


def encode_corpus(
    corpus: Sequence[str], max_len: int, min_freq: int = 2
) -> tuple[Vocab, np.ndarray]:
    """build_vocab(corpus, min_freq) and the texts' ids in it, from one
    tokenize_for_model pass.

    The ids are vocab.encode(corpus, max_len).
    """
    if not corpus:
        raise EmptyCorpus("cannot build a vocabulary from an empty corpus")
    # Provisional ids number the distinct tokens in first-occurrence order;
    # the tokenizer never yields a special token.
    provisional: dict[str, int] = {}
    flat = array("i")
    lengths = np.empty(len(corpus), np.int64)
    for i, text in enumerate(corpus):
        tokens = tokenize_for_model(text)
        flat.extend([provisional.setdefault(t, len(provisional)) for t in tokens])
        lengths[i] = len(tokens)
    ids = np.frombuffer(flat, np.intc)
    kept = np.bincount(ids, minlength=len(provisional)) >= min_freq
    vocab = make_vocab([*_SPECIALS, *(t for t, k in zip(provisional, kept) if k)])
    remap = np.full(len(provisional), UNK_INDEX, np.int64)
    remap[kept] = np.arange(len(_SPECIALS), len(vocab))
    return vocab, _id_matrix(remap[ids], lengths, max_len)


def _id_matrix(ids: np.ndarray, lengths: np.ndarray, max_len: int) -> np.ndarray:
    """Row i holds the first max_len of the lengths[i] ids that follow the
    earlier rows' in ids, then PAD, in a matrix as wide as the longest row
    and 1 to max_len columns: no token maps to PAD, so the PAD ids follow."""
    width = max(1, min(max_len, int(lengths.max(initial=0))))
    used = np.arange(width) < lengths[:, None]
    starts = np.cumsum(lengths) - lengths
    matrix = np.full((len(lengths), width), PAD_INDEX, np.int64)
    matrix[used] = ids[(starts[:, None] + np.arange(width))[used]]
    return matrix
