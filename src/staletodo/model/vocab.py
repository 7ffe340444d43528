"""Token vocabulary for the trainable encoder backend."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

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

    def encode(self, tokens: Sequence[str], max_len: int) -> list[int]:
        """Map tokens to ids, truncating the tail and padding to max_len."""
        ids = [self.index.get(t, UNK_INDEX) for t in tokens[:max_len]]
        ids.extend([PAD_INDEX] * (max_len - len(ids)))
        return ids

    def encode_text(self, text: str, max_len: int) -> list[int]:
        return self.encode(tokenize_for_model(text), max_len)


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
    counts: dict[str, int] = {}
    n_docs = 0
    for text in corpus:
        n_docs += 1
        for token in tokenize_for_model(text):
            counts[token] = counts.get(token, 0) + 1
    if n_docs == 0:
        raise EmptyCorpus("cannot build a vocabulary from an empty corpus")
    kept = [t for t, c in counts.items() if c >= min_freq and t not in _SPECIALS]
    return make_vocab(list(_SPECIALS) + kept)
