"""Heuristic status checkers used as comparison methods.

TCO declares a TODO resolved when it shares a word with the code change,
TMO when it shares a word with the commit message, TCMO when either fires.
IRSC scores TF-IDF cosine similarity between the TODO comment and the
added lines against a threshold.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Optional, Sequence

from .corpus import TripleSample
from .metrics import Status

# Fixed stopword list; determinism is pinned by a checksum test.
STOPWORDS = (
    "a", "about", "after", "all", "also", "an", "and", "any", "are", "as",
    "at", "be", "been", "but", "by", "can", "could", "did", "do", "does",
    "for", "from", "had", "has", "have", "if", "in", "into", "is", "it",
    "its", "may", "might", "no", "not", "of", "on", "or", "our", "should",
    "so", "some", "than", "that", "the", "their", "then", "these", "they",
    "this", "to", "was", "we", "were", "when", "which", "will", "with",
    "would",
)

_STOPWORD_SET = frozenset(STOPWORDS)
_WORD_RUN_RE = re.compile(r"[A-Za-z0-9]+")
_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+")
_SUFFIXES = ("ing", "ed", "s")


def stem(token: str) -> str:
    """Strip one of the plural/participle suffixes when enough stem remains."""
    for suffix in _SUFFIXES:
        if token.endswith(suffix) and len(token) - len(suffix) >= 3:
            return token[: -len(suffix)]
    return token


def tokenize(text: str, use_stemming: bool = True) -> list[str]:
    """Word tokens: split identifiers on underscores and camel humps,
    lowercase, drop stopwords and the todo marker itself."""
    tokens = []
    for run in _WORD_RUN_RE.findall(text):
        for part in _CAMEL_RE.findall(run):
            token = part.lower()
            if token in _STOPWORD_SET or token == "todo":
                continue
            tokens.append(stem(token) if use_stemming else token)
    return tokens


def overlap_tokens(text: str, use_stemming: bool = True) -> frozenset[str]:
    return frozenset(tokenize(text, use_stemming))


def tco(sample: TripleSample, use_stemming: bool = True) -> Status:
    """Resolved iff the TODO and the code change share a word."""
    shared = overlap_tokens(sample.todo_comment, use_stemming) & overlap_tokens(
        sample.code_change, use_stemming
    )
    return Status.RESOLVED if shared else Status.UNRESOLVED


def tmo(sample: TripleSample, use_stemming: bool = True) -> Status:
    """Resolved iff the TODO and the commit message share a word."""
    shared = overlap_tokens(sample.todo_comment, use_stemming) & overlap_tokens(
        sample.commit_msg, use_stemming
    )
    return Status.RESOLVED if shared else Status.UNRESOLVED


def tcmo(sample: TripleSample, use_stemming: bool = True) -> Status:
    """Resolved iff TCO or TMO says so."""
    if tco(sample, use_stemming) is Status.RESOLVED:
        return Status.RESOLVED
    return tmo(sample, use_stemming)


def added_lines_text(code_change_rendered: str) -> str:
    """The added-line portion of a rendered code change, markers stripped."""
    return "\n".join(
        line[1:] for line in code_change_rendered.splitlines() if line.startswith("+")
    )


class TfidfSpace:
    """TF-IDF weighting over {comment, added lines} plus a background corpus.

    With no background the two-document idf is degenerate (shared tokens
    weigh zero), hence the harness feeds the training split's documents.
    """

    def __init__(self, background: Iterable[str] = ()):
        self._df: dict[str, int] = {}
        self._n_background = 0
        for doc in background:
            self._n_background += 1
            for token in set(tokenize(doc)):
                self._df[token] = self._df.get(token, 0) + 1

    def pair_vectors(
        self, comment: str, lines_added: str
    ) -> tuple[dict[str, float], dict[str, float]]:
        docs = [tokenize(comment), tokenize(lines_added)]
        n_docs = self._n_background + 2
        vectors = []
        for i, tokens in enumerate(docs):
            other = set(docs[1 - i])
            weights: dict[str, float] = {}
            counts: dict[str, int] = {}
            for token in tokens:
                counts[token] = counts.get(token, 0) + 1
            for token, tf in counts.items():
                df = self._df.get(token, 0) + 1 + (1 if token in other else 0)
                weights[token] = tf * math.log(n_docs / df)
            vectors.append(weights)
        return vectors[0], vectors[1]


def cosine(a: dict[str, float], b: dict[str, float]) -> float:
    """Cosine similarity of sparse vectors; zero vectors score 0."""
    dot = sum(w * b[t] for t, w in a.items() if t in b)
    norm_a = math.sqrt(sum(w * w for w in a.values()))
    norm_b = math.sqrt(sum(w * w for w in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def irsc(
    sample: TripleSample,
    lines_added: str,
    threshold: float = 0.3,
    space: Optional[TfidfSpace] = None,
) -> Status:
    """Resolved iff TF-IDF cosine(comment, added lines) reaches threshold."""
    if irsc_similarity(sample, lines_added, space) >= threshold:
        return Status.RESOLVED
    return Status.UNRESOLVED


def irsc_similarity(
    sample: TripleSample, lines_added: str, space: Optional[TfidfSpace] = None
) -> float:
    """TF-IDF cosine of the TODO comment and the added lines."""
    if space is None:
        space = TfidfSpace()
    vec_comment, vec_added = space.pair_vectors(sample.todo_comment, lines_added)
    return cosine(vec_comment, vec_added)


def background_documents(samples: Sequence[TripleSample]) -> list[str]:
    """Default IRSC background: each sample's comment and added lines."""
    docs = []
    for sample in samples:
        docs.append(sample.todo_comment)
        docs.append(added_lines_text(sample.code_change))
    return docs
