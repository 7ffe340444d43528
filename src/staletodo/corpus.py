"""Building, labeling, splitting and persisting the triple corpus.

Every usable commit contributes one ⟨code_change, todo_comment, commit_msg⟩
triple. The label comes from where the TODO line sits in the diff: a TODO
on a removed line means the task was finished and the comment cleaned up
(positive), a TODO on an unchanged line means the change did not touch it
(negative), and a TODO on an added line is its first introduction and is
ignored.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterable, Optional, Sequence, Union

from .comments import (
    Language,
    TodoComment,
    associate,
    carve_code_change,
    extract_comments,  # only for bench/tracing.py to patch
    extract_comments_by_file,
    single_todo_filter,
)
from .diffs import (
    LineKind,
    MalformedDiff,
    RawCommit,
    normalize_diff,
    normalize_message,
    parse_unified_diff,
)
from .records import write_records

log = logging.getLogger(__name__)

MIN_SPLIT_SIZE = 10
MAX_DIFF_BYTES = 1_048_576  # oversize commits carry no usable signal


class Label(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


class TooFewSamples(ValueError):
    pass


class SchemaViolation(ValueError):
    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"record {line_no}: {reason}")


@dataclass(frozen=True)
class TripleSample:
    code_change: str
    todo_comment: str
    commit_msg: str
    label: Label
    repo: str
    commit_id: str
    todo_line_kind: LineKind

    def __post_init__(self):
        if self.todo_line_kind is LineKind.REMOVED and self.label is not Label.POSITIVE:
            raise ValueError("removed-line TODO must be labeled positive")
        if self.todo_line_kind is LineKind.CONTEXT and self.label is not Label.NEGATIVE:
            raise ValueError("context-line TODO must be labeled negative")
        if self.todo_line_kind is LineKind.ADDED:
            raise ValueError("added-line TODOs are not corpus samples")
        if not (self.code_change and self.todo_comment and self.commit_msg):
            raise ValueError("triple text fields must be non-empty")


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[TripleSample, ...]
    val: tuple[TripleSample, ...]
    test: tuple[TripleSample, ...]
    seed: int


@dataclass
class BuildCounts:
    """Per-filter drop counters for one corpus build."""

    commits_seen: int = 0
    todo_commits: int = 0
    parse_failures: int = 0
    oversize: int = 0
    no_single_todo: int = 0
    unassociated: int = 0
    added_kind: int = 0
    empty_change: int = 0
    empty_message: int = 0


@dataclass(frozen=True)
class CorpusStats:
    todo_commits: int
    positives: int
    negatives: int
    train_size: int
    val_size: int
    test_size: int


def label_triple(
    todo: TodoComment,
    code_change: str,
    message: str,
    repo: str = "",
    commit_id: str = "",
) -> Optional[TripleSample]:
    """Label by the TODO line's diff scope; None for first-time (added) TODOs."""
    kind = todo.kind
    if kind is LineKind.ADDED:
        return None
    label = Label.POSITIVE if kind is LineKind.REMOVED else Label.NEGATIVE
    return TripleSample(
        code_change=code_change,
        todo_comment=todo.text,
        commit_msg=message,
        label=label,
        repo=repo,
        commit_id=commit_id,
        todo_line_kind=kind,
    )


def extract_triple(
    commit: RawCommit,
    languages: Collection[Language],
    kinds: Collection[LineKind] = tuple(LineKind),
) -> Union[tuple[TripleSample, TodoComment, str], str, None]:
    """Run the commit-to-triple pipeline on one commit.

    Only files whose extension maps to one of languages are lexed. Returns
    the labeled sample with its TODO and the TODO's file path, None when the
    diff does not mention TODO, or else the reason the commit gave no
    triple: the name of the BuildCounts field that counts it, or
    "other_kind" when the single TODO sits on a line of a kind outside kinds.
    A diff over MAX_DIFF_BYTES is dropped before it is parsed.
    """
    if "todo" not in commit.diff_text.lower():
        return None
    if len(commit.diff_text.encode("utf-8", errors="surrogateescape")) > MAX_DIFF_BYTES:
        return "oversize"
    try:
        doc = parse_unified_diff(commit.diff_text)
    except MalformedDiff as exc:
        log.warning("skipping commit %s: %s", commit.commit_id, exc)
        return "parse_failures"
    norm = normalize_diff(doc)
    todo = single_todo_filter(extract_comments_by_file(norm, languages))
    if todo is None:
        return "no_single_todo"
    if todo.kind not in kinds:
        return "other_kind"
    if not associate(todo, norm):
        return "unassociated"
    code_change = carve_code_change(norm, todo)
    if not code_change.strip():
        return "empty_change"
    message = normalize_message(commit.message)
    if not message:
        return "empty_message"
    sample = label_triple(todo, code_change, message, repo=commit.repo, commit_id=commit.commit_id)
    if sample is None:
        return "added_kind"
    old, new = norm.files[todo.file_index]
    return sample, todo, new or old


def build_triples(
    commits: Iterable[RawCommit], language: Language
) -> tuple[list[TripleSample], BuildCounts]:
    """Build the corpus of one language, counting every drop."""
    counts = BuildCounts()
    samples: list[TripleSample] = []
    for commit in commits:
        counts.commits_seen += 1
        result = extract_triple(commit, (language,))
        if result is None:
            continue
        counts.todo_commits += 1
        if isinstance(result, str):
            setattr(counts, result, getattr(counts, result) + 1)
        else:
            samples.append(result[0])
    return samples, counts


def split_dataset(samples: Sequence[TripleSample], seed: int) -> DatasetSplit:
    """Deterministic 80/10/10 split.

    Validation and test each take round(n/10) samples (half rounds up);
    whatever remains goes to train, keeping every chunk within one sample
    of its nominal share.
    """
    n = len(samples)
    if n < MIN_SPLIT_SIZE:
        raise TooFewSamples(f"need at least {MIN_SPLIT_SIZE} samples, got {n}")
    order = list(samples)
    random.Random(seed).shuffle(order)
    chunk = _holdout_size(n)
    train = tuple(order[: n - 2 * chunk])
    val = tuple(order[n - 2 * chunk : n - chunk])
    test = tuple(order[n - chunk :])
    return DatasetSplit(train=train, val=val, test=test, seed=seed)


def _holdout_size(n: int) -> int:
    """The size of the validation set and of the test set: round(n/10), half up."""
    return (n + 5) // 10


def corpus_stats(samples: Sequence[TripleSample], todo_commits: int) -> CorpusStats:
    n = len(samples)
    chunk = _holdout_size(n) if n >= MIN_SPLIT_SIZE else 0
    positives = sum(1 for s in samples if s.label is Label.POSITIVE)
    return CorpusStats(
        todo_commits=todo_commits,
        positives=positives,
        negatives=n - positives,
        train_size=n - 2 * chunk,
        val_size=chunk,
        test_size=chunk,
    )


def render_stats(stats: CorpusStats) -> str:
    rows = [
        ("# TODO Commits", stats.todo_commits),
        ("# Positive samples", stats.positives),
        ("# Negative samples", stats.negatives),
        ("# Train Set", stats.train_size),
        ("# Val&Test Set", stats.val_size),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value:,}" for name, value in rows)


# Record fields in file order, each with the enum its value is stored by,
# or None for text.
_FIELDS: dict[str, Optional[type[Enum]]] = {
    "repo": None,
    "commit_id": None,
    "todo_comment": None,
    "code_change": None,
    "commit_msg": None,
    "label": Label,
    "todo_line_kind": LineKind,
}


def write_corpus(samples: Iterable[TripleSample], path: str) -> int:
    """Replace path with one record per sample; returns the record count."""
    return write_records(({name: getattr(s, name) for name in _FIELDS} for s in samples), path)


def read_corpus(path: str) -> list[TripleSample]:
    """Read a corpus file back, validating every record.

    Raises SchemaViolation with the offending record number on malformed
    input; I/O problems surface as the usual OSError.
    """
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaViolation(line_no, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise SchemaViolation(line_no, "record is not an object")
            missing = [f for f in _FIELDS if f not in record]
            if missing:
                raise SchemaViolation(line_no, f"missing fields: {', '.join(missing)}")
            not_text = [f for f in _FIELDS if not _FIELDS[f] and not isinstance(record[f], str)]
            if not_text:
                raise SchemaViolation(line_no, f"not strings: {', '.join(not_text)}")
            try:
                sample = TripleSample(**{
                    name: enum(record[name]) if enum else record[name]
                    for name, enum in _FIELDS.items()
                })
            except ValueError as exc:
                raise SchemaViolation(line_no, str(exc)) from exc
            samples.append(sample)
    return samples
