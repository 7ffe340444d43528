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
from typing import Collection, Iterable, Iterator, Optional, Sequence, TextIO, Union

from .comments import (
    DEFAULT_CONTEXT_LINES,
    CodeChange,
    Language,
    TodoComment,
    associate,
    carve_code_change,
    contains_todo,
    extract_comments,  # not called here: bench/tracing.py patches this name
    extract_comments_by_file,
    language_for_path,
    single_todo_filter,
)
from .diffs import (
    LineKind,
    MalformedDiff,
    NormalizedMessage,
    RawCommit,
    normalize_diff,
    normalize_message,
    parse_unified_diff,
)

log = logging.getLogger(__name__)

MIN_SPLIT_SIZE = 10


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


class Insufficient(ValueError):
    def __init__(self, label: "Label", available: int, requested: int):
        self.label = label
        super().__init__(
            f"only {available} {label.value} samples available, {requested} requested"
        )


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


def identify_todo_commits(commits: Iterable[RawCommit]) -> Iterator[RawCommit]:
    """Pass exactly the commits whose diff mentions TODO (any case)."""
    for commit in commits:
        if "todo" in commit.diff_text.lower():
            yield commit


def label_triple(
    todo: TodoComment,
    cc: CodeChange,
    msg: NormalizedMessage,
    repo: str = "",
    commit_id: str = "",
) -> Optional[TripleSample]:
    """Label by the TODO line's diff scope; None for first-time (added) TODOs."""
    kind = todo.line.kind
    if kind is LineKind.ADDED:
        return None
    label = Label.POSITIVE if kind is LineKind.REMOVED else Label.NEGATIVE
    return TripleSample(
        code_change=cc.rendered,
        todo_comment=todo.text,
        commit_msg=msg.text,
        label=label,
        repo=repo,
        commit_id=commit_id,
        todo_line_kind=kind,
    )


def extract_triple(
    commit: RawCommit,
    languages: Collection[Language],
    context_lines: int = DEFAULT_CONTEXT_LINES,
) -> Union[tuple[TripleSample, TodoComment, str], str, None]:
    """Run the commit-to-triple pipeline on one commit.

    Only files whose extension maps to one of languages are lexed. Returns
    the labeled sample with its TODO and the TODO's file path, None when the
    diff does not mention TODO, or else the name of the BuildCounts field
    that counts why the commit gave no triple.
    """
    if "todo" not in commit.diff_text.lower():
        return None
    try:
        doc = parse_unified_diff(commit.diff_text)
    except MalformedDiff as exc:
        log.warning("skipping commit %s: %s", commit.commit_id, exc)
        return "parse_failures"
    norm = normalize_diff(doc)
    if norm is None:
        return "oversize"
    file_languages = {
        i: language
        for i, (old, new) in enumerate(norm.files)
        if (language := language_for_path(new or old)) in languages
    }
    todo = single_todo_filter([
        TodoComment(text=text, line=line, language=language)
        for line, text, language in extract_comments_by_file(norm, file_languages)
        if contains_todo(text)
    ])
    if todo is None:
        return "no_single_todo"
    if not associate(todo, norm, context_lines):
        return "unassociated"
    cc = carve_code_change(norm, todo)
    if not cc.rendered.strip():
        return "empty_change"
    msg = normalize_message(commit.message)
    if not msg.text:
        return "empty_message"
    sample = label_triple(todo, cc, msg, repo=commit.repo, commit_id=commit.commit_id)
    if sample is None:
        return "added_kind"
    old, new = norm.files[todo.line.file_index]
    return sample, todo, new or old


def build_triples(
    commits: Iterable[RawCommit],
    language: Language,
    context_lines: int = DEFAULT_CONTEXT_LINES,
) -> tuple[list[TripleSample], BuildCounts]:
    """Build the corpus of one language, counting every drop."""
    counts = BuildCounts()
    samples: list[TripleSample] = []
    for commit in commits:
        counts.commits_seen += 1
        result = extract_triple(commit, (language,), context_lines)
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
    chunk = (n + 5) // 10
    train = tuple(order[: n - 2 * chunk])
    val = tuple(order[n - 2 * chunk : n - chunk])
    test = tuple(order[n - chunk :])
    return DatasetSplit(train=train, val=val, test=test, seed=seed)


def corpus_stats(samples: Sequence[TripleSample], todo_commits: int) -> CorpusStats:
    n = len(samples)
    chunk = (n + 5) // 10 if n >= MIN_SPLIT_SIZE else 0
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


_FIELDS = (
    "repo",
    "commit_id",
    "todo_comment",
    "code_change",
    "commit_msg",
    "label",
    "todo_line_kind",
)


def write_corpus(samples: Iterable[TripleSample], path: str) -> int:
    """Write newline-delimited records; returns the record count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        count = write_corpus_stream(samples, fh)
    return count


def write_corpus_stream(samples: Iterable[TripleSample], fh: TextIO) -> int:
    count = 0
    for sample in samples:
        record = {
            "repo": sample.repo,
            "commit_id": sample.commit_id,
            "todo_comment": sample.todo_comment,
            "code_change": sample.code_change,
            "commit_msg": sample.commit_msg,
            "label": sample.label.value,
            "todo_line_kind": sample.todo_line_kind.value,
        }
        fh.write(json.dumps(record, ensure_ascii=False) + "\n")
        count += 1
    return count


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
            try:
                sample = TripleSample(
                    code_change=record["code_change"],
                    todo_comment=record["todo_comment"],
                    commit_msg=record["commit_msg"],
                    label=Label(record["label"]),
                    repo=record["repo"],
                    commit_id=record["commit_id"],
                    todo_line_kind=LineKind(record["todo_line_kind"]),
                )
            except ValueError as exc:
                raise SchemaViolation(line_no, str(exc)) from exc
            samples.append(sample)
    return samples


def sample_for_manual_check(
    samples: Sequence[TripleSample], n_pos: int, n_neg: int, seed: int
) -> list[TripleSample]:
    """Seeded random pick of n_pos positives and n_neg negatives for review."""
    positives = [s for s in samples if s.label is Label.POSITIVE]
    negatives = [s for s in samples if s.label is Label.NEGATIVE]
    if len(positives) < n_pos:
        raise Insufficient(Label.POSITIVE, len(positives), n_pos)
    if len(negatives) < n_neg:
        raise Insufficient(Label.NEGATIVE, len(negatives), n_neg)
    rng = random.Random(seed)
    picked = rng.sample(positives, n_pos) + rng.sample(negatives, n_neg)
    return picked


def render_manual_check_report(samples: Sequence[TripleSample]) -> str:
    """Human-readable report of sampled triples for label auditing."""
    blocks = []
    for i, s in enumerate(samples, start=1):
        blocks.append(
            "\n".join(
                [
                    f"--- sample {i} [{s.label.value}] {s.repo}@{s.commit_id} ---",
                    f"todo_comment: {s.todo_comment}",
                    f"commit_msg:   {s.commit_msg}",
                    "code_change:",
                    s.code_change,
                ]
            )
        )
    return "\n\n".join(blocks) + ("\n" if blocks else "")
