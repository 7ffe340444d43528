"""Scanning a live repository for obsolete TODO comments.

Every historical commit with a context line holding "todo" is rebuilt into
a triple by the extractor that builds the corpus, lexing every mapped
file, but only context-line TODOs qualify: a TODO that a commit resolved
while leaving the comment untouched is the obsolete candidate. All are
scored in one call; those whose score metrics.status_of calls resolved
(never a NaN score) are checked in their own file at HEAD, which git grep
reads for those files only: comments still there are potential obsolete
findings, comments some later commit deleted are intermediate ones.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

# Five names are imported only for bench/tracing.py to patch.
from .comments import (
    Language,
    TodoComment,
    associate,
    carve_code_change,
    extract_comments_by_file,
    language_for_path,
    line_todos,
)
from .corpus import TripleSample, extract_triple
from .diffs import LineKind, normalize_diff, normalize_text, parse_unified_diff
from .metrics import Status, status_of
from .mining import mine_repository, run_git

# One HEAD hit of `git grep -z -n`: "HEAD:<path>\0<line number>\0<line>\n".
_GREP_HIT_RE = re.compile(r"HEAD:([^\0]*)\0(\d+)\0([^\n]*)\n")
# Bytes of paths given to one git grep, well under every platform's command line limit.
GREP_PATH_BYTES = 1 << 14


class FindingKind(Enum):
    POTENTIAL_OBSOLETE = "potential_obsolete"
    INTERMEDIATE_OBSOLETE = "intermediate_obsolete"


@dataclass(frozen=True)
class ScanFinding:
    file_path: str
    line_no: Optional[int]
    todo_text: str
    commit_id: str
    score: float
    classification: FindingKind


def normalize_ws(text: str) -> str:
    return " ".join(text.split())


def _has_context_todo(diff_text: str) -> bool:
    """Whether a line that starts with " " holds "todo" in any case.

    str.lower is the finder's test for "todo" (see comments.contains_todo),
    and lowering adds no "\\n", the parser's only line break, and no " ".
    """
    text = diff_text.lower()
    at = text.find("todo")
    while at >= 0:
        if text.startswith(" ", text.rfind("\n", 0, at) + 1):
            return True
        at = text.find("\n", at)
        at = -1 if at < 0 else text.find("todo", at)
    return False


def candidate_triples(commits: Iterable) -> list[tuple[TripleSample, TodoComment, str]]:
    """Context-line TODO triples from a commit stream, with their file.

    A commit without a context line holding "todo" is skipped unparsed.
    """
    languages = tuple(Language)
    out = []
    for commit in commits:
        if not _has_context_todo(commit.diff_text):
            continue
        result = extract_triple(commit, languages, kinds=(LineKind.CONTEXT,))
        if isinstance(result, tuple):
            out.append(result)
    return out


def _head_todo_index(repo_path: str, paths: Sequence[str] = ()) -> dict[tuple[str, str], int]:
    """(file, whitespace-normalized TODO comment text) -> first line at HEAD,
    over the given files (a directory's too), or the whole tree if none.

    Each line is normalized as diff lines are (diffs.normalize_text), so a
    TODO is keyed as its candidate is. Only TODO comments are indexed, and
    only lines holding "todo" in any case are read, which loses nothing:
    every text looked up is a TODO comment. Binary files are skipped.
    """
    batches, size = [[]], 0
    # A path that was not UTF-8 cannot be named, so then the whole tree is read.
    for path in () if any("\ufffd" in path for path in paths) else paths:
        size += len(path.encode())
        if size > GREP_PATH_BYTES and batches[-1]:
            batches.append([])
            size = len(path.encode())
        batches[-1].append(path)
    args = ["--literal-pathspecs", "grep", "-z", "-n", "-I", "-i", "-e", "todo", "HEAD", "--"]
    # git grep exits with 1 when no line matches.
    output = "".join(run_git(repo_path, [*args, *batch], ok_statuses=(0, 1)) for batch in batches)
    index: dict[tuple[str, str], int] = {}
    for path, line_no, line in _GREP_HIT_RE.findall(output):
        language = language_for_path(path)
        if language is None:
            continue
        for span in line_todos(normalize_text(line), language):
            # git grep lists a file's lines in order: the first hit is the lowest.
            index.setdefault((path, normalize_ws(span.text)), int(line_no))
    return index


def scan_repository(
    repo_path: str,
    score: Callable[[Sequence[TripleSample]], Sequence[float]],
) -> list[ScanFinding]:
    """Find TODO comments some commit resolved but nobody removed.

    score maps a batch of samples to one classifier score each, such as
    model.predict_scores with the model bound. The scan never writes to the
    repository.
    """
    commits = mine_repository(repo_path)
    triples = candidate_triples(commits)
    scores = score([sample for sample, _, _ in triples])

    # (file, text) -> (score, sample): same-text TODOs in two files stay apart.
    resolved: dict[tuple[str, str], tuple[float, TripleSample]] = {}
    for (sample, _, file_path), value in zip(triples, map(float, scores), strict=True):
        if status_of(value) is not Status.RESOLVED:
            continue
        key = (file_path, normalize_ws(sample.todo_comment))
        if key not in resolved or value > resolved[key][0]:
            resolved[key] = (value, sample)

    if not resolved:
        return []

    head_index = _head_todo_index(repo_path, sorted({path for path, _ in resolved}))
    findings = []
    for key, (value, sample) in resolved.items():
        line_no = head_index.get(key)
        kind = FindingKind.POTENTIAL_OBSOLETE if line_no else FindingKind.INTERMEDIATE_OBSOLETE
        finding = ScanFinding(key[0], line_no, sample.todo_comment, sample.commit_id, value, kind)
        findings.append(finding)
    findings.sort(key=lambda f: -f.score)
    return findings


def finding_record(finding: ScanFinding) -> dict:
    return {**vars(finding), "classification": finding.classification.value}


def write_findings(findings: Iterable[ScanFinding], path: str) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for finding in findings:
            fh.write(json.dumps(finding_record(finding), ensure_ascii=False) + "\n")
            count += 1
    return count
