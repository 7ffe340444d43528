"""Scanning a live repository for obsolete TODO comments.

Every historical commit is rebuilt into a triple by the extractor that
builds the corpus, lexing every file whose extension maps to a language,
but only context-line TODOs qualify: a TODO that a commit resolved while
leaving the comment untouched is the obsolete candidate. All candidates
are scored in one call, and those scoring at least DECISION_THRESHOLD are
then checked against HEAD, each in its own file: comments still there are
potential obsolete findings, comments some later commit deleted are
intermediate ones.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

from .comments import (
    EXTENSION_LANGUAGES,  # re-exported
    Language,
    TodoComment,
    associate,  # not called here: bench/tracing.py patches this name
    carve_code_change,  # not called here: bench/tracing.py patches this name
    extract_comments_by_file,  # not called here: bench/tracing.py patches this name
    language_for_path,
    line_todos,
)
from .corpus import TripleSample, extract_triple
from .diffs import (
    LineKind,
    normalize_diff,  # not called here: bench/tracing.py patches this name
    normalize_text,
    parse_unified_diff,  # not called here: bench/tracing.py patches this name
)
from .metrics import DECISION_THRESHOLD
from .mining import mine_repository, run_git

# One HEAD hit of `git grep -z -n`: "HEAD:<path>\0<line number>\0<line>\n".
_GREP_HIT_RE = re.compile(r"HEAD:([^\0]*)\0(\d+)\0([^\n]*)\n")
# A diff line that could be a context-line TODO.
_CONTEXT_TODO_RE = re.compile(r"^ .*todo", re.I | re.M)


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


def candidate_triples(commits: Iterable) -> list[tuple[TripleSample, TodoComment, str]]:
    """Context-line TODO triples from a commit stream, with their file.

    A commit with no diff line that starts with " " and holds "todo" in any
    case is skipped unparsed: it has no context-line TODO. The parser breaks
    lines at "\\n" only, as "^" and "." do here, a context line starts with
    " ", and "todo" matches under re.IGNORECASE exactly where it is in
    str.lower, the finder's test (see comments.contains_todo).
    """
    languages = tuple(Language)
    out = []
    for commit in commits:
        if not _CONTEXT_TODO_RE.search(commit.diff_text):
            continue
        result = extract_triple(commit, languages, kinds=(LineKind.CONTEXT,))
        if isinstance(result, tuple):
            out.append(result)
    return out


def _head_todo_index(repo_path: str) -> dict[tuple[str, str], int]:
    """(file, whitespace-normalized TODO comment text) -> first line at HEAD.

    Each line is normalized as diff lines are (diffs.normalize_text), so a
    TODO is keyed as its candidate is. Only TODO comments are indexed, and
    only lines holding "todo" in any case are read, which loses nothing:
    every text looked up is a TODO comment. Binary files are skipped.
    """
    # git grep exits with 1 when no line matches.
    output = run_git(
        repo_path, ["grep", "-z", "-n", "-I", "-i", "-e", "todo", "HEAD"], ok_statuses=(0, 1)
    )
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
        if value < DECISION_THRESHOLD:
            continue
        key = (file_path, normalize_ws(sample.todo_comment))
        if key not in resolved or value > resolved[key][0]:
            resolved[key] = (value, sample)

    if not resolved:
        return []

    head_index = _head_todo_index(repo_path)
    findings = []
    for key, (value, sample) in resolved.items():
        line_no = head_index.get(key)
        findings.append(
            ScanFinding(
                file_path=key[0],
                line_no=line_no,
                todo_text=sample.todo_comment,
                commit_id=sample.commit_id,
                score=value,
                classification=FindingKind.INTERMEDIATE_OBSOLETE
                if line_no is None
                else FindingKind.POTENTIAL_OBSOLETE,
            )
        )
    findings.sort(key=lambda f: -f.score)
    return findings


def finding_record(finding: ScanFinding) -> dict:
    return {
        "file_path": finding.file_path,
        "line_no": finding.line_no,
        "todo_text": finding.todo_text,
        "commit_id": finding.commit_id,
        "score": finding.score,
        "classification": finding.classification.value,
    }


def write_findings(findings: Iterable[ScanFinding], path: str) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for finding in findings:
            fh.write(json.dumps(finding_record(finding), ensure_ascii=False) + "\n")
            count += 1
    return count
