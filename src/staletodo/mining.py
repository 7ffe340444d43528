"""Commit mining via the git CLI.

Consumes the textual ``git log -p -z --no-color --no-renames -U3`` stream
one commit at a time: -z ends each commit with a NUL, so no line is read to
find the next. Messages are the 4-space-indented block, the diff is all from
the first "diff --git" on. The -U option pins the diff's context lines to
the comments.DEFAULT_CONTEXT_LINES (three) that TODO association assumes.
Git output is read as UTF-8 in fixed-size blocks, with "\n" as the only
line break: a "\r" or a form feed inside a source line is content.
"""

from __future__ import annotations

import codecs
import dataclasses
import json
import logging
import re
import subprocess
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO

from .comments import DEFAULT_CONTEXT_LINES
from .diffs import RawCommit

log = logging.getLogger(__name__)

# core.quotePath=false keeps non-ASCII paths unquoted in diff headers. The
# format, full commit ids, a/ and b/ path prefixes, the root commit's diff
# and the hunks' shape are spelled out, so that no user setting
# (format.pretty, log.abbrevCommit, diff.noprefix, log.showRoot,
# diff.interHunkContext, diff.algorithm, diff.indentHeuristic) changes what
# is mined. The hunk flags are git's defaults.
GIT_LOG_ARGS = (
    "-c", "core.quotePath=false", "log", "-p", "-z", "--no-color", "--no-renames",
    f"-U{DEFAULT_CONTEXT_LINES}", "--format=medium", "--no-abbrev-commit",
    "--src-prefix=a/", "--dst-prefix=b/", "--root",
    "--inter-hunk-context=0", "--diff-algorithm=myers", "--indent-heuristic",
)

# --no-abbrev-commit gives full ids: 40 hex characters for SHA-1, 64 for
# SHA-256 repositories.
_COMMIT_HEADER_RE = re.compile(r"^commit ([0-9a-f]{64}|[0-9a-f]{40})\b")
# A commit record's keys, in the order they are written.
_FIELDS = tuple(f.name for f in dataclasses.fields(RawCommit))
# Bytes read from git log's stdout at a time.
READ_BLOCK = 1 << 16


class GitUnavailable(RuntimeError):
    pass


class NotARepository(ValueError):
    pass


class GitFailed(RuntimeError):
    """git log exited nonzero after writing its whole stream; str() is git's stderr."""


def run_git(repo_path: str, args: list[str], ok_statuses: tuple[int, ...] = (0,)) -> str:
    try:
        proc = subprocess.run(["git", "-C", repo_path, *args], capture_output=True)
    except FileNotFoundError as exc:
        raise GitUnavailable("git executable not found on PATH") from exc
    if proc.returncode not in ok_statuses:
        stderr = proc.stderr.decode("utf-8", errors="replace").strip()
        raise NotARepository(f"git {' '.join(args)} failed in {repo_path}: {stderr}")
    return proc.stdout.decode("utf-8", errors="replace")


def check_repository(repo_path: str) -> None:
    if not Path(repo_path).exists():
        raise NotARepository(f"{repo_path} does not exist")
    run_git(repo_path, ["rev-parse", "--git-dir"])


def _fragments(blocks: Iterable[bytes]) -> Iterator[str]:
    """The NUL-separated fragments of UTF-8 read in blocks, each decoded whole."""
    decoder = codecs.getincrementaldecoder("utf-8")(errors="replace")
    pending: list[str] = []
    for block in chain(blocks, [None]):
        *ends, rest = decoder.decode(block or b"", final=block is None).split("\0")
        for end in ends:
            yield "".join([*pending, end])
            pending = []
        pending.append(rest)
    yield "".join(pending)


def _raw_commit(record: str, last: bool, repo: str) -> RawCommit:
    """One commit's record of git log -p -z: header, metadata, message, diff."""
    start = record.find("\ndiff --git ")
    meta = record if start < 0 else record[:start]
    # Every message line is indented, blank ones too.
    message = "\n".join(line[4:] for line in meta.split("\n") if line[:4] == "    ")
    # git's NUL stands in for the blank line that ends every commit but the last.
    diff_text = "" if start < 0 else record[start + 1 :] + ("" if last else "\n")
    return RawCommit(_COMMIT_HEADER_RE.match(record).group(1), message.strip("\n"), diff_text, repo)


def iter_log_commits(blocks: Iterable[bytes], repo: str = "") -> Iterator[RawCommit]:
    """Segment git log -p -z output, in blocks of any size, into RawCommits.

    Git ends each commit but the last with a NUL after its final newline. A
    NUL that does not follow a newline, or is not followed by a commit
    header, is content: a text diff of a file holding NUL bytes.
    """
    parts: list[str] = []  # the NUL-separated fragments of the current commit
    for fragment in _fragments(blocks):
        if parts and parts[-1].endswith("\n") and _COMMIT_HEADER_RE.match(fragment):
            yield _raw_commit("\0".join(parts), False, repo)
            parts = []
        if parts or _COMMIT_HEADER_RE.match(fragment):  # skip text before the first header
            parts.append(fragment)
    if parts:
        yield _raw_commit("\0".join(parts), True, repo)


def mine_repository(repo_path: str, repo_name: Optional[str] = None) -> Iterator[RawCommit]:
    """Stream every commit of a repository's history.

    The repository is only read, never modified. An empty history yields
    nothing; a git log that exits nonzero raises GitFailed once read.
    """
    check_repository(repo_path)
    name = repo_name if repo_name is not None else Path(repo_path).resolve().name
    try:
        proc = subprocess.Popen(
            ["git", "-C", repo_path, *GIT_LOG_ARGS],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
    except FileNotFoundError as exc:
        raise GitUnavailable("git executable not found on PATH") from exc
    try:
        yield from iter_log_commits(iter(partial(proc.stdout.read, READ_BLOCK), b""), repo=name)
    finally:
        # Closed early, git stops on the broken pipe and nothing below runs.
        proc.stdout.close()
        stderr = proc.stderr.read().decode("utf-8", errors="replace")
        returncode = proc.wait()
    if returncode != 0 and "does not have any commits" not in stderr:
        raise GitFailed(stderr.strip())


def read_commits(path: str) -> Iterator[RawCommit]:
    with open(path, "r", encoding="utf-8") as fh:
        yield from read_commit_stream(fh)


def read_commit_stream(fh: TextIO) -> Iterator[RawCommit]:
    for line_no, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            # repo is optional on read: RawCommit defaults it to "".
            fields = {name: record[name] for name in _FIELDS if name != "repo" or name in record}
            not_text = [name for name, value in fields.items() if not isinstance(value, str)]
            if not_text:
                raise TypeError(f"not strings: {', '.join(not_text)}")
            yield RawCommit(**fields)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            log.warning("skipping malformed commit record at line %d: %s", line_no, exc)
