"""Commit mining via the git CLI.

Consumes the textual ``git log -p --no-color --no-renames -U3`` stream and
segments it into RawCommits. Messages are the 4-space-indented block, the
diff is everything from the first "diff --git" to the next commit header.
The -U option pins the diff's context lines to the
comments.DEFAULT_CONTEXT_LINES (three) that TODO association assumes.
Git output is read as UTF-8 with "\n" as the only line break: a "\r" or a
form feed inside a source line is content.
"""

from __future__ import annotations

import dataclasses
import io
import json
import logging
import re
import subprocess
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
    "-c", "core.quotePath=false", "log", "-p", "--no-color", "--no-renames",
    f"-U{DEFAULT_CONTEXT_LINES}", "--format=medium", "--no-abbrev-commit",
    "--src-prefix=a/", "--dst-prefix=b/", "--root",
    "--inter-hunk-context=0", "--diff-algorithm=myers", "--indent-heuristic",
)

# --no-abbrev-commit gives full ids: 40 hex characters for SHA-1, 64 for
# SHA-256 repositories.
_COMMIT_HEADER_RE = re.compile(r"^commit ([0-9a-f]{64}|[0-9a-f]{40})\b")
# A commit record's keys, in the order they are written.
_FIELDS = tuple(f.name for f in dataclasses.fields(RawCommit))


class GitUnavailable(RuntimeError):
    pass


class NotARepository(ValueError):
    pass


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


def iter_log_commits(lines: Iterable[str], repo: str = "") -> Iterator[RawCommit]:
    """Segment a git log -p text stream into RawCommits."""
    commit_id: Optional[str] = None
    message_lines: list[str] = []
    diff_lines: list[str] = []
    in_diff = False

    def flush() -> Optional[RawCommit]:
        if commit_id is None:
            return None
        message = "\n".join(message_lines).strip("\n")
        return RawCommit(
            commit_id=commit_id,
            message=message,
            diff_text="\n".join(diff_lines) + ("\n" if diff_lines else ""),
            repo=repo,
        )

    for raw in lines:
        line = raw.rstrip("\n")
        header = _COMMIT_HEADER_RE.match(line)
        if header:
            done = flush()
            if done:
                yield done
            commit_id = header.group(1)
            message_lines = []
            diff_lines = []
            in_diff = False
            continue
        if commit_id is None:
            continue  # preamble before the first commit
        if not in_diff and line.startswith("diff --git "):
            in_diff = True
        if in_diff:
            diff_lines.append(line)
        elif line.startswith("    "):
            message_lines.append(line[4:])
        elif not line or line.startswith(("Author:", "Date:", "Merge:", "AuthorDate:", "Commit:", "CommitDate:")):
            if not line and message_lines:
                message_lines.append("")
        # anything else between header and message is metadata; skip it

    done = flush()
    if done:
        yield done


def mine_repository(repo_path: str, repo_name: Optional[str] = None) -> Iterator[RawCommit]:
    """Stream every commit of a repository's history.

    The repository is only read, never modified. An empty history yields
    nothing rather than failing.
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
    lines = io.TextIOWrapper(proc.stdout, encoding="utf-8", errors="replace", newline="\n")
    try:
        yield from iter_log_commits(lines, repo=name)
    finally:
        lines.close()
        stderr = proc.stderr.read().decode("utf-8", errors="replace")
        returncode = proc.wait()
    if returncode != 0 and "does not have any commits" not in stderr:
        if "not a git repository" in stderr.lower():
            raise NotARepository(stderr.strip())
        log.warning("git log exited with %d: %s", returncode, stderr.strip())


def write_commits(commits: Iterable[RawCommit], path: str) -> int:
    """Persist mined commits as newline-delimited records; returns count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for commit in commits:
            record = {name: getattr(commit, name) for name in _FIELDS}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
            count += 1
    return count


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
            continue
