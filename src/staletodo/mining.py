"""Commit mining via the git CLI.

Consumes the textual ``git log -p --no-color --no-renames -U3`` stream and
segments it into RawCommits. Messages are the 4-space-indented block, the
diff is everything from the first "diff --git" to the next commit header.
Using -U3 pins the three context lines the TODO association step assumes.
"""

from __future__ import annotations

import json
import logging
import re
import subprocess
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO

from .diffs import RawCommit

log = logging.getLogger(__name__)

GIT_LOG_ARGS = ("log", "-p", "--no-color", "--no-renames", "-U3")

_COMMIT_HEADER_RE = re.compile(r"^commit ([0-9a-f]{7,40})\b")


class GitUnavailable(RuntimeError):
    pass


class NotARepository(ValueError):
    pass


def run_git(repo_path: str, args: list[str], ok_statuses: tuple[int, ...] = (0,)) -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", repo_path, *args],
            capture_output=True,
            text=True,
            errors="replace",
        )
    except FileNotFoundError as exc:
        raise GitUnavailable("git executable not found on PATH") from exc
    if proc.returncode not in ok_statuses:
        raise NotARepository(
            f"git {' '.join(args)} failed in {repo_path}: {proc.stderr.strip()}"
        )
    return proc.stdout


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
            text=True,
            errors="replace",
        )
    except FileNotFoundError as exc:
        raise GitUnavailable("git executable not found on PATH") from exc
    assert proc.stdout is not None
    try:
        yield from iter_log_commits(proc.stdout, repo=name)
    finally:
        proc.stdout.close()
        stderr = proc.stderr.read() if proc.stderr else ""
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
            record = {
                "commit_id": commit.commit_id,
                "message": commit.message,
                "diff_text": commit.diff_text,
                "repo": commit.repo,
            }
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
            yield RawCommit(
                commit_id=record["commit_id"],
                message=record["message"],
                diff_text=record["diff_text"],
                repo=record.get("repo", ""),
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            log.warning("skipping malformed commit record at line %d: %s", line_no, exc)
            continue
