"""Unified diff parsing and normalization.

Turns the textual diff of a commit into a document of marker-prefixed body
lines and applies the text normalization used everywhere downstream:
lowercasing, commit-id and issue-id placeholders, and first-sentence
truncation of commit messages.

The parser targets diffs as emitted by ``git log -p`` / ``git show``. It
keeps only hunk body lines; file headers, hunk headers, mode/index lines
and binary-file notices are metadata and never become content lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional

COMMIT_ID_PLACEHOLDER = "<commit_id>"
ISSUE_ID_PLACEHOLDER = "<issue_id>"

# A maximal 7-64 char hex run containing at least one digit. The digit
# requirement keeps ordinary words ("deedded") intact while still catching
# real git ids, from short ones to full SHA-1 (40) and SHA-256 (64) ones.
# The run starts where the character before its first is no word character
# (the lookbehind), and \b ends it: longer hex runs have no interior boundary
# to anchor on. The pattern opens with its character class, so the engine
# skips every other character without entering the lookarounds.
_HEX_RUN_RE = re.compile(r"[0-9a-f](?<!\w.)(?:(?<=\d)|(?=[0-9a-f]*\d))[0-9a-f]{6,63}\b")
_ISSUE_REF_RE = re.compile(r"#\d+")
_SENTENCE_END_RE = re.compile(r"\.(?=\s|$)")

_HUNK_HEADER_RE = re.compile(
    r"^@@ -(?P<old_start>\d+)(?:,(?P<old_count>\d+))?"
    r" \+(?P<new_start>\d+)(?:,(?P<new_count>\d+))? @@"
)
# Each path is a/… and b/…, or the same C-quoted ("a/…" "b/…"), which git
# writes for names holding control characters, a double quote or a backslash.
_FILE_HEADER_RE = re.compile(
    r'^diff --git (?P<old>"a/(?:[^"\\]|\\.)*"|a/.*) (?P<new>"b/(?:[^"\\]|\\.)*"|b/.*)$'
)
_C_ESCAPE_RE = re.compile(rb"\\([0-3][0-7]{2}|.)")
_C_ESCAPES = dict(zip(b"abtnvfr", b"\a\b\t\n\v\f\r"))


class MalformedDiff(ValueError):
    """A hunk body line without a valid +/-/space marker."""

    def __init__(self, line_no: int, text: str):
        self.line_no = line_no
        self.text = text
        super().__init__(f"line {line_no}: not a valid hunk body line: {text!r}")


class LineKind(Enum):
    ADDED = "added"
    REMOVED = "removed"
    CONTEXT = "context"


# A body line's kind is its first character, its marker.
MARKER_KINDS = {"+": LineKind.ADDED, "-": LineKind.REMOVED, " ": LineKind.CONTEXT}


@dataclass(frozen=True)
class RawCommit:
    """One repository revision as mined from the history."""

    commit_id: str
    message: str
    diff_text: str
    repo: str = ""


@dataclass(frozen=True)
class DiffDocument:
    """The hunk body lines of a diff and the paths of its files.

    Each line is kept as git wrote it, marker first ("+", "-" or " "); an
    empty body line is " ". hunk_starts holds each hunk's first line, then
    len(lines): hunk k is lines[hunk_starts[k] : hunk_starts[k + 1]], of file
    hunk_files[k].
    """

    lines: tuple[str, ...]
    hunk_starts: tuple[int, ...]
    hunk_files: tuple[int, ...]
    files: tuple[tuple[Optional[str], Optional[str]], ...]


def parse_unified_diff(diff_text: str) -> DiffDocument:
    """Parse unified diff text into a DiffDocument.

    Empty input yields an empty document. Metadata lines (file and hunk
    headers, index/mode lines, binary notices, "\\ No newline" markers) are
    skipped; every hunk body line becomes exactly one line of the document.
    Hunk bodies are delimited by the line counts declared in the hunk header,
    so body lines that happen to start with "---" are never mistaken for
    headers.

    Raises MalformedDiff when a hunk body line carries no valid marker.
    """
    lines: list[str] = []
    hunk_starts: list[int] = []
    hunk_files: list[int] = []
    # Each file's old and new path as written; the last header to name one wins.
    headers: list[list[str]] = []

    remaining_old = 0
    remaining_new = 0

    # Git ends lines with "\n" only. str.splitlines would also break at
    # "\r", "\x0c", "\u2028" and others, all of which a source line may hold.
    for line_no, raw in enumerate(diff_text.removesuffix("\n").split("\n"), start=1):
        if remaining_old > 0 or remaining_new > 0:
            marker = raw[:1]
            if marker in ("+", "-", " ", ""):  # "" is an empty context line
                remaining_old -= marker != "+"
                remaining_new -= marker != "-"
                lines.append(raw or " ")
            elif marker != "\\":  # "\ No newline at end of file" is skipped
                raise MalformedDiff(line_no, raw)
            continue

        header = _FILE_HEADER_RE.match(raw)
        if header:
            headers.append([header["old"], header["new"]])
            continue

        hunk = _HUNK_HEADER_RE.match(raw)
        if hunk and headers:
            hunk_starts.append(len(lines))
            hunk_files.append(len(headers) - 1)
            remaining_old = int(hunk.group("old_count") or "1")
            remaining_new = int(hunk.group("new_count") or "1")
            continue

        # Index, mode, similarity and binary lines and any preamble are
        # metadata; "---" and "+++" lines name the file's two paths.
        if raw.startswith("--- ") and headers:
            headers[-1][0] = raw[4:].strip()
        elif raw.startswith("+++ ") and headers:
            headers[-1][1] = raw[4:].strip()

    hunk_starts.append(len(lines))
    files = tuple((_header_path(old, "a/"), _header_path(new, "b/")) for old, new in headers)
    return DiffDocument(tuple(lines), tuple(hunk_starts), tuple(hunk_files), files)


def _header_path(token: str, prefix: str) -> Optional[str]:
    """A header path without its a/ or b/ prefix and quoting; None for /dev/null."""
    if token.startswith('"'):
        token = _unquote_c(token[1:-1])
    if token == "/dev/null":
        return None
    return token[len(prefix) :] if token.startswith(prefix) else token


def _unquote_c(text: str) -> str:
    """Undo git's C-style quoting: backslash escapes and octal UTF-8 bytes."""
    raw = _C_ESCAPE_RE.sub(
        lambda m: bytes([int(m[1], 8) if len(m[1]) == 3 else _C_ESCAPES.get(m[1][0], m[1][0])]),
        text.encode("utf-8", errors="surrogateescape"),
    )
    return raw.decode("utf-8", errors="replace")


def normalize_diff(doc: DiffDocument) -> DiffDocument:
    """Lowercase line text and placeholder commit ids.

    Lowercasing happens before substitution, so uppercase hashes are caught
    too; the operation is idempotent because the placeholders contain no
    hex run.
    """
    # One pass over all lines is the same as one per line without its
    # marker: no line holds "\n", str.lower never makes or removes one, a
    # hex run cannot cross one, and the markers are not word characters and
    # have no case.
    if not doc.lines:
        return doc
    lines = tuple(normalize_text("\n".join(doc.lines)).split("\n"))
    return DiffDocument(lines, doc.hunk_starts, doc.hunk_files, doc.files)


def normalize_text(text: str) -> str:
    return _HEX_RUN_RE.sub(COMMIT_ID_PLACEHOLDER, text.lower())


def normalize_message(message: str) -> str:
    """Reduce a commit message to its normalized first sentence.

    The sentence boundary is the first period followed by whitespace or end
    of text (the period is kept), or the first newline, whichever comes
    first. Issue references ("#123") and 7-40 char hex runs become
    placeholders. Empty input yields an empty message; callers decide
    whether to drop the sample.
    """
    text = message.lower()
    end = len(text)
    match = _SENTENCE_END_RE.search(text)
    if match:
        end = match.end()
    newline = text.find("\n")
    if newline != -1 and newline < end:
        end = newline
    text = text[:end]
    # Issue references go first: in "#1234567" the digits are an issue id,
    # not a hex run.
    return normalize_text(_ISSUE_REF_RE.sub(ISSUE_ID_PLACEHOLDER, text)).strip()

