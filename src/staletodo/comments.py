"""Comment and TODO extraction from normalized diffs.

A small string-literal-aware lexer finds comments line by line: ``#`` for
Python, ``//`` and single-line ``/* ... */`` for Java. Delimiters inside
string literals do not open comments. Block comments that span lines are
handled per line only; diffs fragment comments, so a TODO is detected on
its own line or not at all.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import PurePosixPath
from typing import Iterator, Mapping, Optional

from .diffs import DiffDocument, DiffLine, LineKind, render_lines

DEFAULT_CONTEXT_LINES = 3

# "todo" as a word token: boundaries are any non-alphanumeric character.
_TODO_TOKEN_RE = re.compile(r"(?<![0-9A-Za-z])todo(?![0-9A-Za-z])", re.IGNORECASE)


class Language(Enum):
    PYTHON = "python"
    JAVA = "java"


# A file is lexed by the language its extension maps to, or not at all.
EXTENSION_LANGUAGES = {".py": Language.PYTHON, ".java": Language.JAVA}


def language_for_path(path: Optional[str]) -> Optional[Language]:
    if not path:
        return None
    return EXTENSION_LANGUAGES.get(PurePosixPath(path).suffix.lower())


@dataclass(frozen=True)
class CommentSpan:
    """A comment found on one line: [start, end) covers delimiters too."""

    start: int
    end: int
    text: str


@dataclass(frozen=True)
class TodoComment:
    """A comment containing the TODO marker, tied to its diff line."""

    text: str
    line: DiffLine
    language: Language


@dataclass(frozen=True)
class CodeChange:
    """The diff minus the TODO comment, plus its flattened rendering."""

    lines: tuple[DiffLine, ...]
    rendered: str


def iter_line_comments(text: str, language: Language) -> Iterator[CommentSpan]:
    """Yield the comments on a single source line, skipping string literals."""
    if language is Language.PYTHON:
        yield from _python_comments(text)
    else:
        yield from _java_comments(text)


def _python_comments(text: str) -> Iterator[CommentSpan]:
    quote: Optional[str] = None  # the delimiter that closes the open string
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if quote is not None:
            if ch == "\\":
                i += 2
                continue
            if text.startswith(quote, i):
                i += len(quote)
                quote = None
                continue
        elif ch in ("'", '"'):
            quote = ch * 3 if text.startswith(ch * 3, i) else ch
            i += len(quote)
            continue
        elif ch == "#":
            yield CommentSpan(i, n, text[i + 1 :].strip())
            return
        i += 1


def _java_comments(text: str) -> Iterator[CommentSpan]:
    quote: Optional[str] = None
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if quote is not None:
            if ch == "\\":
                i += 2
                continue
            if ch == quote:
                quote = None
            i += 1
            continue
        if ch in ("'", '"'):
            quote = ch
            i += 1
            continue
        if text.startswith("//", i):
            yield CommentSpan(i, n, text[i + 2 :].strip())
            return
        if text.startswith("/*", i):
            close = text.find("*/", i + 2)
            if close == -1:
                return  # unterminated on this line: not a single-line comment
            yield CommentSpan(i, close + 2, text[i + 2 : close].strip())
            i = close + 2
            continue
        i += 1


def extract_comments(
    doc: DiffDocument, language: Language
) -> list[tuple[DiffLine, str]]:
    """Extract every comment from a normalized document, in line order."""
    found = []
    for line in doc.lines:
        for span in iter_line_comments(line.text, language):
            found.append((line, span.text))
    return found


def extract_comments_by_file(
    doc: DiffDocument, file_languages: Mapping[int, Language]
) -> list[tuple[DiffLine, str, Language]]:
    """Like extract_comments, but with a per-file language map.

    Lines belonging to files without a known language contribute nothing;
    each hit carries the language it was lexed with.
    """
    found = []
    for line in doc.lines:
        language = file_languages.get(line.file_index)
        if language is None:
            continue
        for span in iter_line_comments(line.text, language):
            found.append((line, span.text, language))
    return found


def contains_todo(text: str) -> bool:
    return _TODO_TOKEN_RE.search(text) is not None


def find_todos(comments: list[tuple[DiffLine, str]], language: Language = Language.PYTHON) -> list[TodoComment]:
    """Keep the comments that contain "todo" as a word-delimited token."""
    return [
        TodoComment(text=text, line=line, language=language)
        for line, text in comments
        if contains_todo(text)
    ]


def single_todo_filter(todos: list[TodoComment]) -> Optional[TodoComment]:
    """Return the TODO iff exactly one exists; otherwise None (skip).

    Diffs carrying several TODOs are likely comment rewordings and are
    dropped as noise.
    """
    if len(todos) == 1:
        return todos[0]
    return None


def associate(
    todo: TodoComment, doc: DiffDocument, context_lines: int = DEFAULT_CONTEXT_LINES
) -> bool:
    """True iff a changed line sits within context_lines of the TODO line.

    Only lines of the same hunk count, the TODO line itself does not: the
    code change a TODO is tied to must be a different line.
    """
    anchor = todo.line
    for line in doc.lines:
        if line.file_index != anchor.file_index or line.hunk_index != anchor.hunk_index:
            continue
        if line.position == anchor.position:
            continue
        if line.kind is LineKind.CONTEXT:
            continue
        if abs(line.position - anchor.position) <= context_lines:
            return True
    return False


def carve_code_change(doc: DiffDocument, todo: TodoComment) -> CodeChange:
    """Remove the TODO comment from the diff, keeping everything else.

    A comment-only TODO line disappears entirely; when code and TODO share
    a line only the comment segment (delimiters included) is excised.
    """
    kept: list[DiffLine] = []
    for line in doc.lines:
        if (
            line.file_index == todo.line.file_index
            and line.hunk_index == todo.line.hunk_index
            and line.position == todo.line.position
        ):
            stripped = _strip_comment(line.text, todo)
            if stripped is None:
                continue
            kept.append(
                DiffLine(line.kind, stripped, line.file_index, line.hunk_index, line.position)
            )
        else:
            kept.append(line)
    return CodeChange(lines=tuple(kept), rendered=render_lines(kept))


def _strip_comment(text: str, todo: TodoComment) -> Optional[str]:
    """Excise the TODO's comment span from the line; None if nothing remains."""
    for span in iter_line_comments(text, todo.language):
        if span.text == todo.text:
            remainder = text[: span.start] + text[span.end :]
            if not remainder.strip():
                return None
            return remainder.rstrip()
    # Span not found (should not happen for a todo extracted from this line);
    # keep the line untouched rather than guessing.
    return text
