"""Comment and TODO extraction from normalized diffs.

One regular expression per language finds comments line by line: ``#``
for Python, ``//`` and single-line ``/* ... */`` for Java. It matches
string literals first, so delimiters inside them do not open comments; a
string left open runs to the end of the line. Block comments that span
lines are handled per line only; diffs fragment comments, so a TODO is
detected on its own line or not at all. Python's ``tokenize`` and javac's
scanner are the tests' oracles for the two patterns.

Only lines that hold the TODO token are lexed. A comment's text is a
substring of its line bounded by non-alphanumerics (a delimiter, blank or
the line's end), so a line without the token holds no TODO comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterator, Optional

from .diffs import MARKER_KINDS, DiffDocument, LineKind

DEFAULT_CONTEXT_LINES = 3

# "todo" as a word token: boundaries are any non-alphanumeric character.
_TODO_TOKEN_RE = re.compile(r"(?<![0-9A-Za-z])todo(?![0-9A-Za-z])", re.IGNORECASE)


class Language(Enum):
    PYTHON = "python"
    JAVA = "java"


# A file is lexed by the language its extension maps to, or not at all.
EXTENSION_LANGUAGES = {".py": Language.PYTHON, ".java": Language.JAVA}


def language_for_path(path: Optional[str]) -> Optional[Language]:
    """The language of a git path's extension, as PurePosixPath.suffix finds
    it: the last dot of the file name, unless it starts or ends the name."""
    if not path:
        return None
    name = path[path.rfind("/") + 1 :]
    dot = name.rfind(".")
    if not 0 < dot < len(name) - 1:
        return None
    return EXTENSION_LANGUAGES.get(name[dot:].lower())


@dataclass(frozen=True)
class CommentSpan:
    """A comment found on one line: [start, end) covers delimiters too."""

    start: int
    end: int
    text: str


@dataclass(frozen=True)
class TodoComment:
    """A comment containing the TODO marker, tied to its diff line.

    index is the line's position in the document's lines and kind its
    marker's kind; [start, end) is the comment's span on the line without
    its marker, delimiters included. file_index and hunk index the
    document's files and hunks.
    """

    text: str
    kind: LineKind
    language: Language
    index: int
    start: int
    end: int
    file_index: int
    hunk: int


# One pattern per language, matched with finditer: a match is a string
# literal (group q), a comment (any other group) or, in Java, a "/*" left
# open, which swallows the rest of the line. Strings come first, and one
# runs to its closing quote or to the end of the line. \Z, not $, because $
# also matches before a final "\n".
_LEXERS = {
    Language.PYTHON: re.compile(
        r"""(?P<q>"{3}|'{3}|["'])(?:\\.?|(?!(?P=q))[^\\])*(?:(?P=q)|\Z)|#(?P<c>.*)""", re.S
    ),
    Language.JAVA: re.compile(
        r"""(?P<q>["'])(?:\\.?|(?!(?P=q))[^\\])*(?:(?P=q)|\Z)|//(?P<l>.*)|/\*(?P<b>.*?)\*/|/\*.*""",
        re.S,
    ),
}


def iter_line_comments(text: str, language: Language) -> Iterator[CommentSpan]:
    """Yield the comments on a single source line, skipping string literals."""
    for m in _LEXERS[language].finditer(text):
        if m.lastgroup not in (None, "q"):
            yield CommentSpan(m.start(), m.end(), m[m.lastgroup].strip())


def extract_comments(doc: DiffDocument, language: Language) -> list[tuple[str, str]]:
    """Every (line, comment text) of a normalized document, in line order."""
    return [
        (line, span.text) for line in doc.lines for span in iter_line_comments(line[1:], language)
    ]


def extract_comments_by_file(
    doc: DiffDocument, languages: Collection[Language]
) -> list[TodoComment]:
    """The TODO comments of a normalized document, in line order.

    Each file is lexed in the language its path maps to, and only if that
    language is one of languages.
    """
    file_languages = [
        language if (language := language_for_path(new or old)) in languages else None
        for old, new in doc.files
    ]
    found = []
    for hunk, file_index in enumerate(doc.hunk_files):
        language = file_languages[file_index]
        if language is None:
            continue
        for index in range(doc.hunk_starts[hunk], doc.hunk_starts[hunk + 1]):
            line = doc.lines[index]
            if "todo" not in line.lower():  # line_todos's test, before slicing
                continue
            for span in line_todos(line[1:], language):
                found.append(TodoComment(
                    span.text, MARKER_KINDS[line[0]], language, index, span.start, span.end,
                    file_index, hunk,
                ))
    return found


def line_todos(text: str, language: Language) -> list[CommentSpan]:
    """The TODO comments on one source line."""
    if not contains_todo(text):
        return []
    return [span for span in iter_line_comments(text, language) if contains_todo(span.text)]


def contains_todo(text: str) -> bool:
    # The substring test is a quick necessary condition: "t", "o" and "d"
    # match only themselves and their ASCII capitals under re.IGNORECASE,
    # and str.lower maps those to "todo".
    return "todo" in text.lower() and _TODO_TOKEN_RE.search(text) is not None


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
    i = todo.index
    first, end = doc.hunk_starts[todo.hunk : todo.hunk + 2]
    return any(
        doc.lines[j][0] != " "
        for j in range(max(i - context_lines, first), min(i + 1 + context_lines, end))
        if j != i
    )


def carve_code_change(doc: DiffDocument, todo: TodoComment) -> str:
    """The diff's lines, markers kept, minus the TODO comment, joined by "\\n".

    A comment-only TODO line disappears entirely; when code and TODO share
    a line only the comment segment (delimiters included) is excised.
    """
    line = doc.lines[todo.index]
    rest = (line[1 : 1 + todo.start] + line[1 + todo.end :]).rstrip()
    carved = (line[0] + rest,) if rest else ()
    return "\n".join(doc.lines[: todo.index] + carved + doc.lines[todo.index + 1 :])
