"""The commit->triple front end against a reference that builds one object
per diff line.

The reference is the parser, normalizer, TODO finder, association and
carver that held each hunk body line as a (kind, text, file, hunk) tuple
with its marker stripped, and rendered the lines back to text to carve.
Over generated multi-file, multi-hunk diffs, the front end must parse,
normalize and extract the same triples, and refuse the same malformed
bodies at the same line.
"""

import re
from bisect import bisect_right
from typing import NamedTuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from staletodo.comments import (
    Language,
    associate,
    carve_code_change,
    contains_todo,
    extract_comments_by_file,
    iter_line_comments,
    language_for_path,
)
from staletodo.corpus import Label, TripleSample, extract_triple
from staletodo.diffs import (
    _FILE_HEADER_RE,
    _HUNK_HEADER_RE,
    COMMIT_ID_PLACEHOLDER,
    LineKind,
    MalformedDiff,
    RawCommit,
    _header_path,
    normalize_diff,
    normalize_message,
    parse_unified_diff,
)

_KIND = {"+": LineKind.ADDED, "-": LineKind.REMOVED, " ": LineKind.CONTEXT}
_MARKER = {kind: marker for marker, kind in _KIND.items()}
_REFERENCE_HEX_RUN_RE = re.compile(r"\b(?=[0-9a-f]*\d)[0-9a-f]{7,64}\b")


class RefLine(NamedTuple):
    kind: LineKind
    text: str
    file_index: int
    hunk_index: int


class RefDoc(NamedTuple):
    lines: tuple
    files: tuple


class RefTodo(NamedTuple):
    text: str
    line: RefLine
    language: Language
    index: int
    start: int
    end: int


def ref_parse(diff_text):
    lines, files = [], []
    file_index = hunk_index = -1
    remaining_old = remaining_new = 0
    for line_no, raw in enumerate(diff_text.removesuffix("\n").split("\n"), start=1):
        if remaining_old > 0 or remaining_new > 0:
            if raw.startswith("\\"):
                continue
            kind = _KIND.get(raw[0] if raw else " ")
            if kind is None:
                raise MalformedDiff(line_no, raw)
            if kind is not LineKind.ADDED:
                remaining_old -= 1
            if kind is not LineKind.REMOVED:
                remaining_new -= 1
            lines.append(RefLine(kind, raw[1:] if raw else "", file_index, hunk_index))
            continue
        header = _FILE_HEADER_RE.match(raw)
        if header:
            file_index += 1
            hunk_index = -1
            files.append((_header_path(header["old"], "a/"), _header_path(header["new"], "b/")))
            continue
        hunk = _HUNK_HEADER_RE.match(raw)
        if hunk and file_index >= 0:
            hunk_index += 1
            remaining_old = int(hunk.group("old_count") or "1")
            remaining_new = int(hunk.group("new_count") or "1")
            continue
        if raw.startswith("--- ") and file_index >= 0:
            files[file_index] = (_header_path(raw[4:].strip(), "a/"), files[file_index][1])
        elif raw.startswith("+++ ") and file_index >= 0:
            files[file_index] = (files[file_index][0], _header_path(raw[4:].strip(), "b/"))
    return RefDoc(tuple(lines), tuple(files))


def ref_normalize(doc):
    lines = tuple(
        line._replace(text=_REFERENCE_HEX_RUN_RE.sub(COMMIT_ID_PLACEHOLDER, line.text.lower()))
        for line in doc.lines
    )
    return doc._replace(lines=lines)


def ref_todos(doc, languages):
    found = []
    for index, line in enumerate(doc.lines):
        old, new = doc.files[line.file_index]
        language = language_for_path(new or old)
        if language not in languages:
            continue
        for span in iter_line_comments(line.text, language):
            if contains_todo(span.text):
                found.append(RefTodo(span.text, line, language, index, span.start, span.end))
    return found


def ref_associate(todo, doc, context_lines=3):
    i, anchor = todo.index, todo.line
    near = doc.lines[max(i - context_lines, 0) : i] + doc.lines[i + 1 : i + 1 + context_lines]
    return any(
        line.kind is not LineKind.CONTEXT
        and (line.file_index, line.hunk_index) == (anchor.file_index, anchor.hunk_index)
        for line in near
    )


def ref_carve(doc, todo):
    text = todo.line.text
    rest = (text[: todo.start] + text[todo.end :]).rstrip()
    carved = (todo.line._replace(text=rest),) if rest else ()
    lines = doc.lines[: todo.index] + carved + doc.lines[todo.index + 1 :]
    return "\n".join(_MARKER[line.kind] + line.text for line in lines)


def ref_extract_triple(commit, languages, kinds=tuple(LineKind)):
    """corpus.extract_triple over the reference, below the size limit."""
    if "todo" not in commit.diff_text.lower():
        return None
    try:
        doc = ref_normalize(ref_parse(commit.diff_text))
    except MalformedDiff:
        return "parse_failures"
    todos = ref_todos(doc, languages)
    if len(todos) != 1:
        return "no_single_todo"
    (todo,) = todos
    kind = todo.line.kind
    if kind not in kinds:
        return "other_kind"
    if not ref_associate(todo, doc):
        return "unassociated"
    code_change = ref_carve(doc, todo)
    if not code_change.strip():
        return "empty_change"
    message = normalize_message(commit.message)
    if not message:
        return "empty_message"
    if kind is LineKind.ADDED:
        return "added_kind"
    label = Label.POSITIVE if kind is LineKind.REMOVED else Label.NEGATIVE
    sample = TripleSample(
        code_change, todo.text, message, label, commit.repo, commit.commit_id, kind
    )
    old, new = doc.files[todo.line.file_index]
    return sample, todo, new or old


def place(todo):
    """What a TODO comment says of itself and where it is."""
    kind = todo.line.kind if isinstance(todo, RefTodo) else todo.kind
    return todo.text, kind, todo.language, todo.index, todo.start, todo.end


def comparable(result):
    """A triple as (sample, TODO place, path); other results as they are."""
    if not isinstance(result, tuple):
        return result
    sample, todo, path = result
    return sample, place(todo), path


# File headers: plain, added, deleted, C-quoted ('é q".py'), a file the
# finder does not lex, one whose extension is in capitals, and one whose
# name holds a space, which git ends with a tab on its ---/+++ lines.
_HEADERS = (
    ("a/a.py", "b/a.py", "a/a.py", "b/a.py"),
    ("a/s p.py", "b/s p.py", "a/s p.py\t", "b/s p.py\t"),
    ("a/B.java", "b/B.java", "/dev/null", "b/B.java"),
    ("a/c/D.PY", "b/c/D.PY", "a/c/D.PY", "/dev/null"),
    ('"a/\\303\\251 q\\".py"', '"b/\\303\\251 q\\".py"',
     '"a/\\303\\251 q\\".py"', '"b/\\303\\251 q\\".py"'),
    ("a/e.txt", "b/e.txt", "a/e.txt", "b/e.txt"),
    ("a/F.Java", "b/F.Java", "a/F.Java", "b/F.Java"),
)
_PLAIN = st.lists(
    st.one_of(
        st.sampled_from([
            "x = 1", "call()", " ", "\t", "é", "İ", "Σ", "ß", "\r", "\x0c", "DEADBEEF1",
            "a1b2c3d", "-- a/x", "++ b/x", "--- a/x", "@@ -1 +1 @@", "diff --git a/x b/x",
            "\\", "'#'", '"//"', "/*", "*/", "todos",
        ]),
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=3),
    ),
    max_size=5,
).map("".join)
_TODOS = st.sampled_from([
    "# TODO: flush the queue", "x = 1  # todo: Cache DEADBEEF1", "// TODO fix é",
    "a(); /* todo: drop */ b();", "#todo", "s = '#todo'  # ToDo: İ", "y()  // todo\r",
])
# One line in six carries a TODO comment, so a diff often has exactly one.
_TEXT = st.tuples(st.integers(0, 5), _PLAIN, _TODOS).map(lambda t: t[2] if t[0] == 0 else t[1])
_MARKED = st.tuples(st.sampled_from("+- "), _TEXT).map("".join)
# Body lines: marked text or, one time in a hundred, a line without a valid
# marker, or six times in a hundred each, an empty context line and a
# "\ No newline" notice. The odd lines sit inside the range: hypothesis
# draws its ends often.
_ODD_LINES = {37: "*bad"} | dict.fromkeys(range(40, 46), "") | dict.fromkeys(
    range(50, 56), "\\ No newline at end of file"
)
_BODY_LINE = st.tuples(st.integers(0, 99), _MARKED).map(lambda t: _ODD_LINES.get(t[0], t[1]))
# One hunk header count in sixteen is one more than its body holds, and one
# in sixteen one fewer.
_SHIFT = st.integers(0, 15).map(lambda n: {5: -1, 9: 1}.get(n, 0))
_HUNK = st.tuples(st.lists(_BODY_LINE, max_size=8), _SHIFT, _SHIFT)
_FILE = st.tuples(st.sampled_from(_HEADERS), st.lists(_HUNK, max_size=3))


def diff_text(files):
    out = []
    for (old, new, minus, plus), hunks in files:
        out += [f"diff --git {old} {new}", "index 1111111..2222222 100644"]
        if not hunks:
            out.append(f"Binary files {minus} and {plus} differ")
            continue
        out += [f"--- {minus}", f"+++ {plus}"]
        for body, old_shift, new_shift in hunks:
            counted = [line for line in body if not line.startswith("\\")]
            n_old = max(sum(line[:1] != "+" for line in counted) + old_shift, 0)
            n_new = max(sum(line[:1] != "-" for line in counted) + new_shift, 0)
            out.append(f"@@ -1,{n_old} +1,{n_new} @@ def f():")
            out += body
    return "\n".join(out) + "\n"


_FIG5 = [
    (_HEADERS[0], [([" def send(msg):", "-    # TODO: log the message", "+    logging.info(msg)",
                     "", " dispatch(msg)"], 0, 0)]),
    (_HEADERS[2], [(["+int a;", "\\ No newline at end of file"], 0, 0)]),
]


class TestFrontEndAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(_FILE, min_size=1, max_size=3),
        st.sampled_from(["Fix the queue. More", "Revert #12", ""]),
    )
    @example(_FIG5, "Log the message.")
    def test_same_documents_and_triples(self, files, message):
        text = diff_text(files)
        try:
            reference = ref_parse(text)
        except MalformedDiff as expected:
            try:
                parse_unified_diff(text)
            except MalformedDiff as found:
                assert (found.line_no, found.text) == (expected.line_no, expected.text)
            else:
                raise AssertionError("the front end parsed a diff the reference refuses")
        else:
            doc = parse_unified_diff(text)
            assert doc.files == reference.files
            norm, ref_norm = normalize_diff(doc), ref_normalize(reference)
            for ref_doc, new_doc in ((reference, doc), (ref_norm, norm)):
                assert new_doc.lines == tuple(_MARKER[l.kind] + l.text for l in ref_doc.lines)
                starts, files = new_doc.hunk_starts, new_doc.hunk_files
                hunks = [bisect_right(starts, i) - 1 for i in range(len(new_doc.lines))]
                assert [files[k] for k in hunks] == [l.file_index for l in ref_doc.lines]
                # Two lines share a hunk in one document iff they do in the other.
                assert [a == b for a, b in zip(hunks, hunks[1:])] == [
                    a[2:] == b[2:] for a, b in zip(ref_doc.lines, ref_doc.lines[1:])
                ]
            # Every TODO, not only a single one, finds the same changes near
            # it and carves the same code change.
            todos = extract_comments_by_file(norm, tuple(Language))
            ref_found = ref_todos(ref_norm, tuple(Language))
            assert [place(t) for t in todos] == [place(t) for t in ref_found]
            for todo, ref_todo in zip(todos, ref_found):
                for n in range(5):
                    assert associate(todo, norm, n) == ref_associate(ref_todo, ref_norm, n)
                assert carve_code_change(norm, todo) == ref_carve(ref_norm, ref_todo)

        commit = RawCommit("c0ffee1", message, text, repo="r")
        for languages, kinds in (
            ((Language.PYTHON,), tuple(LineKind)),
            ((Language.JAVA,), tuple(LineKind)),
            (tuple(Language), (LineKind.CONTEXT,)),
        ):
            assert comparable(extract_triple(commit, languages, kinds)) == comparable(
                ref_extract_triple(commit, languages, kinds)
            )
