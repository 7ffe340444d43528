"""Comment lexing, TODO detection, association and carving."""

import io
import random
import shutil
import subprocess
import tokenize
from bisect import bisect_right
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import make_doc, unified_diff
from staletodo.comments import (
    _TODO_TOKEN_RE,
    EXTENSION_LANGUAGES,
    Language,
    TodoComment,
    associate,
    carve_code_change,
    contains_todo,
    extract_comments,
    extract_comments_by_file,
    iter_line_comments,
    language_for_path,
    line_todos,
    single_todo_filter,
)
from staletodo.diffs import (
    MARKER_KINDS,
    DiffDocument,
    LineKind,
    normalize_diff,
    parse_unified_diff,
)

MARKERS = {kind: marker for marker, kind in MARKER_KINDS.items()}


def comments_of(text, language):
    return [span.text for span in iter_line_comments(text, language)]


def python_todos(doc):
    """The TODO comments of a document, found as corpus.extract_triple finds them."""
    return extract_comments_by_file(doc, (Language.PYTHON,))


def todo_comment(doc, index, span, language):
    """The TodoComment of span on doc.lines[index], with the line's kind,
    file and hunk."""
    hunk = bisect_right(doc.hunk_starts, index) - 1
    kind = MARKER_KINDS[doc.lines[index][0]]
    return TodoComment(
        span.text, kind, language, index, span.start, span.end, doc.hunk_files[hunk], hunk
    )


def todo_at(doc, index, language=Language.PYTHON):
    """The one TODO comment on doc.lines[index], as the finder carries it."""
    (span,) = line_todos(doc.lines[index][1:], language)
    return todo_comment(doc, index, span, language)


def doc_of(specs, files):
    """A document of (kind, file index, text) lines; a hunk starts at the
    first line and wherever the file changes."""
    starts = [i for i, spec in enumerate(specs) if i == 0 or spec[1] != specs[i - 1][1]]
    return DiffDocument(
        lines=tuple(MARKERS[kind] + text for kind, _, text in specs),
        hunk_starts=(*starts, len(specs)),
        hunk_files=tuple(specs[i][1] for i in starts),
        files=files,
    )


class TestPythonLexer:
    def test_trailing_comment(self):
        assert comments_of("x = 1  # todo: log the message", Language.PYTHON) == [
            "todo: log the message"
        ]

    def test_hash_inside_string_not_a_comment(self):
        assert comments_of('s = "#nothashtag"', Language.PYTHON) == []

    def test_hash_inside_single_quotes(self):
        assert comments_of("s = '#nope' # real", Language.PYTHON) == ["real"]

    def test_escaped_quote_handled(self):
        assert comments_of(r"s = 'it\'s fine' # todo: escape", Language.PYTHON) == [
            "todo: escape"
        ]

    def test_comment_only_line(self):
        assert comments_of("# todo: x", Language.PYTHON) == ["todo: x"]

    def test_no_comment(self):
        assert comments_of("x = 1", Language.PYTHON) == []

    def test_unterminated_string_swallows_hash(self):
        assert comments_of('s = "open # not comment', Language.PYTHON) == []

    def test_string_open_at_a_final_backslash_swallows_hash(self):
        assert comments_of('s = "open # not comment \\', Language.PYTHON) == []
        assert comments_of("s = '''open # not comment \\", Language.PYTHON) == []

    def test_lone_quote_inside_triple_quotes(self):
        assert comments_of('s = """a"b"""  # c', Language.PYTHON) == ["c"]
        assert comments_of("s = '''it's''' # todo: d", Language.PYTHON) == ["todo: d"]


def _string_literal(quote, pieces):
    """A literal that closes where it should, or None: outside escape pairs
    the body holds no closing delimiter and does not end with its quote."""
    bare = "".join("EE" if piece.startswith("\\") else piece for piece in pieces)
    if quote in bare or bare.endswith(quote[0]):
        return None
    return quote + "".join(pieces) + quote


_BODY_PIECES = st.sampled_from(["a", "b", " ", "#", "'", '"', "\\\\", "\\'", '\\"', "\\#"])
_STRINGS = st.builds(
    lambda prefix, literal: prefix + literal,
    st.sampled_from(["", "r", "b", "rb", "u"]),
    st.builds(
        _string_literal,
        st.sampled_from(["'", '"', "'''", '"""']),
        st.lists(_BODY_PIECES, max_size=8),
    ).filter(lambda literal: literal is not None),
)
_CODE = st.one_of(
    st.from_regex(r"[a-z_][a-z0-9_]{0,4}", fullmatch=True),
    st.sampled_from([" ", "  ", "=", "+", "-", "*", ",", ".", ":", ";", "//"]),
    _STRINGS,
)
_COMMENTS = st.builds(
    lambda text: "#" + text, st.text(alphabet="ab #'\"\\", max_size=10)
)


def _tokenize_comments(line):
    """(start, end, text) of each comment stdlib tokenize finds; None when
    tokenize does not accept the line."""
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(line).readline))
    except (tokenize.TokenError, SyntaxError):
        return None
    if any(t.type == tokenize.ERRORTOKEN for t in tokens):
        return None
    return [
        (t.start[1], t.end[1], t.string[1:].strip())
        for t in tokens
        if t.type == tokenize.COMMENT
    ]


class TestPythonLexerAgainstTokenize:
    """The lexer reads one line at a time, so the domain is single lines
    that tokenize accepts: a string still open at the end of the line is a
    multi-line string, which the lexer cannot see and tokenize rejects."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_CODE, max_size=8), st.one_of(st.none(), _COMMENTS))
    def test_same_comments_as_tokenize(self, code, comment):
        line = "".join(code) + (comment or "")
        expected = _tokenize_comments(line)
        assume(expected is not None)
        found = [
            (span.start, span.end, span.text)
            for span in iter_line_comments(line, Language.PYTHON)
        ]
        assert found == expected


class TestJavaLexer:
    def test_line_comment(self):
        assert comments_of("int a; // todo check rackspace file existence", Language.JAVA) == [
            "todo check rackspace file existence"
        ]

    def test_block_comment_single_line(self):
        assert comments_of("int a; /* todo: x */ b();", Language.JAVA) == ["todo: x"]

    def test_two_block_comments(self):
        assert comments_of("/* one */ code(); /* two */", Language.JAVA) == ["one", "two"]

    def test_slashes_inside_string(self):
        assert comments_of('String s = "http://x"; // real', Language.JAVA) == ["real"]

    def test_unterminated_block_comment_ignored(self):
        assert comments_of("int a; /* todo open", Language.JAVA) == []

    def test_unterminated_block_comment_swallows_the_line(self):
        assert comments_of("a(); /* open // todo: not a comment", Language.JAVA) == []

    def test_string_open_at_a_final_backslash_swallows_slashes(self):
        assert comments_of('s = "open // not comment \\', Language.JAVA) == []

    def test_line_comment_eats_rest(self):
        assert comments_of("a(); // one /* two */", Language.JAVA) == ["one /* two */"]

    def test_char_literal(self):
        assert comments_of("char c = '/'; // after", Language.JAVA) == ["after"]


JAVAC_EXPORTS = [
    f"--add-exports=jdk.compiler/com.sun.tools.javac.{package}=ALL-UNNAMED"
    for package in ("parser", "util")
]
JAVA_BLANKS = " \t\x0c"


@pytest.fixture(scope="session")
def javac_tokens(tmp_path_factory):
    """A function from a Java line to the (pos, endPos) of each token javac's
    scanner finds in it, end of input included, or None when javac rejects
    the line. One JVM serves the whole session."""
    if shutil.which("javac") is None or shutil.which("java") is None:
        pytest.skip("javac is not installed")
    classes = tmp_path_factory.mktemp("javac")
    source = Path(__file__).parent / "data" / "LineTokens.java"
    subprocess.run(["javac", *JAVAC_EXPORTS, "-d", str(classes), str(source)], check=True)
    process = subprocess.Popen(
        ["java", *JAVAC_EXPORTS, "-cp", str(classes), "LineTokens"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,  # the scanner's diagnostics for rejected lines
        encoding="utf-8",
    )

    def tokens(line):
        process.stdin.write(line + "\n")
        process.stdin.flush()
        reply = process.stdout.readline()
        if not reply:  # every reply holds at least the end-of-input token
            raise RuntimeError(f"LineTokens exited with {process.wait()}")
        if reply.strip() == "!":
            return None
        positions = list(map(int, reply.split()))
        return list(zip(positions[::2], positions[1::2]))

    with process:
        yield tokens
        process.stdin.close()
        process.wait(timeout=60)


def _trimmed(line, start, end):
    """[start, end) of non-blank text without the Java blanks at either end."""
    text = line[start:end]
    lead = len(text) - len(text.lstrip(JAVA_BLANKS))
    return start + lead, start + len(text.rstrip(JAVA_BLANKS))


def javac_comment_gaps(line, tokens):
    """The comments javac sees: the non-blank text between one token's end
    and the next token's start, trimmed of blanks."""
    gaps = []
    end = 0
    for pos, next_end in tokens:
        if line[end:pos].strip(JAVA_BLANKS):
            gaps.append(_trimmed(line, end, pos))
        end = next_end
    return gaps


def lexer_comment_gaps(line):
    """The same gaps from the lexer: comments separated only by blanks share
    a gap."""
    gaps = []
    for span in iter_line_comments(line, Language.JAVA):
        if gaps and not line[gaps[-1][1] : span.start].strip(JAVA_BLANKS):
            gaps[-1] = (gaps[-1][0], span.end)
        else:
            gaps.append((span.start, span.end))
    return [_trimmed(line, start, end) for start, end in gaps]


# No "u" anywhere, so no backslash can open a \uXXXX escape, which javac
# reads before it lexes: a known gap of the line lexer.
_JAVA_TEXT = "ab /*'\"\\#é\t\x0c"
_JAVA_STRING_PIECES = st.sampled_from(
    ["a", " ", "/", "*", "//", "/*", "*/", "'", "#", "é", '\\"', "\\\\", "\\'", "\\n"]
)
_JAVA_CODE = st.one_of(
    st.from_regex(r"[abxyzé_$][abxyzé0-9_$]{0,3}", fullmatch=True),
    st.sampled_from(
        [" ", "\t", "\x0c", "=", "+", "-", "*", "/", ";", "(", ")", ".", "<", "#", "\\"]
    ),
    st.lists(_JAVA_STRING_PIECES, max_size=6).map(lambda pieces: '"' + "".join(pieces) + '"'),
    st.sampled_from(["'a'", "'/'", "'*'", "'\"'", "'\\''", "'\\\\'", "'#'", "'", '"']),
    st.text(alphabet=_JAVA_TEXT, max_size=8)
    .filter(lambda body: "*/" not in body and not body.endswith("*"))
    .map(lambda body: "/*" + body + "*/"),
)
_JAVA_LINE_COMMENTS = st.text(alphabet=_JAVA_TEXT, max_size=8).map(lambda body: "//" + body)


class TestJavaLexerAgainstJavac:
    """javac's scanner is the oracle, on single lines it accepts: a line
    holding an open string, char literal or block comment, or a character
    Java does not know, is rejected and skipped. Text blocks (\"\"\") are
    left out, since they span lines."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(_JAVA_CODE, max_size=8), st.one_of(st.none(), _JAVA_LINE_COMMENTS))
    @example(["x", " ", "/* a */", " ", "/* b */", "'/'"], "// c /* d */")
    @example(['"http://x"', ";", " "], "//")
    def test_same_comments_as_javac(self, javac_tokens, code, comment):
        line = "".join(code) + (comment or "")
        assume('"""' not in line)
        tokens = javac_tokens(line)
        assume(tokens is not None)
        assert lexer_comment_gaps(line) == javac_comment_gaps(line, tokens)


class TestExtractComments:
    def test_java_fig1_example_lowercased_via_pipeline(self):
        diff = (
            "diff --git a/A.java b/A.java\n"
            "--- a/A.java\n"
            "+++ b/A.java\n"
            "@@ -1,2 +1,2 @@\n"
            "-int a; // TODO check rackspace file existence\n"
            "+int a = rackspace.check();\n"
        )
        doc = normalize_diff(parse_unified_diff(diff))
        found = extract_comments(doc, Language.JAVA)
        line = "-int a; // todo check rackspace file existence"
        assert found == [(line, "todo check rackspace file existence")]

    def test_lines_without_comments_contribute_nothing(self):
        doc = make_doc([("+", "x = 1"), (" ", "# note"), ("-", "y = 2")])
        found = extract_comments(doc, Language.PYTHON)
        assert [text for _, text in found] == ["note"]


class TestFindTodos:
    def test_kept(self):
        doc = make_doc([(" ", "# todo: restore this")])
        todos = python_todos(doc)
        assert len(todos) == 1
        assert todos[0].text == "todo: restore this"

    def test_not_word_delimited_dropped(self):
        doc = make_doc([(" ", "# method todos list")])
        assert python_todos(doc) == []

    def test_other_satd_markers_dropped(self):
        doc = make_doc([(" ", "# fixme later")])
        assert python_todos(doc) == []

    def test_punctuation_boundaries_count(self):
        doc = make_doc([(" ", "# todo:x"), (" ", "# (todo) y"), (" ", "# todo_z")])
        todos = python_todos(doc)
        assert [t.text for t in todos] == ["todo:x", "(todo) y", "todo_z"]

    def test_no_marker_leakage(self):
        doc = make_doc([("-", "# todo - restore this"), ("+", "restored()")])
        todos = python_todos(doc)
        assert todos[0].text == "todo - restore this"
        assert not todos[0].text.startswith(("+", "-"))


class TestSingleTodoFilter:
    def _todos(self, n):
        return [
            TodoComment(f"todo {i}", LineKind.CONTEXT, Language.PYTHON, i, 0, 8, 0, 0)
            for i in range(n)
        ]

    def test_exactly_one(self):
        todos = self._todos(1)
        assert single_todo_filter(todos) is todos[0]

    def test_two_is_skip(self):
        assert single_todo_filter(self._todos(2)) is None

    def test_zero_is_skip(self):
        assert single_todo_filter(self._todos(0)) is None


class TestAssociate:
    def _doc_with_todo_at(self, todo_pos, change_pos, n=12, change_kind="+"):
        specs = []
        for i in range(n):
            if i == change_pos:
                specs.append((change_kind, "changed()"))
            elif i == todo_pos:
                specs.append((" ", "# todo: there"))
            else:
                specs.append((" ", f"line {i}"))
        doc = make_doc(specs)
        return doc, todo_at(doc, todo_pos)

    def test_adjacent_added_line(self):
        doc, todo = self._doc_with_todo_at(4, 5)
        assert associate(todo, doc) is True

    def test_distance_five_with_context_three(self):
        doc, todo = self._doc_with_todo_at(2, 7)
        assert associate(todo, doc, context_lines=3) is False

    def test_distance_exactly_three(self):
        doc, todo = self._doc_with_todo_at(2, 5)
        assert associate(todo, doc, context_lines=3) is True

    def test_removed_line_counts(self):
        doc, todo = self._doc_with_todo_at(4, 3, change_kind="-")
        assert associate(todo, doc) is True

    def test_own_line_does_not_count(self):
        doc = make_doc([(" ", "a"), ("-", "# todo: gone"), (" ", "b")])
        assert associate(todo_at(doc, 1), doc) is False

    def test_other_hunk_ignored(self):
        doc = DiffDocument(
            lines=(" # todo: here", "+changed()"),
            hunk_starts=(0, 1, 2),
            hunk_files=(0, 0),
            files=(("a.py", "a.py"),),
        )
        assert associate(todo_at(doc, 0), doc) is False

    def test_matches_bruteforce_pairwise_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 15)
            specs = [(rng.choice("+- "), f"l{i}") for i in range(n)]
            todo_pos = rng.randrange(n)
            specs[todo_pos] = (specs[todo_pos][0], "# todo: x")
            doc = make_doc(specs)
            todo = todo_at(doc, todo_pos)
            context = rng.randint(0, 4)

            # One hunk: a line's position in it is its index.
            expected = any(
                line[0] in "+-"
                and position != todo_pos
                and abs(position - todo_pos) <= context
                for position, line in enumerate(doc.lines)
            )
            assert associate(todo, doc, context) is expected

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.lists(
                    st.tuples(st.sampled_from("+- "), st.sampled_from(["# todo: x", "x = 1"])),
                    max_size=8,
                ),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=3,
        ),
        st.integers(0, 4),
    )
    def test_same_as_in_hunk_position_rule(self, files, context):
        """Across files and hunks, a changed line associates iff it is in the
        TODO's file and hunk, is not the TODO line, and its position in the
        hunk is within context of the TODO's."""
        text, places = unified_diff(files)
        doc = parse_unified_diff(text)
        for todo in python_todos(doc):
            file_index, hunk_index, position = places[todo.index]
            expected = any(
                line[0] != " "
                and (f, h) == (file_index, hunk_index)
                and p != position
                and abs(p - position) <= context
                for line, (f, h, p) in zip(doc.lines, places, strict=True)
            )
            assert associate(todo, doc, context) is expected

    def test_symmetry_in_distance(self):
        for offset in (1, 2, 3):
            before, t1 = self._doc_with_todo_at(5, 5 - offset)
            after, t2 = self._doc_with_todo_at(5, 5 + offset)
            assert associate(t1, before) == associate(t2, after)


class TestCarveCodeChange:
    def test_comment_only_line_dropped(self):
        doc = make_doc([("-", "    # todo: log the message"), ("+", "log(msg)"), (" ", "send()")])
        cc = carve_code_change(doc, todo_at(doc, 0))
        assert len(cc.splitlines()) == 2
        assert "todo" not in cc

    def test_trailing_comment_stripped_code_kept(self):
        doc = make_doc([(" ", "x = big()  # todo: cache this"), ("+", "y = 2")])
        cc = carve_code_change(doc, todo_at(doc, 0))
        assert len(cc.splitlines()) == 2
        assert cc.splitlines()[0] == " x = big()"
        assert "todo" not in cc

    def test_java_block_comment_mid_line(self):
        doc = make_doc([("-", "int a; /* todo: drop */ b();")])
        cc = carve_code_change(doc, todo_at(doc, 0, Language.JAVA))
        assert cc.splitlines()[0] == "-int a;  b();"

    def test_fig5_positive_shape(self):
        diff = (
            "diff --git a/w.py b/w.py\n"
            "--- a/w.py\n"
            "+++ b/w.py\n"
            "@@ -1,3 +1,3 @@\n"
            " def send(msg):\n"
            "-    # TODO: log the message\n"
            "+    logging.info(msg)\n"
            " dispatch(msg)\n"
        )
        doc = normalize_diff(parse_unified_diff(diff))
        todo = single_todo_filter(python_todos(doc))
        assert todo.text == "todo: log the message"
        assert todo.kind is LineKind.REMOVED
        cc = carve_code_change(doc, todo)
        assert "logging.info(msg)" in cc
        assert "todo" not in cc
        assert cc.splitlines()[1] == "+    logging.info(msg)"

    def test_rendered_keeps_markers(self):
        doc = make_doc([("+", "a"), ("-", "b"), (" ", "c"), ("-", "# todo: x")])
        assert carve_code_change(doc, todo_at(doc, 3)) == "+a\n-b\n c"

    def test_todo_text_never_in_rendered(self):
        rng = random.Random(5)
        for _ in range(50):
            filler = [(rng.choice("+- "), f"code_{i}()") for i in range(rng.randint(1, 6))]
            pos = rng.randrange(len(filler) + 1)
            comment_only = rng.random() < 0.5
            text = "# todo: remove me" if comment_only else "x = 1 # todo: remove me"
            specs = filler[:pos] + [(rng.choice("+- "), text)] + filler[pos:]
            doc = make_doc(specs)
            assert "todo: remove me" not in carve_code_change(doc, todo_at(doc, pos))


# Pieces of source lines: TODO markers bare and glued to letters or digits,
# comment delimiters, quotes, escapes and non-ASCII text.
_PIECES = st.sampled_from([
    "todo", "TODO", "ToDo", "todo:", "todos", "xtodo", "todo1", "2todo", "_todo",
    "todo_", "étodo", "todoé", "#todo", "//todo", "/*todo*/", "# ", "#", "//", "/*",
    "*/", "/", "*", "'", '"', "'''", '"""', "\\", "\\'", " ", "\t", "x", "= 1",
    "é", "Σ", "İ", "ß", "中", "K", "\r", "\x0c",
])
_SOURCE_LINE = st.lists(st.one_of(_PIECES, st.text(max_size=3)), max_size=10).map("".join)
_FILES = (("a.py", "a.py"), (None, "B.java"), ("c.txt", "c.txt"), ("D.PY", None))


def every_line_todos(doc, languages):
    """Reference finder: lex every line, keep the comments holding TODO."""
    found = []
    for index, line in enumerate(doc.lines):
        old, new = doc.files[doc.hunk_files[bisect_right(doc.hunk_starts, index) - 1]]
        language = language_for_path(new or old)
        if language not in languages:
            continue
        for span in iter_line_comments(line[1:], language):
            if contains_todo(span.text):
                found.append(todo_comment(doc, index, span, language))
    return found


def carve_by_relexing(doc, todo):
    """Reference carver: lex the TODO line again and excise the first
    comment whose text is the TODO's; drop the line if nothing remains."""
    kept = []
    for index, line in enumerate(doc.lines):
        if index == todo.index:
            text = line[1:]
            spans = iter_line_comments(text, todo.language)
            span = next(s for s in spans if s.text == todo.text)
            remainder = text[: span.start] + text[span.end :]
            if not remainder.strip():
                continue
            line = line[0] + remainder.rstrip()
        kept.append(line)
    return "\n".join(kept)


class TestCarveAgainstRelexing:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(LineKind), st.integers(0, len(_FILES) - 1), _SOURCE_LINE),
            max_size=8,
        )
    )
    @example(
        [
            (LineKind.CONTEXT, 0, 's = "#x"  # todo: a'),
            (LineKind.REMOVED, 1, 's = "//"; x(); // todo: b'),
            (LineKind.ADDED, 1, "/* note */ y(); // todo: c"),
            (LineKind.CONTEXT, 1, "/* todo: d */ y(); // other"),
            (LineKind.REMOVED, 1, "/* todo */ z(); // todo"),
            (LineKind.ADDED, 0, "# todo: alone"),
        ]
    )
    def test_same_as_carving_by_relexing(self, specs):
        """Where the first comment on the line with the TODO's text is the
        TODO itself, the finder's span carves what lexing again carves."""
        doc = doc_of(specs, _FILES)
        for todo in extract_comments_by_file(doc, tuple(Language)):
            spans = iter_line_comments(doc.lines[todo.index][1:], todo.language)
            first = next(s for s in spans if s.text == todo.text)
            if first.start == todo.start:
                assert carve_code_change(doc, todo) == carve_by_relexing(doc, todo)


class TestTodoFinder:
    """extract_comments_by_file lexes only lines holding the TODO token."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(LineKind), st.integers(0, len(_FILES) - 1), _SOURCE_LINE),
            max_size=12,
        ),
        st.sets(st.sampled_from(Language)),
    )
    @example(
        [
            (LineKind.CONTEXT, 0, "s = '#todo' # TODO: Fix é"),
            (LineKind.ADDED, 1, 's = "// todo"; /* ToDo */ x(); // todo2 todo'),
            (LineKind.REMOVED, 2, "# todo: not source"),
            (LineKind.CONTEXT, 3, "x = 'a//b'  # Todo: İ"),
        ],
        {Language.PYTHON, Language.JAVA},
    )
    def test_same_todos_as_lexing_every_line(self, specs, languages):
        doc = doc_of(specs, _FILES)
        assert extract_comments_by_file(doc, languages) == every_line_todos(doc, languages)

    @settings(max_examples=300, deadline=None)
    @given(_SOURCE_LINE, st.sampled_from(Language))
    @example("x = 1  # TODO: Fix", Language.PYTHON)
    @example('s = "/* todo */"; /* ToDo: a */ // Σ todo', Language.JAVA)
    def test_line_todos_keeps_the_todo_comments(self, text, language):
        expected = [s for s in iter_line_comments(text, language) if contains_todo(s.text)]
        assert line_todos(text, language) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_SOURCE_LINE, st.text()))
    def test_contains_todo_same_as_token_regex(self, text):
        assert contains_todo(text) is (_TODO_TOKEN_RE.search(text) is not None)

    def test_todo_glued_to_ascii_letters_or_digits_is_not_a_todo(self):
        # Only ASCII letters and digits glue: "é" is a boundary.
        doc = make_doc([(" ", "x = 1  # xtodo todo1 2todos"), ("+", "# étodo: keep")])
        assert [t.text for t in extract_comments_by_file(doc, tuple(Language))] == [
            "étodo: keep"
        ]

    def test_files_outside_languages_are_not_lexed(self):
        doc = DiffDocument(
            lines=(" // todo: java", " # todo: py"),
            hunk_starts=(0, 1, 2),
            hunk_files=(1, 0),
            files=(("a.py", "a.py"), ("B.java", "B.java")),
        )
        assert [t.language for t in extract_comments_by_file(doc, (Language.JAVA,))] == [
            Language.JAVA
        ]
        assert [t.text for t in extract_comments_by_file(doc, tuple(Language))] == [
            "todo: java",
            "todo: py",
        ]


# A git path's components: never empty, "." or "..", and never holding "/".
_PATH_PART = st.one_of(
    st.lists(
        st.sampled_from([".", "..", "py", "PY", "Py", "java", "JAVA", "a", "_", " ", "é", "İ", "日本"]),
        min_size=1,
        max_size=6,
    ).map("".join),
    st.text(st.characters(blacklist_characters="/\x00"), min_size=1, max_size=8),
).filter(lambda part: part not in (".", ".."))


class TestLanguageForPath:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_PATH_PART, min_size=1, max_size=4).map("/".join))
    @example(".py")
    @example("a/.java")
    @example("a.py.")
    @example("a..py")
    @example("a.py..")
    @example("...")
    @example("Main.JAVA")
    @example("dir.py/README")
    @example("pkg/modulé.Py")
    @example("日本/ß.java")
    def test_matches_pure_posix_path_suffix(self, path):
        expected = EXTENSION_LANGUAGES.get(PurePosixPath(path).suffix.lower())
        assert language_for_path(path) is expected

    def test_no_path(self):
        assert language_for_path(None) is None
        assert language_for_path("") is None
