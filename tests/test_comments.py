"""Comment lexing, TODO detection, association and carving."""

import io
import random
import tokenize

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import make_doc, make_line
from staletodo.comments import (
    Language,
    TodoComment,
    associate,
    carve_code_change,
    extract_comments,
    find_todos,
    iter_line_comments,
    single_todo_filter,
)
from staletodo.diffs import LineKind, normalize_diff, parse_unified_diff


def comments_of(text, language):
    return [span.text for span in iter_line_comments(text, language)]


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

    def test_line_comment_eats_rest(self):
        assert comments_of("a(); // one /* two */", Language.JAVA) == ["one /* two */"]

    def test_char_literal(self):
        assert comments_of("char c = '/'; // after", Language.JAVA) == ["after"]


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
        assert [(line.kind, text) for line, text in found] == [
            (LineKind.REMOVED, "todo check rackspace file existence")
        ]

    def test_lines_without_comments_contribute_nothing(self):
        doc = make_doc([("+", "x = 1"), (" ", "# note"), ("-", "y = 2")])
        found = extract_comments(doc, Language.PYTHON)
        assert [text for _, text in found] == ["note"]


class TestFindTodos:
    def test_kept(self):
        doc = make_doc([(" ", "# todo: restore this")])
        todos = find_todos(extract_comments(doc, Language.PYTHON), Language.PYTHON)
        assert len(todos) == 1
        assert todos[0].text == "todo: restore this"

    def test_not_word_delimited_dropped(self):
        doc = make_doc([(" ", "# method todos list")])
        assert find_todos(extract_comments(doc, Language.PYTHON), Language.PYTHON) == []

    def test_other_satd_markers_dropped(self):
        doc = make_doc([(" ", "# fixme later")])
        assert find_todos(extract_comments(doc, Language.PYTHON), Language.PYTHON) == []

    def test_punctuation_boundaries_count(self):
        doc = make_doc([(" ", "# todo:x"), (" ", "# (todo) y"), (" ", "# todo_z")])
        todos = find_todos(extract_comments(doc, Language.PYTHON), Language.PYTHON)
        assert [t.text for t in todos] == ["todo:x", "(todo) y", "todo_z"]

    def test_no_marker_leakage(self):
        doc = make_doc([("-", "# todo - restore this"), ("+", "restored()")])
        todos = find_todos(extract_comments(doc, Language.PYTHON), Language.PYTHON)
        assert todos[0].text == "todo - restore this"
        assert not todos[0].text.startswith(("+", "-"))


class TestSingleTodoFilter:
    def _todos(self, n):
        return [
            TodoComment(f"todo {i}", make_line(" ", f"# todo {i}", position=i), Language.PYTHON)
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
        todo = TodoComment("todo: there", doc.lines[todo_pos], Language.PYTHON)
        return doc, todo

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
        todo = TodoComment("todo: gone", doc.lines[1], Language.PYTHON)
        assert associate(todo, doc) is False

    def test_other_hunk_ignored(self):
        lines = (
            make_line(" ", "# todo: here", hunk_index=0, position=0),
            make_line("+", "changed()", hunk_index=1, position=1),
        )
        doc = make_doc([])
        doc = doc.__class__(lines=lines, byte_size=10, files=(("a.py", "a.py"),))
        todo = TodoComment("todo: here", lines[0], Language.PYTHON)
        assert associate(todo, doc) is False

    def test_matches_bruteforce_pairwise_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 15)
            specs = [(rng.choice("+- "), f"l{i}") for i in range(n)]
            todo_pos = rng.randrange(n)
            specs[todo_pos] = (specs[todo_pos][0], "# todo: x")
            doc = make_doc(specs)
            todo = TodoComment("todo: x", doc.lines[todo_pos], Language.PYTHON)
            context = rng.randint(0, 4)

            expected = any(
                line.kind in (LineKind.ADDED, LineKind.REMOVED)
                and line.position != todo_pos
                and abs(line.position - todo_pos) <= context
                for line in doc.lines
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
        todo = TodoComment("todo: log the message", doc.lines[0], Language.PYTHON)
        cc = carve_code_change(doc, todo)
        assert len(cc.lines) == 2
        assert "todo" not in cc.rendered

    def test_trailing_comment_stripped_code_kept(self):
        doc = make_doc([(" ", "x = big()  # todo: cache this"), ("+", "y = 2")])
        todo = TodoComment("todo: cache this", doc.lines[0], Language.PYTHON)
        cc = carve_code_change(doc, todo)
        assert len(cc.lines) == 2
        assert cc.lines[0].text == "x = big()"
        assert "todo" not in cc.rendered

    def test_java_block_comment_mid_line(self):
        doc = make_doc([("-", "int a; /* todo: drop */ b();")])
        todo = TodoComment("todo: drop", doc.lines[0], Language.JAVA)
        cc = carve_code_change(doc, todo)
        assert cc.lines[0].text == "int a;  b();"

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
        todos = find_todos(extract_comments(doc, Language.PYTHON), Language.PYTHON)
        todo = single_todo_filter(todos)
        assert todo.text == "todo: log the message"
        assert todo.line.kind is LineKind.REMOVED
        cc = carve_code_change(doc, todo)
        assert "logging.info(msg)" in cc.rendered
        assert "todo" not in cc.rendered
        assert cc.rendered.splitlines()[1] == "+    logging.info(msg)"

    def test_rendered_keeps_markers(self):
        doc = make_doc([("+", "a"), ("-", "b"), (" ", "c"), ("-", "# todo: x")])
        todo = TodoComment("todo: x", doc.lines[3], Language.PYTHON)
        cc = carve_code_change(doc, todo)
        assert cc.rendered == "+a\n-b\n c"

    def test_todo_text_never_in_rendered(self):
        rng = random.Random(5)
        for _ in range(50):
            filler = [(rng.choice("+- "), f"code_{i}()") for i in range(rng.randint(1, 6))]
            pos = rng.randrange(len(filler) + 1)
            comment_only = rng.random() < 0.5
            text = "# todo: remove me" if comment_only else "x = 1 # todo: remove me"
            specs = filler[:pos] + [(rng.choice("+- "), text)] + filler[pos:]
            doc = make_doc(specs)
            todo = TodoComment("todo: remove me", doc.lines[pos], Language.PYTHON)
            cc = carve_code_change(doc, todo)
            assert "todo: remove me" not in cc.rendered
