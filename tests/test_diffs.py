"""Parsing and normalization of unified diffs."""

import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import make_doc, unified_diff
from staletodo.diffs import (
    _HEX_RUN_RE,
    MalformedDiff,
    normalize_diff,
    normalize_message,
    normalize_text,
    parse_unified_diff,
)

FIXTURE_DIFF = """\
diff --git a/src/app.py b/src/app.py
index 1111111..2222222 100644
--- a/src/app.py
+++ b/src/app.py
@@ -10,6 +10,6 @@ def main():
 import os
 import sys
-    print("starting")
+    logging.info("starting")
 run()
 teardown()
 cleanup()
@@ -40,3 +40,4 @@ def helper():
 x = compute()
+    audit(x)
 return x
 # done
diff --git a/lib/util.py b/lib/util.py
index 3333333..4444444 100644
--- a/lib/util.py
+++ b/lib/util.py
@@ -1,3 +1,2 @@
-# stale helper
-def unused():
+def used():
 pass
"""


def marker_count_oracle(diff_text):
    """Independent grep-style tally of hunk body markers.

    Counts whole-line regex hits over the raw text; valid because the
    fixture has no header lines starting with a space and the +++/--- file
    headers are excluded explicitly.
    """
    added = len(re.findall(r"^\+(?!\+\+ )", diff_text, re.MULTILINE))
    removed = len(re.findall(r"^-(?!-- )", diff_text, re.MULTILINE))
    context = len(re.findall(r"^ ", diff_text, re.MULTILINE))
    return added, removed, context


def kind_counts(doc):
    counts = Counter(line[0] for line in doc.lines)
    return counts["+"], counts["-"], counts[" "]


class TestParse:
    def test_empty_input(self):
        doc = parse_unified_diff("")
        assert doc.lines == ()
        assert doc.hunk_starts == (0,)
        assert doc.hunk_files == ()
        assert doc.files == ()

    def test_minimal_hunk_marker_mapping(self):
        diff = (
            "diff --git a/f b/f\n"
            "--- a/f\n"
            "+++ b/f\n"
            "@@ -1,2 +1,2 @@\n"
            "+x\n"
            "-y\n"
            " z\n"
        )
        doc = parse_unified_diff(diff)
        assert doc.lines == ("+x", "-y", " z")

    def test_fixture_counts_match_marker_oracle(self):
        doc = parse_unified_diff(FIXTURE_DIFF)
        assert kind_counts(doc) == marker_count_oracle(FIXTURE_DIFF)

    def test_fixture_structure(self):
        doc = parse_unified_diff(FIXTURE_DIFF)
        assert doc.files == (("src/app.py", "src/app.py"), ("lib/util.py", "lib/util.py"))
        assert doc.hunk_starts == (0, 7, 11, 15)
        assert doc.hunk_files == (0, 0, 1)

    def test_lines_keep_document_order(self):
        doc = parse_unified_diff(FIXTURE_DIFF)
        body = [
            line for line in FIXTURE_DIFF.splitlines()
            if line[:1] in ("+", "-", " ") and not line.startswith(("+++", "---"))
        ]
        assert list(doc.lines) == body

    def test_lines_keep_their_markers(self):
        doc = parse_unified_diff(FIXTURE_DIFF)
        assert '-    print("starting")' in doc.lines
        assert '+    logging.info("starting")' in doc.lines
        assert "-# stale helper" in doc.lines

    def test_malformed_hunk_body_raises_with_line_number(self):
        diff = (
            "diff --git a/f b/f\n"
            "--- a/f\n"
            "+++ b/f\n"
            "@@ -1,2 +1,2 @@\n"
            " ok\n"
            "*bad\n"
        )
        with pytest.raises(MalformedDiff) as exc:
            parse_unified_diff(diff)
        assert exc.value.line_no == 6

    def test_dashed_body_lines_not_mistaken_for_headers(self):
        diff = (
            "diff --git a/f b/f\n"
            "--- a/f\n"
            "+++ b/f\n"
            "@@ -1,2 +1,1 @@\n"
            "--- separator line\n"
            " keep\n"
        )
        doc = parse_unified_diff(diff)
        assert doc.lines == ("--- separator line", " keep")

    def test_no_newline_marker_skipped(self):
        diff = (
            "diff --git a/f b/f\n"
            "--- a/f\n"
            "+++ b/f\n"
            "@@ -1 +1 @@\n"
            "-old\n"
            "\\ No newline at end of file\n"
            "+new\n"
            "\\ No newline at end of file\n"
        )
        doc = parse_unified_diff(diff)
        assert doc.lines == ("-old", "+new")

    def test_binary_notice_contributes_no_lines(self):
        diff = (
            "diff --git a/x.bin b/x.bin\n"
            "index 0000000..1111111\n"
            "Binary files /dev/null and b/x.bin differ\n"
        )
        doc = parse_unified_diff(diff)
        assert doc.lines == ()
        assert doc.files == (("x.bin", "x.bin"),)

    def test_dev_null_paths_become_none(self):
        diff = (
            "diff --git a/new.py b/new.py\n"
            "new file mode 100644\n"
            "--- /dev/null\n"
            "+++ b/new.py\n"
            "@@ -0,0 +1,1 @@\n"
            "+hello\n"
        )
        doc = parse_unified_diff(diff)
        assert doc.files == ((None, "new.py"),)

    def test_empty_context_line_inside_hunk(self):
        diff = (
            "diff --git a/f b/f\n"
            "--- a/f\n"
            "+++ b/f\n"
            "@@ -1,3 +1,3 @@\n"
            " a\n"
            "\n"
            "+b\n"
            "-c\n"
            " d\n"
        )
        doc = parse_unified_diff(diff)
        assert doc.lines == (" a", " ", "+b", "-c")

    def test_only_newline_breaks_a_line(self):
        body = ["x = 1\x0c# todo: fix", 'z = "a\rb"', "u\u2028v\x0bw\x1cx\x85y", "crlf\r"]
        diff = "diff --git a/f.py b/f.py\n--- a/f.py\n+++ b/f.py\n@@ -1,4 +1,4 @@\n" + "".join(
            f" {text}\n" for text in body
        )
        doc = parse_unified_diff(diff)
        assert doc.lines == tuple(" " + text for text in body)

    def test_c_quoted_paths_unquoted(self):
        quoted = '\\303\\251 q\\"\\\\.py'  # é q"\.py as git quotes it
        diff = (
            'diff --git "a/ta\\tb.py" "b/ta\\tb.py"\n'
            "new file mode 100644\n"
            "--- /dev/null\n"
            '+++ "b/ta\\tb.py"\n'
            "@@ -0,0 +1 @@\n"
            "+x\n"
            f'diff --git "a/{quoted}" "b/{quoted}"\n'
            f'--- "a/{quoted}"\n'
            f'+++ "b/{quoted}"\n'
            "@@ -1 +1 @@\n"
            "-y\n"
            "+z\n"
        )
        doc = parse_unified_diff(diff)
        assert doc.files == ((None, "ta\tb.py"), ('é q"\\.py', 'é q"\\.py'))
        assert doc.lines == ("+x", "-y", "+z")
        assert doc.hunk_starts == (0, 1, 3)
        assert doc.hunk_files == (0, 1)


class TestNormalizeDiff:
    def test_lowercases_text(self):
        doc = make_doc([(" ", "Fixed ABC")])
        norm = normalize_diff(doc)
        assert norm.lines == (" fixed abc",)

    def test_hex_run_with_digits_replaced(self):
        doc = make_doc([(" ", "see deadbeefcafe1234 for details")])
        norm = normalize_diff(doc)
        assert norm.lines == (" see <commit_id> for details",)

    def test_hex_word_without_digit_kept(self):
        doc = make_doc([(" ", "deedded beefface")])
        norm = normalize_diff(doc)
        assert norm.lines == (" deedded beefface",)

    def test_uppercase_hash_replaced_after_lowercasing(self):
        doc = make_doc([(" ", "Revert DEADBEEF1234567")])
        norm = normalize_diff(doc)
        assert norm.lines == (" revert <commit_id>",)

    def test_overlong_hex_run_kept(self):
        run = "a1" * 33  # 66 chars: longer than any git id
        doc = make_doc([(" ", run)])
        assert normalize_diff(doc).lines == (" " + run,)

    def test_hex_run_inside_identifier_kept(self):
        doc = make_doc([(" ", "var_deadbeef12 = 0x1234abcd")])
        norm = normalize_diff(doc)
        assert norm.lines == (" var_deadbeef12 = 0x1234abcd",)

    def test_six_chars_too_short_forty_ok(self):
        doc = make_doc([(" ", "abc123 " + "5" * 39 + "a")])
        norm = normalize_diff(doc)
        assert norm.lines == (" abc123 <commit_id>",)

    def test_sha256_id_replaced(self):
        doc = make_doc([(" ", "revert " + "5a" * 32)])
        assert normalize_diff(doc).lines == (" revert <commit_id>",)

    def test_idempotent(self):
        rng = random.Random(7)
        vocab = ["Fix", "DEADBEEF123", "run", "#12", "Abc1234567", "deedded", "x"]
        for _ in range(50):
            specs = [
                (rng.choice("+- "), " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 6))))
                for _ in range(rng.randint(1, 8))
            ]
            doc = make_doc(specs)
            once = normalize_diff(doc)
            twice = normalize_diff(once)
            assert once == twice

    def test_kind_and_hunk_preserved(self):
        doc = make_doc([("+", "A"), ("-", "B"), (" ", "C")])
        norm = normalize_diff(doc)
        assert norm.lines == ("+a", "-b", " c")
        assert (norm.hunk_starts, norm.hunk_files, norm.files) == (
            doc.hunk_starts, doc.hunk_files, doc.files
        )

    def test_empty_document_unchanged(self):
        doc = parse_unified_diff("")
        assert normalize_diff(doc) == doc


# Hex runs of the lengths around both bounds, with and without digits,
# between characters that are or are not word characters: digits of other
# scripts ("٣", "５", "𝟙" match \d), superscripts ("²", a word character
# but no \d), letters, "_" and separators.
_HEX_RUNS = st.sampled_from([6, 7, 64, 65]).flatmap(
    lambda n: st.one_of(
        st.text("0123456789abcdef", min_size=n, max_size=n),
        st.text("abcdef", min_size=n, max_size=n),
    )
)
_AROUND_HEX = st.sampled_from(["٣", "५", "５", "𝟙", "²", "_", "é", "g", "x", " ", "\n", "-", "."])
_HEX_TEXT = st.lists(
    st.one_of(_HEX_RUNS, _AROUND_HEX, st.text(max_size=3)), max_size=8
).map("".join)


class TestHexRunPattern:
    # The pattern the current one replaced: \b on both sides of the run.
    WORD_BOUNDARY_RE = re.compile(r"\b(?=[0-9a-f]*\d)[0-9a-f]{7,64}\b")

    @settings(max_examples=500, deadline=None)
    @given(_HEX_TEXT)
    @example("1234567٣ a" + "1" * 64 + " " + "1" * 65 + " _abcdef1 x5" + "f" * 6 + " ²1234567")
    @example("1abcdef " + "2" + "a" * 63 + " 3" + "b" * 64 + " abcdef4")
    def test_same_runs_as_the_word_boundary_pattern(self, text):
        found = [m.span() for m in _HEX_RUN_RE.finditer(text)]
        assert found == [m.span() for m in self.WORD_BOUNDARY_RE.finditer(text)]


class TestNormalizeMessage:
    def test_first_sentence_rule(self):
        assert normalize_message("Fix bug. Also refactor tests.") == "fix bug."

    def test_issue_reference_placeholder(self):
        assert normalize_message("resolve #123 crash") == "resolve <issue_id> crash"

    def test_commit_id_placeholder(self):
        assert normalize_message("Revert commit a1b2c3d4e5f6a7b8") == "revert commit <commit_id>"

    def test_newline_ends_sentence(self):
        assert normalize_message("Add feature\nwith details") == "add feature"

    def test_period_without_space_not_a_boundary(self):
        assert normalize_message("bump to v1.2 now") == "bump to v1.2 now"

    def test_period_at_end_kept(self):
        assert normalize_message("Tidy up.") == "tidy up."

    def test_empty_message(self):
        assert normalize_message("") == ""
        assert normalize_message("   \n") == ""

    def test_whitespace_trimmed(self):
        assert normalize_message("  Fix it  ") == "fix it"


class TestLineScopes:
    def test_fixture_partition_matches_oracle(self):
        doc = parse_unified_diff(FIXTURE_DIFF)
        assert kind_counts(doc) == marker_count_oracle(FIXTURE_DIFF)


# Line text as git output decodes: anything but "\n" and lone surrogates
# (undecodable bytes become U+FFFD). Pieces add the characters whose case
# mapping changes the length ("İ" lowers to two characters) or depends on
# context ("Σ"), other line breaks, and hex runs at a line's start or end.
_TEXT = st.lists(
    st.one_of(
        st.sampled_from([
            "İ", "Σ", "ΑΣ", "ß", "\r", "\x0c", "\x0b", " ", " ", "x", "_", "#",
            "deadbee", "DEADBEEF1", "1234567", "a1b2c3d4e5f6a7b8c9d0a1b2c3d4e5f6a7b8c9d0",
            "+", "-", "--- a/x", "+++ b/x", "@@ -1 +1 @@", "diff --git a/x b/x", "\\",
        ]),
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=4),
    ),
    max_size=8,
).map("".join)
_BODY = st.lists(st.tuples(st.sampled_from("+- "), _TEXT), min_size=1, max_size=6)


class TestNormalizeDiffOnePass:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("+- "), _TEXT), max_size=10))
    def test_same_as_normalizing_each_line(self, specs):
        doc = make_doc(specs)
        norm = normalize_diff(doc)
        assert norm.lines == tuple(line[0] + normalize_text(line[1:]) for line in doc.lines)
        assert (norm.hunk_starts, norm.hunk_files, norm.files) == (
            doc.hunk_starts, doc.hunk_files, doc.files
        )

    def test_hex_runs_at_line_starts_and_ends(self):
        doc = make_doc([(" ", "DEADBEEF1"), ("+", "x 1234567"), ("-", "abcdef12 y")])
        assert normalize_diff(doc).lines == (" <commit_id>", "+x <commit_id>", "-<commit_id> y")


class TestNormalizeMessagePlaceholders:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_TEXT, st.sampled_from(["#1234567", "#12", ". ", ".", "\n"])),
                    max_size=6).map("".join))
    @example("Fix #1234567 after DEADBEEF1. Then more")
    def test_issue_ids_then_hex_runs_in_the_first_sentence(self, message):
        """The first sentence, lowercased, with issue references replaced
        first and hex runs second, each by its own pattern."""
        text = re.split(r"(?<=\.)(?=\s|$)|\n", message.lower(), maxsplit=1)[0]
        text = re.sub(r"#\d+", "<issue_id>", text)
        text = re.sub(r"\b(?=[0-9a-f]*\d)[0-9a-f]{7,64}\b", "<commit_id>", text)
        assert normalize_message(message) == text.strip()


class TestParseRenderRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(_BODY, min_size=1, max_size=3), max_size=3))
    def test_body_lines_come_back(self, files):
        """Every hunk body line parses to one line of the document, and
        joining the lines gives the body lines back, whatever text they
        hold; each hunk starts at its first line and belongs to its file."""
        text, places = unified_diff(files)
        doc = parse_unified_diff(text)
        bodies = [marker + line for hunks in files for body in hunks for marker, line in body]
        assert "\n".join(doc.lines) == "\n".join(bodies)
        assert len(doc.lines) == len(bodies)
        starts = [i for i, (_, _, position) in enumerate(places) if position == 0]
        assert doc.hunk_starts == (*starts, len(places))
        assert doc.hunk_files == tuple(places[i][0] for i in starts)
        assert len(doc.files) == len(files)
