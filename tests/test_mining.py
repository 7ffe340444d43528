"""Mining commit histories through the git CLI."""

import io
import json
import logging
import os
import re
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import staletodo.mining as mining
from helpers import commit_all, git, init_repo
from staletodo.diffs import RawCommit, parse_unified_diff
from staletodo.mining import (
    GIT_LOG_ARGS,
    GitFailed,
    NotARepository,
    iter_log_commits,
    mine_repository,
    read_commit_stream,
    read_commits,
    run_git,
    write_commits,
)


class TestMineRepository:
    def test_commit_count_matches_rev_list_oracle(self, mining_repo):
        commits = list(mine_repository(mining_repo))
        expected = int(git(mining_repo, "rev-list", "--count", "HEAD").strip())
        assert len(commits) == expected == 5

    def test_commit_ids_match_rev_list(self, mining_repo):
        commits = list(mine_repository(mining_repo))
        expected = git(mining_repo, "rev-list", "HEAD").split()
        assert [c.commit_id for c in commits] == expected

    def test_multi_line_message_preserved(self, mining_repo):
        commits = {c.message.splitlines()[0]: c for c in mine_repository(mining_repo)}
        message = commits["Call run before returning. More detail"].message
        assert message == "Call run before returning. More detail\non a second line."

    def test_binary_commit_counted_with_parseable_diff(self, mining_repo):
        commits = list(mine_repository(mining_repo))
        binary = next(c for c in commits if c.message == "Add binary blob")
        doc = parse_unified_diff(binary.diff_text)
        assert doc.lines == ()
        assert doc.files != ()

    def test_diffs_parse_and_carry_content(self, mining_repo):
        commits = list(mine_repository(mining_repo))
        todo_commit = next(c for c in commits if "pending task" in c.message)
        doc = parse_unified_diff(todo_commit.diff_text)
        assert any("TODO: speed this up" in line for line in doc.lines)

    def test_repo_name_recorded(self, mining_repo):
        commits = list(mine_repository(mining_repo))
        assert all(c.repo == "mining_repo" for c in commits)
        named = list(mine_repository(mining_repo, repo_name="custom"))
        assert all(c.repo == "custom" for c in named)

    def test_not_a_repository(self, tmp_path):
        with pytest.raises(NotARepository):
            list(mine_repository(str(tmp_path / "missing")))
        plain = tmp_path / "plain"
        plain.mkdir()
        with pytest.raises(NotARepository):
            list(mine_repository(str(plain)))

    def test_empty_repository_yields_nothing(self, tmp_path):
        from helpers import init_repo

        repo = init_repo(tmp_path / "empty_repo")
        assert list(mine_repository(repo)) == []

    def test_sha256_repository_mines_every_commit(self, tmp_path):
        repo = tmp_path / "sha256_repo"
        repo.mkdir()
        try:
            git(repo, "init", "-q", "--object-format=sha256")
        except subprocess.CalledProcessError:
            pytest.skip("this git cannot create SHA-256 repositories")
        (repo / "a.py").write_text("x = 1\n", encoding="utf-8")
        commit_all(repo, "Add a", 1)
        (repo / "a.py").write_text("# TODO: check x\nx = 2\n", encoding="utf-8")
        commit_all(repo, "Change a", 2)
        commits = list(mine_repository(str(repo)))
        assert [c.commit_id for c in commits] == git(repo, "rev-list", "HEAD").split()
        assert [len(c.commit_id) for c in commits] == [64, 64]
        assert [c.message for c in commits] == ["Change a", "Add a"]
        assert "+# TODO: check x" in commits[0].diff_text


class TestUserGitConfig:
    def test_hostile_settings_change_nothing(self, mining_repo, tmp_path, monkeypatch):
        monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")
        monkeypatch.setenv("GIT_CONFIG_GLOBAL", os.devnull)
        plain = list(mine_repository(mining_repo))
        hostile = tmp_path / "gitconfig"
        hostile.write_text(
            "[diff]\n\tnoprefix = true\n\tmnemonicPrefix = true\n"
            "[log]\n\tabbrevCommit = true\n\tshowRoot = false\n"
            "[format]\n\tpretty = oneline\n"
        )
        monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(hostile))
        assert list(mine_repository(mining_repo)) == plain
        assert len(plain) == 5
        assert all(len(commit.commit_id) == 40 and commit.diff_text for commit in plain)

    # Each file's second version gets other hunks from git log -p under one
    # of the settings below: two changes 8 lines apart (diff.interHunkContext),
    # a moved function (diff.algorithm=patience) and a repeated block that
    # can slide (diff.indentHeuristic=false).
    HUNK_FILES = (
        ("gap.txt", "".join(f"line {i}\n" for i in range(1, 31)),
         "".join(f"line {i}{' changed' if i in (5, 14) else ''}\n" for i in range(1, 31))),
        ("frob.c",
         "// Frobs foo\nint frob(int foo)\n{\n    int i;\n    for(i = 0; i < 10; i++)\n"
         "    {\n        printf(\"Answer: \");\n        printf(\"%d\", foo);\n    }\n}\n\n"
         "int fact(int n)\n{\n    if(n > 1)\n    {\n        return fact(n-1) * n;\n"
         "    }\n    return 1;\n}\n\nint main()\n{\n    frob(fact(10));\n}\n",
         "int fib(int n)\n{\n    if(n > 2)\n    {\n        return fib(n-1) + fib(n-2);\n"
         "    }\n    return 1;\n}\n\n// Frobs foo\nint frob(int foo)\n{\n    int i;\n"
         "    for(i = 0; i < 10; i++)\n    {\n        printf(\"%d\", foo);\n    }\n}\n\n"
         "int main()\n{\n    frob(fib(10));\n}\n"),
        ("slide.txt", "1\n2\na\n\nb\n3\n4\n", "1\n2\na\n\nb\na\n\nb\n3\n4\n"),
    )
    HUNK_SETTINGS = ("interHunkContext = 5", "algorithm = patience", "indentHeuristic = false")

    def test_hunk_settings_change_nothing(self, tmp_path, monkeypatch):
        repo = init_repo(tmp_path / "repo")
        for version in (1, 2):
            for name, *texts in self.HUNK_FILES:
                (repo / name).write_text(texts[version - 1])
            commit_all(repo, f"version {version}", version)
        monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")
        monkeypatch.setenv("GIT_CONFIG_GLOBAL", os.devnull)
        plain_log = run_git(str(repo), ["log", "-p"])
        plain = tmp_path / "plain.jsonl"
        write_commits(mine_repository(repo), str(plain))
        hostile = tmp_path / "gitconfig"
        monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(hostile))
        for setting in self.HUNK_SETTINGS:
            hostile.write_text(f"[diff]\n\t{setting}\n")
            assert run_git(str(repo), ["log", "-p"]) != plain_log, setting
        hostile.write_text("[diff]\n" + "".join(f"\t{s}\n" for s in self.HUNK_SETTINGS))
        mined = tmp_path / "hostile.jsonl"
        write_commits(mine_repository(repo), str(mined))
        assert mined.read_bytes() == plain.read_bytes()


class TestLineBreaks:
    """Git ends lines with "\\n" only; "\\r" and form feeds are line content."""

    CONTENT = 'z = "a\rb"\nx = 1\x0c# todo: fix\ncrlf = 1\r\n'

    def repo(self, tmp_path):
        repo = init_repo(tmp_path / "repo")
        (repo / "f.py").write_bytes(self.CONTENT.encode())
        commit_all(repo, "add f", 1)
        return repo

    def test_mined_diff_keeps_lines_whole(self, tmp_path):
        (commit,) = mine_repository(self.repo(tmp_path))
        doc = parse_unified_diff(commit.diff_text)
        assert [line[1:] for line in doc.lines] == self.CONTENT.split("\n")[:-1]

    def test_run_git_keeps_lines_whole(self, tmp_path):
        assert run_git(str(self.repo(tmp_path)), ["show", "HEAD:f.py"]) == self.CONTENT


class TestLogSegmentation:
    def test_synthetic_stream(self):
        stream = """\
commit aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa
Author: A <a@example.com>
Date:   Mon Jan 1 00:00:01 2021 +0000

    First change. Body text
    second message line.

diff --git a/f.py b/f.py
--- a/f.py
+++ b/f.py
@@ -1 +1 @@
-old
+new
\0commit bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb
Author: A <a@example.com>
Date:   Mon Jan 1 00:00:00 2021 +0000

    Initial

diff --git a/f.py b/f.py
--- /dev/null
+++ b/f.py
@@ -0,0 +1 @@
+old
""".encode().splitlines(keepends=True)
        commits = list(iter_log_commits(stream, repo="r"))
        assert [c.commit_id for c in commits] == ["a" * 40, "b" * 40]
        assert commits[0].message == "First change. Body text\nsecond message line."
        assert commits[0].diff_text.startswith("diff --git a/f.py b/f.py")
        assert "+new" in commits[0].diff_text
        assert "+old" in commits[1].diff_text
        assert all(c.repo == "r" for c in commits)

    def test_commit_header_inside_diff_not_split(self):
        # a context line mentioning "commit" is indented by the diff marker
        stream = """\
commit cccccccccccccccccccccccccccccccccccccccc
Author: A <a@example.com>
Date:   Mon Jan 1 00:00:00 2021 +0000

    touch docs

diff --git a/doc.md b/doc.md
--- a/doc.md
+++ b/doc.md
@@ -1,2 +1,2 @@
 commit abc1234 explains this
-x
+y
""".encode().splitlines(keepends=True)
        commits = list(iter_log_commits(stream))
        assert len(commits) == 1
        assert "commit abc1234 explains this" in commits[0].diff_text

    def test_commit_without_diff(self):
        stream = [
            b"commit dddddddddddddddddddddddddddddddddddddddd\n",
            b"Author: A <a@example.com>\n",
            b"Date:   Mon Jan 1 00:00:00 2021 +0000\n",
            b"\n",
            b"    empty merge\n",
        ]
        commits = list(iter_log_commits(stream))
        assert len(commits) == 1
        assert commits[0].diff_text == ""
        assert commits[0].message == "empty merge"


class TestCommitPersistence:
    def test_round_trip(self, mining_repo, tmp_path):
        commits = list(mine_repository(mining_repo))
        path = str(tmp_path / "commits.jsonl")
        assert write_commits(commits, path) == 5
        assert list(read_commits(path)) == commits

    def test_out_that_is_not_a_regular_file_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="not a regular file"):
            write_commits(iter([]), str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_malformed_record_skipped(self, mining_repo, tmp_path, caplog):
        commits = list(mine_repository(mining_repo))
        path = tmp_path / "commits.jsonl"
        write_commits(commits, str(path))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{broken\n")
            fh.write(json.dumps({"commit_id": "a" * 40, "message": "m", "diff_text": None}) + "\n")
        with caplog.at_level(logging.WARNING, logger="staletodo.mining"):
            assert len(list(read_commits(str(path)))) == 5
        assert caplog.records[-1].getMessage() == (
            "skipping malformed commit record at line 7: not strings: diff_text"
        )
        assert len(caplog.records) == 2

    def test_record_without_repo_reads_back_with_empty_repo(self):
        record = {"commit_id": "a" * 40, "message": "m", "diff_text": "d"}
        stream = io.StringIO(json.dumps(record) + "\n")
        assert list(read_commit_stream(stream)) == [RawCommit("a" * 40, "m", "d", repo="")]

    def test_record_missing_a_field_skipped_with_warning(self, caplog):
        lines = [json.dumps({"message": "m", "diff_text": "d", "repo": "r"}), "[1]"]
        with caplog.at_level(logging.WARNING, logger="staletodo.mining"):
            assert list(read_commit_stream(io.StringIO("\n".join(lines) + "\n"))) == []
        assert [r.getMessage() for r in caplog.records] == [
            "skipping malformed commit record at line 1: 'commit_id'",
            "skipping malformed commit record at line 2:"
            " list indices must be integers or slices, not str",
        ]


_HEADER_RE = re.compile(r"^commit ([0-9a-f]{64}|[0-9a-f]{40})\b")


def reference_log_commits(lines, repo=""):
    """The per-line segmenter of git log -p without -z, where a blank line
    ends every commit but the last: the reference for iter_log_commits."""
    commit_id = None
    message_lines, diff_lines = [], []
    in_diff = False

    def flush():
        if commit_id is None:
            return None
        message = "\n".join(message_lines).strip("\n")
        diff_text = "\n".join(diff_lines) + ("\n" if diff_lines else "")
        return RawCommit(commit_id=commit_id, message=message, diff_text=diff_text, repo=repo)

    for raw in lines:
        line = raw.rstrip("\n")
        header = _HEADER_RE.match(line)
        if header:
            done = flush()
            if done:
                yield done
            commit_id = header.group(1)
            message_lines, diff_lines = [], []
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
        elif not line and message_lines:
            message_lines.append("")
    done = flush()
    if done:
        yield done


def reference_from_bytes(data: bytes, repo=""):
    """Decode as io.TextIOWrapper(errors="replace", newline="\\n") did, then
    segment line by line."""
    text = data.decode("utf-8", errors="replace")
    return list(reference_log_commits(re.findall(r"[^\n]*\n|[^\n]+\Z", text), repo))


HEX = "0123456789abcdef"
SHAS = st.one_of(st.text(HEX, min_size=40, max_size=40), st.text(HEX, min_size=64, max_size=64))
# Pieces of line content: a "\r" and a form feed are content, multibyte
# characters and invalid UTF-8 fall across read blocks, and text that reads
# like a commit header or a diff header must stay where it is.
PIECES = st.one_of(
    st.sampled_from([
        b"x", b" ", b"todo", b"\r", b"\x0c", "é".encode(), "€".encode(), "𝄞".encode(),
        b"\xff", b"\xe2\x82", b"\xf0\x9d", b"diff --git a/x b/x", b"commit ",
    ]),
    SHAS.map(lambda sha: f"commit {sha}".encode()),
)
LINE = st.lists(PIECES, max_size=5).map(b"".join)
DIFF_LINE = st.tuples(
    st.sampled_from([b" ", b"+", b"-", b"\\ "]), st.lists(st.one_of(PIECES, st.just(b"\0")), max_size=5)
).map(lambda t: t[0] + b"".join(t[1]))


@st.composite
def commit_texts(draw):
    """One commit as git log -p writes it, without the separator after it."""
    text = b"commit " + draw(SHAS).encode() + b"\n"
    if draw(st.booleans()):
        text += b"Merge: 1234567 89abcde\n"
    text += b"Author: A <a@example.com>\nDate:   Mon Jan 1 00:00:00 2021 +0000\n"
    message = draw(st.lists(LINE, max_size=4))  # a blank line in it is "    "
    if message:
        text += b"\n" + b"".join(b"    " + line + b"\n" for line in message)
    diffs = [
        b"diff --git a/%s b/%s\n--- a/%s\n+++ b/%s\n@@ -1,2 +1,2 @@\n" % ((name,) * 4)
        + b"".join(line + b"\n" for line in draw(st.lists(DIFF_LINE, max_size=6)))
        for name in draw(st.lists(st.sampled_from([b"a.py", b"b c.java"]), max_size=2))
    ]
    return text + (b"\n" + b"".join(diffs) if diffs else b"")


def split_blocks(data: bytes, cuts) -> list[bytes]:
    edges = [0, *sorted(c for c in cuts if 0 < c < len(data)), len(data)]
    return [data[a:b] for a, b in zip(edges, edges[1:])]


class TestRecordSegmenterOracle:
    """git log -p -z read in blocks gives the commits that the per-line
    reference gives for the same log without -z."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(commit_texts(), max_size=4), st.data())
    def test_matches_per_line_reference(self, commits, data):
        plain = b"\n".join(commits)
        zero = b"\0".join(commits)
        cuts = data.draw(st.lists(st.integers(0, max(len(zero), 1)), max_size=12))
        mined = list(iter_log_commits(split_blocks(zero, cuts), repo="r"))
        assert mined == reference_from_bytes(plain, repo="r")
        assert len(mined) == len(commits)


class TestGitFailure:
    def test_broken_history_raises_gits_error(self, broken_repo):
        repo, blob = broken_repo
        with pytest.raises(GitFailed) as failure:
            list(mine_repository(str(repo)))
        assert str(failure.value) == f"fatal: unable to read {blob}"

    def test_closing_early_raises_nothing(self, mining_repo, broken_repo):
        for repo in (mining_repo, broken_repo[0]):
            commits = mine_repository(str(repo))
            assert next(commits).commit_id == git(repo, "rev-parse", "HEAD").strip()
            commits.close()


@pytest.fixture(scope="module")
def hostile_history(tmp_path_factory):
    """A merge, an empty commit, a commit without a message, a NUL file that
    .gitattributes forces to text, quoted and non-ASCII paths, and content
    that is not UTF-8 or holds "\\r" and form feeds."""
    repo = init_repo(tmp_path_factory.mktemp("records") / "repo")
    (repo / "a.py").write_bytes(b"x = 1  # todo: \xe9t\xe9\r\ny\x0c = 2\n")
    (repo / "t\tab.py").write_text("# TODO: tab\n", encoding="utf-8")
    (repo / 'é "q".py').write_text("x = 'é'  # todo: 𝄞\n", encoding="utf-8")
    commit_all(repo, "Add files\n\nWith a body\n\n    and an indented line.", 1)
    git(repo, "commit", "-q", "--allow-empty", "-m", "empty", date="2021-01-01T00:00:02 +0000")
    git(repo, "checkout", "-q", "-b", "side")
    (repo / "side.py").write_text("# todo: side\n", encoding="utf-8")
    commit_all(repo, "side", 3)
    git(repo, "checkout", "-q", "-")
    (repo / "a.py").write_bytes(b"x = 2  # todo: \xe9t\xe9\r\ny\x0c = 2\n")
    commit_all(repo, "main", 4)
    git(repo, "merge", "-q", "--no-edit", "side", date="2021-01-01T00:00:05 +0000")
    (repo / ".gitattributes").write_text("*.bin diff\n", encoding="utf-8")
    (repo / "n.bin").write_bytes(b"x\0commit " + b"0" * 40 + b"\n\0\n \0y\n")
    commit_all(repo, "Force a NUL file to text", 6)
    git(repo, "commit", "-q", "--allow-empty", "--allow-empty-message", "-m", "",
        date="2021-01-01T00:00:07 +0000")
    return repo


class TestRealHistory:
    def test_mined_as_the_reference_reads_the_log_without_z(self, hostile_history, monkeypatch):
        args = [arg for arg in GIT_LOG_ARGS if arg != "-z"]
        plain = subprocess.run(
            ["git", "-C", str(hostile_history), *args], capture_output=True, check=True
        ).stdout
        expected = reference_from_bytes(plain, repo="repo")
        assert [c.commit_id for c in expected] == git(hostile_history, "rev-list", "HEAD").split()
        nul_commit = next(c for c in expected if c.message == "Force a NUL file to text")
        assert "+x\0commit " + "0" * 40 + "\n+\0\n+ \0y\n" in nul_commit.diff_text
        assert {c.message for c in expected if not c.diff_text} >= {"", "empty", "Merge branch 'side'"}
        for block in (1, 5, mining.READ_BLOCK):
            monkeypatch.setattr(mining, "READ_BLOCK", block)
            assert list(mine_repository(str(hostile_history))) == expected
