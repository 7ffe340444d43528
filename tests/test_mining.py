"""Mining commit histories through the git CLI."""

import io
import json
import logging
import os
import subprocess

import pytest

from helpers import commit_all, git, init_repo
from staletodo.diffs import RawCommit, parse_unified_diff
from staletodo.mining import (
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

commit bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb
Author: A <a@example.com>
Date:   Mon Jan 1 00:00:00 2021 +0000

    Initial

diff --git a/f.py b/f.py
--- /dev/null
+++ b/f.py
@@ -0,0 +1 @@
+old
""".splitlines(keepends=True)
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
""".splitlines(keepends=True)
        commits = list(iter_log_commits(stream))
        assert len(commits) == 1
        assert "commit abc1234 explains this" in commits[0].diff_text

    def test_commit_without_diff(self):
        stream = [
            "commit dddddddddddddddddddddddddddddddddddddddd\n",
            "Author: A <a@example.com>\n",
            "Date:   Mon Jan 1 00:00:00 2021 +0000\n",
            "\n",
            "    empty merge\n",
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
