"""Repository scanning for obsolete TODO comments."""

import json

import pytest

from helpers import (
    MIXED_LANGUAGE_COMMIT,
    PYTHON_ONLY_COMMIT,
    commit_all,
    git,
    init_repo,
)
from staletodo.comments import Language, contains_todo, iter_line_comments
from staletodo.metrics import Status
from staletodo.mining import NotARepository, mine_repository
from staletodo.scan import (
    FindingKind,
    _head_todo_index,
    candidate_triples,
    finding_record,
    language_for_path,
    normalize_ws,
    scan_repository,
    write_findings,
)


def always_resolved(sample):
    return Status.RESOLVED


def never_resolved(sample):
    return Status.UNRESOLVED


class TestCandidateTriples:
    def test_context_todos_only(self, scan_repo):
        commits = list(mine_repository(scan_repo))
        triples = candidate_triples(commits)
        todos = sorted(sample.todo_comment for sample, _, _ in triples)
        assert todos == ["todo: flush the queue", "todo: retry the socket"]
        for sample, todo, file_path in triples:
            assert sample.todo_line_kind.value == "context"
            assert file_path in ("a.py", "b.py")

    def test_languages_from_extension(self):
        assert language_for_path("x/y.py").value == "python"
        assert language_for_path("A.java").value == "java"
        assert language_for_path("notes.txt") is None
        assert language_for_path(None) is None

    def test_only_files_with_a_language_are_lexed(self):
        triples = candidate_triples([MIXED_LANGUAGE_COMMIT])
        assert [(s.todo_comment, path) for s, _, path in triples] == [
            ("todo: flush the queue", "c.py")
        ]

    def test_each_file_lexed_by_its_own_language(self):
        triples = candidate_triples([PYTHON_ONLY_COMMIT])
        assert [(s.todo_comment, todo.language, path) for s, todo, path in triples] == [
            ("todo: round half up", Language.PYTHON, "d.py")
        ]


class TestScanRepository:
    def test_partition_with_permissive_predictor(self, scan_repo):
        findings = scan_repository(scan_repo, always_resolved)
        by_kind = {f.classification: f for f in findings}
        assert len(findings) == 2

        potential = by_kind[FindingKind.POTENTIAL_OBSOLETE]
        assert potential.todo_text == "todo: flush the queue"
        assert potential.file_path == "a.py"
        assert potential.line_no == 2

        intermediate = by_kind[FindingKind.INTERMEDIATE_OBSOLETE]
        assert intermediate.todo_text == "todo: retry the socket"
        assert intermediate.line_no is None

    def test_no_predictions_no_findings(self, scan_repo):
        assert scan_repository(scan_repo, never_resolved) == []

    def test_scan_is_read_only(self, scan_repo):
        head_before = git(scan_repo, "rev-parse", "HEAD").strip()
        status_before = git(scan_repo, "status", "--porcelain")
        scan_repository(scan_repo, always_resolved)
        assert git(scan_repo, "rev-parse", "HEAD").strip() == head_before
        assert git(scan_repo, "status", "--porcelain") == status_before == ""

    def test_repo_without_todos_empty_report(self, tmp_path):
        repo = init_repo(tmp_path / "clean_repo")
        (repo / "m.py").write_text("x = 1\n", encoding="utf-8")
        commit_all(repo, "add module", 1)
        (repo / "m.py").write_text("x = 2\n", encoding="utf-8")
        commit_all(repo, "bump", 2)
        assert scan_repository(repo, always_resolved) == []

    def test_findings_sorted_by_score(self, scan_repo):
        scores = {"todo: flush the queue": 0.7, "todo: retry the socket": 0.95}

        class Pred:
            def __init__(self, sample):
                self.status = Status.RESOLVED
                self.score = scores[sample.todo_comment]

        findings = scan_repository(scan_repo, Pred)
        assert [f.score for f in findings] == sorted(
            (f.score for f in findings), reverse=True
        )
        assert findings[0].todo_text == "todo: retry the socket"

    def test_resolving_commit_recorded(self, scan_repo):
        commits = list(mine_repository(scan_repo))
        findings = scan_repository(scan_repo, always_resolved)
        known_ids = {c.commit_id for c in commits}
        for finding in findings:
            assert finding.commit_id in known_ids


def same_text_repo(path, delete_later):
    """Two files hold the same TODO text, each resolved by its own commit."""
    repo = init_repo(path)
    (repo / "a.py").write_text("def fill():\n    # todo: flush the queue\n    queue.open()\n")
    (repo / "b.py").write_text("import pool\ndef drain():\n    # todo: flush the queue\n    pool.open()\n")
    commit_all(repo, "add fill and drain", 1)
    (repo / "a.py").write_text(
        "def fill():\n    # todo: flush the queue\n    queue.flush()\n    queue.open()\n"
    )
    resolved_a = commit_all(repo, "flush the queue when filling.", 2)
    (repo / "b.py").write_text(
        "import pool\ndef drain():\n    # todo: flush the queue\n    pool.flush()\n    pool.open()\n"
    )
    resolved_b = commit_all(repo, "flush the queue when draining.", 3)
    if delete_later:
        (repo / "b.py").write_text("import pool\ndef drain():\n    pool.flush()\n    pool.open()\n")
        commit_all(repo, "tidy old comments", 4)
    return repo, resolved_a, resolved_b


class TestSameTextInTwoFiles:
    def report(self, repo):
        return sorted(
            (f.file_path, f.line_no, f.commit_id, f.classification, f.todo_text)
            for f in scan_repository(repo, always_resolved)
        )

    def test_each_file_reported_with_its_own_commit(self, tmp_path):
        repo, resolved_a, resolved_b = same_text_repo(tmp_path / "repo", delete_later=False)
        potential = FindingKind.POTENTIAL_OBSOLETE
        assert self.report(repo) == [
            ("a.py", 2, resolved_a, potential, "todo: flush the queue"),
            ("b.py", 3, resolved_b, potential, "todo: flush the queue"),
        ]

    def test_deleted_copy_is_intermediate(self, tmp_path):
        repo, resolved_a, resolved_b = same_text_repo(tmp_path / "repo", delete_later=True)
        assert self.report(repo) == [
            ("a.py", 2, resolved_a, FindingKind.POTENTIAL_OBSOLETE, "todo: flush the queue"),
            ("b.py", None, resolved_b, FindingKind.INTERMEDIATE_OBSOLETE, "todo: flush the queue"),
        ]


def per_file_index(repo):
    """Reference HEAD index: one git show per file, every line lexed."""
    index = {}
    for path in git(repo, "ls-tree", "-r", "-z", "--name-only", "HEAD").split("\0"):
        language = language_for_path(path)
        if language is None:
            continue
        content = git(repo, "show", f"HEAD:{path}")
        if "\0" in content:  # binary: git grep -I skips it
            continue
        for line_no, line in enumerate(content.split("\n"), start=1):
            for span in iter_line_comments(line.lower(), language):
                index.setdefault((path, normalize_ws(span.text)), line_no)
    return index


class TestHeadIndex:
    def test_matches_per_file_reference_on_todo_keys(self, tmp_path):
        repo = init_repo(tmp_path / "repo")
        files = {
            "a b:c.py": "x = 1  # TODO: Tidy   this\n# todo: tidy this\n# a note\n",
            "X.PY": "# todo: upper-case extension\n",
            "src/M.java": "int a; // todo: java one\n/* TODO block */ int b; // todo: two\n",
            "s.py": "s = '# todo: in a string'\ntodo = 1  # no marker here\n",
            "notes.txt": "# todo: not source\n",
            "bin.py": "\0# todo: binary\n",
        }
        for name, content in files.items():
            (repo / name).parent.mkdir(parents=True, exist_ok=True)
            (repo / name).write_text(content)
        commit_all(repo, "add files", 1)

        def todo_keys(index):
            return {key: line for key, line in index.items() if contains_todo(key[1])}

        index = _head_todo_index(str(repo))
        assert todo_keys(index) == todo_keys(per_file_index(repo))
        assert index[("a b:c.py", "todo: tidy this")] == 1
        assert ("X.PY", "todo: upper-case extension") in index
        assert ("src/M.java", "todo: two") in index
        assert not [key for key in index if key[0] in ("notes.txt", "bin.py")]

    def test_no_todo_at_head_gives_empty_index(self, tmp_path):
        repo = init_repo(tmp_path / "repo")
        (repo / "m.py").write_text("x = 1  # a note\n")
        commit_all(repo, "add module", 1)
        assert _head_todo_index(str(repo)) == {}

    def test_repository_without_head_still_fails(self, tmp_path):
        repo = init_repo(tmp_path / "repo")
        with pytest.raises(NotARepository):
            _head_todo_index(str(repo))


class TestFindingReport:
    def test_record_fields(self, scan_repo):
        findings = scan_repository(scan_repo, always_resolved)
        record = finding_record(findings[0])
        assert set(record) == {
            "file_path",
            "line_no",
            "todo_text",
            "commit_id",
            "score",
            "classification",
        }

    def test_write_findings_jsonl(self, scan_repo, tmp_path):
        findings = scan_repository(scan_repo, always_resolved)
        path = tmp_path / "report.jsonl"
        assert write_findings(findings, str(path)) == 2
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert {p["classification"] for p in parsed} == {
            "potential_obsolete",
            "intermediate_obsolete",
        }
