"""Repository scanning for obsolete TODO comments."""

import json
import math
import os
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    MIXED_LANGUAGE_COMMIT,
    PYTHON_ONLY_COMMIT,
    commit_all,
    diff_commit,
    git,
    init_repo,
)
from staletodo.comments import Language, contains_todo, iter_line_comments
from staletodo.corpus import extract_triple
from staletodo.diffs import LineKind, normalize_text
from staletodo.mining import NotARepository, mine_repository
import staletodo.scan as scan
from staletodo.scan import (
    FindingKind,
    _has_context_todo,
    _head_todo_index,
    candidate_triples,
    language_for_path,
    normalize_ws,
    scan_repository,
    write_findings,
)


def always_resolved(samples):
    return [1.0] * len(samples)


def never_resolved(samples):
    return [0.0] * len(samples)


class TestCandidateTriples:
    def test_context_todos_only(self, scan_repo):
        commits = list(mine_repository(scan_repo))
        triples = candidate_triples(commits)
        todos = sorted(sample.todo_comment for sample, _, _ in triples)
        assert todos == ["todo: flush the queue", "todo: retry the socket"]
        for sample, todo, file_path in triples:
            assert sample.todo_line_kind.value == "context"
            assert file_path in ("a.py", "b.py")

    def test_same_as_keeping_context_triples_of_every_kind(self, scan_repo):
        removed = diff_commit(
            {"e.py": [" def send(msg):", "-    # todo: log it", "+    log(msg)"]}, "e0ffee3", "log it."
        )
        commits = [*mine_repository(scan_repo), MIXED_LANGUAGE_COMMIT, PYTHON_ONLY_COMMIT, removed]
        every_kind = [extract_triple(commit, tuple(Language)) for commit in commits]
        assert candidate_triples(commits) == [
            result
            for result in every_kind
            if isinstance(result, tuple) and result[0].todo_line_kind is LineKind.CONTEXT
        ]
        assert any(
            isinstance(result, tuple) and result[0].todo_line_kind is LineKind.REMOVED
            for result in every_kind
        )

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

    def test_paths_git_quotes_give_candidates(self, tmp_path):
        # git C-quotes the tab, '"' and '\\' names even with core.quotePath off.
        names = ["é.py", "ta\tb.py", 'q"x\\y.py']
        repo = init_repo(tmp_path / "repo")
        for name in names:
            (repo / name).write_text("def f():\n    # todo: flush the queue\n    queue.open()\n")
        commit_all(repo, "add files", 1)
        for serial, name in enumerate(names, start=2):
            (repo / name).write_text(
                "def f():\n    # todo: flush the queue\n    queue.flush()\n    queue.open()\n"
            )
            commit_all(repo, "flush the queue.", serial)

        triples = candidate_triples(mine_repository(repo))
        assert sorted(path for _, _, path in triples) == sorted(names)
        findings = scan_repository(repo, always_resolved)
        assert sorted((f.file_path, f.line_no) for f in findings) == sorted(
            (name, 2) for name in names
        )

    def test_form_feed_and_carriage_return_stay_inside_their_line(self, tmp_path):
        repo = init_repo(tmp_path / "repo")
        before = 'z = "a\rb"\nx = 1\x0c# todo: fix the form\ny = 2\n'
        (repo / "f.py").write_bytes(before.encode())
        commit_all(repo, "add f", 1)
        (repo / "f.py").write_bytes(before.replace("y = 2", "y = 3").encode())
        commit_all(repo, "bump y.", 2)

        triples = candidate_triples(mine_repository(repo))
        assert [(s.todo_comment, path) for s, _, path in triples] == [
            ("todo: fix the form", "f.py")
        ]
        assert ' z = "a\rb"' in triples[0][0].code_change.split("\n")


# Diff line text: a TODO comment or none amid code, line breaks the parser
# keeps inside a line, and characters whose case mapping changes the length
# ("İ") or is not ASCII ("ſ", "K" as the Kelvin sign).
_NOISE = st.lists(
    st.one_of(
        st.sampled_from([
            "    x = 1", "q.flush()", "#", "//", " ", "\r", "\x0c", "é", "İ", "ſ", "\u212a",
            "to", "do", '"todo"',
        ]),
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=3),
    ),
    max_size=2,
).map("".join)
# Nothing, on five lines in nine, or a TODO comment in one of four cases.
_TODO = st.sampled_from(["# todo: flush it", "// ToDo: retry it", "/* tOdO */", "TODO", *[""] * 5])
_LINE_TEXT = st.tuples(_NOISE, _TODO, _NOISE).map("".join)
_HUNK = st.lists(st.tuples(st.sampled_from("+- "), _LINE_TEXT), min_size=1, max_size=8)


def unfiltered_candidates(commits):
    """candidate_triples without its pre-filter."""
    results = [extract_triple(c, tuple(Language), kinds=(LineKind.CONTEXT,)) for c in commits]
    return [result for result in results if isinstance(result, tuple)]


class TestCandidatePreFilter:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["a.py", "B.java", "c.txt"]), _HUNK), max_size=3))
    @example([("a.py", [(" ", "def f():"), (" ", "\r  # ToDo: flush\r"), ("+", "  q.flush()")])])
    @example([("a.py", [(" ", "def f():"), ("+", "  # todo: flush"), ("+", "  q.flush()")])])
    @example([("a.py", [(" ", "def f():"), ("-", "  # TODO: flush"), ("+", "  q.flush()")])])
    @example([("B.java", [(" ", "\x0cint é; // tOdO: close"), ("-", "a();"), ("+", "b();")])])
    def test_never_changes_the_candidates(self, files):
        commit = diff_commit({path: [m + t for m, t in body] for path, body in files}, "c0ffee1")
        assert candidate_triples([commit]) == unfiltered_candidates([commit])

    def test_skips_exactly_the_commits_without_a_context_line_todo(self, scan_repo):
        added = diff_commit({"e.py": [" def f(m):", "+    # TODO: log it", "+    log(m)"]}, "e0")
        removed = diff_commit({"e.py": [" def f(m):", "-    # todo: log it", "+    log(m)"]}, "e1")
        context = diff_commit({"e.py": [" def f(m):  # ToDo: log it\r", "+    log(m)"]}, "e2")
        commits = [*mine_repository(scan_repo), added, removed, context]
        assert candidate_triples(commits) == unfiltered_candidates(commits)
        assert [s.commit_id for s, _, _ in candidate_triples([added, removed, context])] == ["e2"]


# The pre-filter before it was a loop over str.lower.
_CONTEXT_TODO_RE = re.compile(r"^ .*todo", re.I | re.M)


class TestContextTodoTest:
    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.sampled_from(
        ["todo", "TODO", "tOdO", "to", "do", "t", "o", "İ", "ſ", "K", "\r", "\n", "\x0c",
         " ", "+", "-", "\\", "x", "é"]
    )).map("".join))
    @example("İİ todo")
    @example("+todo\n todo")
    @example("-TODO\n+x todo\n x")
    @example(" x\rTODO")
    @example("todo\n TODO")
    def test_matches_the_regular_expression(self, text):
        assert _has_context_todo(text) == bool(_CONTEXT_TODO_RE.search(text))


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

    def test_nan_score_gives_no_finding(self, scan_repo):
        # metrics.status_of calls a NaN score unresolved, as eval counts it.
        assert scan_repository(scan_repo, lambda samples: [math.nan] * len(samples)) == []
        scores = {"todo: flush the queue": math.nan, "todo: retry the socket": 0.9}
        findings = scan_repository(
            scan_repo, lambda samples: [scores[s.todo_comment] for s in samples]
        )
        assert [(f.todo_text, f.score) for f in findings] == [("todo: retry the socket", 0.9)]

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

        def score(samples):
            return [scores[sample.todo_comment] for sample in samples]

        findings = scan_repository(scan_repo, score)
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

    def test_every_candidate_scored_in_one_call(self, scan_repo):
        batches = []

        def score(samples):
            batches.append(list(samples))
            return always_resolved(samples)

        scan_repository(scan_repo, score)
        expected = [sample for sample, _, _ in candidate_triples(mine_repository(scan_repo))]
        assert batches == [expected]

    def test_shared_key_takes_the_candidate_that_reaches_the_threshold(self, tmp_path):
        repo = init_repo(tmp_path / "repo")
        (repo / "a.py").write_text("def fill():\n    # todo: flush the queue\n    queue.open()\n")
        commit_all(repo, "add fill", 1)
        (repo / "a.py").write_text(
            "def fill():\n    # todo: flush the queue\n    queue.open()\n    queue.close()\n"
        )
        first = commit_all(repo, "close the queue.", 2)
        (repo / "a.py").write_text(
            "def fill():\n    # todo: flush the queue\n    queue.flush()\n"
            "    queue.open()\n    queue.close()\n"
        )
        second = commit_all(repo, "flush the queue.", 3)
        candidates = candidate_triples(mine_repository(repo))
        assert sorted((s.commit_id, path) for s, _, path in candidates) == sorted(
            [(first, "a.py"), (second, "a.py")]
        )

        for below, reaching in ((first, second), (second, first)):
            scores = {below: 0.49, reaching: 0.5}
            findings = scan_repository(
                repo, lambda samples: [scores[s.commit_id] for s in samples]
            )
            assert [(f.file_path, f.line_no, f.commit_id, f.score) for f in findings] == [
                ("a.py", 2, reaching, 0.5)
            ]


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
    """Reference HEAD index: one git show per file, every normalized line lexed."""
    index = {}
    for path in git(repo, "ls-tree", "-r", "-z", "--name-only", "HEAD").split("\0"):
        language = language_for_path(path)
        if language is None:
            continue
        content = git(repo, "show", f"HEAD:{path}")
        if "\0" in content:  # binary: git grep -I skips it
            continue
        for line_no, line in enumerate(content.split("\n"), start=1):
            for span in iter_line_comments(normalize_text(line), language):
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
            "h.py": "# TODO: drop after release 20240101 ships\n",
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

    def test_todo_with_a_hex_run_is_found_at_head(self, tmp_path):
        """A candidate's text has its hex runs replaced; HEAD's key must too."""
        repo = init_repo(tmp_path / "repo")
        (repo / "a.py").write_text("x = 1\n# TODO: drop after release 20240101 ships\ny = 2\n")
        commit_all(repo, "add module", 1)
        (repo / "a.py").write_text("x = 1\n# TODO: drop after release 20240101 ships\ny = 3\n")
        resolving = commit_all(repo, "set y to 3", 2)
        assert [
            (f.file_path, f.line_no, f.commit_id, f.classification, f.todo_text)
            for f in scan_repository(str(repo), always_resolved)
        ] == [
            ("a.py", 2, resolving, FindingKind.POTENTIAL_OBSOLETE,
             "todo: drop after release <commit_id> ships"),
        ]

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
    def test_record_fields(self, scan_repo, tmp_path):
        findings = scan_repository(scan_repo, always_resolved)
        path = tmp_path / "report.jsonl"
        write_findings(findings[:1], str(path))
        record = json.loads(path.read_text(encoding="utf-8"))
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


# Paths that pathspec magic, globbing, option parsing or C-quoting would
# misread, a directory, and a file that is not UTF-8 (b"\xe9" is Latin-1 "é").
INDEX_FILES = {
    b"a:b.py": "# todo: colon\n",
    b":top.py": "# todo: magic\n",
    b"*.py": "# todo: star\nx = 1  # TODO: star two\n",
    b"[x].py": "# todo: bracket\n",
    b"x.py": "# todo: not a bracket\n",
    b"sp ace.py": "# todo: space\n# todo: space\n",
    b"-lead.py": "# todo: lead\n",
    "é.py".encode(): "# todo: accent\n",
    b't\tab "q".py': "# todo: quoted\n",
    b"d/x.py": "# todo: in a directory\n",
    b"d/y.java": "// todo: java\n",
    b"\xe9.py": "# todo: latin-1 name\n",
    b"gone.py": "# todo: deleted at head\n",
}


@pytest.fixture(scope="module")
def index_repo(tmp_path_factory):
    repo = init_repo(tmp_path_factory.mktemp("index") / "repo")
    for name, content in INDEX_FILES.items():
        path = os.path.join(os.fsencode(repo), name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    commit_all(repo, "add files", 1)
    os.remove(os.path.join(os.fsencode(repo), b"gone.py"))
    commit_all(repo, "delete gone.py", 2)
    return repo


# Each name as a diff header gives it once mined: not UTF-8 becomes U+FFFD.
INDEX_PATHS = sorted(
    {name.decode("utf-8", errors="replace") for name in INDEX_FILES} | {"d", "missing.py"}
)


class TestRestrictedHeadIndex:
    """The index over some files equals the whole tree's index cut to them."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(INDEX_PATHS), min_size=1, unique=True),
           st.sampled_from([1, 12, scan.GREP_PATH_BYTES]))
    def test_matches_the_full_index_cut_to_the_files(self, index_repo, paths, budget):
        def cut(index):
            return {key: line for key, line in index.items() if key[0] in paths}

        full = _head_todo_index(str(index_repo))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scan, "GREP_PATH_BYTES", budget)
            restricted = _head_todo_index(str(index_repo), paths)
        assert cut(restricted) == cut(full)
        assert restricted.items() <= full.items()

    def test_reads_only_the_files_in_batches(self, index_repo, monkeypatch):
        calls = []
        run_git = scan.run_git
        monkeypatch.setattr(scan, "run_git", lambda *a, **k: calls.append(a[1]) or run_git(*a, **k))
        monkeypatch.setattr(scan, "GREP_PATH_BYTES", 12)
        paths = ["*.py", "[x].py", "a:b.py", "gone.py"]
        assert _head_todo_index(str(index_repo), paths) == {
            ("*.py", "todo: star"): 1,
            ("*.py", "todo: star two"): 2,
            ("[x].py", "todo: bracket"): 1,
            ("a:b.py", "todo: colon"): 1,
        }
        assert [args[args.index("--") + 1 :] for args in calls] == [
            ["*.py", "[x].py"], ["a:b.py"], ["gone.py"]
        ]

    def test_a_name_that_is_not_utf8_reads_the_whole_tree(self, index_repo):
        name = "\ufffd.py"
        index = _head_todo_index(str(index_repo), [name])
        assert index == _head_todo_index(str(index_repo))
        assert index[(name, "todo: latin-1 name")] == 1
