"""Tests of the benchmark itself: seeded generation and the output checks.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from staletodo import cli  # noqa: E402
from staletodo.corpus import read_corpus, split_dataset  # noqa: E402
from staletodo.metrics import Status  # noqa: E402
from staletodo.model import load_model, predict_scores  # noqa: E402
from staletodo.scan import scan_repository, write_findings  # noqa: E402

SEED = 7
SMALL = workloads.scaled(workloads.SPECS["wide"], 0.15)


def rewrite(src: Path, dst: Path, edit) -> Path:
    """Copy a JSONL file, passing the list of records through edit."""
    records = [json.loads(line) for line in src.read_text().splitlines()]
    dst.write_text("".join(json.dumps(r) + "\n" for r in edit(records)))
    return dst


def failed(results) -> list[str]:
    return [name for name, passed, _ in results if not passed]


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    truth = workloads.generate(SMALL, SEED, root)
    run.journey(SMALL, SEED, root / "repo", root / "out", cli)
    return root, truth


def test_same_seed_same_history_and_truth(tmp_path):
    first = workloads.generate(SMALL, SEED, tmp_path / "a")
    second = workloads.generate(SMALL, SEED, tmp_path / "b")
    other = workloads.generate(SMALL, SEED + 1, tmp_path / "c")
    assert first == second
    assert first["head"] != other["head"]
    for name in ("a", "b"):
        log = subprocess.run(
            ["git", "-C", str(tmp_path / name / "repo"), "rev-list", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.split()
        assert log == [c["commit_id"] for c in reversed(first["commits"])]


def test_truth_matches_the_head_tree(workload):
    root, truth = workload
    for todo in truth["head_todos"]:
        content = subprocess.run(
            ["git", "-C", str(root / "repo"), "show", f"HEAD:{todo['file']}"],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        assert todo["text"][len("todo"):] in content[todo["line"] - 1].lower()
    kinds = {c["event"] for c in truth["commits"]}
    assert kinds == {"none", "introduced", "untouched", "resolved", "cleanup"}
    assert any(o["shared_text"] for o in truth["obsolete"])


def test_mine_check(workload, tmp_path):
    root, truth = workload
    commits = root / "out" / "commits.jsonl"
    assert failed(checks.check_mine(commits, root / "repo", truth)) == []
    dropped = rewrite(commits, tmp_path / "dropped.jsonl", lambda rs: rs[1:])
    assert failed(checks.check_mine(dropped, root / "repo", truth)) == ["mine.commits"]

    def reword(rs):
        rs[3]["message"] += " again"
        return rs
    reworded = rewrite(commits, tmp_path / "reworded.jsonl", reword)
    assert failed(checks.check_mine(reworded, root / "repo", truth)) == ["mine.commits"]


def test_build_check(workload, tmp_path):
    root, truth = workload
    corpus = root / "out" / "corpus.jsonl"
    assert failed(checks.check_build(corpus, truth)) == []

    def flip(rs):
        rs[0]["label"] = "negative" if rs[0]["label"] == "positive" else "positive"
        return rs
    flipped = rewrite(corpus, tmp_path / "flipped.jsonl", flip)
    assert failed(checks.check_build(flipped, truth)) == ["build.samples"]
    missing = rewrite(corpus, tmp_path / "missing.jsonl", lambda rs: rs[:-1])
    assert failed(checks.check_build(missing, truth)) == ["build.samples"]


def test_eval_check(workload, tmp_path):
    root, _ = workload
    records = root / "out" / "records.jsonl"
    test = split_dataset(read_corpus(str(root / "out" / "corpus.jsonl")), seed=SEED).test
    scores = list(predict_scores(list(test), load_model(str(root / "out" / "model.npz"))))
    labels = [s.label.value for s in test]
    assert failed(checks.check_eval(records, scores, labels)) == []

    def shift_f1(rs):
        rs[0]["f1"] = (rs[0]["f1"] or 0.0) + 0.01
        return rs
    shifted = rewrite(records, tmp_path / "f1.jsonl", shift_f1)
    assert failed(checks.check_eval(shifted, scores, labels)) == ["eval.classifier"]

    def lower_tcmo(rs):
        for r in rs:
            if r["method"] == "TCMO":
                r["recall"] = -1.0
        return rs
    lowered = rewrite(records, tmp_path / "tcmo.jsonl", lower_tcmo)
    assert failed(checks.check_eval(lowered, scores, labels)) == ["eval.tcmo_recall"]


def ideal_findings(truth: dict) -> list[dict]:
    """What a scan that reports every planted obsolete TODO would write."""
    return [
        {
            "file_path": o["file"],
            "line_no": o["head_line"],
            "todo_text": o["text"],
            "commit_id": o["commit"],
            "score": 0.9,
            "classification": "intermediate_obsolete" if o["removed"] else "potential_obsolete",
        }
        for o in truth["obsolete"]
    ]


def test_scan_check(workload, tmp_path):
    _, truth = workload
    path = tmp_path / "findings.jsonl"
    ideal = ideal_findings(truth)
    everything = {o["text"] for o in truth["obsolete"]}
    path.write_text("".join(json.dumps(f) + "\n" for f in ideal))
    assert failed(checks.check_scan(path, truth, everything)) == []

    def corrupt(edit, flagged=everything):
        findings = [dict(f) for f in ideal]
        edit(findings)
        path.write_text("".join(json.dumps(f) + "\n" for f in findings))
        return failed(checks.check_scan(path, truth, flagged))

    potential = next(i for i, f in enumerate(ideal) if f["line_no"] is not None)
    intermediate = next(i for i, f in enumerate(ideal) if f["line_no"] is None)

    def move(fs):
        fs[potential]["line_no"] += 1
    assert "scan.potential_at_head" in corrupt(move)

    def resurrect(fs):
        fs[intermediate]["todo_text"] = truth["head_todos"][0]["text"]
        fs[intermediate]["file_path"] = truth["head_todos"][0]["file"]
    assert "scan.intermediate_gone" in corrupt(resurrect)

    def drop(fs):
        del fs[intermediate]
    assert corrupt(drop) == ["scan.obsolete"]
    # A TODO the model did not flag must not be reported, and need not be.
    unflagged = everything - {ideal[intermediate]["todo_text"]}
    assert corrupt(drop, unflagged) == []
    assert corrupt(lambda fs: None, unflagged) == ["scan.obsolete"]


def test_scan_check_counts_the_same_text_fault(workload, tmp_path):
    """Even when every candidate is predicted resolved, the scan merges the
    same-text TODOs, so one TODO of each pair goes unreported."""
    root, truth = workload
    findings = scan_repository(str(root / "repo"), lambda sample: Status.RESOLVED)
    write_findings(findings, str(tmp_path / "findings.jsonl"))
    everything = {o["text"] for o in truth["obsolete"]}
    results = checks.check_scan(tmp_path / "findings.jsonl", truth, everything)
    assert failed(results) == ["scan.same_text_pair"] * SMALL.pairs


def test_fails_outside_a_checkout(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((BENCH.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
