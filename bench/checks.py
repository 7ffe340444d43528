"""Checks of each stage's output against the workload's ground truth.

Every check compares with what the generator planted or with a property the
method must have, never with a saved copy of an earlier run. Each returns
``(name, passed, detail)`` tuples; the runner counts each tuple as one
operation.
"""

from __future__ import annotations

import json
import subprocess
from collections import Counter
from pathlib import Path

Check = tuple[str, bool, str]


def _records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _norm(text: str) -> str:
    return " ".join(text.split())


def check_mine(commits_path: Path, repo: Path, truth: dict) -> list[Check]:
    """Mined ids and messages equal ``git rev-list`` and the generator's record."""
    mined = _records(commits_path)
    ids = [r["commit_id"] for r in mined]
    rev_list = subprocess.run(
        ["git", "-C", str(repo), "rev-list", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.split()
    messages = {c["commit_id"]: c["message"] for c in truth["commits"]}
    wrong = [r["commit_id"] for r in mined if messages.get(r["commit_id"]) != r["message"]]
    passed = ids == rev_list and len(ids) == len(messages) and not wrong
    detail = f"{len(ids)} mined, {len(rev_list)} in rev-list, {len(wrong)} messages differ"
    return [("mine.commits", passed, detail)]


def check_build(corpus_path: Path, truth: dict) -> list[Check]:
    """Each sample is a planted one with its TODO and label; none is missing."""
    got = Counter((r["commit_id"], r["todo_comment"], r["label"]) for r in _records(corpus_path))
    planted = Counter(
        (c["commit_id"], c["todo"], c["label"]) for c in truth["commits"] if c["label"]
    )
    extra, missing = got - planted, planted - got
    detail = f"{sum(got.values())} samples, {sum(extra.values())} unplanted, {sum(missing.values())} missing"
    return [("build.samples", not extra and not missing, detail)]


def _ratios(tp: int, fp: int, fn: int) -> tuple:
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    f1 = None
    if precision is not None and recall is not None and precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= 1e-12


def check_eval(records_path: Path, scores, labels: list[str]) -> list[Check]:
    """The classifier row equals metrics recomputed from predict_scores; TCMO
    recall is at least that of each of its two parts."""
    rows = {r["method"]: r for r in _records(records_path)}
    predicted = [s >= 0.5 for s in scores]
    tp = sum(p and l == "positive" for p, l in zip(predicted, labels))
    fp = sum(p and l == "negative" for p, l in zip(predicted, labels))
    fn = sum(not p and l == "positive" for p, l in zip(predicted, labels))
    expected = _ratios(tp, fp, fn)
    row = rows.get("classifier", {})
    reported = (row.get("precision"), row.get("recall"), row.get("f1"))
    same = bool(row) and all(_close(a, b) for a, b in zip(expected, reported))
    checks = [("eval.classifier", same, f"recomputed {expected}, reported {reported}")]
    recalls = [rows.get(m, {}).get("recall") for m in ("TCMO", "TCO", "TMO")]
    parts = [r for r in recalls[1:] if r is not None]
    if recalls[0] is None:
        ordered = not parts  # no positives in the test split
    else:
        ordered = all(recalls[0] >= r for r in parts)
    checks.append(("eval.tcmo_recall", ordered, f"TCMO, TCO, TMO recall {recalls}"))
    return checks


def check_scan(findings_path: Path, truth: dict, flagged: set[str]) -> list[Check]:
    """Findings agree with the HEAD tree, and planted obsolete TODOs are
    reported in their own files.

    flagged holds the TODO texts of which at least one scan candidate scores
    0.5 or more: a correct scan reports exactly those. A TODO text planted
    in two files is one check, which expects both TODOs reported whatever
    the model says: a scan that keeps candidates apart by file reports both
    or, unflagged, neither; one that merges them by text fails it always.
    """
    findings = _records(findings_path)
    at_head = {(t["file"], t["line"]): t["text"] for t in truth["head_todos"]}
    texts_at_head = {(t["file"], t["text"]) for t in truth["head_todos"]}
    potential = [f for f in findings if f["classification"] == "potential_obsolete"]
    intermediate = [f for f in findings if f["classification"] == "intermediate_obsolete"]

    misplaced = [
        f for f in potential
        if at_head.get((f["file_path"], f["line_no"])) != _norm(f["todo_text"])
    ]
    still_there = [f for f in intermediate if (f["file_path"], _norm(f["todo_text"])) in texts_at_head]
    checks = [
        ("scan.potential_at_head", not misplaced,
         f"{len(potential)} potential, {len(misplaced)} not at their HEAD line"),
        ("scan.intermediate_gone", not still_there,
         f"{len(intermediate)} intermediate, {len(still_there)} still at HEAD"),
    ]
    reported = {(f["file_path"], f["line_no"], f["classification"]) for f in findings}
    reported_text = {(f["file_path"], _norm(f["todo_text"]), f["classification"]) for f in findings}

    def hit(planted: dict) -> bool:
        if planted["removed"]:
            return (planted["file"], planted["text"], "intermediate_obsolete") in reported_text
        return (planted["file"], planted["head_line"], "potential_obsolete") in reported

    pairs: dict[str, list[dict]] = {}
    for planted in truth["obsolete"]:
        if planted["shared_text"]:
            pairs.setdefault(planted["text"], []).append(planted)
            continue
        expected = planted["text"] in flagged
        checks.append(("scan.obsolete", hit(planted) == expected,
                       f"{planted['file']}:{planted['head_line']} {planted['text']!r}"
                       f" flagged={expected} reported={hit(planted)}"))
    for text, members in pairs.items():
        where = ", ".join(f"{m['file']}:{m['head_line']}" for m in members)
        checks.append(("scan.same_text_pair", all(hit(m) for m in members),
                       f"{text!r} at {where}, reported {[hit(m) for m in members]}"))
    return checks
