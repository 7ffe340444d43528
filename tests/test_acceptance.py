"""Acceptance gate: one test per criterion, printed pass/fail lines.

Run with -s (or read captured output) to see the per-criterion lines.
"""

import json
import random
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    gradient_check_instance,
    make_sample,
    make_separable_corpus,
    random_sample,
)
from staletodo.baselines import TfidfSpace, irsc, tco, tcmo, tmo
from staletodo.comments import Language
from staletodo.corpus import Label, build_triples, extract_triple, split_dataset, write_corpus
from staletodo.diffs import RawCommit
from staletodo.metrics import Confusion, Status, metrics
from staletodo.mining import mine_repository
from staletodo.model import TrainConfig, predict_scores, train
from staletodo.model.training import parse_mask
from staletodo.scan import FindingKind, scan_repository

DATA = Path(__file__).parent / "data"


def report(number, description, ok, detail=""):
    marker = "PASS" if ok else "FAIL"
    print(f"[acceptance {number}] {description}: {marker}")
    assert ok, f"criterion {number} ({description}) failed {detail}"


def rounded_percent(value):
    return float((Decimal(str(value)) * 100).quantize(Decimal("0.1"), ROUND_HALF_UP))


@pytest.fixture(scope="module")
def separable_model():
    """Criterion-3 training run, shared with the scan and masking criteria."""
    corpus = make_separable_corpus(200, seed=77)
    split = split_dataset(corpus, seed=5)
    config = TrainConfig(dim=32, max_epochs=200, validate_every=50, seed=3)
    model, history = train(split, config)
    return model, history, split, config


def test_criterion_1_metric_fidelity():
    # Python effectiveness row: confusion counts whose ratios display as
    # precision 82.6% and recall 86.8% must yield F1 84.7% (and accuracy 84.7%)
    python_row = metrics(Confusion(tp=3302, tn=3328, fp=694, fn=500))
    ok_python = (
        rounded_percent(python_row.precision) == 82.6
        and rounded_percent(python_row.recall) == 86.8
        and abs(rounded_percent(python_row.f1) - 84.7) <= 0.05
        and rounded_percent(python_row.accuracy) == 84.7
    )
    # Java effectiveness row: precision 86.2%, recall 84.4% => F1 85.3%
    java_row = metrics(Confusion(tp=2110, tn=2015, fp=338, fn=390))
    ok_java = (
        rounded_percent(java_row.precision) == 86.2
        and rounded_percent(java_row.recall) == 84.4
        and abs(rounded_percent(java_row.f1) - 85.3) <= 0.05
        and rounded_percent(java_row.accuracy) == 85.0
    )
    report(
        1,
        "metric formulas reproduce the published effectiveness rows",
        ok_python and ok_java,
        detail=f"python={python_row} java={java_row}",
    )


def test_criterion_2_gradient_correctness():
    errors = [gradient_check_instance(seed) for seed in range(20)]
    worst = max(errors)
    report(
        2,
        "analytic gradients match finite differences on 20 instances (<1e-4)",
        worst < 1e-4,
        detail=f"worst relative error {worst:.3e}",
    )


def test_criterion_3_learning_sanity(separable_model):
    model, history, split, config = separable_model

    def accuracy(samples):
        scores = predict_scores(list(samples), model)
        hits = sum(
            1
            for sample, score in zip(samples, scores)
            if (score >= 0.5) == (sample.label is Label.POSITIVE)
        )
        return hits / len(samples)

    train_acc = accuracy(split.train)
    heldout_acc = accuracy(split.test)

    rerun_model, rerun_history = train(split, config)
    deterministic = (
        rerun_history.validations == history.validations
        and np.array_equal(
            predict_scores(list(split.test), rerun_model),
            predict_scores(list(split.test), model),
        )
    )
    ok = train_acc >= 0.99 and heldout_acc >= 0.90 and deterministic
    report(
        3,
        "trainable-embedding backend learns a separable 200-triple corpus",
        ok,
        detail=f"train={train_acc:.3f} heldout={heldout_acc:.3f} deterministic={deterministic}",
    )


def test_criterion_4_baseline_truth_table():
    rng = random.Random(4242)
    violations = 0
    for i in range(10_000):
        sample = random_sample(rng, i)
        combined = tcmo(sample) is Status.RESOLVED
        either = tco(sample) is Status.RESOLVED or tmo(sample) is Status.RESOLVED
        if combined is not either:
            violations += 1

    space = TfidfSpace(["flush queue", "retry socket buffer", "alpha delta"])
    monotone_breaks = 0
    thresholds = [t / 10 for t in range(11)]
    for i in range(1_000):
        sample = random_sample(rng, i)
        flags = [irsc(sample, space, t) is Status.RESOLVED for t in thresholds]
        if flags != sorted(flags, reverse=True):
            monotone_breaks += 1

    ok = violations == 0 and monotone_breaks == 0
    report(
        4,
        "tcmo == tco|tmo on 10,000 samples; irsc monotone in threshold",
        ok,
        detail=f"violations={violations} monotone_breaks={monotone_breaks}",
    )


def test_criterion_5_labeling_rules():
    with open(DATA / "labeling_cases.json", encoding="utf-8") as fh:
        cases = json.load(fh)
    assert len(cases) == 30
    mismatches = []
    for case in cases:
        commit = RawCommit(commit_id="c0", message="do the thing.", diff_text=case["diff"])
        result = extract_triple(commit, (Language(case["language"]),))
        # Every case passes the filters; only a first-time TODO gives no sample.
        assert result == "added_kind" or isinstance(result, tuple), case["name"]
        got = "ignored" if result == "added_kind" else result[0].label.value
        if got != case["expected"]:
            mismatches.append((case["name"], case["expected"], got))
    report(
        5,
        "30 crafted diffs label exactly per the scope rules",
        not mismatches,
        detail=str(mismatches),
    )


def test_criterion_6_pipeline_end_to_end(pipeline_repo, tmp_path):
    commits = list(mine_repository(pipeline_repo))
    samples, counts = build_triples(commits, Language.PYTHON)
    rebuilt = tmp_path / "rebuilt.jsonl"
    write_corpus(samples, str(rebuilt))
    with open(rebuilt, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    with open(DATA / "golden_corpus.jsonl", encoding="utf-8") as fh:
        golden = [json.loads(line) for line in fh if line.strip()]

    positives = sum(1 for s in samples if s.label is Label.POSITIVE)
    ok = (
        counts.commits_seen == 10
        and positives == 3
        and len(samples) - positives == 2
        and records == golden
    )
    report(
        6,
        "mining+building the fixture repo reproduces the hand-labeled golden corpus",
        ok,
        detail=f"counts={counts}",
    )


def test_criterion_7_split_invariants():
    pool = [make_sample(commit_id=f"c{i:06d}") for i in range(1000)]
    failures = []
    for n in range(10, 1001):
        samples = pool[:n]
        split = split_dataset(samples, seed=n)
        again = split_dataset(samples, seed=n)
        ids = lambda chunk: {s.commit_id for s in chunk}
        train_ids, val_ids, test_ids = ids(split.train), ids(split.val), ids(split.test)
        ok = (
            split == again
            and len(train_ids | val_ids | test_ids) == n
            and len(train_ids) + len(val_ids) + len(test_ids) == n
            and abs(len(split.train) - 0.8 * n) <= 1
            and abs(len(split.val) - 0.1 * n) <= 1
            and abs(len(split.test) - 0.1 * n) <= 1
        )
        if not ok:
            failures.append(n)
    report(
        7,
        "splits disjoint, exhaustive, ratio-correct and seeded for n=10..1000",
        not failures,
        detail=f"failing sizes {failures[:10]}",
    )


def test_criterion_8_scan_correctness(separable_model, scan_repo):
    model, _, _, _ = separable_model
    findings = scan_repository(scan_repo, lambda samples: predict_scores(samples, model))
    potential = [f for f in findings if f.classification is FindingKind.POTENTIAL_OBSOLETE]
    intermediate = [
        f for f in findings if f.classification is FindingKind.INTERMEDIATE_OBSOLETE
    ]
    ok = (
        len(findings) == 2
        and len(potential) == 1
        and len(intermediate) == 1
        and potential[0].todo_text == "todo: flush the queue"
        and potential[0].file_path == "a.py"
        and intermediate[0].todo_text == "todo: retry the socket"
    )
    report(
        8,
        "scan finds exactly one potential and one intermediate obsolete TODO",
        ok,
        detail=f"findings={findings}",
    )


def test_criterion_9_component_masking():
    corpus = make_separable_corpus(120, seed=13)
    split = split_dataset(corpus, seed=13)
    config = TrainConfig(
        dim=24,
        max_epochs=80,
        validate_every=25,
        seed=7,
        component_mask=parse_mask("cc,td"),
    )
    model, _ = train(split, config)
    test = list(split.test)
    baseline = predict_scores(test, model)
    mutated = [
        make_sample(
            cc=s.code_change,
            td=s.todo_comment,
            msg=f"entirely new message {i} with other words.",
            label=s.label,
            commit_id=s.commit_id,
        )
        for i, s in enumerate(test)
    ]
    mutated_scores = predict_scores(mutated, model)
    ok = np.array_equal(baseline, mutated_scores)
    report(
        9,
        "with the message encoder masked, message edits change no score bitwise",
        ok,
        detail=f"max abs diff {np.max(np.abs(baseline - mutated_scores))}",
    )
