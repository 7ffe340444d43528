"""Confusion counting, metric formulas and the evaluation harness."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_sample
from staletodo.baselines import tcmo
from staletodo.corpus import Label
from staletodo.metrics import (
    Confusion,
    EmptyEvaluation,
    LengthMismatch,
    Status,
    confusion,
    evaluate,
    format_percent,
    format_report_table,
    metrics,
    ranking,
    report_record,
)


def counting_oracle(preds, labels):
    """Brute-force per-pair tally, written independently of confusion()."""
    pairs = list(zip(preds, labels))
    tp = sum(1 for p, l in pairs if p is Status.RESOLVED and l is Label.POSITIVE)
    fp = sum(1 for p, l in pairs if p is Status.RESOLVED and l is Label.NEGATIVE)
    fn = sum(1 for p, l in pairs if p is Status.UNRESOLVED and l is Label.POSITIVE)
    tn = sum(1 for p, l in pairs if p is Status.UNRESOLVED and l is Label.NEGATIVE)
    return tp, tn, fp, fn


class TestConfusion:
    def test_all_correct_balanced(self):
        labels = [Label.POSITIVE] * 5 + [Label.NEGATIVE] * 5
        preds = [
            Status.RESOLVED if l is Label.POSITIVE else Status.UNRESOLVED for l in labels
        ]
        c = confusion(preds, labels)
        assert (c.tp, c.tn, c.fp, c.fn) == (5, 5, 0, 0)

    def test_constant_resolved_half_positive(self):
        labels = [Label.POSITIVE] * 5 + [Label.NEGATIVE] * 5
        c = confusion([Status.RESOLVED] * 10, labels)
        assert (c.tp, c.fp) == (5, 5)
        assert (c.tn, c.fn) == (0, 0)

    def test_random_vectors_match_counting_oracle(self):
        rng = random.Random(2)
        preds = [rng.choice((Status.RESOLVED, Status.UNRESOLVED)) for _ in range(1000)]
        labels = [rng.choice((Label.POSITIVE, Label.NEGATIVE)) for _ in range(1000)]
        c = confusion(preds, labels)
        assert (c.tp, c.tn, c.fp, c.fn) == counting_oracle(preds, labels)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([Status.RESOLVED], [])


class TestMetrics:
    def test_symmetric_quarter_case(self):
        report = metrics(Confusion(tp=25, tn=25, fp=25, fn=25))
        assert report.accuracy == 0.5
        assert report.precision == 0.5
        assert report.recall == 0.5
        assert report.f1 == 0.5

    def test_perfect_predictor_all_ones(self):
        report = metrics(Confusion(tp=10, tn=10, fp=0, fn=0))
        assert (report.accuracy, report.precision, report.recall, report.f1) == (
            1.0,
            1.0,
            1.0,
            1.0,
        )

    def test_inverted_predictor_on_balanced_data(self):
        report = metrics(Confusion(tp=0, tn=0, fp=10, fn=10))
        assert report.accuracy == 0.0
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 is None  # p + r = 0

    def test_undefined_precision(self):
        report = metrics(Confusion(tp=0, tn=5, fp=0, fn=5))
        assert report.precision is None
        assert report.recall == 0.0
        assert report.f1 is None

    def test_undefined_recall(self):
        report = metrics(Confusion(tp=0, tn=5, fp=5, fn=0))
        assert report.recall is None
        assert report.f1 is None

    def test_empty_evaluation(self):
        with pytest.raises(EmptyEvaluation):
            metrics(Confusion(0, 0, 0, 0))

    def test_f1_matches_fraction_recomputation(self):
        rng = random.Random(8)
        for _ in range(300):
            tp, tn, fp, fn = (rng.randint(0, 50) for _ in range(4))
            if tp + tn + fp + fn == 0 or tp + fp == 0 or tp + fn == 0:
                continue
            report = metrics(Confusion(tp, tn, fp, fn))
            p = Fraction(tp, tp + fp)
            r = Fraction(tp, tp + fn)
            if p + r == 0:
                assert report.f1 is None
                continue
            exact = 2 * p * r / (p + r)
            assert abs(report.f1 - float(exact)) < 1e-12

    def test_python_table_row_arithmetic(self):
        # displayed precision/recall imply an F1 of 84.648%: the formula is
        # exact, the table's 84.7% needs the unrounded ratios
        p, r = 0.826, 0.868
        f1 = 2 * p * r / (p + r)
        assert round(f1, 4) == 0.8465
        assert abs(f1 * 100 - 84.648) < 0.001

    def test_java_table_row_arithmetic(self):
        p, r = 0.862, 0.844
        f1 = 2 * p * r / (p + r)
        assert format_percent(f1) == "85.3%"


class TestEvaluate:
    def _balanced(self, n=20):
        return [
            make_sample(
                label=Label.POSITIVE if i % 2 == 0 else Label.NEGATIVE,
                commit_id=f"c{i:06d}",
            )
            for i in range(n)
        ]

    def test_constant_resolved_predictor(self):
        report = evaluate(lambda s: Status.RESOLVED, self._balanced(), "always")
        assert report.recall == 1.0
        assert report.precision == 0.5

    def test_constant_unresolved_predictor(self):
        report = evaluate(lambda s: Status.UNRESOLVED, self._balanced(), "never")
        assert report.recall == 0.0
        assert report.precision is None

    def test_permutation_invariance(self):
        samples = self._balanced(40)
        rng = random.Random(3)
        predictor = lambda s: (
            Status.RESOLVED if int(s.commit_id[1:]) % 3 == 0 else Status.UNRESOLVED
        )
        base = evaluate(predictor, samples)
        for _ in range(5):
            shuffled = samples[:]
            rng.shuffle(shuffled)
            report = evaluate(predictor, shuffled)
            assert (
                report.accuracy,
                report.precision,
                report.recall,
                report.f1,
            ) == (base.accuracy, base.precision, base.recall, base.f1)

    def test_tcmo_report_matches_manual_recomputation(self):
        rng = random.Random(31)
        samples = []
        for i in range(20):
            label = Label.POSITIVE if i % 2 == 0 else Label.NEGATIVE
            cc = "+purge(queue)" if i % 4 == 0 else "+alpha = 1"
            msg = "purge the queue." if i % 3 == 0 else "misc change."
            samples.append(
                make_sample(cc=cc, td="todo: purge the queue", msg=msg, label=label,
                            commit_id=f"c{i:06d}")
            )
        report = evaluate(tcmo, samples, "TCMO")

        verdicts = [tcmo(s) for s in samples]
        tp, tn, fp, fn = counting_oracle(verdicts, [s.label for s in samples])
        expected = metrics(Confusion(tp, tn, fp, fn))
        assert report.accuracy == expected.accuracy
        assert report.precision == expected.precision
        assert report.recall == expected.recall
        assert report.f1 == expected.f1


class TestRendering:
    def test_rounding_half_up_one_decimal(self):
        assert format_percent(0.8465) == "84.7%"
        assert format_percent(0.84648) == "84.6%"
        assert format_percent(0.055) == "5.5%"
        assert format_percent(1.0) == "100.0%"
        assert format_percent(None) == "n/a"

    def test_table_layout(self):
        report = metrics(Confusion(tp=5, tn=4, fp=1, fn=0), method="TCO")
        table = format_report_table([report])
        lines = table.splitlines()
        assert lines[0].split() == ["Measure", "Accuracy", "Precision", "Recall", "F1", "AUC", "AP"]
        assert lines[1].startswith("TCO")
        assert "90.0%" in lines[1]  # accuracy 9/10

    def test_record_round_trip_fields(self):
        report = metrics(Confusion(tp=1, tn=1, fp=1, fn=1), method="x", dataset="d")
        record = report_record(report)
        assert set(record) == {
            "method", "dataset", "accuracy", "precision", "recall", "f1", "auc", "average_precision"
        }
        assert record["auc"] is None and record["average_precision"] is None
        assert record["accuracy"] == 0.5


def pair_count_auc(scores, labels):
    """Brute force: the share of (positive, negative) pairs whose positive
    scores higher, a tie counting one half."""
    pos = [s for s, l in zip(scores, labels) if l is Label.POSITIVE]
    neg = [s for s, l in zip(scores, labels) if l is Label.NEGATIVE]
    wins = sum(Fraction(1) if p > n else Fraction(1, 2) if p == n else 0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def direct_average_precision(scores, labels):
    """sum over distinct thresholds, highest first, of (recall gained) * precision."""
    n_pos = sum(l is Label.POSITIVE for l in labels)
    total, recall_before = Fraction(0), Fraction(0)
    for threshold in sorted(set(scores), reverse=True):
        kept = [l for s, l in zip(scores, labels) if s >= threshold]
        tp = sum(l is Label.POSITIVE for l in kept)
        recall = Fraction(tp, n_pos)
        total += (recall - recall_before) * Fraction(tp, len(kept))
        recall_before = recall
    return total


class TestRanking:
    # Few distinct scores make ties common.
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.25, 0.5, 0.5000001, 0.75, 1.0]) | st.floats(0, 1),
                st.sampled_from(list(Label)),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_pair_count_and_direct_sum(self, pairs):
        scores = [s for s, _ in pairs]
        labels = [l for _, l in pairs]
        auc, ap = ranking(scores, labels)
        if len(set(labels)) < 2:
            assert (auc, ap) == (None, None)
            return
        assert auc == pytest.approx(float(pair_count_auc(scores, labels)), abs=1e-12)
        assert ap == pytest.approx(float(direct_average_precision(scores, labels)), abs=1e-12)

    def test_known_values(self):
        p, n = Label.POSITIVE, Label.NEGATIVE
        assert ranking([0.9, 0.8, 0.7, 0.1], [p, n, p, n]) == (0.75, pytest.approx(5 / 6))
        assert ranking([0.5, 0.5], [p, n]) == (0.5, 0.5)
        assert ranking([0.2, 0.4], [p, p]) == (None, None)

    def test_non_finite_scores_have_no_order(self):
        assert ranking([float("nan"), 0.4], [Label.POSITIVE, Label.NEGATIVE]) == (None, None)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ranking([0.1], [Label.POSITIVE, Label.NEGATIVE])
