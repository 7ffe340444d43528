"""The decision rule, confusion statistics, accuracy/precision/recall/F1,
ranking metrics (ROC AUC and average precision) and the report table.

status_of is the one place where a score becomes a Status: training's
validation, eval, the IRSC baseline and scan all decide through it. evaluate
is the one place where statuses become a MetricReport. Resolved is the
positive class. Ratios with an empty denominator are undefined and render
as "n/a" instead of a misleading zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .corpus import Label


DECISION_THRESHOLD = 0.5  # a classifier score at or above it marks its TODO resolved


class Status(Enum):
    RESOLVED = "resolved"
    UNRESOLVED = "unresolved"


def status_of(score: float, threshold: float = DECISION_THRESHOLD) -> Status:
    """Resolved iff score reaches threshold; a NaN score reaches none."""
    return Status.RESOLVED if score >= threshold else Status.UNRESOLVED


class LengthMismatch(ValueError):
    pass


class EmptyEvaluation(ValueError):
    pass


@dataclass(frozen=True)
class Confusion:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricReport:
    accuracy: float
    precision: Optional[float]
    recall: Optional[float]
    f1: Optional[float]
    method: str = ""
    dataset: str = ""
    # Only a scorer has these: see ranking().
    auc: Optional[float] = None
    average_precision: Optional[float] = None


def confusion(preds: Sequence[Status], labels: Sequence[Label]) -> Confusion:
    """Count the four outcomes of predicted statuses against labels."""
    if len(preds) != len(labels):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(labels)} labels")
    tp = tn = fp = fn = 0
    for status, label in zip(preds, labels):
        if status is Status.RESOLVED:
            if label is Label.POSITIVE:
                tp += 1
            else:
                fp += 1
        else:
            if label is Label.POSITIVE:
                fn += 1
            else:
                tn += 1
    return Confusion(tp=tp, tn=tn, fp=fp, fn=fn)


def metrics(c: Confusion, method: str = "", dataset: str = "") -> MetricReport:
    """Apply the four ratio formulas exactly; 0/0 cases come back as None."""
    if c.total == 0:
        raise EmptyEvaluation("no samples evaluated")
    accuracy = (c.tp + c.tn) / c.total
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else None
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) > 0 else None
    f1: Optional[float] = None
    if precision is not None and recall is not None and (precision + recall) > 0:
        f1 = 2 * precision * recall / (precision + recall)
    return MetricReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        method=method,
        dataset=dataset,
    )


def ranking(
    scores: Sequence[float], labels: Sequence[Label]
) -> tuple[Optional[float], Optional[float]]:
    """ROC AUC and average precision of scores against labels.

    AUC is the share of (positive, negative) pairs that the positive wins,
    a tie counting one half: each score takes the average rank of its ties.
    Average precision is the mean, over the positives, of the precision
    among all samples scoring at least that positive's score, so tied
    samples enter together. Both are None for a one-class split, and for
    scores that are not all finite, which have no order.
    """
    if len(scores) != len(labels):
        raise LengthMismatch(f"{len(scores)} scores vs {len(labels)} labels")
    values = np.asarray(scores, dtype=np.float64)
    order = np.argsort(values)
    ranked = values[order]
    positive = np.array([label is Label.POSITIVE for label in labels], dtype=bool)[order]
    n_pos = int(positive.sum())
    if n_pos in (0, len(ranked)) or not np.isfinite(ranked).all():
        return None, None
    below = np.searchsorted(ranked, ranked, side="left")  # samples scoring less
    upto = np.searchsorted(ranked, ranked, side="right")  # samples scoring at most as much
    ranks = (below + upto + 1) / 2
    auc = (ranks[positive].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * (len(ranked) - n_pos))
    positives_below = np.concatenate(([0], np.cumsum(positive)))[below]
    precision = (n_pos - positives_below) / (len(ranked) - below)
    return float(auc), float(precision[positive].mean())


def evaluate(
    preds: Sequence[Status], labels: Sequence[Label], method_name: str = "", dataset: str = ""
) -> MetricReport:
    """The report of predicted statuses against labels, one pair per sample."""
    return metrics(confusion(preds, labels), method=method_name, dataset=dataset)


def format_percent(value: Optional[float]) -> str:
    """Percentage with one decimal, rounded half-up; n/a when undefined."""
    if value is None:
        return "n/a"
    quantized = (Decimal(str(value)) * 100).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
    return f"{quantized}%"


_COLUMNS = ("Measure", "Accuracy", "Precision", "Recall", "F1", "AUC", "AP")


def format_report_table(reports: Sequence[MetricReport]) -> str:
    rows = [_COLUMNS]
    for r in reports:
        rows.append(
            (
                r.method or "?",
                format_percent(r.accuracy),
                format_percent(r.precision),
                format_percent(r.recall),
                format_percent(r.f1),
                format_percent(r.auc),
                format_percent(r.average_precision),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(_COLUMNS))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def report_record(report: MetricReport) -> dict:
    """Machine-readable form of one report row."""
    return {
        "method": report.method,
        "dataset": report.dataset,
        "accuracy": report.accuracy,
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
        "auc": report.auc,
        "average_precision": report.average_precision,
    }
