"""Classification metrics with explicit zero-denominator conventions."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, MetricError, ShapeError

__all__ = [
    "ConfusionMatrix",
    "MetricsReport",
    "PerClassScores",
    "accuracy",
    "macro_f1",
    "mrc_accuracy",
]


@dataclass
class ConfusionMatrix:
    """Counts indexed as [gold, predicted] with a fixed label order."""

    labels: list[str]
    counts: np.ndarray | None = None

    def __post_init__(self):
        k = len(self.labels)
        if k < 1:
            raise MetricError("confusion matrix needs at least one class")
        if self.counts is None:
            self.counts = np.zeros((k, k), dtype=np.int64)
        else:
            self.counts = np.asarray(self.counts, dtype=np.int64)
            if self.counts.shape != (k, k):
                raise ShapeError(f"counts must be ({k}, {k}), got {self.counts.shape}")
            if (self.counts < 0).any():
                raise MetricError("confusion matrix counts must be non-negative")

    @classmethod
    def from_pairs(cls, labels: Sequence[str], golds: Sequence[int], preds: Sequence[int]) -> "ConfusionMatrix":
        if len(golds) != len(preds):
            raise ContractError(f"{len(golds)} gold labels but {len(preds)} predictions")
        cm = cls(labels=list(labels))
        k = len(cm.labels)
        for g, p in zip(golds, preds):
            if not (0 <= g < k and 0 <= p < k):
                raise ShapeError(f"class index out of range for {k} classes: gold={g}, pred={p}")
            cm.counts[g, p] += 1
        return cm

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def accuracy(cm: ConfusionMatrix) -> float:
    """Trace over total count."""
    if cm.total == 0:
        raise MetricError("accuracy is undefined for an empty confusion matrix")
    return float(np.trace(cm.counts)) / cm.total


@dataclass
class PerClassScores:
    label: str
    precision: float
    recall: float
    f1: float
    support: int


def macro_f1(cm: ConfusionMatrix) -> tuple[float, list[PerClassScores]]:
    """Unweighted mean of per-class F1.

    Precision is 0 when the class is never predicted, recall is 0 when it
    never occurs as gold, and F1 is 0 when precision + recall is 0; such
    classes still enter the average.
    """
    if cm.total == 0:
        raise MetricError("macro F1 is undefined for an empty confusion matrix")
    per_class: list[PerClassScores] = []
    for i, label in enumerate(cm.labels):
        tp = float(cm.counts[i, i])
        predicted = float(cm.counts[:, i].sum())
        gold = float(cm.counts[i, :].sum())
        precision = tp / predicted if predicted > 0 else 0.0
        recall = tp / gold if gold > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class.append(PerClassScores(label, precision, recall, f1, int(gold)))
    # Left to right: sum() is compensated from Python 3.12, so its bits vary by version.
    total = 0.0
    for scores in per_class:
        total += scores.f1
    return total / len(per_class), per_class


def mrc_accuracy(predicted: Sequence[int], gold: Sequence[int]) -> float:
    """Fraction of questions whose predicted choice index equals the gold index."""
    if len(predicted) != len(gold):
        raise ContractError(f"{len(predicted)} predictions but {len(gold)} gold answers")
    if not predicted:
        raise MetricError("accuracy over zero questions is undefined")
    return sum(1 for p, g in zip(predicted, gold) if p == g) / len(predicted)


@dataclass
class MetricsReport:
    """Evaluation summary for one dataset split."""

    accuracy: float
    macro_f1: float
    per_class: list[PerClassScores]
    mrc_accuracy: float | None = None

    def __post_init__(self):
        values = [self.accuracy, self.macro_f1] + [
            v for s in self.per_class for v in (s.precision, s.recall, s.f1)
        ]
        if self.mrc_accuracy is not None:
            values.append(self.mrc_accuracy)
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise MetricError("metric values must lie in [0, 1]")

    def to_dict(self) -> dict:
        payload = asdict(self)
        if self.mrc_accuracy is None:
            del payload["mrc_accuracy"]
        return payload
