"""Segmentation metrics: per-class point counts, per-class IoU, mIoU.

Memory and time are O(num_classes): a class's IoU needs only its true
positives and its truth and prediction totals, never a dense matrix."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import ContractError, UndefinedMetricError


@dataclass
class ConfusionMatrix:
    """Per-class int64 counts of the points seen so far: true positives and
    points per truth class and per predicted class. Points whose truth label
    is in the ignore set are excluded entirely."""

    tp: np.ndarray
    per_truth: np.ndarray
    per_pred: np.ndarray
    ignore: frozenset[int] = field(default_factory=frozenset)

    @classmethod
    def empty(cls, num_classes: int, ignore: tuple[int, ...] = ()) -> "ConfusionMatrix":
        """ContractError unless 1 <= num_classes <= 2**16: a .label class id
        is the low 16 bits of its entry."""
        if not 1 <= num_classes <= 2**16:
            raise ContractError(f"num_classes must be in [1, 2**16], got {num_classes}")
        tp, per_truth, per_pred = np.zeros((3, num_classes), dtype=np.int64)
        return cls(tp, per_truth, per_pred, frozenset(int(i) for i in ignore))

    @property
    def num_classes(self) -> int:
        return len(self.tp)


def accumulate(cm: ConfusionMatrix, truth: np.ndarray, predicted: np.ndarray) -> ConfusionMatrix:
    """Add one scan's (truth, prediction) pairs to the counts in place.

    ContractError for labels that are not integers: floats and bools are
    not truncated into class ids.
    """
    t, p = (np.asarray(a).ravel() for a in (truth, predicted))
    if any(a.size and a.dtype.kind not in "iu" for a in (t, p)):
        raise ContractError(f"labels must be integers, got dtypes {t.dtype} and {p.dtype}")
    t, p = t.astype(np.int64), p.astype(np.int64)
    if t.shape != p.shape:
        raise ContractError(f"label length mismatch: {t.shape} vs {p.shape}")
    n = cm.num_classes
    keep = np.ones(len(t), dtype=bool)
    for cls_id in cm.ignore:
        keep &= t != cls_id
    t, p = t[keep], p[keep]
    if len(t) and (t.min() < 0 or t.max() >= n or p.min() < 0 or p.max() >= n):
        raise ContractError("labels outside [0, num_classes) and not ignored")
    cm.tp += np.bincount(t[t == p], minlength=n)
    cm.per_truth += np.bincount(t, minlength=n)
    cm.per_pred += np.bincount(p, minlength=n)
    return cm


def iou(cm: ConfusionMatrix, class_id: int) -> float:
    """TP / (TP + FP + FN) = TP / (truth + prediction - TP); NaN when the
    class has a zero denominator."""
    if class_id in cm.ignore:
        raise ContractError(f"class {class_id} is ignored")
    tp = int(cm.tp[class_id])
    union = int(cm.per_truth[class_id]) + int(cm.per_pred[class_id]) - tp
    return tp / union if union else math.nan


def _mean_defined(values: Iterable[float]) -> float:
    """Mean of the IoUs that are defined: a class with a zero denominator
    is excluded, not counted as 0."""
    defined = [v for v in values if not math.isnan(v)]
    if not defined:
        raise UndefinedMetricError("no class has a defined IoU")
    return float(np.mean(defined))


def miou(cm: ConfusionMatrix) -> float:
    """Mean IoU over the classes not ignored that have a defined ratio."""
    return _mean_defined(iou(cm, c) for c in range(cm.num_classes) if c not in cm.ignore)
