"""Segmentation metrics: confusion-matrix accumulation, per-class IoU, mIoU."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, UndefinedMetricError


@dataclass
class ConfusionMatrix:
    """N_c x N_c counts; rows are ground truth, columns prediction.

    Points whose truth label is in the ignore set are excluded entirely.
    """

    counts: np.ndarray
    ignore: frozenset[int] = field(default_factory=frozenset)

    @classmethod
    def empty(cls, num_classes: int, ignore: tuple[int, ...] = ()) -> "ConfusionMatrix":
        """ContractError unless 1 <= num_classes <= 2**16: a .label class id
        is the low 16 bits of its entry."""
        if not 1 <= num_classes <= 2**16:
            raise ContractError(f"num_classes must be in [1, 2**16], got {num_classes}")
        return cls(
            counts=np.zeros((num_classes, num_classes), dtype=np.int64),
            ignore=frozenset(int(i) for i in ignore),
        )

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]


def accumulate(
    cm: ConfusionMatrix, truth: np.ndarray, predicted: np.ndarray
) -> ConfusionMatrix:
    """Add one scan's (truth, prediction) pairs to the matrix in place.

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
    # count only the corner of the ids in use: the temporary is (m * m,), not (n * n,)
    m = int(max(t.max(initial=0), p.max(initial=0))) + 1
    cm.counts[:m, :m] += np.bincount(t * m + p, minlength=m * m).reshape(m, m)
    return cm


def iou(cm: ConfusionMatrix, class_id: int) -> float:
    """TP / (TP + FP + FN); NaN when the class has a zero denominator."""
    if class_id in cm.ignore:
        raise ContractError(f"class {class_id} is ignored")
    tp = int(cm.counts[class_id, class_id])
    fp = int(cm.counts[:, class_id].sum()) - tp
    fn = int(cm.counts[class_id, :].sum()) - tp
    denom = tp + fp + fn
    if denom == 0:
        return math.nan
    return tp / denom


def miou(cm: ConfusionMatrix) -> float:
    """Mean IoU over classes with a defined ratio: a class with a zero
    denominator is excluded, not counted as 0."""
    values = []
    for c in range(cm.num_classes):
        if c in cm.ignore:
            continue
        v = iou(cm, c)
        if not math.isnan(v):
            values.append(v)
    if not values:
        raise UndefinedMetricError("no class has a defined IoU")
    return float(np.mean(values))
