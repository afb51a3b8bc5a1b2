"""Confusion matrix accumulation and IoU/mIoU."""

import math
import tracemalloc

import numpy as np
import pytest

from rapidfeat import (
    ConfusionMatrix,
    ContractError,
    UndefinedMetricError,
    accumulate,
    iou,
    miou,
)


def set_based_iou(truth, pred, class_id):
    """Independent oracle: intersection/union over point index sets."""
    t = {i for i, v in enumerate(truth) if v == class_id}
    p = {i for i, v in enumerate(pred) if v == class_id}
    union = t | p
    if not union:
        return math.nan
    return len(t & p) / len(union)


class TestAccumulate:
    def test_diagonal_counts(self):
        cm = ConfusionMatrix.empty(5)
        accumulate(cm, np.full(10, 3), np.full(10, 3))
        assert cm.counts[3, 3] == 10

    def test_off_diagonal(self):
        cm = ConfusionMatrix.empty(5)
        accumulate(cm, [1], [2])
        assert cm.counts[1, 2] == 1

    def test_ignored_points_excluded(self):
        cm = ConfusionMatrix.empty(5, ignore=(0,))
        accumulate(cm, [0, 0, 0], [1, 2, 3])
        assert cm.counts.sum() == 0

    def test_length_mismatch(self):
        cm = ConfusionMatrix.empty(3)
        with pytest.raises(ContractError):
            accumulate(cm, [1, 2], [1])

    def test_out_of_range_label(self):
        cm = ConfusionMatrix.empty(3)
        with pytest.raises(ContractError):
            accumulate(cm, [5], [1])

    def test_non_integer_labels_rejected(self):
        # Truth [1.7, 2.2] used to count as classes 1 and 2, and bools as 0 and 1.
        for truth, pred in (
            ([1.7, 2.2], [1, 2]),
            ([1, 2], [1.0, 2.9]),
            (np.array([True, False]), [1, 0]),
        ):
            cm = ConfusionMatrix.empty(3)
            with pytest.raises(ContractError):
                accumulate(cm, truth, pred)
            assert cm.counts.sum() == 0
        cm = ConfusionMatrix.empty(3)
        accumulate(cm, np.array([1, 2], dtype=np.uint8), np.array([1, 2], dtype=np.int32))
        accumulate(cm, [], [])  # an empty scan adds nothing, whatever its dtype
        assert cm.counts.tolist() == [[0, 0, 0], [0, 1, 0], [0, 0, 1]]

    @pytest.mark.parametrize("num_classes", [0, 2**16 + 1, 2**40])
    def test_num_classes_bounded(self, num_classes):
        # A .label class id is 16 bits; 2**40 classes used to reach np.zeros
        # and end in its ValueError ("array is too big").
        with pytest.raises(ContractError, match="num_classes"):
            ConfusionMatrix.empty(num_classes)

    def test_counts_equal_full_bincount(self, rng):
        # Scans whose largest id varies, an ignored class among them, against
        # one bincount over all n * n cells per scan.
        for n in (1, 2, 7, 20):
            cm, expected = ConfusionMatrix.empty(n, ignore=(n - 1,)), np.zeros((n, n), np.int64)
            for _ in range(8):
                top = int(rng.integers(1, n + 1))
                t, p = rng.integers(0, top, (2, int(rng.integers(0, 60))))
                accumulate(cm, t, p)
                t, p = t[t != n - 1], p[t != n - 1]
                expected += np.bincount(t * n + p, minlength=n * n).reshape(n, n)
            assert np.array_equal(cm.counts, expected)

    def test_temporary_is_the_ids_in_use(self):
        # One (n * n,) bincount per scan used to peak at 32 MiB here.
        cm = ConfusionMatrix.empty(2048)
        tracemalloc.start()
        try:
            accumulate(cm, np.array([0, 1, 2]), np.array([2, 1, 1]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert cm.counts.sum() == 3 and cm.counts[0, 2] == cm.counts[1, 1] == cm.counts[2, 1] == 1

    def test_order_independence(self, rng):
        scans = [
            (rng.integers(0, 4, 50), rng.integers(0, 4, 50)) for _ in range(6)
        ]
        a = ConfusionMatrix.empty(4)
        for t, p in scans:
            accumulate(a, t, p)
        b = ConfusionMatrix.empty(4)
        for t, p in reversed(scans):
            accumulate(b, t, p)
        assert np.array_equal(a.counts, b.counts)


class TestIoU:
    def test_perfect_prediction(self, rng):
        truth = rng.integers(0, 4, 100)
        cm = ConfusionMatrix.empty(4)
        accumulate(cm, truth, truth)
        for c in np.unique(truth):
            assert iou(cm, int(c)) == 1.0

    def test_hand_built_tp6_fp2_fn4(self):
        cm = ConfusionMatrix.empty(2)
        cm.counts[0, 0] = 6  # TP
        cm.counts[1, 0] = 2  # FP for class 0
        cm.counts[0, 1] = 4  # FN for class 0
        assert iou(cm, 0) == 0.5

    def test_absent_class_undefined(self):
        cm = ConfusionMatrix.empty(4)
        accumulate(cm, [0, 1], [0, 1])
        assert math.isnan(iou(cm, 3))

    def test_ignored_class_rejected(self):
        cm = ConfusionMatrix.empty(4, ignore=(2,))
        with pytest.raises(ContractError):
            iou(cm, 2)

    def test_bounds(self, rng):
        cm = ConfusionMatrix.empty(5)
        accumulate(cm, rng.integers(0, 5, 500), rng.integers(0, 5, 500))
        for c in range(5):
            v = iou(cm, c)
            assert math.isnan(v) or 0.0 <= v <= 1.0

    def test_set_based_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            n = int(rng.integers(1, 100))
            n_cls = int(rng.integers(1, 6))
            truth = rng.integers(0, n_cls, n)
            pred = rng.integers(0, n_cls, n)
            cm = ConfusionMatrix.empty(n_cls)
            accumulate(cm, truth, pred)
            for c in range(n_cls):
                expect = set_based_iou(truth, pred, c)
                got = iou(cm, c)
                if math.isnan(expect):
                    assert math.isnan(got)
                else:
                    assert got == expect


class TestMiou:
    def test_two_class_mean(self):
        cm = ConfusionMatrix.empty(2)
        # class 0: TP=4 FP=2 FN=4 -> 0.4; class 1: TP=9 FP=4 FN=2 -> 0.6
        cm.counts[0, 0] = 4
        cm.counts[1, 1] = 9
        cm.counts[1, 0] = 2
        cm.counts[0, 1] = 4
        assert iou(cm, 0) == pytest.approx(0.4, abs=1e-15)
        assert iou(cm, 1) == pytest.approx(0.6, abs=1e-15)
        assert miou(cm) == pytest.approx(0.5, abs=1e-15)

    def test_single_defined_class(self):
        cm = ConfusionMatrix.empty(3)
        accumulate(cm, [1, 1], [1, 1])
        assert miou(cm) == 1.0

    def test_bijection_invariance(self, rng):
        truth = rng.integers(0, 4, 200)
        pred = rng.integers(0, 4, 200)
        cm = ConfusionMatrix.empty(4)
        accumulate(cm, truth, pred)
        mapping = np.array([2, 0, 3, 1])
        cm2 = ConfusionMatrix.empty(4)
        accumulate(cm2, mapping[truth], mapping[pred])
        assert miou(cm) == pytest.approx(miou(cm2), abs=1e-15)

    def test_no_defined_classes(self):
        with pytest.raises(UndefinedMetricError):
            miou(ConfusionMatrix.empty(3))

    def test_undefined_as_zero_convention(self):
        cm = ConfusionMatrix.empty(2)
        accumulate(cm, [0, 0], [0, 0])
        assert miou(cm) == 1.0

    def test_in_unit_interval(self, rng):
        cm = ConfusionMatrix.empty(4)
        accumulate(cm, rng.integers(0, 4, 300), rng.integers(0, 4, 300))
        assert 0.0 <= miou(cm) <= 1.0
