"""Per-class count accumulation and IoU/mIoU."""

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

from oracles import DenseConfusion


def counts(cm):
    """The three per-class count vectors as lists: TP, per truth, per prediction."""
    return [cm.tp.tolist(), cm.per_truth.tolist(), cm.per_pred.tolist()]


def dense_counts(dense):
    """What the three vectors hold, read off the dense matrix: its diagonal,
    row sums and column sums."""
    return [np.diag(dense.counts).tolist(), dense.counts.sum(1).tolist(), dense.counts.sum(0).tolist()]


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
        assert counts(cm) == [[0, 0, 0, 10, 0]] * 3

    def test_off_diagonal(self):
        cm = ConfusionMatrix.empty(5)
        accumulate(cm, [1], [2])
        assert counts(cm) == [[0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]]

    def test_ignored_points_excluded(self):
        cm = ConfusionMatrix.empty(5, ignore=(0,))
        accumulate(cm, [0, 0, 0], [1, 2, 3])
        assert counts(cm) == [[0] * 5] * 3

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
            assert counts(cm) == [[0, 0, 0]] * 3
        cm = ConfusionMatrix.empty(3)
        accumulate(cm, np.array([1, 2], dtype=np.uint8), np.array([1, 2], dtype=np.int32))
        accumulate(cm, [], [])  # an empty scan adds nothing, whatever its dtype
        assert counts(cm) == [[0, 1, 1]] * 3

    @pytest.mark.parametrize("num_classes", [0, 2**16 + 1, 2**40])
    def test_num_classes_bounded(self, num_classes):
        # A .label class id is 16 bits; 2**40 classes used to reach np.zeros
        # and end in its ValueError ("array is too big").
        with pytest.raises(ContractError, match="num_classes"):
            ConfusionMatrix.empty(num_classes)

    def test_counts_equal_the_dense_matrix(self, rng):
        # Scans whose largest id varies, an ignored class among them: the
        # vectors are the dense matrix's diagonal, row sums and column sums.
        for n in (1, 2, 7, 20):
            cm, dense = ConfusionMatrix.empty(n, ignore=(n - 1,)), DenseConfusion(n, (n - 1,))
            for _ in range(8):
                top = int(rng.integers(1, n + 1))
                t, p = rng.integers(0, top, (2, int(rng.integers(0, 60))))
                accumulate(cm, t, p)
                dense.add(t, p)
            assert counts(cm) == dense_counts(dense)

    def test_memory_is_linear_in_num_classes(self):
        # At the 2**16 bound the dense (n, n) int64 matrix needed 32 GiB; the
        # three count vectors and one scan's bincounts take 2 MiB.
        tracemalloc.start()
        try:
            cm = ConfusionMatrix.empty(2**16)
            accumulate(cm, np.array([0, 1, 2, 65535]), np.array([2, 1, 1, 65535]))
            mean = miou(cm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert mean == (0.0 + 0.5 + 0.0 + 1.0) / 4  # classes 0, 1, 2 and 65535
        assert [v[[0, 1, 2, 65535]].tolist() for v in (cm.tp, cm.per_truth, cm.per_pred)] == [
            [0, 1, 0, 1], [1, 1, 1, 1], [0, 2, 1, 1],
        ]
        assert [int(v.sum()) for v in (cm.tp, cm.per_truth, cm.per_pred)] == [2, 4, 4]  # no other class

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
        assert counts(a) == counts(b)


class TestIoU:
    def test_perfect_prediction(self, rng):
        truth = rng.integers(0, 4, 100)
        cm = ConfusionMatrix.empty(4)
        accumulate(cm, truth, truth)
        for c in np.unique(truth):
            assert iou(cm, int(c)) == 1.0

    def test_hand_built_tp6_fp2_fn4(self):
        # class 0: 6 hits (TP), 2 class-1 points called 0 (FP), 4 missed (FN)
        cm = ConfusionMatrix.empty(2)
        accumulate(cm, [0] * 6 + [1] * 2 + [0] * 4, [0] * 6 + [0] * 2 + [1] * 4)
        assert counts(cm) == [[6, 0], [10, 2], [8, 4]]
        assert iou(cm, 0) == 0.5
        assert iou(cm, 1) == 0.0

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
        truth = [0] * 4 + [1] * 9 + [1] * 2 + [0] * 4
        pred = [0] * 4 + [1] * 9 + [0] * 2 + [1] * 4
        accumulate(cm, truth, pred)
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


class TestDenseOracle:
    def test_iou_and_miou_bit_identical(self):
        # Several scans per matrix, one or two ignored classes, ids up to
        # num_classes - 1 and classes absent from a scan or from all of them.
        rng = np.random.default_rng(36)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            ignore = tuple(int(c) for c in rng.choice(n, int(rng.integers(0, min(n, 2) + 1)), False))
            cm, dense = ConfusionMatrix.empty(n, ignore), DenseConfusion(n, ignore)
            for _ in range(int(rng.integers(1, 4))):
                t, p = rng.integers(0, n, (2, int(rng.integers(0, 40))))
                accumulate(cm, t, p)
                dense.add(t, p)
            for c in range(n):
                if c in ignore:
                    continue
                got, expect = iou(cm, c), dense.iou(c)
                assert (math.isnan(got) and math.isnan(expect)) or got == expect
            if any(not math.isnan(dense.iou(c)) for c in range(n) if c not in ignore):
                assert miou(cm) == dense.miou()
            else:
                with pytest.raises(UndefinedMetricError):
                    miou(cm)
