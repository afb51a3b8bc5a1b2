"""PointCloud and SensorGeometry validation."""

import math

import numpy as np
import pytest

from rapidfeat import ContractError, PointCloud, SensorGeometry


class TestPointCloud:
    def test_rejects_non_finite_coordinates(self):
        pts = np.array([[0.0, 0, 0], [np.nan, 0, 0]])
        with pytest.raises(ContractError):
            PointCloud(points=pts, remission=np.zeros(2))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ContractError):
            PointCloud(points=np.zeros((3, 3)), remission=np.zeros(2))
        with pytest.raises(ContractError):
            PointCloud(
                points=np.zeros((3, 3)),
                remission=np.zeros(3),
                label=np.zeros(4, dtype=np.int32),
            )

    def test_arrays_are_read_only(self):
        cloud = PointCloud(points=np.zeros((2, 3)), remission=np.zeros(2))
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 1.0
        with pytest.raises(ValueError):
            cloud.remission[0] = 1.0

    def test_source_array_not_captured(self):
        pts = np.zeros((2, 3))
        cloud = PointCloud(points=pts, remission=np.zeros(2))
        pts[0, 0] = 9.0
        assert cloud.points[0, 0] == 0.0

    def test_take_preserves_channels(self, rng):
        cloud = PointCloud(
            points=rng.normal(size=(6, 3)),
            remission=rng.uniform(0, 1, 6),
            ring=np.arange(6, dtype=np.int32),
            label=np.arange(6, dtype=np.int32) % 3,
        )
        sub = cloud.take(np.array([4, 1]))
        assert sub.ring.tolist() == [4, 1]
        assert sub.label.tolist() == [1, 1]

    def test_with_labels_returns_new_cloud(self):
        cloud = PointCloud(points=np.zeros((2, 3)), remission=np.zeros(2))
        labeled = cloud.with_labels(np.array([1, 2]))
        assert cloud.label is None
        assert labeled.label.tolist() == [1, 2]

    @pytest.mark.parametrize(
        "make",
        [
            lambda c: PointCloud(c.points, c.remission, label=np.array([1.7, 2.2, -0.5])),
            lambda c: PointCloud(c.points, c.remission, label=np.array([True, False, True])),
            lambda c: PointCloud(c.points, c.remission, ring=np.array([0, 1, 2**31])),
            lambda c: c.with_labels([3.9, 0.1, 1.0]),
        ],
        ids=["float-label", "bool-label", "ring-2**31", "with-labels-float"],
    )
    def test_integer_channels_are_not_cast(self, make):
        # Each used to be cast into int32: [1, 2, 0], [1, 0, 1], a ring of
        # -2**31 and [3, 0, 1].
        with pytest.raises(ContractError):
            make(PointCloud(points=np.ones((3, 3)), remission=np.zeros(3)))

    def test_integer_channels_stored_as_int32(self):
        cloud = PointCloud(
            points=np.ones((3, 3)),
            remission=np.zeros(3),
            ring=np.array([0, 1, 2**31 - 1], dtype=np.int64),
            label=np.array([-(2**31), 0, 7], dtype=np.int64),
        )
        assert cloud.ring.dtype == cloud.label.dtype == np.int32
        assert cloud.ring.tolist() == [0, 1, 2**31 - 1]
        assert cloud.label.tolist() == [-(2**31), 0, 7]


class TestSensorGeometry:
    def test_validation(self):
        with pytest.raises(ContractError):
            SensorGeometry(0, 0.1)
        with pytest.raises(ContractError):
            SensorGeometry(4, -0.1)
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ContractError):
                SensorGeometry(4, bad)

    def test_beam_count_fits_int32_ring_ids(self):
        # A direct build used to accept 2**32 + 5 beams, whose ring ids
        # elevation_rings then wrapped in its int32 cast.
        for beams in (2**31, 2**32 + 5):
            with pytest.raises(ContractError):
                SensorGeometry(beams, 1e-12)
        assert SensorGeometry(2**31 - 1, 1e-12).beam_count == 2**31 - 1

    def test_from_fov_derivation(self):
        # Degrees in, radians out, bit for bit.
        g = SensorGeometry.from_fov(64, (-24.8, 2.0))
        assert g.delta_phi == math.radians(26.8) / 64

    def test_from_fov_rejects_inverted_range(self):
        for beams, fov in (
            (4, (0.5, 0.1)), (4, (math.nan, 10.0)), (4, (-10.0, math.inf)), (0, (-10.0, 10.0)),
        ):
            with pytest.raises(ContractError):
                SensorGeometry.from_fov(beams, fov)
