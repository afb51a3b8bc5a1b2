"""Ring/class partitioning, range banding, fallback, and scatter-back."""

import functools
import os
from concurrent.futures import Future, ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rapidfeat import (
    ContractError,
    LabelsRequiredError,
    PlanePrimitive,
    PointCloud,
    RangeAwareConfig,
    RigidTransform,
    SensorGeometry,
    SyntheticSceneSpec,
    UndefinedAngleError,
    c_rapid,
    partition,
    partition_classes,
    partition_rings,
    r_rapid,
    synthesize_scene,
)

from conftest import small_geometry
from oracles import cylindrical_bin


class TestCylindricalBin:
    def test_x_axis_zero_bins(self):
        g = SensorGeometry(64, np.pi / 180)
        assert cylindrical_bin(np.array([1.0, 0.0, 0.0]), g, np.pi / 180) == (0, 0)

    def test_theta_quarter_turn(self):
        g = SensorGeometry(64, 0.1)
        tb, _ = cylindrical_bin(np.array([0.0, 1.0, 0.0]), g, np.pi / 2)
        assert tb == 1

    def test_phi_45_degrees(self):
        # elevation of (1,0,1) is exactly pi/4
        g = SensorGeometry(64, np.pi / 4)
        _, pb = cylindrical_bin(np.array([1.0, 0.0, 1.0]), g, np.pi / 180)
        assert pb == 1

    def test_origin_rejected(self):
        g = SensorGeometry(64, 0.1)
        with pytest.raises(UndefinedAngleError):
            cylindrical_bin(np.zeros(3), g, 0.1)

    def test_negative_elevation_negative_bin(self):
        g = SensorGeometry(64, np.pi / 8)
        _, pb = cylindrical_bin(np.array([1.0, 0.0, -1.0]), g, 0.1)
        assert pb == -2  # floor(-pi/4 / (pi/8))

    @settings(max_examples=60, deadline=None)
    @given(
        points=st.lists(
            st.tuples(*[st.floats(-80.0, 80.0, allow_nan=False)] * 3),
            min_size=1,
            max_size=40,
        ),
        beams=st.integers(1, 64),
        dphi_deg=st.floats(0.1, 10.0),
    )
    def test_elevation_bin_matches_ring_ids(self, points, beams, dphi_deg):
        # The production ring id of a point without a ring channel is the
        # oracle's elevation bin clipped to [0, B); a point whose squared
        # norm underflows to zero still has an elevation, and only the
        # origin is rejected by both.
        g = SensorGeometry(beams, np.radians(dphi_deg))
        pts = np.array(points, dtype=np.float64)
        cloud = PointCloud(points=pts, remission=np.zeros(len(pts)))
        if not pts.any(axis=1).all():
            with pytest.raises(UndefinedAngleError):
                cylindrical_bin(pts[~pts.any(axis=1)][0], g, 0.01)
            with pytest.raises(UndefinedAngleError):
                partition_rings(cloud, g)
            return
        expected = [min(max(cylindrical_bin(p, g, 0.01)[1], 0), beams - 1) for p in pts]
        assert partition_rings(cloud, g).tolist() == expected

    @pytest.mark.parametrize("tiny", [1e-195, -1e-195, 5e-324])
    def test_underflowing_norm_keeps_its_elevation(self, tiny):
        # (0, 0, z) has elevation +-pi/2 however small z is: the top ring
        # for z > 0 and ring 0 for z < 0, in production and oracle alike.
        g = SensorGeometry(8, np.radians(2.0))
        point = np.array([0.0, 0.0, tiny])
        cloud = PointCloud(points=point[None, :], remission=np.zeros(1))
        ring = 7 if tiny > 0 else 0
        assert min(max(cylindrical_bin(point, g, 0.01)[1], 0), 7) == ring
        assert partition_rings(cloud, g).tolist() == [ring]


class TestPartitionRings:
    def test_native_channel_passthrough(self, rng):
        pts = rng.normal(size=(50, 3)) + 5.0
        ring = rng.integers(0, 8, 50).astype(np.int32)
        cloud = PointCloud(points=pts, remission=np.zeros(50), ring=ring)
        part = partition_rings(cloud, SensorGeometry(8, 0.1))
        assert np.array_equal(part, ring)

    def test_two_elevation_scene_two_rings(self):
        geometry = SensorGeometry(4, np.radians(5.0))
        n = 60
        ang = np.linspace(0, 2 * np.pi, n, endpoint=False)
        low = np.stack(
            [10 * np.cos(ang), 10 * np.sin(ang), np.full(n, 10 * np.tan(np.radians(2.0)))],
            axis=1,
        )
        high = np.stack(
            [10 * np.cos(ang), 10 * np.sin(ang), np.full(n, 10 * np.tan(np.radians(7.0)))],
            axis=1,
        )
        cloud = PointCloud(
            points=np.concatenate([low, high]), remission=np.zeros(2 * n)
        )
        part = partition_rings(cloud, geometry)
        assert len(np.unique(part)) == 2

    def test_union_covers_everything(self, scene_cloud):
        part = partition_rings(scene_cloud, small_geometry())
        total = np.concatenate([np.flatnonzero(part == rid) for rid in np.unique(part)])
        assert len(total) == len(scene_cloud)
        assert len(np.unique(total)) == len(scene_cloud)

    def test_out_of_range_native_ring_rejected(self, rng):
        cloud = PointCloud(
            points=rng.normal(size=(10, 3)) + 3,
            remission=np.zeros(10),
            ring=np.full(10, 9, dtype=np.int32),
        )
        with pytest.raises(ContractError):
            partition_rings(cloud, SensorGeometry(4, 0.1))

    def test_empty_cloud_rejected(self):
        cloud = PointCloud(points=np.zeros((0, 3)), remission=np.zeros(0))
        with pytest.raises(ContractError):
            partition_rings(cloud, SensorGeometry(4, 0.1))


class TestPartitionClasses:
    def test_members_match_labels(self, scene_cloud):
        part = partition_classes(scene_cloud)
        for cid in np.unique(part):
            members = np.flatnonzero(part == cid)
            assert np.all(scene_cloud.label[members] == cid)

    def test_requires_labels(self, rng):
        cloud = PointCloud(points=rng.normal(size=(5, 3)) + 2, remission=np.zeros(5))
        with pytest.raises(LabelsRequiredError):
            partition_classes(cloud)


def single_ring_circle(n=120, radius=10.0, seed=5):
    rng = np.random.default_rng(seed)
    ang = np.sort(rng.uniform(0, 2 * np.pi, n))
    pts = np.stack(
        [radius * np.cos(ang), radius * np.sin(ang), rng.normal(0, 0.05, n)], axis=1
    )
    return PointCloud(
        points=pts,
        remission=rng.uniform(0, 1, n),
        ring=np.zeros(n, dtype=np.int32),
    )


class TestRRapid:
    config = RangeAwareConfig(band_edges=(20.0, 50.0), k_close=5, k_mid=4, k_far=3)

    def test_single_ring_all_rows_valid(self):
        cloud = single_ring_circle()
        fs = r_rapid(cloud, SensorGeometry(1, 0.1), self.config)
        assert fs.values.shape == (len(cloud), 5)
        assert np.all(fs.valid_width == 5)

    def test_rigid_motion_leaves_rows_unchanged(self):
        # radius 10 circle stays in the close band under a small translation
        cloud = single_ring_circle()
        geometry = SensorGeometry(1, 0.1)
        base = r_rapid(cloud, geometry, self.config)
        rng = np.random.default_rng(9)
        for _ in range(5):
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            q = q * np.sign(np.diag(r))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            t = RigidTransform(q, rng.uniform(-3, 3, 3))
            moved = cloud.with_points(t.apply(cloud.points))
            fs = r_rapid(moved, geometry, self.config)
            assert np.abs(fs.values - base.values).max() <= 1e-9

    def test_sparse_ring_falls_back_to_padding(self):
        config = RangeAwareConfig(k_close=10, k_mid=7, k_far=5)
        pts = np.array([[5.0, 0, 0], [5.1, 0, 0], [5.2, 0, 0]])
        cloud = PointCloud(
            points=pts, remission=np.zeros(3), ring=np.zeros(3, dtype=np.int32)
        )
        fs = r_rapid(cloud, SensorGeometry(1, 0.1), config)
        assert np.all(fs.values == 1.0)
        assert np.all(fs.valid_width == 0)
        assert fs.matrices == ()

    def test_fallback_to_next_smaller_k(self):
        # 8 points in the close band: k=10 impossible, k=7 works
        config = RangeAwareConfig(k_close=10, k_mid=7, k_far=5)
        rng = np.random.default_rng(3)
        pts = rng.uniform(4, 6, size=(8, 3))
        cloud = PointCloud(
            points=pts, remission=rng.uniform(0, 1, 8), ring=np.zeros(8, dtype=np.int32)
        )
        fs = r_rapid(cloud, SensorGeometry(1, 0.1), config)
        assert fs.matrices[0].k == 7
        assert np.all(fs.valid_width == 7)
        assert np.all(fs.values[:, 7:] == 1.0)

    def test_cross_ring_isolation(self):
        rng = np.random.default_rng(11)
        a = single_ring_circle(seed=1)
        b_pts = rng.uniform(3, 12, size=(90, 3))
        cloud = PointCloud(
            points=np.concatenate([a.points, b_pts]),
            remission=np.concatenate([a.remission, rng.uniform(0, 1, 90)]),
            ring=np.concatenate(
                [np.zeros(len(a), dtype=np.int32), np.ones(90, dtype=np.int32)]
            ),
        )
        geometry = SensorGeometry(2, 0.1)
        base = r_rapid(cloud, geometry, self.config)
        # poison ring 1: shift its points and scramble its reflectivity
        poisoned = PointCloud(
            points=np.concatenate([a.points, b_pts + 50.0]),
            remission=np.concatenate([a.remission, rng.uniform(0, 1, 90)]),
            ring=cloud.ring,
        )
        after = r_rapid(poisoned, geometry, self.config)
        ring0 = np.flatnonzero(cloud.ring == 0)
        assert (
            base.values[ring0].tobytes() == after.values[ring0].tobytes()
        )

    def test_rows_align_to_points(self, scene_cloud):
        fs = r_rapid(scene_cloud, small_geometry(), self.config)
        part = partition_rings(scene_cloud, small_geometry())
        assert np.array_equal(fs.roi, part)
        for mat in fs.matrices:
            ring_id = int(mat.roi_id[4:7])
            assert np.all(part[mat.anchors] == ring_id)

    def test_range_banding_splits_regions(self):
        # two arcs on one ring: radius 10 (close) and radius 30 (mid)
        rng = np.random.default_rng(21)
        ang = np.sort(rng.uniform(0, 2 * np.pi, 200))
        near = np.stack([10 * np.cos(ang), 10 * np.sin(ang), rng.normal(0, 0.1, 200)], 1)
        far = np.stack([30 * np.cos(ang), 30 * np.sin(ang), rng.normal(0, 0.1, 200)], 1)
        cloud = PointCloud(
            points=np.concatenate([near, far]),
            remission=rng.uniform(0, 1, 400),
            ring=np.zeros(400, dtype=np.int32),
        )
        fs = r_rapid(cloud, SensorGeometry(1, 0.1), self.config)
        ids = sorted(m.roi_id for m in fs.matrices)
        assert ids == ["ring000-close", "ring000-mid"]
        assert {m.roi_id: m.k for m in fs.matrices} == {
            "ring000-close": 5,
            "ring000-mid": 4,
        }


class TestCRapid:
    config = RangeAwareConfig(k_close=5, k_mid=4, k_far=3)

    def test_requires_labels(self, rng):
        cloud = PointCloud(points=rng.normal(size=(30, 3)) + 4, remission=np.zeros(30))
        with pytest.raises(LabelsRequiredError):
            c_rapid(cloud, self.config)

    def test_interleaved_classes_stay_separate(self):
        # two interleaved lattices; class 2 far enough to never be a
        # same-class neighbor of class 1 under per-class KNN
        rng = np.random.default_rng(8)
        base = rng.uniform(2, 10, size=(80, 3))
        cloud_mixed = PointCloud(
            points=np.concatenate([base, base + 0.05]),
            remission=np.concatenate([np.full(80, 0.2), np.full(80, 0.9)]),
            label=np.concatenate(
                [np.ones(80, dtype=np.int32), np.full(80, 2, dtype=np.int32)]
            ),
        )
        cloud_alone = PointCloud(
            points=base, remission=np.full(80, 0.2), label=np.ones(80, dtype=np.int32)
        )
        mixed = c_rapid(cloud_mixed, self.config)
        alone = c_rapid(cloud_alone, self.config)
        class1 = np.flatnonzero(cloud_mixed.label == 1)
        assert np.array_equal(mixed.values[class1], alone.values)

    def test_bijective_relabeling(self, scene_cloud):
        base = c_rapid(scene_cloud, self.config)
        mapping = {1: 7, 2: 5, 3: 9}
        relabeled = scene_cloud.with_labels(
            np.vectorize(mapping.get)(scene_cloud.label)
        )
        after = c_rapid(relabeled, self.config)
        assert np.array_equal(base.values, after.values)
        assert np.array_equal(
            np.vectorize(mapping.get)(base.roi), after.roi
        )

    def test_singleton_class_padded(self):
        pts = np.concatenate([np.random.default_rng(0).uniform(2, 8, (30, 3)),
                              [[5.0, 5.0, 5.0]]])
        labels = np.concatenate([np.ones(30, dtype=np.int32), [4]])
        cloud = PointCloud(
            points=pts, remission=np.full(31, 0.5), label=labels
        )
        fs = c_rapid(cloud, self.config)
        assert np.all(fs.values[30] == 1.0)
        assert fs.valid_width[30] == 0


def _three_region_cloud() -> PointCloud:
    # ring 0 / class 1 are small; the biggest region comes second in plan
    # order, so largest-first dispatch reorders the jobs
    rng = np.random.default_rng(21)
    sizes = (30, 400, 120)
    n = sum(sizes)
    ang = rng.uniform(0, 2 * np.pi, n)
    dist = rng.uniform(5.0, 60.0, n)
    pts = np.stack([dist * np.cos(ang), dist * np.sin(ang), rng.normal(0, 0.3, n)], axis=1)
    ids = np.repeat(np.arange(3), sizes).astype(np.int32)
    return PointCloud(points=pts, remission=rng.uniform(0, 1, n), ring=ids, label=ids + 1)


class TestWorkerDispatch:
    def test_largest_region_not_first_same_output(self):
        cloud = _three_region_cloud()
        config = RangeAwareConfig(k_close=5, k_mid=4, k_far=3)
        for run in (
            lambda w: r_rapid(cloud, SensorGeometry(3, 0.1), config, workers=w),
            lambda w: c_rapid(cloud, config, workers=w),
        ):
            one, two = run(1), run(2)
            assert one.values.tobytes() == two.values.tobytes()
            assert np.array_equal(one.valid_width, two.valid_width)
            assert [m.roi_id for m in one.matrices] == [m.roi_id for m in two.matrices]
            for a, b in zip(one.matrices, two.matrices):
                assert np.array_equal(a.anchors, b.anchors)
                assert a.values.tobytes() == b.values.tobytes()

    def test_spawned_workers_same_output(self, monkeypatch):
        # A spawned worker inherits nothing from the parent: it must get the
        # scan through the pool's initializer, not through module state.
        monkeypatch.setattr(
            partition,
            "ProcessPoolExecutor",
            functools.partial(ProcessPoolExecutor, mp_context=get_context("spawn")),
        )
        cloud = _three_region_cloud()
        config = RangeAwareConfig(k_close=5, k_mid=4, k_far=3)
        for run in (
            lambda w: r_rapid(cloud, SensorGeometry(3, 0.1), config, workers=w),
            lambda w: c_rapid(cloud, config, workers=w),
        ):
            one, two = run(1), run(2)
            assert one.values.tobytes() == two.values.tobytes()
            assert one.valid_width.tobytes() == two.valid_width.tobytes()
            for a, b in zip(one.matrices, two.matrices, strict=True):
                assert a.roi_id == b.roi_id
                assert a.anchors.tobytes() == b.anchors.tobytes()
                assert a.values.tobytes() == b.values.tobytes()

    def test_pool_no_larger_than_job_count(self, monkeypatch):
        # A fork pool starts all max_workers processes at the first submit,
        # and the calling process is one of the workers. This stand-in starts
        # none: it runs every second task at submit, and leaves the others
        # queued for the calling process to cancel and run itself.
        cloud = _three_region_cloud()
        config = RangeAwareConfig(k_close=5, k_mid=4, k_far=3)
        serial = c_rapid(cloud, config)
        jobs = len(serial.matrices)
        submitted = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                assert max_workers == min(workers, jobs) - 1
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                partition._set_scan(None)

            def submit(self, fn, task):
                future = Future()
                if len(submitted) % 2 == 0:
                    future.set_result(fn(task))
                submitted.append(future)
                return future

        monkeypatch.setattr(partition, "ProcessPoolExecutor", InProcessPool)
        for workers in (2, 3, 64):
            submitted.clear()
            got = c_rapid(cloud, config, workers=workers)
            assert got.values.tobytes() == serial.values.tobytes()
            assert len(submitted) == jobs - 1
            assert sum(f.cancelled() for f in submitted) == (jobs - 1) // 2

    def test_calling_process_computes_largest_region(self, monkeypatch, tmp_path):
        # Every process appends (roi id, pid) per region it computes; pool
        # helpers are forked, so they inherit the spy.
        log = tmp_path / "computed.txt"
        real = partition.rapid

        def spy(sub, cloud, k, delta, roi_id):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{roi_id} {os.getpid()}\n")
            return real(sub, cloud, k, delta, roi_id=roi_id)

        cloud = _three_region_cloud()
        config = RangeAwareConfig(k_close=5, k_mid=4, k_far=3)
        serial = r_rapid(cloud, SensorGeometry(3, 0.1), config)
        largest = max(serial.matrices, key=lambda m: len(m.anchors)).roi_id
        monkeypatch.setattr(partition, "rapid", spy)
        two = r_rapid(cloud, SensorGeometry(3, 0.1), config, workers=2)
        assert two.values.tobytes() == serial.values.tobytes()
        computed = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
        assert sorted(r for r, _ in computed) == sorted(m.roi_id for m in serial.matrices)
        assert [str(os.getpid())] == [pid for r, pid in computed if r == largest]
        assert any(pid != str(os.getpid()) for _, pid in computed)

    def test_calling_process_error_cancels_queued_regions(self, monkeypatch):
        # The calling process raises on the largest region before it computes
        # anything: the same error as at workers=1, and the helper tasks still
        # queued are cancelled rather than run.
        cloud = _three_region_cloud()
        config = RangeAwareConfig(k_close=5, k_mid=4, k_far=3)
        serial = r_rapid(cloud, SensorGeometry(3, 0.1), config)
        largest = max(serial.matrices, key=lambda m: len(m.anchors)).roi_id
        real = partition.rapid

        def failing(sub, cloud, k, delta, roi_id):
            if roi_id == largest:
                raise ContractError(f"no features for {roi_id}")
            return real(sub, cloud, k, delta, roi_id=roi_id)

        futures = []

        class RecordingPool(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                futures.append(super().submit(*args, **kwargs))
                return futures[-1]

        monkeypatch.setattr(partition, "rapid", failing)
        monkeypatch.setattr(partition, "ProcessPoolExecutor", RecordingPool)
        for workers in (1, 2):
            with pytest.raises(ContractError, match=largest):
                r_rapid(cloud, SensorGeometry(3, 0.1), config, workers=workers)
        assert len(futures) == len(serial.matrices) - 1
        assert all(f.done() for f in futures)
        assert any(f.cancelled() for f in futures)

    def test_one_region_more_workers_same_output(self):
        rng = np.random.default_rng(4)
        ang, dist = rng.uniform(0, 2 * np.pi, 80), rng.uniform(5.0, 15.0, 80)
        pts = np.stack([dist * np.cos(ang), dist * np.sin(ang), rng.normal(0, 0.3, 80)], axis=1)
        cloud = PointCloud(points=pts, remission=rng.uniform(0, 1, 80), label=np.ones(80))
        config = RangeAwareConfig(k_close=5, k_mid=4, k_far=3)
        one, four = c_rapid(cloud, config, workers=1), c_rapid(cloud, config, workers=4)
        assert len(one.matrices) == 1
        assert one.values.tobytes() == four.values.tobytes()
        assert one.matrices[0].anchors.tobytes() == four.matrices[0].anchors.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_matrices_carry_step_seconds(self, workers):
        # (knn, normalize, sort) seconds come back from pool workers too
        cloud = _three_region_cloud()
        config = RangeAwareConfig(k_close=5, k_mid=4, k_far=3)
        for fs in (
            r_rapid(cloud, SensorGeometry(3, 0.1), config, workers=workers),
            c_rapid(cloud, config, workers=workers),
        ):
            assert fs.matrices
            for mat in fs.matrices:
                assert len(mat.seconds) == 3
                assert all(np.isfinite(s) and s >= 0 for s in mat.seconds)


class TestSyntheticRingAssignment:
    def test_rings_come_from_quantization(self):
        geometry = small_geometry()
        spec = SyntheticSceneSpec(
            primitives=(
                PlanePrimitive((0, 0, 1.0), (1, 0, 0), (0, 1, 0), 10, 10, 500, 1, 0.5),
            ),
            geometry=geometry,
            noise_sigma=0.0,
            seed=1,
        )
        cloud = synthesize_scene(spec)
        recomputed = partition_rings(
            PointCloud(points=cloud.points, remission=cloud.remission), geometry
        )
        assert np.array_equal(cloud.ring, recomputed)

    def test_zero_point_scene_is_empty(self):
        spec = SyntheticSceneSpec(
            primitives=(
                PlanePrimitive((0, 0, 1.0), (1, 0, 0), (0, 1, 0), 10, 10, 0, 1, 0.5),
            ),
            geometry=small_geometry(),
        )
        cloud = synthesize_scene(spec)
        assert len(cloud) == 0
        assert cloud.ring.dtype == np.int32 and cloud.ring.shape == (0,)

    def test_origin_point_rejected(self):
        spec = SyntheticSceneSpec(
            primitives=(
                PlanePrimitive((0, 0, 0.0), (1, 0, 0), (0, 1, 0), 0, 0, 3, 1, 0.5),
            ),
            geometry=small_geometry(),
        )
        with pytest.raises(UndefinedAngleError):
            synthesize_scene(spec)
