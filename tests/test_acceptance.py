"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here, not configurable.
"""

import json
import time
import warnings

import numpy as np
import pytest

import rapidfeat as rf
from rapidfeat.cli import EXIT_OK, main
from rapidfeat.scene_io import load_feature_file

from conftest import default_scene, kitti_style_scan, random_cloud, small_geometry
from oracles import point_attention
from test_embed import oracle_contrastive


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:>2} PASS: {text}", flush=True)


def upward_ring_scan(seed: int, beams: int = 64, per_beam: int = 200) -> rf.PointCloud:
    """Ring scan with nonnegative elevations so the pure .bin path (no native
    ring channel) quantizes into the full [0, B) ring range."""
    rng = np.random.default_rng(seed)
    chunks = []
    for b in range(beams):
        elev = np.radians(0.05 + b * (26.8 / beams))
        ang = np.sort(rng.uniform(0, 2 * np.pi, per_beam))
        dist = rng.uniform(5.0, 60.0) * rng.uniform(0.95, 1.05, per_beam)
        chunks.append(
            np.stack(
                [
                    dist * np.cos(ang) * np.cos(elev),
                    dist * np.sin(ang) * np.cos(elev),
                    dist * np.sin(elev),
                ],
                axis=1,
            )
        )
    pts = np.concatenate(chunks)
    return rf.PointCloud(points=pts, remission=rng.uniform(0, 1, len(pts)))


def frozen_region_jobs(cloud, geometry, config):
    from rapidfeat.partition import _plan_jobs, partition_rings
    from rapidfeat.rapid import band_indices

    rings = partition_rings(cloud, geometry)
    band = band_indices(np.asarray(rf.range_of(cloud.points)), config)
    jobs = _plan_jobs(rings, band, config, "ring")
    return jobs


class TestCriterion01IsometryInvariance:
    def test_rigid_invariance_synthetic_and_real(self, tmp_path):
        started = time.perf_counter()
        config = rf.RangeAwareConfig(k_close=7, k_mid=5, k_far=4)
        rng = np.random.default_rng(2024)
        scans = []
        for i in range(20):  # 20 synthetic scenes
            scene = default_scene(seed=100 + i, noise=0.02)
            scans.append((rf.synthesize_scene(scene), small_geometry()))
        for i in range(2):  # 2 scans through the on-disk KITTI path
            path = tmp_path / f"scan{i}.bin"
            rf.save_kitti_scan(upward_ring_scan(seed=300 + i), path)
            geometry = rf.SensorGeometry.from_fov(64, (0.0, 26.8))
            scans.append((rf.load_kitti_scan(path), geometry))

        total_transforms = 0
        worst = 0.0
        for cloud, geometry in scans:
            jobs = frozen_region_jobs(cloud, geometry, config)
            assert jobs, "every scan must produce computable regions"
            base_raw = []
            base_norm = []
            for sub, k, roi in jobs:
                local = rf.PointCloud(
                    points=cloud.points[sub], remission=cloud.remission[sub]
                )
                rows, anchors, _ = rf.rapid_unnormalized(
                    np.arange(len(local)), local, k
                )
                mat = rf.rapid(np.arange(len(local)), local, k, config.delta)
                base_raw.append((rows, anchors))
                base_norm.append(mat)
            for _ in range(5):
                transform = rf.RigidTransform.random(rng)
                moved = cloud.with_points(transform.apply(cloud.points))
                total_transforms += 1
                for (sub, k, roi), (rows0, anchors0), mat0 in zip(
                    jobs, base_raw, base_norm
                ):
                    local = rf.PointCloud(
                        points=moved.points[sub], remission=moved.remission[sub]
                    )
                    rows, anchors, _ = rf.rapid_unnormalized(
                        np.arange(len(local)), local, k
                    )
                    worst = max(worst, float(np.abs(rows - rows0).max()))
                    assert np.abs(rows - rows0).max() <= 1e-9
                    mat = rf.rapid(np.arange(len(local)), local, k, config.delta)
                    assert np.array_equal(mat.anchors, mat0.anchors)
                    assert np.array_equal(
                        np.argsort(mat.values.ravel(), kind="stable"),
                        np.argsort(mat0.values.ravel(), kind="stable"),
                    )
        elapsed = time.perf_counter() - started
        assert total_transforms >= 100
        assert elapsed <= 120.0
        _report(
            1,
            f"isometry: {total_transforms} transforms over {len(scans)} scans, "
            f"max |d rho| = {worst:.2e} <= 1e-9, ranks identical, {elapsed:.1f}s",
        )


class TestCriterion02PermutationInvariance:
    def test_shuffles_byte_identical(self):
        started = time.perf_counter()
        rng = np.random.default_rng(7)
        pts = rng.uniform(-8, 8, size=(350, 3))
        refl = rng.uniform(0, 1, 350)
        base = rf.rapid(
            np.arange(350), rf.PointCloud(points=pts, remission=refl), 7, 2.0
        )
        for _ in range(100):
            perm = rng.permutation(350)
            m = rf.rapid(
                np.arange(350),
                rf.PointCloud(points=pts[perm], remission=refl[perm]),
                7,
                2.0,
            )
            assert m.values.tobytes() == base.values.tobytes()
        elapsed = time.perf_counter() - started
        assert elapsed <= 60.0
        _report(2, f"permutation: 100 shuffles byte-identical, {elapsed:.1f}s")


class TestCriterion03ReflectivityAffine:
    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-8, 8, size=(250, 3))
        refl = rng.uniform(0.1, 0.9, 250)
        base = rf.rapid(
            np.arange(250), rf.PointCloud(points=pts, remission=refl), 6, 2.0
        )
        worst = 0.0
        for _ in range(50):
            a = float(rng.uniform(0.05, 20.0))
            b = float(rng.uniform(-10.0, 10.0))
            m = rf.rapid(
                np.arange(250),
                rf.PointCloud(points=pts, remission=a * refl + b),
                6,
                2.0,
            )
            worst = max(worst, float(np.abs(m.values - base.values).max()))
            assert np.abs(m.values - base.values).max() <= 1e-12
        _report(3, f"reflectivity affine: 50 maps, max deviation {worst:.2e} <= 1e-12")


class TestCriterion04KnnOracle:
    def test_indexed_equals_brute(self):
        rng = np.random.default_rng(9)
        ks = [3, 5, 7, 10]
        checked = 0
        lattice = np.stack(
            np.meshgrid(*[np.arange(10.0)] * 3), axis=-1
        ).reshape(-1, 3)
        for trial in range(200):
            k = ks[trial % 4]
            if trial % 10 == 9:
                # exact-tie stress: subsets of an integer lattice
                size = int(rng.integers(max(k + 2, 10), 600))
                pick = rng.permutation(len(lattice))[:size]
                cloud = rf.PointCloud(
                    points=lattice[pick], remission=rng.uniform(0, 1, size)
                )
            else:
                size = int(10 ** rng.uniform(1.1, 3.3))
                size = max(size, k + 2)
                cloud = random_cloud(rng, size)
            subset = rng.permutation(size)[: int(rng.integers(k + 1, size + 1))]
            brute = rf.knn_brute(subset, cloud, k)
            indexed = rf.knn_indexed(subset, cloud, k)
            for a, b in zip(brute, indexed):
                assert a.anchor == b.anchor
                assert np.array_equal(a.indices, b.indices)
                assert np.array_equal(a.distances, b.distances)
            checked += 1
        assert checked == 200
        _report(4, "knn oracle: 200 subsets (10..2000, k in {3,5,7,10}) exact match")


class TestCriterion05HandWorkedExample:
    def test_collinear_three_point(self):
        cloud = rf.PointCloud(
            points=np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]]),
            remission=np.full(3, 0.7),
        )
        m = rf.rapid([0, 1, 2], cloud, k=2, delta=np.inf)
        assert m.values.tolist() == [[0.0, 0.5], [0.0, 1.0], [0.5, 1.0]]
        _report(5, "hand-worked collinear case reproduces (0,.5),(0,1),(.5,1)")


class TestCriterion06ScatterIdentities:
    def test_softmax_and_sum(self):
        rng = np.random.default_rng(10)
        worst_sum = 0.0
        worst_cons = 0.0
        for _ in range(100):
            m = int(rng.integers(2, 501))
            pts = rng.uniform(-4, 4, size=(m, 3))
            groups = rf.voxelize(pts, float(rng.uniform(0.3, 2.0)))
            l = int(rng.integers(1, 6))
            att = rf.scatter_softmax(rng.normal(size=(m, l)) * 5, groups)
            sums = rf.scatter_sum(att, groups)
            worst_sum = max(worst_sum, float(np.abs(sums - 1).max()))
            assert np.abs(sums - 1.0).max() <= 1e-12
            d = int(rng.integers(1, 10))
            dims = rf.EmbeddingDims(latents=l, width=max(d, 1), reduced=max(d, 1))
            weights = rf.WeightSet.seeded(dims, rng, in_width=4)
            latents = rf.seeded_latents(dims, rng)
            feats = rng.normal(size=(m, 4))
            h = point_attention(feats, latents, weights, groups)
            hv = rf.vsa_encode(feats, latents, weights, groups)
            err = float(np.abs(hv.sum(axis=0) - h.sum(axis=0)).max())
            worst_cons = max(worst_cons, err)
            assert err <= 1e-9
        _report(
            6,
            f"scatter: group sums off by {worst_sum:.1e} <= 1e-12, "
            f"conservation off by {worst_cons:.1e} <= 1e-9 over 100 instances",
        )


class TestCriterion07IdentityRoundTrip:
    def test_inner_bottleneck_identity(self):
        rng = np.random.default_rng(11)
        dims = rf.EmbeddingDims(latents=4, width=12, reduced=12, stages=3)
        weights = rf.WeightSet.identity(dims)
        groups = rf.voxelize(rng.uniform(-5, 5, size=(200, 3)), 0.8)
        hv = rng.normal(size=(groups.num_voxels, 4, 12))
        _, hv_hat = rf.inner_bottleneck(hv, weights, groups)
        err = float(np.abs(hv_hat - hv).max())
        assert err <= 1e-9
        _report(7, f"identity round-trip error {err:.1e} <= 1e-9")


class TestCriterion08LossOracles:
    def test_losses(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for m in range(2, 13):
            for _ in range(8):
                h = rng.normal(size=(m, 4))
                pts = rng.uniform(-3, 3, size=(m, 3))
                labels = rng.integers(0, 3, m)
                alpha = float(rng.uniform(0.1, 0.9))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    got = rf.contrastive_loss(h, pts, labels, alpha)
                expect = oracle_contrastive(h, pts, labels, alpha)
                worst = max(worst, abs(got - expect))
                assert abs(got - expect) <= 1e-12
        h = np.array([[1.0, 0.0], [0.0, 1.0]])
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            two_point = rf.contrastive_loss(h, pts, np.array([1, 1]), alpha=0.5)
        assert two_point == 0.5
        g = rng.normal(size=(9, 6))
        g_hat = rng.normal(size=(9, 6))
        direct = sum(
            (g[i, j] - g_hat[i, j]) ** 2 for i in range(9) for j in range(6)
        ) / 54.0
        assert abs(rf.reconstruction_loss(g, g_hat) - direct) <= 1e-12
        _report(
            8,
            f"loss oracles: contrastive worst gap {worst:.1e} <= 1e-12, "
            "two-point case exactly 0.5, reconstruction matches direct sum",
        )


class TestCriterion09FusionContracts:
    def test_gate_bounds_and_componentwise(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            f = int(rng.integers(2, 24))
            w1, w2 = rf.gate_weights(f, 4, rng)
            a = rf.excite(rng.normal(size=f), w1, w2)
            assert np.all(a > 0.0) and np.all(a < 1.0)
        z = np.array([3.0, -1.0, 0.0, 2.0])
        a = rf.excite(z, np.zeros((1, 4)), np.zeros((4, 1)))
        assert np.array_equal(a, np.full(4, 0.5))
        e = rng.normal(size=(6, 3, 8)) * 4
        w1, w2 = rf.gate_weights(8, 4, rng)
        gated = rf.fuse(e, rf.excite(rf.squeeze(e), w1, w2))
        assert np.all(np.abs(gated) <= np.abs(e))
        _report(9, "fusion: 1000 gates in (0,1), zero gate = 0.5, |E'| <= |E|")


class TestCriterion10Metrics:
    def test_iou_oracle_and_hand_cases(self):
        from test_metrics import set_based_iou
        import math

        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(1, 101))
            n_cls = int(rng.integers(1, 6))
            truth = rng.integers(0, n_cls, n)
            pred = rng.integers(0, n_cls, n)
            cm = rf.ConfusionMatrix.empty(n_cls)
            rf.accumulate(cm, truth, pred)
            for c in range(n_cls):
                expect = set_based_iou(truth, pred, c)
                got = rf.iou(cm, c)
                assert (math.isnan(expect) and math.isnan(got)) or got == expect
        cm = rf.ConfusionMatrix.empty(2)  # class 0: TP 6, FP 2, FN 4
        rf.accumulate(cm, [0] * 6 + [1] * 2 + [0] * 4, [0] * 6 + [0] * 2 + [1] * 4)
        assert rf.iou(cm, 0) == 0.5
        truth = rng.integers(0, 5, 300)
        cm = rf.ConfusionMatrix.empty(5)
        rf.accumulate(cm, truth, truth)
        assert rf.miou(cm) == 1.0
        _report(10, "metrics: set-based oracle exact, TP6/FP2/FN4 = 0.5, perfect = 1.0")


class TestCriterion11RangeAwareConfigs:
    @pytest.mark.parametrize("ks", [(10, 7, 5), (8, 6, 3)])
    def test_config_drives_extraction(self, ks, tmp_path):
        scene = {
            "seed": 5,
            "noise_sigma": 0.05,
            "primitives": [
                {"type": "box", "center": [10, 0, 1], "size": [3, 3, 2],
                 "count": 900, "class_id": 1, "reflectivity": 0.4},
                {"type": "box", "center": [30, 5, 1], "size": [4, 4, 2],
                 "count": 900, "class_id": 2, "reflectivity": 0.6},
                {"type": "box", "center": [60, -10, 1], "size": [6, 6, 3],
                 "count": 900, "class_id": 3, "reflectivity": 0.8},
            ],
        }
        out = tmp_path / f"feat_{ks[0]}.rapd"
        cfg = {
            "input": {"synthetic": scene},
            "output": {"features": str(out)},
            "sensor": {"beam_count": 16, "vertical_fov_deg": [-10, 10],
                       "measurements_per_cycle": 360},
            "rapid": {"k_close": ks[0], "k_mid": ks[1], "k_far": ks[2]},
        }
        cfg_path = tmp_path / f"cfg_{ks[0]}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["extract", "--config", str(cfg_path)]) == EXIT_OK
        loaded = load_feature_file(out)
        assert loaded.meta["k"] == list(ks)
        by_band = {"close": ks[0], "mid": ks[1], "far": ks[2]}
        seen_bands = set()
        for mat in loaded.matrices:
            band = mat.roi_id.rsplit("-", 1)[1]
            seen_bands.add(band)
            assert mat.k == by_band[band]
            assert mat.values.shape[1] == by_band[band]
        assert seen_bands == {"close", "mid", "far"}
        _report(11, f"config {ks} drives per-band matrix widths end to end")


class TestCriterion12Performance:
    def test_single_scan_budget_and_worker_identity(self):
        cloud = kitti_style_scan(seed=77, beams=64, per_beam=1875)
        assert len(cloud) == 120000
        geometry = rf.SensorGeometry.from_fov(64, (-24.8, 2.0))
        config = rf.RangeAwareConfig()  # (10, 7, 5)
        # warm-up on a small slice, then report the best of two timed runs
        rf.r_rapid(cloud.take(np.arange(0, 120000, 40)), geometry, config)
        best = np.inf
        for _ in range(2):
            t0 = time.perf_counter()
            base = rf.r_rapid(cloud, geometry, config, workers=1)
            best = min(best, time.perf_counter() - t0)
        assert best <= 2.0, f"single-worker extraction took {best:.2f}s"
        for workers in (2, 8):
            fs = rf.r_rapid(cloud, geometry, config, workers=workers)
            assert fs.values.tobytes() == base.values.tobytes()
        _report(
            12,
            f"performance: 120k-point scan in {best:.2f}s <= 2s, "
            "byte-identical at 2 and 8 workers",
        )
