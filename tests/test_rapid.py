"""RAPiD matrix pipeline: metric, scale, sorting, outliers, invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rapidfeat import (
    ContractError,
    InsufficientPointsError,
    PointCloud,
    RangeAwareConfig,
    ReflectivityScale,
    RigidTransform,
    c_rapid,
    knn_brute,
    r_rapid,
    rapid,
    rapid_unnormalized,
    range_of,
    reflectivity_map,
    reflectivity_metric,
)

from rapidfeat.rapid import _lexsorted, band_indices

from conftest import random_cloud, small_geometry
from oracles import compute_scale, lexsort_rows, rho, select_k


def collinear_cloud(reflectivity=0.7):
    return PointCloud(
        points=np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]]),
        remission=np.full(3, reflectivity),
    )


def exhaustive_rapid_rows(cloud, subset, k):
    """Independent oracle: full-pairwise 4D ranking with the same two-pass
    scale definition, no candidate pool, plain per-anchor selection.

    Elementary distance arithmetic (squared diffs summed in axis order)
    matches the implementation so bit-level comparison is meaningful; the
    candidate selection logic is what this oracle checks.
    """
    idx = np.sort(np.asarray(subset))
    pts = cloud.points[idx]
    refl = cloud.remission[idx]
    u = len(idx)
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = np.einsum("abc,abc->ab", diff, diff)
    np.fill_diagonal(d2, np.inf)
    knn_d2 = np.sort(d2, axis=1)[:, :k]
    scale = ReflectivityScale(
        float(refl.min()),
        float(refl.max()),
        float(np.sqrt(knn_d2.min())),
        float(np.sqrt(knn_d2.max())),
    )
    g = np.asarray(reflectivity_map(refl, scale))
    rows = np.empty((u, k))
    for a in range(u):
        rho_all = np.sqrt(d2[a] + (g[a] - g) ** 2)
        rho_all[a] = np.inf
        rows[a] = np.sort(rho_all)[:k]
    return rows[lexsort_rows(rows)], scale


class TestReflectivityMap:
    scale = ReflectivityScale(r_min=0.2, r_max=0.8, d_min=1.0, d_max=5.0)

    def test_low_endpoint(self):
        assert reflectivity_map(0.2, self.scale) == 1.0

    def test_high_endpoint(self):
        assert reflectivity_map(0.8, self.scale) == 5.0

    def test_midpoint_linearity(self):
        assert reflectivity_map(0.5, self.scale) == pytest.approx(3.0, abs=1e-15)

    def test_monotone(self, rng):
        r = np.sort(rng.uniform(0.2, 0.8, 100))
        g = reflectivity_map(r, self.scale)
        assert np.all(np.diff(g) >= 0)

    def test_degenerate_scale_constant(self):
        degenerate = ReflectivityScale(0.5, 0.5, 1.0, 5.0)
        assert reflectivity_map(0.1, degenerate) == 1.0
        assert reflectivity_map(0.9, degenerate) == 1.0


class TestRho:
    scale = ReflectivityScale(0.0, 1.0, 0.0, 12.0)

    def test_identical_points(self):
        p = np.array([1.0, 2.0, 3.0])
        assert rho(p, p, 0.5, 0.5, self.scale) == 0.0

    def test_pythagorean_3d(self):
        assert rho(
            np.array([3.0, 4.0, 0.0]), np.zeros(3), 0.5, 0.5, self.scale
        ) == 5.0

    def test_3_4_12_13_quadruple(self):
        # coordinate part 5 from (3,4,0); g difference 12 from full swing
        assert rho(
            np.array([3.0, 4.0, 0.0]), np.zeros(3), 1.0, 0.0, self.scale
        ) == 13.0

    def test_symmetry(self, rng):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert rho(a, b, 0.2, 0.9, self.scale) == rho(b, a, 0.9, 0.2, self.scale)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        spread=st.sampled_from([1e-3, 1.0, 50.0]),
        levels=st.integers(1, 4),
    )
    def test_matches_reflectivity_metric(self, seed, n, spread, levels):
        # Every pair distance the library ranks under the (x, y, z, g(r))
        # embedding equals the scalar 4D distance of the pair.
        rng = np.random.default_rng(seed)
        cloud = PointCloud(
            points=rng.uniform(-spread, spread, size=(n, 3)),
            remission=rng.choice(rng.uniform(0.0, 1.0, levels), size=n),
        )
        scale = ReflectivityScale(
            float(cloud.remission.min()), float(cloud.remission.max()), 0.5, 3.0
        )
        p, r = cloud.points, cloud.remission
        for nl in knn_brute(rng.permutation(n), cloud, n - 1, reflectivity_metric(scale)):
            j = nl.anchor
            oracle = [rho(p[j], p[l], r[j], r[l], scale) for l in nl.indices]
            np.testing.assert_allclose(nl.distances, oracle, rtol=1e-14, atol=0.0)


class TestComputeScale:
    def test_collinear_hand_enumeration(self):
        # k=2 on x=0,1,3: every pair is a neighbor pair; distances {1,2,3}
        cloud = collinear_cloud()
        lists = knn_brute([0, 1, 2], cloud, 2)
        scale = compute_scale([0, 1, 2], cloud, lists)
        assert scale.d_min == 1.0
        assert scale.d_max == 3.0

    def test_all_coincident(self):
        cloud = PointCloud(points=np.zeros((3, 3)), remission=np.full(3, 0.4))
        lists = knn_brute([0, 1, 2], cloud, 2)
        scale = compute_scale([0, 1, 2], cloud, lists)
        assert scale.d_min == 0.0 and scale.d_max == 0.0

    def test_constant_reflectivity(self):
        cloud = collinear_cloud(reflectivity=0.7)
        lists = knn_brute([0, 1, 2], cloud, 2)
        scale = compute_scale([0, 1, 2], cloud, lists)
        assert scale.r_min == 0.7 and scale.r_max == 0.7

    def test_empty_lists_error(self):
        with pytest.raises(InsufficientPointsError):
            compute_scale([0, 1], collinear_cloud(), [])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 150),
        k=st.integers(1, 10),
        grid=st.booleans(),
    )
    def test_matches_rapid_scale(self, seed, n, k, grid):
        # The scale rapid derives from its coordinate pass equals the scale
        # of the exhaustive coordinate k-NN pairs; integer grids add ties
        # and coincident points, n > 64 takes the KD-tree path.
        rng = np.random.default_rng(seed)
        m = n + int(rng.integers(0, 20))
        pts = rng.integers(-3, 4, size=(m, 3)) if grid else rng.normal(0, 4, (m, 3))
        cloud = PointCloud(
            points=pts.astype(np.float64), remission=rng.uniform(0.0, 1.0, m)
        )
        subset = rng.choice(m, size=n, replace=False)
        k = min(k, n - 1)
        _, _, scale = rapid_unnormalized(subset, cloud, k)
        assert scale == compute_scale(subset, cloud, knn_brute(subset, cloud, k))


class TestRapidHandCase:
    def test_collinear_frozen_values(self):
        m = rapid([0, 1, 2], collinear_cloud(), k=2, delta=np.inf)
        assert m.values.tolist() == [[0.0, 0.5], [0.0, 1.0], [0.5, 1.0]]

    def test_collinear_raw_rows(self):
        rows, _, scale = rapid_unnormalized([0, 1, 2], collinear_cloud(), 2)
        assert rows.tolist() == [[1.0, 2.0], [1.0, 3.0], [2.0, 3.0]]
        assert (scale.d_min, scale.d_max) == (1.0, 3.0)

    def test_anchor_order_tracks_rows(self):
        m = rapid([0, 1, 2], collinear_cloud(), k=2, delta=np.inf)
        # row (0, .5) is anchor x=1, (0, 1) anchor x=0, (.5, 1) anchor x=3
        assert m.anchors.tolist() == [1, 0, 2]


class TestRapidStructure:
    @pytest.mark.parametrize("seed", range(5))
    def test_rows_ascending_and_lexicographic(self, seed):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, 120, spread=4.0)
        m = rapid(np.arange(120), cloud, k=6, delta=2.5)
        assert np.all(np.diff(m.values, axis=1) >= 0)
        for i in range(m.u - 1):
            a, b = m.values[i], m.values[i + 1]
            assert a.tolist() <= b.tolist()
        assert m.values.min() >= 0.0 and m.values.max() <= 1.0

    def test_outliers_substituted_with_one(self, rng):
        cloud = random_cloud(rng, 60, spread=8.0)
        m = rapid(np.arange(60), cloud, k=5, delta=0.8)
        rows, _, _ = rapid_unnormalized(np.arange(60), cloud, 5)
        n_outliers = int((rows > 0.8).sum())
        assert n_outliers > 0
        assert int((m.values == 1.0).sum()) >= n_outliers

    def test_outlier_count_is_the_mask(self, rng):
        cloud = random_cloud(rng, 60, spread=8.0)
        m = rapid(np.arange(60), cloud, k=5, delta=0.8)
        rows, _, _ = rapid_unnormalized(np.arange(60), cloud, 5)
        assert m.outliers == int((rows > 0.8).sum()) > 0

    def test_normalized_maximum_is_no_outlier(self, rng):
        # The extract summary used to count every 1.0 as padding, so this
        # region's normalized maximum read as a pad rate of 0.005.
        cloud = random_cloud(rng, 40)
        m = rapid(np.arange(40), cloud, k=5, delta=np.inf)
        assert m.outliers == 0 and int((m.values == 1.0).sum()) == 1

    def test_no_survivors_all_ones(self):
        cloud = PointCloud(
            points=np.array([[0.0, 0, 0], [5.0, 0, 0], [10.0, 0, 0]]),
            remission=np.zeros(3),
        )
        m = rapid([0, 1, 2], cloud, k=2, delta=0.5)
        assert np.all(m.values == 1.0)

    def test_all_equal_survivors_normalize_to_zero(self):
        # unit lattice ring of 4 points: nearest distances all 1
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0]])
        cloud = PointCloud(points=pts, remission=np.zeros(4))
        m = rapid([0, 1, 2, 3], cloud, k=2, delta=1.0)
        assert set(np.unique(m.values)) <= {0.0, 1.0}

    def test_insufficient_points(self, rng):
        cloud = random_cloud(rng, 5)
        with pytest.raises(InsufficientPointsError):
            rapid(np.arange(5), cloud, k=5, delta=1.0)

    def test_minimal_region_two_points(self):
        cloud = PointCloud(
            points=np.array([[0.0, 0, 0], [1.0, 0, 0]]), remission=np.full(2, 0.5)
        )
        m = rapid([0, 1], cloud, k=1, delta=5.0)
        assert m.values.tolist() == [[0.0], [0.0]]
        assert (m.scale.d_min, m.scale.d_max) == (1.0, 1.0)

    def test_all_coincident_region(self):
        # duplicate-heavy input runs the widening retrieval to exhaustion
        cloud = PointCloud(points=np.ones((90, 3)), remission=np.full(90, 0.3))
        m = rapid(np.arange(90), cloud, k=5, delta=1.0)
        assert np.all(m.values == 0.0)


class TestRowSort:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_matches_lexsort_oracle(self, rng, k):
        # Few distinct values tie rows in every column; 0.0 is the normalized
        # minimum and 1.0 the outlier padding. Repeated rows must keep their
        # input order, as np.lexsort's stable order does.
        ties = np.sort(rng.integers(0, 4, size=(300, k)) / 3.0, axis=1)
        ties[::7, -1] = 1.0
        ties[::11] = 0.0
        smooth = np.sort(rng.uniform(0.0, 1.0, size=(200, k)), axis=1)
        rows = np.vstack([ties, smooth, ties[:40], np.ones((5, k))])
        anchors = rng.permutation(len(rows))
        order = lexsort_rows(rows)
        got_rows, got_anchors = _lexsorted(rows, anchors)
        assert np.array_equal(got_rows, rows[order])
        assert np.array_equal(got_anchors, anchors[order])


class TestRapidInvariances:
    def test_isometry_unnormalized_1e9(self):
        rng = np.random.default_rng(42)
        cloud = random_cloud(rng, 300, spread=15.0)
        base, base_anchors, _ = rapid_unnormalized(np.arange(300), cloud, 7)
        for _ in range(10):
            t = RigidTransform.random(rng)
            moved = cloud.with_points(t.apply(cloud.points))
            rows, anchors, _ = rapid_unnormalized(np.arange(300), moved, 7)
            assert np.abs(rows - base).max() <= 1e-9
            assert np.array_equal(anchors, base_anchors)

    def test_isometry_normalized_rank_structure(self):
        rng = np.random.default_rng(43)
        cloud = random_cloud(rng, 200, spread=10.0)
        base = rapid(np.arange(200), cloud, k=5, delta=2.0)
        for _ in range(5):
            t = RigidTransform.random(rng)
            moved = cloud.with_points(t.apply(cloud.points))
            m = rapid(np.arange(200), moved, k=5, delta=2.0)
            assert np.array_equal(m.anchors, base.anchors)
            assert np.array_equal(
                np.argsort(m.values.ravel(), kind="stable"),
                np.argsort(base.values.ravel(), kind="stable"),
            )

    def test_permutation_byte_identical(self):
        rng = np.random.default_rng(44)
        pts = rng.uniform(-5, 5, size=(150, 3))
        refl = rng.uniform(0, 1, 150)
        base = rapid(
            np.arange(150), PointCloud(points=pts, remission=refl), 6, 2.0
        )
        base_content = sorted(
            (row.tobytes(), a) for row, a in zip(base.values, base.anchors)
        )
        for _ in range(20):
            perm = rng.permutation(150)
            shuffled = PointCloud(points=pts[perm], remission=refl[perm])
            m = rapid(np.arange(150), shuffled, 6, 2.0)
            assert m.values.tobytes() == base.values.tobytes()
            # anchors map back through the permutation; identical rows may
            # swap positions, so compare (row, anchor) content as a whole
            content = sorted(
                (row.tobytes(), a) for row, a in zip(m.values, perm[m.anchors])
            )
            assert content == base_content

    def test_reflectivity_affine_invariance(self):
        rng = np.random.default_rng(45)
        pts = rng.uniform(-5, 5, size=(100, 3))
        refl = rng.uniform(0.1, 0.9, 100)
        base = rapid(np.arange(100), PointCloud(points=pts, remission=refl), 5, 2.0)
        for _ in range(10):
            a = rng.uniform(0.1, 10.0)
            b = rng.uniform(-5.0, 5.0)
            m = rapid(
                np.arange(100),
                PointCloud(points=pts, remission=a * refl + b),
                5,
                2.0,
            )
            assert np.abs(m.values - base.values).max() <= 1e-12

    def test_degenerate_reflectivity_reduces_to_3d(self, rng):
        pts = rng.uniform(-4, 4, size=(80, 3))
        cloud = PointCloud(points=pts, remission=np.full(80, 0.3))
        rows, anchors, _ = rapid_unnormalized(np.arange(80), cloud, 5)
        # oracle: plain coordinate KNN distances, sorted the same way
        lists = knn_brute(np.arange(80), cloud, 5)
        expected = np.array([lists[a].distances for a in range(80)])
        assert np.abs(rows - expected[lexsort_rows(expected)]).max() == 0.0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(46)
        pts = rng.uniform(-5, 5, size=(90, 3))
        refl = rng.uniform(0, 1, 90)
        cloud = PointCloud(points=pts, remission=refl)
        rows, _, _ = rapid_unnormalized(np.arange(90), cloud, 5)
        for s in (0.5, 2.0, 7.5):
            scaled = PointCloud(points=pts * s, remission=refl)
            rows_s, _, _ = rapid_unnormalized(np.arange(90), scaled, 5)
            assert np.abs(rows_s - s * rows).max() <= 1e-9 * s
            m = rapid(np.arange(90), cloud, 5, delta=2.0)
            m_s = rapid(np.arange(90), scaled, 5, delta=2.0 * s)
            assert np.abs(m.values - m_s.values).max() <= 1e-12


def assert_rows_match_4d_brute(cloud, subset, k):
    """rapid_unnormalized rows equal knn_brute distances under the 4D metric
    at the region's own scale, row by row in the returned anchor order."""
    rows, anchors, scale = rapid_unnormalized(subset, cloud, k)
    lists = knn_brute(anchors, cloud, k, reflectivity_metric(scale))
    oracle = np.stack([nl.distances for nl in lists])
    assert np.abs(rows - oracle).max() <= 1e-12


class TestPoolMatchesExhaustive4D:
    """Rows are the k smallest 4D distances inside the region, exactly as an
    exhaustive 4D ranking gives them; no coordinate pre-selection."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_regions(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(40, 400))
        cloud = random_cloud(rng, n, spread=6.0)
        k = int(rng.choice([3, 5, 7, 10]))
        rows, _, scale = rapid_unnormalized(np.arange(n), cloud, k)
        expected, scale_o = exhaustive_rapid_rows(cloud, np.arange(n), k)
        assert scale == scale_o
        assert np.abs(rows - expected).max() <= 1e-12

    def test_structured_scene(self, scene_cloud):
        sub = np.flatnonzero(scene_cloud.label == 2)
        rows, _, _ = rapid_unnormalized(sub, scene_cloud, 7)
        expected, _ = exhaustive_rapid_rows(scene_cloud, sub, 7)
        assert np.abs(rows - expected).max() <= 1e-12

    def test_every_scene_region(self, scene_cloud):
        # ring000-close has rows whose 4D neighbors are far from their
        # coordinate neighbors; any coordinate pre-selection misses them.
        config = RangeAwareConfig()
        features = (
            r_rapid(scene_cloud, small_geometry(), config),
            c_rapid(scene_cloud, config),
        )
        roi_ids = [m.roi_id for f in features for m in f.matrices]
        assert "ring000-close" in roi_ids
        for f in features:
            for mat in f.matrices:
                assert_rows_match_4d_brute(scene_cloud, mat.anchors, mat.k)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        clusters=st.integers(1, 4),
        size=st.integers(8, 80),
        spread=st.sampled_from([1e-3, 0.05, 0.5]),
        levels=st.integers(2, 4),
        k=st.sampled_from([3, 5, 10]),
    )
    def test_clustered_mixed_reflectivity(self, seed, clusters, size, spread, levels, k):
        # Tight clusters whose points carry a few distinct reflectivity levels
        # plus a continuous tail: the 4D nearest neighbor of a point is often
        # a same-level point far away in coordinates.
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-5.0, 5.0, size=(clusters, 3))
        pts = np.concatenate(
            [c + rng.normal(0.0, spread, size=(size, 3)) for c in centers]
        )
        n = len(pts)
        refl = rng.choice(np.linspace(0.0, 1.0, levels), size=n)
        tail = rng.random(n) < 0.2
        refl[tail] = rng.uniform(0.0, 1.0, int(tail.sum()))
        cloud = PointCloud(points=pts, remission=refl)
        assert_rows_match_4d_brute(cloud, np.arange(n), min(k, n - 1))


class TestSelectK:
    config = RangeAwareConfig(band_edges=(20.0, 50.0), k_close=10, k_mid=7, k_far=5)

    def test_close_range(self):
        assert select_k(np.array([3.0, 4.0, 0.0]), self.config) == 10

    def test_exact_edge_goes_far_side(self):
        assert select_k(np.array([20.0, 0.0, 0.0]), self.config) == 7
        assert select_k(np.array([50.0, 0.0, 0.0]), self.config) == 5

    def test_far_range(self):
        assert select_k(np.array([100.0, 0.0, 0.0]), self.config) == 5

    def _production_k(self, points):
        bands = band_indices(np.asarray(range_of(points)), self.config)
        return [self.config.ks[b] for b in bands]

    def test_band_indices_exact_edge_hits(self):
        # Points whose range is exactly an edge, on and off the axes.
        edges = np.array(
            [
                [20.0, 0.0, 0.0],
                [0.0, -20.0, 0.0],
                [12.0, 16.0, 0.0],
                [0.0, 12.0, -16.0],
                [50.0, 0.0, 0.0],
                [30.0, 0.0, 40.0],
                [-14.0, 48.0, 0.0],
                [np.nextafter(20.0, 0.0), 0.0, 0.0],
                [np.nextafter(50.0, 0.0), 0.0, 0.0],
            ]
        )
        oracle = [select_k(p, self.config) for p in edges]
        assert oracle == [7, 7, 7, 7, 5, 5, 5, 10, 7]
        assert self._production_k(edges) == oracle

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.floats(-120.0, 120.0, allow_nan=False)] * 3),
            min_size=1,
            max_size=40,
        )
    )
    def test_band_indices_match_oracle(self, points):
        pts = np.array(points, dtype=np.float64)
        assert self._production_k(pts) == [select_k(p, self.config) for p in pts]

    def test_config_validation(self):
        with pytest.raises(ContractError):
            RangeAwareConfig(band_edges=(50.0, 20.0))
        with pytest.raises(ContractError):
            RangeAwareConfig(delta=0.0)
        with pytest.raises(ContractError):
            RangeAwareConfig(k_far=0)
        # valid_width stores k as int32
        with pytest.raises(ContractError):
            RangeAwareConfig(k_close=2**31)
        assert RangeAwareConfig(k_close=2**31 - 1).k_max == 2**31 - 1

    def test_fallback_chain(self):
        assert self.config.fallback_chain(0) == [10, 7, 5]
        assert self.config.fallback_chain(1) == [7, 5]
        assert self.config.fallback_chain(2) == [5]
