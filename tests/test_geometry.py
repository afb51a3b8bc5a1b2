"""Transforms, range computation, and the two KNN routes."""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from rapidfeat import (
    ContractError,
    InsufficientPointsError,
    PointCloud,
    RigidTransform,
    SensorGeometry,
    knn_brute,
    knn_indexed,
    load_kitti_scan,
    rapid,
    rapid_unnormalized,
    range_of,
    save_kitti_scan,
)
from rapidfeat import geometry
from rapidfeat.geometry import (
    cell_codes,
    cell_neighbours,
    knn_distance_range,
    nearest_candidate_rows,
)
from rapidfeat.partition import elevation_rings
from rapidfeat.rapid import RangeAwareConfig, band_indices

from conftest import kitti_style_scan, random_cloud
from oracles import cell_blocks, range_candidates, tree_candidate_rows_whole


def rotation_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def lists_equal(a, b) -> bool:
    return all(
        x.anchor == y.anchor
        and np.array_equal(x.indices, y.indices)
        and np.array_equal(x.distances, y.distances)
        for x, y in zip(a, b)
    )


class TestRigidTransform:
    def test_identity_is_valid(self):
        t = RigidTransform(np.eye(3), np.zeros(3))
        assert np.array_equal(t.apply(np.array([[1.0, 2.0, 3.0]])), [[1.0, 2.0, 3.0]])

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ContractError):
            RigidTransform(np.eye(3) * 1.01, np.zeros(3))

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ContractError):
            RigidTransform(r, np.zeros(3))

    def test_random_transforms_valid(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            t = RigidTransform.random(rng)
            assert np.allclose(t.rotation.T @ t.rotation, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(t.rotation) - 1.0) < 1e-12


class TestApplyTransform:
    """A rigid motion applied to a cloud's points, as check-invariance applies
    it: cloud.with_points(t.apply(cloud.points))."""

    def test_identity(self, scene_cloud):
        t = RigidTransform(np.eye(3), np.zeros(3))
        moved = scene_cloud.with_points(t.apply(scene_cloud.points))
        assert np.array_equal(moved.points, scene_cloud.points)
        assert np.array_equal(moved.remission, scene_cloud.remission)

    def test_pure_translation(self):
        cloud = PointCloud(points=np.zeros((1, 3)), remission=np.zeros(1))
        t = RigidTransform(np.eye(3), np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(cloud.with_points(t.apply(cloud.points)).points, [[1.0, 0.0, 0.0]])

    def test_z_rotation_90deg(self):
        cloud = PointCloud(points=np.array([[1.0, 0.0, 0.0]]), remission=np.zeros(1))
        t = RigidTransform(rotation_z(np.pi / 2), np.zeros(3))
        assert np.allclose(
            cloud.with_points(t.apply(cloud.points)).points, [[0.0, 1.0, 0.0]], atol=1e-12
        )

    def test_channels_untouched(self, scene_cloud):
        # A synthetic scene has no ring channel; give it one to carry.
        cloud = replace(scene_cloud, ring=np.arange(len(scene_cloud)) % 16)
        t = RigidTransform.random(np.random.default_rng(0))
        moved = cloud.with_points(t.apply(cloud.points))
        assert moved.ring is not None and np.array_equal(moved.ring, cloud.ring)
        assert np.array_equal(moved.label, cloud.label)

    def test_pairwise_distances_preserved(self, rng):
        pts = rng.normal(size=(80, 3)) * 5.0
        cloud = PointCloud(points=pts, remission=np.zeros(80))
        moved = cloud.with_points(RigidTransform.random(rng).apply(cloud.points))
        d0 = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        d1 = np.linalg.norm(
            moved.points[:, None] - moved.points[None, :], axis=2
        )
        assert np.abs(d0 - d1).max() < 1e-9


class TestRangeOf:
    def test_pythagorean(self):
        assert range_of(np.array([[3.0, 4.0, 0.0]])) == [5.0]

    def test_origin(self):
        assert range_of(np.zeros((1, 3))) == [0.0]

    def test_unit_diagonal(self):
        out = range_of(np.ones((1, 3)))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(np.sqrt(3.0), abs=0)

    def test_vectorized(self):
        out = range_of(np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 2.0]]))
        assert np.array_equal(out, [5.0, 2.0])


class TestKnnBrute:
    def test_collinear_hand_case(self):
        # pairwise distances: |0-1|=1, |0-3|=3, |1-3|=2
        cloud = PointCloud(
            points=np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]]),
            remission=np.zeros(3),
        )
        lists = knn_brute([0, 1, 2], cloud, k=2)
        assert np.array_equal(lists[0].distances, [1.0, 3.0])
        assert np.array_equal(lists[0].indices, [1, 2])
        assert np.array_equal(lists[1].distances, [1.0, 2.0])
        assert np.array_equal(lists[2].distances, [2.0, 3.0])

    def test_coincident_points_distance_zero_first(self):
        cloud = PointCloud(
            points=np.array([[0.0, 0, 0], [0.0, 0, 0], [5.0, 0, 0]]),
            remission=np.zeros(3),
        )
        lists = knn_brute([0, 1, 2], cloud, k=2)
        assert lists[0].distances[0] == 0.0
        assert lists[0].indices[0] == 1

    def test_k_equals_subset_minus_one(self, rng):
        cloud = random_cloud(rng, 9)
        lists = knn_brute(np.arange(9), cloud, k=8)
        for nl in lists:
            assert sorted(nl.indices) == [i for i in range(9) if i != nl.anchor]

    def test_insufficient_points(self, rng):
        cloud = random_cloud(rng, 4)
        with pytest.raises(InsufficientPointsError):
            knn_brute(np.arange(4), cloud, k=4)

    def test_duplicate_subset_rejected(self, rng):
        cloud = random_cloud(rng, 6)
        with pytest.raises(ContractError):
            knn_brute([0, 1, 1, 2], cloud, k=1)

    def test_subset_order_does_not_change_results(self, rng):
        cloud = random_cloud(rng, 40)
        subset = np.arange(5, 35)
        a = {nl.anchor: nl for nl in knn_brute(subset, cloud, 4)}
        b = {nl.anchor: nl for nl in knn_brute(subset[::-1], cloud, 4)}
        for anchor in a:
            assert np.array_equal(a[anchor].indices, b[anchor].indices)
            assert np.array_equal(a[anchor].distances, b[anchor].distances)


class TestSubsetContract:
    # rapid and the two KNN routes share one subset check; each of these
    # used to be accepted (-1 aliases point 19, floats and bools were
    # truncated into indices) or to end in IndexError or ValueError.
    @pytest.mark.parametrize(
        "run",
        [
            pytest.param(lambda s, c: rapid(s, c, 3, 2.0), id="rapid"),
            pytest.param(lambda s, c: rapid_unnormalized(s, c, 3), id="rapid_unnormalized"),
            pytest.param(lambda s, c: knn_brute(s, c, 2), id="knn_brute"),
            pytest.param(lambda s, c: knn_indexed(s, c, 2), id="knn_indexed"),
        ],
    )
    @pytest.mark.parametrize(
        "subset",
        [
            pytest.param(list(range(19)) + [-1], id="alias"),
            pytest.param(list(range(19)) + [20], id="past-end"),
            pytest.param(np.arange(20).reshape(4, 5), id="2d"),
            pytest.param([0.2, 1.9, 2.5, 3.99], id="float"),
            pytest.param(np.array([True, False]), id="bool"),
        ],
    )
    def test_malformed_subset_rejected(self, rng, run, subset):
        with pytest.raises(ContractError):
            run(subset, random_cloud(rng, 20))

    def test_empty_subset_is_insufficient(self, rng):
        # np.asarray([]) is float64, yet the subset is too small, not malformed.
        cloud = random_cloud(rng, 20)
        with pytest.raises(InsufficientPointsError):
            rapid([], cloud, 1, 2.0)
        with pytest.raises(InsufficientPointsError):
            knn_brute([], cloud, 1)

    def test_nonpositive_k_rejected(self, rng):
        # knn_brute used to return empty neighbor lists for k=0
        with pytest.raises(ContractError):
            knn_brute(np.arange(5), random_cloud(rng, 5), 0)


class TestKnnIndexedOracle:
    def test_random_500_points(self, rng):
        cloud = random_cloud(rng, 500)
        subset = np.arange(500)
        assert lists_equal(
            knn_brute(subset, cloud, 7), knn_indexed(subset, cloud, 7)
        )

    def test_grid_degenerate_one_axis(self):
        # exact ties everywhere: stresses the index tie-break
        x = np.repeat(np.arange(50, dtype=np.float64), 3)
        pts = np.column_stack([x, np.zeros_like(x), np.zeros_like(x)])
        cloud = PointCloud(points=pts, remission=np.zeros(len(x)))
        subset = np.arange(len(x))
        assert lists_equal(
            knn_brute(subset, cloud, 5), knn_indexed(subset, cloud, 5)
        )

    def test_forced_result_k_plus_one(self, rng):
        cloud = random_cloud(rng, 6)
        assert lists_equal(
            knn_brute(np.arange(6), cloud, 5), knn_indexed(np.arange(6), cloud, 5)
        )

    @pytest.mark.parametrize("k", [3, 5, 7, 10])
    def test_oracle_equivalence_sizes(self, k):
        rng = np.random.default_rng(100 + k)
        for size in (12, 80, 300, 1500):
            cloud = random_cloud(rng, size)
            subset = rng.permutation(size)[: max(k + 1, size // 2)]
            assert lists_equal(
                knn_brute(subset, cloud, k), knn_indexed(subset, cloud, k)
            )

    def test_4d_metric_route(self, rng):
        from rapidfeat import ReflectivityScale, reflectivity_metric

        cloud = random_cloud(rng, 400)
        scale = ReflectivityScale(0.0, 1.0, 0.05, 3.0)
        metric = reflectivity_metric(scale)
        subset = np.arange(400)
        assert lists_equal(
            knn_brute(subset, cloud, 6, metric),
            knn_indexed(subset, cloud, 6, metric),
        )

    def test_lattice_ties(self):
        # integer lattice: many exact distance ties across the tree horizon
        g = np.arange(7, dtype=np.float64)
        pts = np.stack(np.meshgrid(g, g, g), axis=-1).reshape(-1, 3)
        cloud = PointCloud(points=pts, remission=np.zeros(len(pts)))
        subset = np.arange(len(pts))
        assert lists_equal(
            knn_brute(subset, cloud, 6), knn_indexed(subset, cloud, 6)
        )

    def test_all_coincident_forces_full_widening(self):
        # zero horizon on every round: retrieval must widen to the whole set
        cloud = PointCloud(points=np.ones((100, 3)), remission=np.zeros(100))
        subset = np.arange(100)
        brute = knn_brute(subset, cloud, 3)
        indexed = knn_indexed(subset, cloud, 3)
        assert lists_equal(brute, indexed)
        assert brute[50].indices.tolist() == [0, 1, 2]
        assert brute[0].indices.tolist() == [1, 2, 3]


class TestTieBreakDeterminism:
    def test_permuted_storage_same_neighbor_sets(self, rng):
        pts = rng.normal(size=(200, 3))
        refl = rng.uniform(0, 1, 200)
        cloud = PointCloud(points=pts, remission=refl)
        base = {nl.anchor: nl for nl in knn_indexed(np.arange(200), cloud, 5)}
        perm = rng.permutation(200)
        shuffled = PointCloud(points=pts[perm], remission=refl[perm])
        inv = np.empty(200, dtype=np.int64)
        inv[perm] = np.arange(200)
        for nl in knn_indexed(np.arange(200), shuffled, 5):
            ref = base[perm[nl.anchor]]
            assert set(perm[nl.indices]) == set(ref.indices)
            assert np.array_equal(nl.distances, ref.distances)


class TestCandidateRows:
    def test_rejects_bad_depth(self, rng):
        with pytest.raises(ContractError):
            nearest_candidate_rows(rng.normal(size=(5, 3)), 5)

    def test_rows_sorted(self, rng):
        x = rng.normal(size=(120, 3))
        _, d2 = nearest_candidate_rows(x, 10)
        finite = d2[:, :-1]
        assert np.all(np.diff(finite, axis=1) >= 0)

    def test_no_metric_ranks_coordinates(self, rng):
        cloud, subset = random_cloud(rng, 30), rng.permutation(30)[:20]
        for knn in (knn_brute, knn_indexed):
            plain = knn(subset, cloud, 4)
            embedded = knn(subset, cloud, 4, lambda c, s: c.points[s])
            for a, b in zip(plain, embedded, strict=True):
                assert a.anchor == b.anchor
                assert np.array_equal(a.indices, b.indices)
                assert np.array_equal(a.distances, b.distances)


def cross_set_oracle(x, queries, n):
    """Per query, the n rows of x with the smallest (d2, index), by a full
    ranking of every row. Without queries the anchors are the rows of x and
    each ranks its own row last."""
    anchors = x if queries is None else queries
    idx = np.empty((len(anchors), n), dtype=np.int64)
    d2 = np.empty((len(anchors), n))
    for a, q in enumerate(anchors):
        diff = x - q
        dist = np.einsum("ij,ij->i", diff, diff)
        if queries is None:
            dist[a] = np.inf
        order = np.lexsort((np.arange(len(x)), dist))[:n]
        idx[a], d2[a] = order, dist[order]
    return idx, d2


class TestCrossSetRows:
    @settings(max_examples=60, deadline=None)
    @given(
        u=st.integers(1, 200),
        a=st.integers(1, 40),
        depth=st.integers(1, 6),
        span=st.integers(0, 8),
        seed=st.integers(0, 2 ** 31),
        self_query=st.booleans(),
    )
    def test_integer_grid_matches_full_ranking(self, u, a, depth, span, seed, self_query):
        # Lattices with u > BRUTE_FORCE_CUTOFF walk with a tree, whose
        # many ties must come out by ascending index in both modes.
        rng = np.random.default_rng(seed)
        x = rng.integers(0, span + 1, size=(u, 3)).astype(np.float64)
        q = None if self_query else rng.integers(0, span + 1, size=(a, 3)).astype(np.float64)
        n = min(depth, u - 1 if self_query else u)
        assume(n >= 1)
        idx, d2 = nearest_candidate_rows(x, n, queries=q)
        want_idx, want_d2 = cross_set_oracle(x, q, n)
        assert np.array_equal(idx[:, :n], want_idx)
        assert np.array_equal(d2[:, :n], want_d2)

    def test_continuous_tree_path(self, rng):
        x = rng.normal(size=(500, 4))
        q = rng.normal(size=(90, 4))
        idx, d2 = nearest_candidate_rows(x, 7, queries=q)
        want_idx, want_d2 = cross_set_oracle(x, q, 7)
        assert np.array_equal(idx[:, :7], want_idx)
        assert np.array_equal(d2[:, :7], want_d2)

    def test_query_on_a_row_of_x_is_not_excluded(self, rng):
        x = rng.normal(size=(100, 3))
        idx, d2 = nearest_candidate_rows(x, 1, queries=x[[5, 60]])
        assert idx[:, 0].tolist() == [5, 60] and np.all(d2[:, 0] == 0.0)

    def test_depth_bounds(self, rng):
        x = rng.normal(size=(5, 3))
        with pytest.raises(ContractError):
            nearest_candidate_rows(x, 6, queries=x[:2])
        with pytest.raises(ContractError):
            nearest_candidate_rows(x, 0, queries=x[:2])
        idx, _ = nearest_candidate_rows(x, 5, queries=x[:2])
        assert sorted(idx[0].tolist()) == [0, 1, 2, 3, 4]


class TestPerRowWidening:
    @pytest.mark.parametrize("self_query", [False, True])
    def test_only_failing_rows_are_widened(self, rng, monkeypatch, self_query):
        # Generic anchors pass the horizon test at depth n + 2. The anchor at
        # the centre of a star of rows at exactly 0.5 ties at its n-th
        # distance across that horizon (a self-query retrieves itself as one
        # of the n + 2), so it alone is retrieved again, at double depth.
        queried = []

        class SpyTree(cKDTree):
            def query(self, q, k):
                queried.append((np.array(q), k))
                return super().query(q, k=k)

        monkeypatch.setattr(geometry, "cKDTree", SpyTree)
        centre = np.array([20.0, 20.0, 20.0])
        star = centre + 0.5 * np.vstack([np.eye(3), -np.eye(3)])
        generic = rng.normal(size=(200, 3))
        if self_query:
            x, q, n = np.vstack([generic, centre, star[[0, 3]]]), None, 1
        else:
            x, q, n = np.vstack([generic, star]), np.vstack([generic[:30], centre]), 3
        idx, d2 = nearest_candidate_rows(x, n, queries=q)
        want_idx, want_d2 = cross_set_oracle(x, q, n)
        assert np.array_equal(idx[:, :n], want_idx)
        assert np.array_equal(d2[:, :n], want_d2)
        assert idx.shape == d2.shape == (len(want_idx), n + 2)
        (first, k1), (second, k2) = queried
        assert len(first) == len(want_idx) and k1 == n + 2
        assert np.array_equal(second, centre[None]) and k2 == 2 * (n + 2)


def edge_tied_cloud(n, self_query, seed):
    """(x, queries, tied): continuous anchors over three row blocks of the
    tree route and half a fourth, where the anchors on both sides of every
    block edge (rows tied) sit on a site shared by n + 2 rows of x. Their
    n-th distance ties the tree's horizon at 0, so they are widened. A
    self-query site is its edge row plus n + 1 rows appended to x."""
    rng = np.random.default_rng(seed)
    step = geometry._RETRIEVE_BLOCK // (n + 2)
    count = 3 * step + step // 2
    tied = [e + d for e in range(step, count, step) for d in (-1, 0)]
    sites = 1e3 + 10.0 * np.arange(len(tied))[:, None] * np.ones(3)
    anchors = rng.normal(size=(count, 3))
    anchors[tied] = sites
    if self_query:
        return np.vstack([anchors, np.repeat(sites, n + 1, axis=0)]), None, tied
    return np.vstack([rng.normal(size=(count, 3)), np.repeat(sites, n + 2, axis=0)]), anchors, tied


class TestBlockedRetrieval:
    """The tree route walks its anchors in row blocks; the rows must equal
    those of one whole-set retrieval byte for byte, across block edges."""

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("self_query", [False, True])
    def test_widened_rows_on_both_sides_of_block_edges(self, monkeypatch, n, self_query):
        calls = []
        ranked = geometry._ranked

        def spy(x, q, idx, own):
            calls.append((len(q), idx.shape[1]))
            return ranked(x, q, idx, own)

        monkeypatch.setattr(geometry, "_ranked", spy)
        x, q, tied = edge_tied_cloud(n, self_query, seed=n)
        idx, d2 = nearest_candidate_rows(x, n, queries=q)
        want_idx, want_d2 = tree_candidate_rows_whole(x, n, queries=q)
        assert idx.tobytes() == want_idx.tobytes() and d2.tobytes() == want_d2.tobytes()
        step = geometry._RETRIEVE_BLOCK // (n + 2)
        anchors = len(x) if q is None else len(q)
        assert anchors > 3 * step and anchors % step
        assert [a for a, m in calls if m == n + 2] == [step] * (anchors // step) + [anchors % step]
        widened = sum(a for a, m in calls if m == 2 * (n + 2))
        assert widened == len(tied) * (n + 2 if self_query else 1)

    @pytest.mark.parametrize("self_query", [False, True])
    def test_integer_lattice(self, self_query):
        # Integer distances tie everywhere, so many rows of every block widen.
        rng = np.random.default_rng(4)
        rows = 3 * (geometry._RETRIEVE_BLOCK // 6) + 1000
        x = rng.integers(0, 30, size=(rows, 3)).astype(np.float64)
        q = None if self_query else rng.integers(0, 30, size=(rows, 3)).astype(np.float64)
        idx, d2 = nearest_candidate_rows(x, 4, queries=q)
        want_idx, want_d2 = tree_candidate_rows_whole(x, 4, queries=q)
        assert idx.tobytes() == want_idx.tobytes() and d2.tobytes() == want_d2.tobytes()


class TestBruteBlocks:
    """Without a tree the candidate walk ranks every row, in blocks of about
    _RETRIEVE_BLOCK candidate entries; its rows must equal one unblocked
    ranking of all rows, sliced to the walk's width, byte for byte, across
    block edges."""

    @pytest.mark.parametrize("lattice", [False, True])
    @pytest.mark.parametrize("self_query", [False, True])
    def test_blocks_equal_one_ranking(self, monkeypatch, self_query, lattice):
        # u = 300 does not divide the 1,000-entry block: 3 queries per block.
        monkeypatch.setattr(geometry, "_RETRIEVE_BLOCK", 1000)
        ranked, calls = geometry._ranked, []

        def spy(x, q, idx, own):
            calls.append(len(q))
            return ranked(x, q, idx, own)

        monkeypatch.setattr(geometry, "_ranked", spy)
        rng = np.random.default_rng(5)
        # Integer coordinates tie everywhere, so the index tie-break crosses blocks.
        x, q = (
            rng.integers(0, 4, size=(m, 4)).astype(float) if lattice else rng.normal(size=(m, 4))
            for m in (300, 250)
        )
        q = None if self_query else q
        anchors, base = (x if q is None else q), np.arange(300)
        own = base if q is None else None
        want_idx, want_d2 = ranked(x, anchors, np.broadcast_to(base, (len(anchors), 300)), own)
        for n, width in ((5, 7), (299, 300)):  # rows n + 2 wide, then all u wide
            calls.clear()
            idx, d2 = geometry._candidate_rows(x, n, q)
            assert idx.shape == d2.shape == (len(anchors), width)
            assert idx.tobytes() == want_idx[:, :width].tobytes()
            assert d2.tobytes() == want_d2[:, :width].tobytes()
            assert calls == ([3] * 100 if q is None else [3] * 83 + [1])


def range_oracle(x, n):
    """Smallest first and largest n-th squared distance of a full ranking."""
    _, d2 = cross_set_oracle(x, None, n)
    return d2[:, 0].min(), d2[:, n - 1].max()


def rounding_flip_cloud(extreme, tree_first):
    """Two pairs at nearly equal distance whose exact order the tree's
    rounding flips, then filler grid points that sit farther apart (min) or
    closer together (max) than the pairs. A scale read off the tree's
    extreme row alone would return the other pair's distance. Row 0 is a
    row of the pair the tree puts first when tree_first, else of the other.
    """
    rng = np.random.default_rng(0)
    p = np.arange(20000)[:, None] * [100.0, 0.0, 0.0] + rng.uniform(0, 1, (20000, 3))
    step = rng.normal(size=p.shape)
    q = p + step / np.linalg.norm(step, axis=1)[:, None]
    exact = np.einsum("ij,ij->i", q - p, q - p)
    tree = cKDTree(np.vstack([p, q])).query(p, k=2)[0][:, 1]
    order = np.argsort(exact, kind="stable")
    flips = np.flatnonzero((np.diff(tree[order]) < 0) & (np.diff(exact[order]) > 0))
    assert len(flips) > 0
    pair = order[[flips[0] + 1, flips[0]] if tree_first else [flips[0], flips[0] + 1]]
    g = np.arange(5) * (10.0 if extreme == "min" else 0.1)
    filler = np.stack(np.meshgrid(g, g, g), axis=-1).reshape(-1, 3) - 1e3
    return np.vstack([p[pair], q[pair], filler])


def spy_rank_widths(monkeypatch):
    """Candidate row widths of every geometry._ranked call, recorded."""
    widths = []
    ranked = geometry._ranked

    def spy(x, q, idx, own):
        widths.append(idx.shape[1])
        return ranked(x, q, idx, own)

    monkeypatch.setattr(geometry, "_ranked", spy)
    return widths


class TestKnnDistanceRange:
    @settings(max_examples=60, deadline=None)
    @given(
        u=st.integers(2, 200),
        depth=st.integers(1, 10),
        span=st.integers(0, 6),
        seed=st.integers(0, 2 ** 31),
        certify=st.booleans(),
    )
    def test_integer_lattice_matches_full_ranking(self, u, depth, span, seed, certify):
        # Small spans put many rows on one lattice site: ties and duplicates
        # at both extremes, on both tree routes; depths that cover the rows
        # walk without a tree.
        x = np.random.default_rng(seed).integers(0, span + 1, size=(u, 3)).astype(np.float64)
        n = min(depth, u - 1)
        with pytest.MonkeyPatch.context() as patch:
            if certify:
                patch.setattr(geometry, "CERTIFY_CUTOFF", 0)
            assert knn_distance_range(x, n) == range_oracle(x, n)

    @pytest.mark.parametrize("u", [40, 300])
    def test_all_coincident(self, u):
        x = np.full((u, 3), 7.25)
        assert knn_distance_range(x, 5) == range_oracle(x, 5) == (0.0, 0.0)

    @pytest.mark.parametrize("u", [40, 300, 2000])
    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e8])
    def test_continuous_cloud(self, rng, u, offset):
        x = rng.normal(size=(u, 3)) * [3.0, 1.0, 0.2] + offset
        for n in (1, 4, 10):
            assert knn_distance_range(x, n) == range_oracle(x, n)

    @pytest.mark.parametrize("extreme", ["min", "max"])
    def test_tree_rounding_reorders_the_extreme_rows(self, extreme):
        x = rounding_flip_cloud(extreme, tree_first=False)
        assert knn_distance_range(x, 1) == range_oracle(x, 1)

    def test_one_tree_per_call(self, rng, monkeypatch):
        # The exact rank of the kept rows reuses the tree of the first query.
        built = []
        tree_type = geometry.cKDTree
        monkeypatch.setattr(geometry, "cKDTree", lambda *a, **kw: built.append(1) or tree_type(*a, **kw))
        x = rng.normal(size=(2000, 3))
        assert knn_distance_range(x, 4) == range_oracle(x, 4)
        assert len(built) == 1

    def test_depth_bounds(self, rng):
        for u in (40, 300):
            x = rng.normal(size=(u, 3))
            for n in (0, u):
                with pytest.raises(ContractError):
                    knn_distance_range(x, n)
            assert knn_distance_range(x, u - 1) == range_oracle(x, u - 1)

    def test_duplicate_cluster_is_not_ranked(self, rng, monkeypatch):
        # A tree distance of 0 is exactly 0 in the rank, so the rows of a
        # duplicate cluster are not ranked; each would widen to its size.
        widths = spy_rank_widths(monkeypatch)
        x = np.vstack([rng.normal(size=(500, 3)), np.full((2000, 3), 0.25), rng.normal(size=(500, 3))])
        assert knn_distance_range(x, 5) == range_oracle(x, 5)
        assert 0 < len(widths) and max(widths) == 5 + 3  # no row widened


class TestKnnDistanceRangeCertified(TestKnnDistanceRange):
    """Every case above on the certificate route, which outside these tests
    only regions of CERTIFY_CUTOFF rows take."""

    # Hypothesis runs a test from one class only: the lattice test draws its route.
    test_integer_lattice_matches_full_ranking = None

    @pytest.fixture(autouse=True, scope="class")
    def certify_every_size(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "CERTIFY_CUTOFF", 0)
            yield


class TestRangeCertificate:
    @staticmethod
    def depth_queries(monkeypatch, n):
        """Rows per cKDTree.query at depth n + 1, recorded by a spy tree."""
        rows = []

        class SpyTree(cKDTree):
            def query(self, q, k):
                if k == n + 1:
                    rows.append(len(q))
                return super().query(q, k=k)

        monkeypatch.setattr(geometry, "cKDTree", SpyTree)
        return rows

    def test_coincident_rows_are_not_ranked(self, monkeypatch):
        # Both extremes are 0, so the L = 0 fallback queries every row and
        # nothing is ranked. range_oracle of coincident rows is (0, 0) at
        # any size (test_all_coincident).
        widths = spy_rank_widths(monkeypatch)
        assert knn_distance_range(np.full((20000, 3), 7.25), 5) == (0.0, 0.0)
        assert widths == []

    def test_isolated_row_outside_the_sample(self, rng, monkeypatch):
        # The sample's n-th distances bound the largest one from below only;
        # the isolated row holds it, and its cell block holds it alone.
        monkeypatch.setattr(geometry, "CERTIFY_CUTOFF", 0)
        x = rng.normal(size=(1500, 3))
        x[1] = [40.0, -30.0, 20.0]
        assert 1 % geometry._SAMPLE_STRIDE != 0
        rows = self.depth_queries(monkeypatch, 4)
        assert knn_distance_range(x, 4) == range_oracle(x, 4)
        assert sum(rows) < len(x)

    def test_tree_rounding_with_the_tree_minimum_sampled(self, monkeypatch):
        # The stride sample holds row 0, of the pair the tree puts first; the
        # exact minimum is the other pair, whose tree distance exceeds the
        # sample's smallest by less than 1e-9 and which query_pairs must
        # still return.
        monkeypatch.setattr(geometry, "CERTIFY_CUTOFF", 0)
        x = rounding_flip_cloud("min", tree_first=True)
        assert knn_distance_range(x, 1) == range_oracle(x, 1)

    def test_wide_span_queries_every_row(self, rng, monkeypatch):
        # Two tight clusters 1e7 apart: the span is far more than 2**20
        # cells of the sample's n-th distance, so the cell floor is not
        # trusted and every row is queried.
        monkeypatch.setattr(geometry, "CERTIFY_CUTOFF", 0)
        x = np.vstack([rng.normal(size=(600, 3)), rng.normal(size=(600, 3)) + 1e7])
        rows = self.depth_queries(monkeypatch, 4)
        assert knn_distance_range(x, 4) == range_oracle(x, 4)
        assert rows[-1] == len(x)

    def test_ring_region_queries_few_rows(self, tmp_path, monkeypatch):
        # The ring-0 close region of the 120k-point scan, read back from a
        # .bin as extraction reads it: the sample and the rows the cell
        # counts leave make up under a quarter of the region.
        path = tmp_path / "scan.bin"
        save_kitti_scan(kitti_style_scan(seed=77, beams=64, per_beam=1875), path)
        cloud = load_kitti_scan(path)
        region = (elevation_rings(cloud.points, SensorGeometry.from_fov(64, (-24.8, 2.0))) == 0) & (
            band_indices(range_of(cloud.points), RangeAwareConfig()) == 0
        )
        x, n = cloud.points[region], RangeAwareConfig().k_close
        assert len(x) > 80000
        rows = self.depth_queries(monkeypatch, n)
        got = knn_distance_range(x, n)
        assert sum(rows) < len(x) / 4
        monkeypatch.setattr(geometry, "CERTIFY_CUTOFF", len(x) + 1)
        assert got == knn_distance_range(x, n)
        assert rows[-1] == len(x)


def grid_blocks(cells):
    """Per row, the rows in its 3^D block of cells, counted over the
    cell_neighbours pairs as _range_candidates counts them."""
    codes, strides = cell_codes(cells)
    occupied, cell_of, count = np.unique(codes, return_inverse=True, return_counts=True)
    block = np.zeros_like(count)
    for i, j in cell_neighbours(occupied, strides):
        block[i] += count[j]
    return block[cell_of]


class TestCellGrid:
    @settings(max_examples=60, deadline=None)
    @given(
        u=st.integers(1, 120),
        span=st.integers(0, 6),
        base=st.sampled_from([0, -7, 2 ** 40]),
        dim=st.sampled_from([2, 3]),
        seed=st.integers(0, 2 ** 31),
    )
    def test_neighbours_match_a_dictionary(self, u, span, base, dim, seed):
        cells = np.random.default_rng(seed).integers(0, span + 1, size=(u, dim)) + base
        cells = np.unique(cells, axis=0)  # lexicographic order, as a voxel grid
        where = {tuple(c): i for i, c in enumerate(cells.tolist())}
        got = cell_neighbours(*cell_codes(cells))
        assert len(got) == 3 ** dim
        for (i, j), offset in zip(got, product((-1, 0, 1), repeat=dim)):
            want = [
                (a, where[b])
                for a, c in enumerate(cells.tolist())
                if (b := tuple(np.add(c, offset).tolist())) in where
            ]
            assert list(zip(i.tolist(), j.tolist())) == want

    @settings(max_examples=60, deadline=None)
    @given(
        u=st.integers(1, 300),
        span=st.integers(0, 8),
        dim=st.sampled_from([2, 3]),
        seed=st.integers(0, 2 ** 31),
    )
    def test_block_counts_match_the_oracle(self, u, span, dim, seed):
        cells = np.random.default_rng(seed).integers(-span, span + 1, size=(u, dim))
        assert np.array_equal(grid_blocks(cells), cell_blocks(cells))

    @settings(max_examples=60, deadline=None)
    @given(
        u=st.integers(3, 600),
        depth=st.integers(1, 10),
        span=st.integers(0, 12),
        dim=st.sampled_from([2, 3]),
        seed=st.integers(0, 2 ** 31),
    )
    def test_certificate_matches_the_oracle_on_lattices(self, u, depth, span, dim, seed):
        x = np.random.default_rng(seed).integers(0, span + 1, size=(u, dim)).astype(np.float64)
        n = min(depth, u - 2)
        tree = cKDTree(x, leafsize=32)
        want, cells = range_candidates(x, n, tree)
        assert np.array_equal(geometry._range_candidates(x, n, tree), want)
        if cells is not None:
            assert np.array_equal(grid_blocks(cells), cell_blocks(cells))

    def test_certificate_matches_the_oracle_on_a_ring_region(self, tmp_path):
        # The ring-0 close region of the 120k-point scan, read back from a
        # .bin as extraction reads it.
        path = tmp_path / "scan.bin"
        save_kitti_scan(kitti_style_scan(seed=77, beams=64, per_beam=1875), path)
        cloud = load_kitti_scan(path)
        region = (elevation_rings(cloud.points, SensorGeometry.from_fov(64, (-24.8, 2.0))) == 0) & (
            band_indices(range_of(cloud.points), RangeAwareConfig()) == 0
        )
        x, n = cloud.points[region], RangeAwareConfig().k_close
        tree = cKDTree(x, leafsize=32)
        want, cells = range_candidates(x, n, tree)
        assert cells is not None and 0 < want.sum() < len(x) / 4
        assert np.array_equal(geometry._range_candidates(x, n, tree), want)
        assert np.array_equal(grid_blocks(cells), cell_blocks(cells))
