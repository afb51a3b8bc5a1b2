"""Voxel attention forward math and the embedding losses."""

import warnings
from dataclasses import fields, replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rapidfeat import (
    ContractError,
    EmbeddingDims,
    VoxelGroups,
    WeightSet,
    autoencoder_forward,
    contrastive_loss,
    inner_bottleneck,
    reconstruction_loss,
    scatter_softmax,
    scatter_sum,
    seeded_latents,
    voxelize,
    vsa_decode,
    vsa_encode,
)
from rapidfeat import embed
from rapidfeat.embed import (
    _SCATTER_BLOCK,
    LinearStage,
    NormStage,
    _class_pairs,
    _similarity,
    _sparse_depthwise_conv,
)
from rapidfeat.geometry import cell_codes, cell_neighbours

from conftest import kitti_style_scan
from oracles import (
    conv_oracle,
    decode_per_point,
    kernel_map_pairs,
    point_attention,
    scatter_softmax_rows,
    scatter_sum_rows,
    voxelize_unique,
)


def make_instance(seed, m=40, d_in=8, dims=None, voxel=0.6):
    rng = np.random.default_rng(seed)
    dims = dims or EmbeddingDims(latents=3, width=8, reduced=4, stages=2)
    pts = rng.uniform(-3, 3, size=(m, 3))
    groups = voxelize(pts, voxel)
    feats = rng.normal(size=(m, d_in))
    weights = WeightSet.seeded(dims, rng, in_width=d_in)
    latents = seeded_latents(dims, rng)
    return rng, pts, groups, feats, weights, latents, dims


@st.composite
def grid_clouds(draw):
    """(points, seed) on an integer grid at voxel size 1 whose voxels hold 1,
    9, more than 128 (numpy's pairwise-sum block) or any count of points,
    in shuffled storage order, spread over 11^3 cells around the origin."""
    counts = draw(
        st.lists(st.sampled_from([1, 9, 129, 300]) | st.integers(1, 20), min_size=1, max_size=8)
    )
    seed = draw(st.integers(0, 2 ** 31))
    rng = np.random.default_rng(seed)
    cells = rng.choice(11 ** 3, len(counts), replace=False)
    coords = np.stack(np.unravel_index(cells, (11, 11, 11)), axis=1) - 5
    pts = np.repeat(coords, counts, axis=0) + rng.uniform(0.05, 0.95, (sum(counts), 3))
    return pts[rng.permutation(len(pts))], seed


class TestVoxelize:
    def test_close_points_share_voxel(self):
        g = voxelize(np.array([[0.1, 0.1, 0.1], [0.15, 0.1, 0.1]]), 0.2)
        assert g.num_voxels == 1
        assert np.array_equal(g.point_voxel, [0, 0])

    def test_distant_points_different_voxels(self):
        g = voxelize(np.array([[0.0, 0, 0], [5.0, 0, 0]]), 0.2)
        assert g.num_voxels == 2

    def test_pigeonhole(self, rng):
        pts = rng.uniform(-2, 2, size=(100, 3))
        g = voxelize(pts, 0.5)
        assert g.num_voxels <= 100

    def test_lexicographic_voxel_order(self, rng):
        pts = rng.uniform(-2, 2, size=(60, 3))
        g = voxelize(pts, 0.4)
        rows = [tuple(c) for c in g.voxel_coords]
        assert rows == sorted(rows)

    def test_grouping_permutation_invariant(self, rng):
        pts = rng.uniform(-2, 2, size=(80, 3))
        g0 = voxelize(pts, 0.5)
        perm = rng.permutation(80)
        g1 = voxelize(pts[perm], 0.5)
        assert np.array_equal(g0.voxel_coords, g1.voxel_coords)
        assert np.array_equal(g0.point_voxel, g1.point_voxel[np.argsort(perm)])

    @pytest.mark.parametrize("size", [0.0, -1.0, np.inf, np.nan])
    def test_bad_voxel_size(self, size, rng):
        # inf would put points spread over [-5, 5]^3 into one voxel
        with pytest.raises(ContractError, match="voxel_size"):
            voxelize(rng.uniform(-5.0, 5.0, size=(100, 3)), size)

    @settings(max_examples=40, deadline=None)
    @given(cloud=grid_clouds(), scale=st.sampled_from([1.0, 0.3, 2.5]))
    def test_matches_unique_oracle(self, cloud, scale):
        pts, _ = cloud
        got, want = voxelize(pts * scale, scale), voxelize_unique(pts * scale, scale)
        for name in ("point_voxel", "voxel_coords", "order", "starts"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_matches_unique_oracle_on_scan(self):
        cloud = kitti_style_scan(3, per_beam=200)
        got, want = voxelize(cloud, 0.2), voxelize_unique(cloud.points, 0.2)
        for name in ("point_voxel", "voxel_coords", "order", "starts"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_empty_input_gives_empty_scatters(self):
        g = voxelize(np.zeros((0, 3)), 0.2)
        assert g.num_voxels == 0 and g.starts.shape == (0,)
        assert scatter_sum(np.zeros((0, 4, 3)), g).shape == (0, 4, 3)
        assert scatter_softmax(np.zeros((0, 4)), g).shape == (0, 4)
        _, _, _, _, weights, latents, dims = make_instance(0)
        fw = autoencoder_forward(np.zeros((0, 8)), latents, weights, g)
        assert fw.voxelwise.shape == (0, dims.latents, dims.width)
        assert fw.reconstructed.shape == (0, dims.width)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, -1e300])
    def test_coordinate_out_of_int64_range(self, bad):
        # Cast to int64, all of these would land on one voxel at INT64_MIN.
        with pytest.raises(ContractError):
            voxelize(np.full((3, 3), bad), 0.2)
        with pytest.raises(ContractError):
            voxelize(np.array([[bad, 0.0, 0.0], [-1e300, 0.0, 0.0]]), 0.2)

    def test_quotient_out_of_int64_range(self):
        with pytest.raises(ContractError):
            voxelize(np.ones((2, 3)), 1e-300)

    def test_bounding_box_beyond_int64_codes(self, rng):
        pts = rng.uniform(-100.0, 100.0, size=(50, 3))
        with pytest.raises(ContractError):
            voxelize(pts, 1e-6)

    def test_kernel_map_beyond_int64_codes(self):
        # The padded box of this hand-built grid has more than 2^63 cells:
        # wrapped codes would drop its two z-neighbour pairs without a word.
        coords = np.array([[0, 0, 0], [0, 0, 1], [2 ** 21] * 3, [2 ** 21, 2 ** 21, 2 ** 21 + 1]])
        index = np.arange(4)
        groups = VoxelGroups(point_voxel=index, voxel_coords=coords, order=index, starts=index)
        with pytest.raises(ContractError, match="int64"):
            groups.conv_slots
        with pytest.raises(ContractError, match="int64"):
            voxelize(coords + 0.5, 1.0)

    def test_widest_codable_box_convolves(self, rng):
        # 2e6 + 4 cells per axis pad to about 8e18 < 2^63 cells: codes fit.
        coords = np.array([[-1e6, -1e6, -1e6], [1e6, 1e6, 1e6], [1e6, 1e6, 1e6 - 1], [0, 0, 0]])
        groups = grid_groups(coords)
        x = rng.normal(size=(groups.num_voxels, 2, 3))
        kernel = rng.normal(size=(2, 3, 3, 3, 3))
        got = _sparse_depthwise_conv(x, groups, kernel)
        assert got.tobytes() == conv_oracle(x, groups.voxel_coords, kernel).tobytes()


class TestScatterSoftmax:
    def test_singleton_voxel_weight_one(self):
        g = voxelize(np.array([[0.0, 0, 0], [5.0, 0, 0]]), 0.2)
        att = scatter_softmax(np.array([[3.0], [-2.0]]), g)
        assert np.array_equal(att, [[1.0], [1.0]])

    def test_equal_scores_split_evenly(self):
        g = voxelize(np.array([[0.0, 0, 0], [0.01, 0, 0]]), 0.2)
        att = scatter_softmax(np.array([[0.7], [0.7]]), g)
        assert np.array_equal(att, [[0.5], [0.5]])

    def test_group_sums_one(self, rng):
        pts = rng.uniform(-2, 2, size=(200, 3))
        g = voxelize(pts, 0.8)
        att = scatter_softmax(rng.normal(size=(200, 5)) * 10, g)
        sums = scatter_sum(att, g)
        assert np.abs(sums - 1.0).max() <= 1e-12

    def test_shape_mismatch(self, rng):
        g = voxelize(rng.uniform(size=(5, 3)), 0.5)
        with pytest.raises(ContractError):
            scatter_softmax(np.zeros((4, 2)), g)


class TestScatterOracles:
    @settings(max_examples=40, deadline=None)
    @given(cloud=grid_clouds(), latents=st.integers(1, 5))
    def test_softmax_matches_row_oracle(self, cloud, latents):
        pts, seed = cloud
        g = voxelize(pts, 1.0)
        scores = np.random.default_rng(seed).normal(size=(len(pts), latents)) * 8
        got = scatter_softmax(scores, g)
        assert got.flags.c_contiguous
        assert got.tobytes() == scatter_softmax_rows(scores, g).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(cloud=grid_clouds(), shape=st.sampled_from([(), (3,), (4, 5)]))
    def test_sum_matches_row_oracle(self, cloud, shape):
        pts, seed = cloud
        g = voxelize(pts, 1.0)
        x = np.random.default_rng(seed).normal(size=(len(pts),) + shape)
        got = scatter_sum(x, g)
        assert got.flags.c_contiguous and got.shape == (g.num_voxels,) + shape
        assert got.tobytes() == scatter_sum_rows(x, g).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(cloud=grid_clouds())
    def test_sum_keeps_signed_zeros(self, cloud):
        # Columns of signed zeros only, and of zeros among other values: each
        # voxel's sum carries the zero sign reduceat gives it, for voxels of
        # up to 8 points (summed in order) and longer ones alike.
        pts, seed = cloud
        g = voxelize(pts, 1.0)
        rng = np.random.default_rng(seed)
        x = rng.choice([-0.0, 0.0], size=(len(pts), 4))
        x[:, 2:] = rng.choice([-0.0, 0.0, -1.5, 2.0 ** -1074, 1e300], size=(len(pts), 2))
        assert scatter_sum(x, g).tobytes() == scatter_sum_rows(x, g).tobytes()


class TestVsaEncode:
    def test_one_point_per_voxel_hv_equals_h(self):
        rng, pts, _, feats, weights, latents, _ = make_instance(0, m=12)
        spread = np.arange(12, dtype=np.float64)[:, None] * np.array([5.0, 0, 0])
        groups = voxelize(spread, 0.5)
        h = point_attention(feats, latents, weights, groups)
        hv = vsa_encode(feats, latents, weights, groups)
        assert np.array_equal(hv, h[np.argsort(groups.point_voxel, kind="stable")])

    def test_zero_values_give_zero_outputs(self):
        _, pts, groups, feats, weights, latents, dims = make_instance(1)
        zeroed = WeightSet(
            enc_key=weights.enc_key,
            enc_value=LinearStage(
                np.zeros_like(weights.enc_value.weight),
                np.zeros_like(weights.enc_value.bias),
            ),
            dec_query=weights.dec_query,
            dec_key=weights.dec_key,
            dec_value=weights.dec_value,
            inner_encoder=weights.inner_encoder,
            ffn_conv1=weights.ffn_conv1,
            ffn_conv2=weights.ffn_conv2,
            activation=weights.activation,
            inner_decoder=weights.inner_decoder,
        )
        h = point_attention(feats, latents, zeroed, groups)
        hv = vsa_encode(feats, latents, zeroed, groups)
        assert np.all(h == 0.0) and np.all(hv == 0.0)

    def test_conservation_identity(self):
        for seed in range(10):
            _, _, groups, feats, weights, latents, _ = make_instance(seed, m=150)
            h = point_attention(feats, latents, weights, groups)
            hv = vsa_encode(feats, latents, weights, groups)
            assert np.abs(hv.sum(axis=0) - h.sum(axis=0)).max() <= 1e-9

    def test_shape_contract(self):
        _, _, groups, feats, weights, latents, _ = make_instance(2)
        with pytest.raises(ContractError):
            vsa_encode(feats[:, :3], latents, weights, groups)


class TestInnerBottleneck:
    def test_identity_roundtrip(self):
        dims = EmbeddingDims(latents=3, width=6, reduced=6, stages=2)
        rng = np.random.default_rng(5)
        groups = voxelize(rng.uniform(-2, 2, size=(30, 3)), 0.7)
        weights = WeightSet.identity(dims)
        hv = rng.normal(size=(groups.num_voxels, 3, 6))
        hbar, hv_hat = inner_bottleneck(hv, weights, groups)
        assert np.abs(hv_hat - hv).max() <= 1e-9
        assert np.array_equal(hbar, hv)

    def test_zero_encoder_gives_batchnorm_bias_pattern(self):
        rng, _, groups, _, weights, _, dims = make_instance(3)
        zero_stages = tuple(
            (LinearStage(np.zeros_like(lin.weight), np.zeros_like(lin.bias)), norm)
            for lin, norm in weights.inner_encoder
        )
        weights_z = WeightSet(
            enc_key=weights.enc_key,
            enc_value=weights.enc_value,
            dec_query=weights.dec_query,
            dec_key=weights.dec_key,
            dec_value=weights.dec_value,
            inner_encoder=zero_stages,
            ffn_conv1=weights.ffn_conv1,
            ffn_conv2=weights.ffn_conv2,
            activation=weights.activation,
            inner_decoder=weights.inner_decoder,
        )
        hv = rng.normal(size=(groups.num_voxels, dims.latents, dims.width))
        hbar, _ = inner_bottleneck(hv, weights_z, groups)
        assert hbar.shape == (groups.num_voxels, dims.latents, dims.reduced)
        # every voxel/latent position carries the same per-channel constant
        assert np.abs(hbar - hbar[0, 0]).max() == 0.0

    def test_seeded_weights_deterministic(self):
        a = make_instance(7)
        b = make_instance(7)
        hv = np.random.default_rng(0).normal(size=(a[2].num_voxels, 3, 8))
        out_a = inner_bottleneck(hv, a[4], a[2])
        out_b = inner_bottleneck(hv, b[4], b[2])
        assert np.array_equal(out_a[0], out_b[0])
        assert np.array_equal(out_a[1], out_b[1])

    def test_stage_width_mismatch(self):
        rng, _, groups, _, weights, _, dims = make_instance(4)
        hv = rng.normal(size=(groups.num_voxels, dims.latents, dims.width + 1))
        with pytest.raises(ContractError):
            inner_bottleneck(hv, weights, groups)

    def test_conv_ffn_mixes_neighbor_voxels(self):
        # two voxels side by side: off-center taps couple them
        dims = EmbeddingDims(latents=1, width=2, reduced=2, stages=1)
        weights = WeightSet.identity(dims)
        kernel = np.zeros((1, 2, 3, 3, 3))
        kernel[:, :, 1, 1, 1] = 1.0
        kernel[:, :, 2, 1, 1] = 1.0  # +x neighbor tap
        weights = WeightSet(
            enc_key=weights.enc_key,
            enc_value=weights.enc_value,
            dec_query=weights.dec_query,
            dec_key=weights.dec_key,
            dec_value=weights.dec_value,
            inner_encoder=weights.inner_encoder,
            ffn_conv1=kernel,
            ffn_conv2=weights.ffn_conv2,
            activation="identity",
            inner_decoder=weights.inner_decoder,
        )
        groups = voxelize(np.array([[0.1, 0.1, 0.1], [1.1, 0.1, 0.1]]), 1.0)
        hv = np.array([[[1.0, 2.0]], [[10.0, 20.0]]])
        _, hv_hat = inner_bottleneck(hv, weights, groups)
        assert np.array_equal(hv_hat[0], [[11.0, 22.0]])  # self + (+x) neighbor
        assert np.array_equal(hv_hat[1], [[10.0, 20.0]])  # no +x neighbor


def grid_groups(coords):
    """Voxel groups whose voxel coordinates are exactly the given integers."""
    return voxelize(np.asarray(coords, dtype=np.float64) + 0.5, 1.0)


class TestKernelMapConv:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 300), span=st.integers(0, 12), seed=st.integers(0, 2 ** 31))
    def test_matches_searchsorted_oracle(self, n, span, seed):
        rng = np.random.default_rng(seed)
        groups = grid_groups(rng.integers(-span, span + 1, size=(n, 3)))
        x = rng.normal(size=(groups.num_voxels, 2, 3))
        kernel = rng.normal(size=(2, 3, 3, 3, 3))
        got = _sparse_depthwise_conv(x, groups, kernel)
        assert got.tobytes() == conv_oracle(x, groups.voxel_coords, kernel).tobytes()

    def test_single_voxel_uses_center_tap(self, rng):
        groups = grid_groups([[4, -2, 7]])
        x = rng.normal(size=(1, 2, 3))
        kernel = rng.normal(size=(2, 3, 3, 3, 3))
        got = _sparse_depthwise_conv(x, groups, kernel)
        assert np.array_equal(got, x * kernel[:, :, 1, 1, 1])

    def test_isolated_voxels(self, rng):
        coords = 3 * rng.integers(-5, 6, size=(40, 3))
        groups = grid_groups(coords)
        pairs = cell_neighbours(*cell_codes(groups.voxel_coords))
        assert all(len(dst) == 0 for i, (dst, _) in enumerate(pairs) if i != 13)
        x = rng.normal(size=(groups.num_voxels, 2, 3))
        kernel = rng.normal(size=(2, 3, 3, 3, 3))
        got = _sparse_depthwise_conv(x, groups, kernel)
        assert got.tobytes() == conv_oracle(x, groups.voxel_coords, kernel).tobytes()
        assert np.array_equal(got, x * kernel[:, :, 1, 1, 1])

    def test_map_built_once_per_grid(self, rng):
        groups = grid_groups(rng.integers(0, 4, size=(20, 3)))
        assert groups.conv_slots is groups.conv_slots

    def test_zero_terms_sum_to_positive_zero(self, rng):
        # relu'd rows times negative taps: the 3x3 patch's rows are all zero,
        # so each of its voxels sums only -0.0 terms, and must give +0.0.
        patch = [[0, y, z] for y in range(3) for z in range(3)]
        coords = np.array(patch + [[5, 5, 5], [5, 5, 6], [9, 0, 0]])
        groups = grid_groups(coords)
        x = np.maximum(rng.normal(size=(groups.num_voxels, 2, 3)), 0.0)
        x[:9] = 0.0  # the patch comes first in voxel order
        kernel = -np.abs(rng.normal(size=(2, 3, 3, 3, 3)))
        got = _sparse_depthwise_conv(x, groups, kernel)
        assert got.tobytes() == conv_oracle(x, groups.voxel_coords, kernel).tobytes()
        assert np.all(got[:9] == 0.0) and not np.signbit(got[:9]).any()

    def test_full_block_uses_every_slot(self, rng):
        coords = np.array(list(product(range(3), repeat=3)) + [[7, 7, 7], [7, 8, 7]])
        groups = grid_groups(coords[rng.permutation(len(coords))])
        rank, slots = groups.conv_slots
        sizes = [len(src) for src, _ in slots]
        assert len(slots) == 27 and sizes[0] == groups.num_voxels and sizes[-1] == 1
        assert sizes == sorted(sizes, reverse=True)
        x = rng.normal(size=(groups.num_voxels, 2, 3))
        kernel = rng.normal(size=(2, 3, 3, 3, 3))
        got = _sparse_depthwise_conv(x, groups, kernel)
        assert got.tobytes() == conv_oracle(x, groups.voxel_coords, kernel).tobytes()

    def test_empty_grid(self, rng):
        groups = voxelize(np.zeros((0, 3)), 1.0)
        rank, slots = groups.conv_slots
        assert rank.shape == (0,) and slots == ()
        got = _sparse_depthwise_conv(np.zeros((0, 2, 3)), groups, rng.normal(size=(2, 3, 3, 3, 3)))
        assert got.shape == (0, 2, 3)

    @staticmethod
    def assert_map_matches_oracle(groups):
        got = cell_neighbours(*cell_codes(groups.voxel_coords))
        want = kernel_map_pairs(groups.voxel_coords)
        assert len(got) == 27
        for t, ((dst, src), (want_dst, want_src)) in enumerate(zip(got, want)):
            assert dst.dtype == want_dst.dtype and np.array_equal(dst, want_dst), t
            assert src.dtype == want_src.dtype and np.array_equal(src, want_src), t
            assert np.all(np.diff(dst) > 0), t

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 300), span=st.integers(0, 12), seed=st.integers(0, 2 ** 31))
    def test_map_matches_pair_oracle(self, n, span, seed):
        coords = np.random.default_rng(seed).integers(-span, span + 1, size=(n, 3))
        self.assert_map_matches_oracle(grid_groups(coords))

    def test_map_of_empty_grid_and_single_voxel(self):
        self.assert_map_matches_oracle(voxelize(np.zeros((0, 3)), 1.0))
        self.assert_map_matches_oracle(grid_groups([[4, -2, 7]]))


class TestVsaDecode:
    def test_single_point_single_latent(self):
        dims = EmbeddingDims(latents=1, width=4, reduced=4, stages=1)
        weights = WeightSet.identity(dims)
        groups = voxelize(np.zeros((1, 3)), 1.0)
        hv = np.arange(4.0).reshape(1, 1, 4)
        feats = np.ones((1, 4))
        out = vsa_decode(hv, feats, weights, groups)
        # one latent: softmax weight is exactly 1; identity projections
        assert np.array_equal(out, hv[0])

    def test_same_voxel_points_get_same_broadcast(self):
        rng, _, _, _, weights, _, dims = make_instance(6, m=2)
        groups = voxelize(np.array([[0.1, 0.1, 0.1], [0.12, 0.1, 0.1]]), 1.0)
        hv = rng.normal(size=(1, dims.latents, dims.width))
        feats = np.tile(rng.normal(size=(1, 8)), (2, 1))
        out = vsa_decode(hv, feats, weights, groups)
        assert np.array_equal(out[0], out[1])

    def test_output_shape(self):
        _, _, groups, feats, weights, latents, dims = make_instance(8)
        hv = vsa_encode(feats, latents, weights, groups)
        out = vsa_decode(hv, feats, weights, groups)
        assert out.shape == (len(feats), dims.width)

    def test_input_shape_contract(self):
        # Both used to reach numpy's matmul and raise ValueError.
        _, _, groups, feats, weights, latents, _ = make_instance(8)
        hv = vsa_encode(feats, latents, weights, groups)
        with pytest.raises(ContractError, match="feats"):
            vsa_decode(hv, feats[:, :5], weights, groups)
        for wrong in (hv[:, :2], hv[:, :, :5], hv[:-1]):
            with pytest.raises(ContractError, match="hv_hat"):
                vsa_decode(wrong, feats, weights, groups)

    @settings(max_examples=30, deadline=None)
    @given(cloud=grid_clouds())
    def test_matches_per_point_oracle(self, cloud):
        pts, seed = cloud
        rng = np.random.default_rng(seed)
        dims = EmbeddingDims(latents=3, width=6, reduced=3, stages=1)
        weights = WeightSet.seeded(dims, rng, in_width=5)
        groups = voxelize(pts, 1.0)
        hv = rng.normal(size=(groups.num_voxels, dims.latents, dims.width))
        feats = rng.normal(size=(len(pts), 5))
        got = vsa_decode(hv, feats, weights, groups)
        assert got.tobytes() == decode_per_point(hv, feats, weights, groups).tobytes()


VOXEL_RUN = [5000, 1, 8, 9, 127, 128, 129, 300, 1000, 1000, 1000, 394]


def multi_block_cloud(seed):
    """(points, rng): about 20k points at voxel size 1 in shuffled storage
    order, whose voxels in voxel order hold VOXEL_RUN points, then random
    counts. The run opens with a voxel larger than a 4,096-point scatter
    block, has voxels at numpy's pairwise-sum thresholds (8 and 128 points)
    and ends its next 4,096 points exactly on a block edge; the cloud spans
    more than four scatter blocks."""
    rng = np.random.default_rng(seed)
    counts = VOXEL_RUN + list(rng.integers(1, 400, size=60))
    cells = np.arange(len(counts)) * 7  # ascending raveled cells are in voxel order
    coords = np.stack(np.unravel_index(cells, (11, 11, 11)), axis=1)
    pts = np.repeat(coords, counts, axis=0) + rng.uniform(0.05, 0.95, (sum(counts), 3))
    return pts[rng.permutation(len(pts))], rng


class TestMultiBlock:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scatters_and_decode_match_row_oracles(self, seed):
        pts, rng = multi_block_cloud(seed)
        groups = voxelize(pts, 1.0)
        counts = np.diff(groups.starts, append=groups.num_points)
        assert counts[: len(VOXEL_RUN)].tolist() == VOXEL_RUN
        # the layout meets the block sizes it is built for
        assert sum(VOXEL_RUN) == VOXEL_RUN[0] + _SCATTER_BLOCK and VOXEL_RUN[0] > _SCATTER_BLOCK
        assert groups.num_points > 4 * _SCATTER_BLOCK
        scores = rng.normal(size=(len(pts), 4)) * 8
        got = scatter_softmax(scores, groups)
        assert got.tobytes() == scatter_softmax_rows(scores, groups).tobytes()
        x = rng.normal(size=(len(pts), 4, 6))
        assert scatter_sum(x, groups).tobytes() == scatter_sum_rows(x, groups).tobytes()
        dims = EmbeddingDims(latents=4, width=6, reduced=3, stages=1)
        weights = WeightSet.seeded(dims, rng, in_width=5)
        hv = rng.normal(size=(groups.num_voxels, dims.latents, dims.width))
        feats = rng.normal(size=(len(pts), 5))
        got = vsa_decode(hv, feats, weights, groups)
        assert got.tobytes() == decode_per_point(hv, feats, weights, groups).tobytes()

    @pytest.mark.parametrize("latents", [1, 4, 7, 8, 12])
    def test_decode_softmax_at_every_row_sum_order(self, latents):
        # Below _IN_ORDER latents the softmax adds its columns in order, as
        # numpy's row sum does for rows that short; from it on numpy sums.
        pts, rng = multi_block_cloud(latents)
        groups = voxelize(pts, 1.0)
        dims = EmbeddingDims(latents=latents, width=6, reduced=3, stages=1)
        weights = WeightSet.seeded(dims, rng, in_width=5)
        hv = rng.normal(size=(groups.num_voxels, latents, dims.width)) * 3
        feats = rng.normal(size=(len(pts), 5)) * 3
        got = vsa_decode(hv, feats, weights, groups)
        assert got.tobytes() == decode_per_point(hv, feats, weights, groups).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_encode_matches_point_attention_sums(self, seed):
        pts, rng = multi_block_cloud(seed)
        groups = voxelize(pts, 1.0)
        dims = EmbeddingDims(latents=4, width=6, reduced=3, stages=1)
        weights = WeightSet.seeded(dims, rng, in_width=5)
        latents = seeded_latents(dims, rng)
        feats = rng.normal(size=(len(pts), 5)) * 4
        got = vsa_encode(feats, latents, weights, groups)
        want = scatter_sum_rows(point_attention(feats, latents, weights, groups), groups)
        assert got.flags.c_contiguous and got.shape == (groups.num_voxels, 4, 6)
        assert got.tobytes() == want.tobytes()


class TestSmallVoxelBlocks:
    """Every point walk (scatters, encode, decode) on voxel blocks of a few
    points: multi_block_cloud's voxels, most of them blocks of their own,
    beside 3,000 points in about 1,500 voxels of 1 to 9 points, which share
    blocks, so that the walks cross over a hundred block edges."""

    @pytest.fixture(params=[5, 64])
    def cloud(self, request, monkeypatch):
        monkeypatch.setattr(embed, "_SCATTER_BLOCK", request.param)
        pts, rng = multi_block_cloud(request.param)
        beside = rng.uniform(0, 12, size=(3000, 3)) + [20.0, 0.0, 0.0]
        groups = voxelize(np.vstack([pts, beside]), 1.0)
        spans = [v.stop - v.start for v, *_ in embed._voxel_blocks(groups)]
        assert len(spans) > 100 and sum(s > 1 for s in spans) > 40
        assert max(np.diff(groups.starts, append=groups.num_points)) > 50 * request.param
        return groups, rng

    def test_scatters_match_row_oracles(self, cloud):
        groups, rng = cloud
        scores = rng.normal(size=(groups.num_points, 4)) * 8
        got = scatter_softmax(scores, groups)
        assert got.tobytes() == scatter_softmax_rows(scores, groups).tobytes()
        x = rng.normal(size=(groups.num_points, 4, 6))
        assert scatter_sum(x, groups).tobytes() == scatter_sum_rows(x, groups).tobytes()

    @pytest.mark.parametrize("latents", [1, 4, 8, 12])
    def test_decode_matches_per_point_oracle(self, cloud, latents):
        groups, rng = cloud
        dims = EmbeddingDims(latents=latents, width=6, reduced=3, stages=1)
        weights = WeightSet.seeded(dims, rng, in_width=5)
        hv = rng.normal(size=(groups.num_voxels, latents, dims.width)) * 3
        feats = rng.normal(size=(groups.num_points, 5)) * 3
        got = vsa_decode(hv, feats, weights, groups)
        assert got.tobytes() == decode_per_point(hv, feats, weights, groups).tobytes()

    def test_encode_matches_point_attention_sums(self, cloud):
        groups, rng = cloud
        dims = EmbeddingDims(latents=4, width=6, reduced=3, stages=1)
        weights = WeightSet.seeded(dims, rng, in_width=5)
        latents = seeded_latents(dims, rng)
        feats = rng.normal(size=(groups.num_points, 5)) * 4
        got = vsa_encode(feats, latents, weights, groups)
        want = scatter_sum_rows(point_attention(feats, latents, weights, groups), groups)
        assert got.tobytes() == want.tobytes()


class TestInputsUnchanged:
    def test_forward_functions_leave_inputs_unchanged(self):
        rng, _, groups, feats, weights, latents, dims = make_instance(14, m=300)
        c, l, d = groups.num_voxels, dims.latents, dims.width
        hv = rng.normal(size=(c, l, d))
        xr = rng.normal(size=(c, l, dims.reduced))
        per_point = rng.normal(size=(len(feats), l, d))
        scores = rng.normal(size=(len(feats), l))
        lin, norm = weights.inner_encoder[0]
        normed = rng.normal(size=(c, l, lin.weight.shape[1]))
        stages = [weights.enc_key, weights.enc_value, weights.dec_query, weights.dec_key]
        stages += [weights.dec_value, *(s for pair in weights.inner_encoder for s in pair)]
        stages += weights.inner_decoder
        tensors = [getattr(stage, f.name) for stage in stages for f in fields(stage)]
        tensors += [weights.ffn_conv1, weights.ffn_conv2]
        inputs = [feats, latents, hv, xr, normed, per_point, scores]
        inputs += [t for t in tensors if isinstance(t, np.ndarray)]  # every tensor, not eps
        before = [a.copy() for a in inputs]
        lin(hv)
        norm(normed)
        _sparse_depthwise_conv(xr, groups, weights.ffn_conv1)
        scatter_sum(per_point, groups)
        scatter_softmax(scores, groups)
        vsa_encode(feats, latents, weights, groups)
        inner_bottleneck(hv, weights, groups)
        vsa_decode(hv, feats, weights, groups)
        for a, b in zip(inputs, before):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("shape", [(50, 3, 8), (7, 8), (1, 8)])
    def test_norm_equals_its_formula(self, rng, shape):
        gamma, beta, mean = (rng.normal(size=8) for _ in range(3))
        var = rng.uniform(0.5, 1.5, 8)
        x = rng.normal(size=shape) * 3
        got = NormStage(gamma, beta, mean, var, 1e-5)(x)
        assert got.tobytes() == ((x - mean) / np.sqrt(var + 1e-5) * gamma + beta).tobytes()


class TestPointOrderEquivariance:
    def test_permutation(self):
        _, pts, _, feats, weights, latents, dims = make_instance(9, m=60)
        groups = voxelize(pts, 0.6)
        h = point_attention(feats, latents, weights, groups)
        hv = vsa_encode(feats, latents, weights, groups)
        g_hat = vsa_decode(hv, feats, weights, groups)
        rng = np.random.default_rng(10)
        perm = rng.permutation(60)
        groups_p = voxelize(pts[perm], 0.6)
        h_p = point_attention(feats[perm], latents, weights, groups_p)
        hv_p = vsa_encode(feats[perm], latents, weights, groups_p)
        g_hat_p = vsa_decode(hv_p, feats[perm], weights, groups_p)
        assert np.abs(h_p - h[perm]).max() <= 1e-12
        assert np.abs(hv_p - hv).max() <= 1e-12
        assert np.abs(g_hat_p - g_hat[perm]).max() <= 1e-12


def oracle_contrastive(embeddings, points, labels, alpha):
    """Plain-python enumeration of nearest positive/negative pairs."""
    m = len(embeddings)

    def similarity(a, b):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0 or nb == 0:
            return 0.0
        return float(a @ b / (na * nb))

    total = 0.0
    for i in range(m):
        best_pos, best_neg = None, None
        for j in range(m):
            if j == i:
                continue
            d = float(np.sum((points[i] - points[j]) ** 2))
            entry = (d, j)
            if labels[j] == labels[i]:
                if best_pos is None or entry < best_pos:
                    best_pos = entry
            else:
                if best_neg is None or entry < best_neg:
                    best_neg = entry
        if best_pos is not None:
            total += max(alpha - similarity(embeddings[i], embeddings[best_pos[1]]), 0.0)
        if best_neg is not None:
            total += max(similarity(embeddings[i], embeddings[best_neg[1]]) - alpha, 0.0)
    return total / m


def nearest_in_mask(points, eligible, chunk=256):
    """Per point, the (distance, index)-smallest point among eligible[i, :];
    -1 where none is eligible. Exhaustive over an (m, m) mask."""
    m = len(points)
    out = np.full(m, -1, dtype=np.int64)
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        diff = points[lo:hi, None, :] - points[None, :, :]
        d2 = np.einsum("abc,abc->ab", diff, diff)
        d2[~eligible[lo:hi]] = np.inf
        best = np.argmin(d2, axis=1)  # first minimum: ties by ascending index
        has = d2[np.arange(hi - lo), best] < np.inf
        out[lo:hi] = np.where(has, best, -1)
    return out


def mask_pairs(points, labels):
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    diff_class = labels[:, None] != labels[None, :]
    return nearest_in_mask(points, same), nearest_in_mask(points, diff_class)


class TestClassPairs:
    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 200),
        span=st.integers(0, 6),
        classes=st.integers(1, 5),
        singletons=st.integers(0, 3),
        seed=st.integers(0, 2 ** 31),
    )
    def test_integer_grid_matches_mask_oracle(self, m, span, classes, singletons, seed):
        # integer grids: duplicate points and exact distance ties everywhere
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, span + 1, size=(m, 3)).astype(np.float64)
        labels = rng.integers(0, classes, m)
        k = min(singletons, m)
        labels[:k] = 100 + np.arange(k)
        pos, neg = _class_pairs(pts, labels)
        pos_o, neg_o = mask_pairs(pts, labels)
        assert np.array_equal(pos, pos_o)
        assert np.array_equal(neg, neg_o)

    def test_continuous_cloud_tree_path(self, rng):
        pts = rng.normal(size=(600, 3))
        labels = rng.integers(0, 4, 600)
        pos, neg = _class_pairs(pts, labels)
        pos_o, neg_o = mask_pairs(pts, labels)
        assert np.array_equal(pos, pos_o) and np.array_equal(neg, neg_o)

    def test_single_class(self, rng):
        pts = rng.integers(0, 3, size=(150, 3)).astype(np.float64)
        labels = np.full(150, 7)
        pos, neg = _class_pairs(pts, labels)
        assert np.all(neg == -1)
        assert np.array_equal(pos, mask_pairs(pts, labels)[0])

    def test_single_member_classes(self):
        # point 3 is equally far from points 0, 1 and 2: the lowest index wins
        pts = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0], [0.5, 0, 0]])
        pos, neg = _class_pairs(pts, np.array([5, 6, 5, 7]))
        assert pos.tolist() == [2, -1, 0, -1]
        assert neg.tolist() == [1, 0, 3, 0]


class TestContrastiveLoss:
    def test_separable_classes_zero_loss(self):
        # identical embeddings within class, orthogonal across classes
        h = np.array([[1.0, 0], [1.0, 0], [0, 1.0], [0, 1.0]])
        pts = np.array([[0.0, 0, 0], [0.1, 0, 0], [5.0, 0, 0], [5.1, 0, 0]])
        labels = np.array([0, 0, 1, 1])
        assert contrastive_loss(h, pts, labels, alpha=0.5) == 0.0

    def test_two_point_hand_value(self):
        h = np.array([[1.0, 0.0], [0.0, 1.0]])  # cosine similarity 0
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        with pytest.warns(RuntimeWarning):
            loss = contrastive_loss(h, pts, np.array([2, 2]), alpha=0.5)
        assert loss == 0.5

    def test_nonnegative(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 30))
            loss = contrastive_loss(
                rng.normal(size=(m, 4)),
                rng.uniform(-3, 3, size=(m, 3)),
                rng.integers(0, 3, m),
            )
            assert loss >= 0.0

    def test_exhaustive_oracle(self):
        rng = np.random.default_rng(77)
        for m in range(2, 13):
            for _ in range(6):
                h = rng.normal(size=(m, 5))
                pts = rng.uniform(-2, 2, size=(m, 3))
                labels = rng.integers(0, 3, m)
                alpha = float(rng.uniform(0.1, 0.9))
                import warnings as w

                with w.catch_warnings():
                    w.simplefilter("ignore")
                    got = contrastive_loss(h, pts, labels, alpha)
                expect = oracle_contrastive(h, pts, labels, alpha)
                assert abs(got - expect) <= 1e-12

    def test_alignment_contract(self, rng):
        with pytest.raises(ContractError):
            contrastive_loss(rng.normal(size=(3, 2)), rng.normal(size=(4, 3)), [0, 1, 2])

    def test_no_points(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="at least one point"):
                contrastive_loss(np.zeros((0, 4)), np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_full_120k_scan(self, rng):
        # all-pairs masks would need ~14 GB each at this size
        cloud = kitti_style_scan(seed=77, beams=64, per_beam=1875)
        labels = np.digitize(cloud.points[:, 2], [-1.5, -0.5, 0.5])
        emb = rng.normal(size=(len(cloud), 8))
        assert np.isfinite(contrastive_loss(emb, cloud.points, labels))


class TestReconstructionLoss:
    def test_exact_reconstruction(self, rng):
        g = rng.normal(size=(5, 3))
        assert reconstruction_loss(g, g) == 0.0

    def test_constant_difference(self):
        assert reconstruction_loss(np.zeros((2, 3)), np.ones((2, 3))) == 1.0

    def test_quadratic_scaling(self, rng):
        g = rng.normal(size=(4, 4))
        e = rng.normal(size=(4, 4))
        assert reconstruction_loss(g, g + 2 * e) == pytest.approx(
            4 * reconstruction_loss(g, g + e), rel=1e-12
        )

    def test_direct_summation_oracle(self, rng):
        g = rng.normal(size=(7, 5))
        g_hat = rng.normal(size=(7, 5))
        direct = sum(
            (g[i, j] - g_hat[i, j]) ** 2 for i in range(7) for j in range(5)
        ) / 35.0
        assert abs(reconstruction_loss(g, g_hat) - direct) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            reconstruction_loss(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_no_entries(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="at least one entry"):
                reconstruction_loss(np.zeros((0, 4)), np.zeros((0, 4)))


class TestSimilarity:
    def test_zero_vector_cosine(self):
        out = _similarity(np.zeros((1, 3)), np.ones((1, 3)))
        assert out[0] == 0.0


class TestAutoencoderForward:
    def test_bundles_consistent_shapes(self):
        from rapidfeat import autoencoder_forward

        _, pts, groups, feats, weights, latents, dims = make_instance(11, m=50)
        fw = autoencoder_forward(feats, latents, weights, groups)
        c = groups.num_voxels
        assert fw.voxelwise.shape == (c, dims.latents, dims.width)
        assert fw.reconstructed.shape == (50, dims.width)

    def test_matches_individual_stages(self):
        from rapidfeat import autoencoder_forward

        _, _, groups, feats, weights, latents, _ = make_instance(12, m=40)
        fw = autoencoder_forward(feats, latents, weights, groups)
        hv = vsa_encode(feats, latents, weights, groups)
        _, hv_hat = inner_bottleneck(hv, weights, groups)
        g_hat = vsa_decode(hv_hat, feats, weights, groups)
        assert np.array_equal(fw.voxelwise, hv)
        assert np.array_equal(fw.reconstructed, g_hat)

    def test_one_attention_pass(self, monkeypatch):
        # The encoder's block softmax is the forward's only one, and it sees
        # every point once, also when the points span several blocks.
        from rapidfeat import autoencoder_forward, embed

        rows = []
        inner = embed._block_softmax
        monkeypatch.setattr(
            embed, "_block_softmax", lambda block, b: rows.append(len(block)) or inner(block, b)
        )
        _, _, groups, feats, weights, latents, _ = make_instance(13, m=40)
        autoencoder_forward(feats, latents, weights, groups)
        assert sum(rows) == groups.num_points == 40
        pts, rng = multi_block_cloud(3)
        groups = voxelize(pts, 1.0)
        dims = EmbeddingDims(latents=2, width=3, reduced=2, stages=1)
        weights = WeightSet.seeded(dims, rng, in_width=3)
        rows.clear()
        feats, latents = rng.normal(size=(len(pts), 3)), seeded_latents(dims, rng)
        autoencoder_forward(feats, latents, weights, groups)
        assert len(rows) > 2 and sum(rows) == groups.num_points


def _tensor_slot(weights, name):
    """(tensor, rebuild): the tensor of weights that name names, a field path
    with inner.enc0 for the one encoder stage and ffn for the kernels, and a
    function that returns weights with that tensor replaced, built through
    dataclasses.replace so that construction checks the shapes again."""
    prefix, field = name.rsplit(".", 1)
    if prefix == "ffn":
        key = f"ffn_{field}"
        return getattr(weights, key), lambda t: replace(weights, **{key: t})
    if prefix == "inner.enc0":
        (pair,) = weights.inner_encoder
        at = 0 if field in ("weight", "bias") else 1  # the linear or the norm stage

        def rebuild(t):
            stages = list(pair)
            stages[at] = replace(pair[at], **{field: t})
            return replace(weights, inner_encoder=(tuple(stages),))

        return getattr(pair[at], field), rebuild
    stage = getattr(weights, prefix)

    def rebuild(t):
        return replace(weights, **{prefix: replace(stage, **{field: t})})

    return getattr(stage, field), rebuild


class TestWeightSetIO:
    @pytest.mark.parametrize(
        "name, shape",
        [
            ("enc_key.bias", (2,)),
            ("inner.enc0.gamma", (1,)),
            ("inner.enc0.weight", (2, 2)),
            ("ffn.conv1", (1, 2, 3, 3, 3)),
            ("enc_key.weight", (2, 4)),
        ],
    )
    def test_tensor_of_another_shape(self, name, shape):
        # A tensor at odds with the others fails at construction, not later in
        # the forward pass: the first two at odds with their own stage, the
        # last three with the widths of the other stages.
        weights = WeightSet.seeded(EmbeddingDims(2, 4, 2, 1), np.random.default_rng(5))
        same, rebuild = _tensor_slot(weights, name)
        assert _tensor_slot(rebuild(same.copy()), name)[0] is not same
        with pytest.raises(ContractError):
            rebuild(np.ones(shape))

    @pytest.mark.parametrize(
        "stage, shapes",
        [
            (LinearStage, [(0, 4), (4,)]),
            (LinearStage, [(4, 0), (0,)]),
            (LinearStage, [(4,), (4,)]),
            (LinearStage, [(2, 4), (2,)]),
            (NormStage, [(2,), (2,), (3,), (2,)]),
            (NormStage, [(2, 1)] * 4),
        ],
    )
    def test_stage_checks_its_own_shapes(self, stage, shapes):
        with pytest.raises(ContractError):
            stage(*(np.ones(shape) for shape in shapes))

    @pytest.mark.parametrize("in_width", [0, -1, 2.5, "4"])
    def test_seeded_in_width(self, in_width):
        # rejected before anything is drawn from the generator
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ContractError, match="in_width"):
            WeightSet.seeded(EmbeddingDims(2, 4, 2, 1), rng, in_width=in_width)
        assert rng.bit_generator.state == state

    def test_kernels_of_two_latent_counts(self):
        weights = WeightSet.seeded(EmbeddingDims(3, 6, 3, 2), np.random.default_rng(1))
        with pytest.raises(ContractError, match="ffn.conv2"):
            replace(weights, ffn_conv2=weights.ffn_conv2[:2])
        with pytest.raises(ContractError, match="at least one latent"):
            replace(weights, ffn_conv1=weights.ffn_conv1[:0], ffn_conv2=weights.ffn_conv2[:0])

    @pytest.mark.parametrize("stages", [0, 1, 3])
    def test_decoder_must_end_at_width(self, stages):
        dims = EmbeddingDims(latents=2, width=6, reduced=3, stages=2)
        weights = WeightSet.seeded(dims, np.random.default_rng(2))
        wrong = tuple(LinearStage(np.ones((3, 3)), np.zeros(3)) for _ in range(stages))
        with pytest.raises(ContractError, match="ends at width 3"):
            replace(weights, inner_decoder=wrong)

    def test_decoder_stage_chain(self):
        weights = WeightSet.seeded(EmbeddingDims(2, 6, 3, 2), np.random.default_rng(2))
        first, _ = weights.inner_decoder
        with pytest.raises(ContractError, match="inner.dec1.weight"):
            replace(weights, inner_decoder=(first, LinearStage(np.ones((2, 6)), np.zeros(6))))

    def test_unknown_activation(self):
        weights = WeightSet.identity(EmbeddingDims(2, 4, 4, 1))
        for activation in ("swish", ["relu"], None):
            with pytest.raises(ContractError, match="activation"):
                replace(weights, activation=activation)

    def test_identity_requires_equal_widths(self):
        with pytest.raises(ContractError):
            WeightSet.identity(EmbeddingDims(latents=2, width=6, reduced=3))

    def test_batchnorm_variance_positive(self):
        from rapidfeat.embed import NormStage

        with pytest.raises(ContractError):
            NormStage(np.ones(2), np.zeros(2), np.zeros(2), np.array([1.0, 0.0]))
