"""Memory of the extract path and the embed forward, traced with tracemalloc.

tracemalloc counts every numpy buffer and Python object allocated after it
starts, so each peak below is a fixed number of bytes for fixed inputs and
the bounds hold on any host. Each bound names the arrays a step cannot do
without: its outputs, the file it reads and the arrays it decodes, or one
array converted for writing.
"""

import tracemalloc

import numpy as np

from rapidfeat import (
    EmbeddingDims,
    PointCloud,
    RapidMatrix,
    ReflectivityScale,
    WeightSet,
    autoencoder_forward,
    seeded_latents,
    voxelize,
)
from rapidfeat.geometry import knn_brute, nearest_candidate_rows
from rapidfeat.partition import PointwiseFeatureSet
from rapidfeat.scene_io import load_feature_file, save_feature_file

from oracles import tree_candidate_rows_whole

SLACK = 1 << 16  # headers, descriptors and other small objects


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes allocated while it ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def above_outputs(fn, x, n):
    """Peak bytes of fn(x, n) beyond its two (idx, d2) outputs."""
    (idx, d2), peak = traced_peak(fn, x, n)
    return peak - idx.nbytes - d2.nbytes


class TestRetrievalMemory:
    def test_peak_does_not_grow_with_the_region(self):
        # The tree keeps one int64 index per row; every other temporary of
        # the retrieval lives in one row block of fixed size.
        rng = np.random.default_rng(0)
        small, large = (rng.normal(size=(u, 4)) * 10 for u in (40_000, 160_000))
        grown = above_outputs(nearest_candidate_rows, large, 10) - above_outputs(
            nearest_candidate_rows, small, 10
        )
        assert grown <= 8 * (len(large) - len(small)) + SLACK

    def test_peak_is_a_fraction_of_the_whole_set_retrieval(self):
        x = np.random.default_rng(1).normal(size=(40_000, 4)) * 10
        whole = above_outputs(tree_candidate_rows_whole, x, 10)
        assert above_outputs(nearest_candidate_rows, x, 10) < whole / 3


    def test_exhaustive_route_holds_one_block(self):
        # knn_brute ranks every point, but one block of 65,536 candidate
        # entries at a time, and keeps k + 2 columns per row: a few MiB, where
        # the whole (u, u) ranking of 3,000 points would hold 16 u^2 = 144 MB.
        rng = np.random.default_rng(6)
        cloud = PointCloud(rng.normal(size=(3000, 3)) * 10, rng.uniform(0, 1, 3000))
        lists, peak = traced_peak(knn_brute, np.arange(3000), cloud, 10)
        assert len(lists) == 3000 and peak < 8 << 20


def feature_set(rng):
    """Two 50k-row matrices of rows ascending in [0, 1], anchored to the two
    halves of a 100k-point pointwise record, k = 10."""
    scale = ReflectivityScale(0.0, 1.0, 0.1, 2.0)
    matrices = tuple(
        RapidMatrix(
            np.sort(rng.uniform(0, 1, (50_000, 10)), axis=1), f"ring00{i}-close", 10, scale,
            np.arange(50_000) + 50_000 * i,
        )
        for i in range(2)
    )
    pointwise = PointwiseFeatureSet(np.repeat(np.arange(2, dtype=np.int32), 50_000), 10, matrices)
    return matrices, pointwise


class TestContainerMemory:
    def test_save_holds_one_converted_array(self, tmp_path):
        matrices, pointwise = feature_set(np.random.default_rng(2))
        _, peak = traced_peak(save_feature_file, tmp_path / "f.rapd", pointwise, {})
        largest = max(m.values.size * 4 for m in matrices)  # a matrix at float32
        assert peak <= largest + SLACK

    def test_load_holds_the_file_and_the_decoded_arrays(self, tmp_path):
        # Load builds the matrices and the roi ids; the pointwise rows are
        # derived only when read. Checking the anchors takes two int64
        # arrays of one entry per point: the anchors joined, and their counts.
        matrices, pointwise = feature_set(np.random.default_rng(3))
        path = tmp_path / "f.rapd"
        save_feature_file(path, pointwise, {})
        loaded, peak = traced_peak(load_feature_file, path)
        p = loaded.pointwise
        decoded = sum(m.values.nbytes + m.anchors.nbytes for m in loaded.matrices)
        decoded += p.roi.nbytes + 2 * 8 * len(p.roi)
        assert peak <= path.stat().st_size + decoded + SLACK


class TestForwardMemory:
    def test_result_keeps_only_its_outputs(self):
        # Once the forward returns, what stays allocated is the two tensors
        # of the result and the convolution slots cached on the grid: no
        # inner tensor and no second copy of the kernel map.
        rng = np.random.default_rng(4)
        dims = EmbeddingDims(latents=4, width=10, reduced=5, stages=2)
        groups = voxelize(rng.uniform(-15.0, 15.0, size=(30_000, 3)), 0.5)
        feats = rng.normal(size=(30_000, dims.width))
        weights, latents = WeightSet.seeded(dims, rng), seeded_latents(dims, rng)
        tracemalloc.start()
        try:
            fw = autoencoder_forward(feats, latents, weights, groups)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        rank, slots = groups.conv_slots
        cached = rank.nbytes + sum(src.nbytes + off.nbytes for src, off in slots)
        assert held <= fw.voxelwise.nbytes + fw.reconstructed.nbytes + cached + SLACK
