"""Scalar reference implementations of pieces the library computes in bulk.

Each oracle states one definition of the paper point by point, with no
vectorization and no neighbor search, and is compared in the tests with the
production code that computes the same quantity:

rho            4D distance of one pair  vs  distances in reflectivity_metric
compute_scale  scale from neighbor lists  vs  the scale rapid_unnormalized returns
select_k       k for one point's range band  vs  band_indices
cylindrical_bin  elevation bin of one point  vs  the ring ids of partition_rings
lexsort_rows   np.lexsort over the columns  vs  the one-key row sort of rapid

The embed oracles are the straightforward forms of the voxel-order code,
each compared byte for byte with what production returns:

voxelize_unique     np.unique(axis=0) grouping  vs  voxelize
scatter_softmax_rows / scatter_sum_rows
                    axis-0 reduceat over point rows; scatter_sum_rows of
                    point_attention  vs  vsa_encode's voxel tensor
point_attention     the per-point (m, l, d) tensor H: each point's
                    scatter_softmax_rows attention row times its value row
conv_oracle         one ravel_multi_index lookup per offset  vs  the slot-ordered
                    depthwise convolution
kernel_map_pairs    one ravel_multi_index lookup per offset  vs  cell_neighbours of
                    the voxel codes, the kernel map that VoxelGroups.conv_slots
                    regroups

The certificate oracles are the pass-1 cell-count certificate as first
written, with its own cell codes and its own 13-offset mirrored loop:

cell_blocks         rows per 3^D block of cells  vs  the cell_neighbours count
range_candidates    the whole certificate mask  vs  geometry._range_candidates
decode_per_point    projections of the (m, l, d) broadcast  vs  vsa_decode

The bounded-memory oracles are the forms that build everything at once:

tree_candidate_rows_whole  every anchor retrieved and re-ranked in one set
                    vs  the row-block walk of geometry._candidate_rows
joined_payload      each array's tobytes, joined into one payload  vs  the
                    container writer that streams converted arrays to the file
scatter             the pointwise rows scattered from the matrices, as extract
                    built and stored them  vs  PointwiseFeatureSet's derived rows
DenseConfusion      the (n, n) confusion matrix, IoU from its row and column
                    sums  vs  metrics' three per-class count vectors

Test input built only through the public weight constructors:

identity_weights    weights whose inner bottleneck maps a voxel tensor onto
                    itself, for the exact round trip of inner_bottleneck
"""

from __future__ import annotations

from itertools import product
from math import isnan, nan, prod
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from rapidfeat import (
    EmbeddingDims,
    InsufficientPointsError,
    NeighborList,
    PointCloud,
    RangeAwareConfig,
    RapidMatrix,
    ReflectivityScale,
    SensorGeometry,
    UndefinedAngleError,
    VoxelGroups,
    WeightSet,
    reflectivity_map,
)
from rapidfeat.embed import LinearStage, NormStage
from rapidfeat.geometry import _SAMPLE_STRIDE, _ranked


def rho(
    p_j: np.ndarray,
    p_l: np.ndarray,
    r_j: float,
    r_l: float,
    scale: ReflectivityScale,
) -> float:
    """4D distance: Euclidean norm of [p_j - p_l, g(r_j) - g(r_l)]."""
    dg = reflectivity_map(r_j, scale) - reflectivity_map(r_l, scale)
    diff = np.asarray(p_j, dtype=np.float64) - np.asarray(p_l, dtype=np.float64)
    return float(np.sqrt(diff @ diff + dg * dg))


def compute_scale(
    subset: Sequence[int] | np.ndarray,
    cloud: PointCloud,
    neighbor_lists: Sequence[NeighborList],
) -> ReflectivityScale:
    """Scale from exactly the (anchor, neighbor) pairs of the given lists.

    d_min/d_max are coordinate-only distances recomputed from the cloud (the
    lists may have been ranked under any metric); r_min/r_max are taken over
    the subset's reflectivities.
    """
    if len(neighbor_lists) == 0:
        raise InsufficientPointsError("no neighbor lists to derive a scale from")
    idx = np.asarray(subset, dtype=np.int64)
    d_min = np.inf
    d_max = -np.inf
    for nl in neighbor_lists:
        diff = cloud.points[nl.indices] - cloud.points[nl.anchor]
        d2 = np.einsum("ij,ij->i", diff, diff)
        d_min = min(d_min, float(d2.min()))
        d_max = max(d_max, float(d2.max()))
    refl = cloud.remission[idx]
    return ReflectivityScale(
        r_min=float(refl.min()),
        r_max=float(refl.max()),
        d_min=float(np.sqrt(d_min)),
        d_max=float(np.sqrt(d_max)),
    )


def select_k(point: np.ndarray, config: RangeAwareConfig) -> int:
    """Neighbor count for a point's range band; an exact edge hit falls in
    the farther band."""
    p = np.asarray(point, dtype=np.float64)
    r = float(np.sqrt(p @ p))
    if r < config.band_edges[0]:
        return config.k_close
    if r < config.band_edges[1]:
        return config.k_mid
    return config.k_far


def cylindrical_bin(
    point: np.ndarray, geometry: SensorGeometry, delta_theta: float
) -> tuple[int, int]:
    """(theta_bin, phi_bin) of one point; errors only at the origin.

    theta_bin = floor(atan2(y, x) / delta_theta)
    phi_bin   = floor(atan2(z, hypot(x, y)) / geometry.delta_phi), unclipped
    """
    x, y, z = (float(c) for c in point)
    if x == 0.0 and y == 0.0 and z == 0.0:
        raise UndefinedAngleError("cylindrical angles undefined at the origin")
    theta = np.arctan2(y, x)
    phi = np.arctan2(z, np.hypot(x, y))
    return int(np.floor(theta / delta_theta)), int(
        np.floor(phi / geometry.delta_phi)
    )


def lexsort_rows(rows: np.ndarray) -> np.ndarray:
    """Stable lexicographic row order, first column the primary key."""
    return np.lexsort(rows[:, ::-1].T)


def voxelize_unique(points: np.ndarray, voxel_size: float) -> VoxelGroups:
    """Voxel grouping through np.unique over the integer coordinate rows."""
    coords = np.floor(np.asarray(points) / voxel_size).astype(np.int64)
    voxel_coords, inverse = np.unique(coords, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1).astype(np.int64)
    order = np.argsort(inverse, kind="stable")
    counts = np.bincount(inverse, minlength=len(voxel_coords))
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return VoxelGroups(
        point_voxel=inverse, voxel_coords=voxel_coords, order=order, starts=starts
    )


def scatter_softmax_rows(scores: np.ndarray, groups: VoxelGroups) -> np.ndarray:
    """Per-voxel softmax with every reduction along the point axis."""
    grouped = np.asarray(scores, dtype=np.float64)[groups.order]
    seg_max = np.maximum.reduceat(grouped, groups.starts, axis=0)
    rep = np.repeat(
        np.arange(groups.num_voxels),
        np.bincount(groups.point_voxel, minlength=groups.num_voxels),
    )
    e = np.exp(grouped - seg_max[rep])
    seg_sum = np.add.reduceat(e, groups.starts, axis=0)
    att_sorted = e / seg_sum[rep]
    out = np.empty_like(att_sorted)
    out[groups.order] = att_sorted
    return out


def scatter_sum_rows(per_point: np.ndarray, groups: VoxelGroups) -> np.ndarray:
    """Per-voxel sum with the reduction along the point axis."""
    x = np.asarray(per_point, dtype=np.float64)
    flat = x[groups.order].reshape(groups.num_points, -1)
    summed = np.add.reduceat(flat, groups.starts, axis=0)
    return summed.reshape((groups.num_voxels,) + x.shape[1:])


def point_attention(
    feats: np.ndarray, latents: np.ndarray, weights: WeightSet, groups: VoxelGroups
) -> np.ndarray:
    """The encoder's per-point (m, l, d) tensor H: each point's per-voxel
    attention row over the latents times its value row."""
    g = np.asarray(feats, dtype=np.float64)
    att = scatter_softmax_rows(weights.enc_key(g) @ np.asarray(latents).T, groups)
    return att[:, :, None] * weights.enc_value(g)[:, None, :]


def conv_oracle(x: np.ndarray, coords: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Depthwise 3x3x3 convolution with one sorted-code lookup per offset."""
    c = len(coords)
    lo = coords.min(axis=0) - 1
    extent = coords.max(axis=0) - lo + 3
    codes = np.ravel_multi_index((coords - lo).T, extent)
    out = np.zeros_like(x)
    for dx, dy, dz in product((-1, 0, 1), repeat=3):
        nb = coords + np.array([dx, dy, dz])
        nb_codes = np.ravel_multi_index((nb - lo).T, extent)
        pos = np.searchsorted(codes, nb_codes)
        pos_c = np.minimum(pos, c - 1)
        found = codes[pos_c] == nb_codes
        taps = kernel[:, :, dx + 1, dy + 1, dz + 1]
        out[found] += x[pos_c[found]] * taps
    return out


def kernel_map_pairs(coords: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per offset in product((-1, 0, 1), repeat=3) order, the (destination,
    source) voxel indices with source = destination + offset, from one
    sorted-code search per offset."""
    c = len(coords)
    if c == 0:
        return [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))] * 27
    lo = coords.min(axis=0) - 1
    extent = coords.max(axis=0) - lo + 3
    codes = np.ravel_multi_index((coords - lo).T, extent)
    pairs = []
    for offset in product((-1, 0, 1), repeat=3):
        nb_codes = np.ravel_multi_index((coords + np.array(offset) - lo).T, extent)
        pos = np.minimum(np.searchsorted(codes, nb_codes), c - 1)
        dst = np.flatnonzero(codes[pos] == nb_codes)
        pairs.append((dst, pos[dst]))
    return pairs


def decode_per_point(
    hv_hat: np.ndarray, feats: np.ndarray, weights: WeightSet, groups: VoxelGroups
) -> np.ndarray:
    """Point decoder that projects the broadcast (m, l, d) tensor itself."""
    h_hat = np.asarray(hv_hat, dtype=np.float64)[groups.point_voxel]
    q = weights.dec_query(np.asarray(feats, dtype=np.float64))
    k_star = weights.dec_key(h_hat)
    v_star = weights.dec_value(h_hat)
    scores = np.einsum("mld,md->ml", k_star, q)
    scores = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    att = e / e.sum(axis=1, keepdims=True)
    return np.einsum("ml,mld->md", att, v_star)


def identity_weights(dims: EmbeddingDims) -> WeightSet:
    """Weights for dims (reduced == width) whose inner bottleneck is the
    identity: unit projections and linear stages, batch norms of zero mean,
    unit variance and eps 0, kernels whose only tap is the centre one, and
    the identity activation, in the stage layout of WeightSet.seeded."""
    assert dims.reduced == dims.width, "identity weights need reduced == width"
    d = dims.width

    def linear() -> LinearStage:
        return LinearStage(np.eye(d), np.zeros(d))

    def norm() -> NormStage:
        return NormStage(np.ones(d), np.zeros(d), np.zeros(d), np.ones(d), 0.0)

    kernel = np.zeros((dims.latents, d, 3, 3, 3))
    kernel[:, :, 1, 1, 1] = 1.0
    encoder = tuple((linear(), norm()) for _ in range(dims.stages))
    decoder = tuple(linear() for _ in range(dims.stages))
    return WeightSet(*(linear() for _ in range(5)), encoder, kernel, kernel, "identity", decoder)


def cell_blocks(cells: np.ndarray) -> np.ndarray:
    """Per row of an (n, D) integer cell array, the number of rows in the
    3^D block of cells around its cell: counts over sorted cell codes, each
    of the 13 (for D = 3) half-neighbourhood offsets also added mirrored."""
    dim, lo = cells.shape[1], cells.min(axis=0)
    extent = cells.max(axis=0) - lo + 3
    strides = np.array([prod(int(e) for e in extent[i + 1 :]) for i in range(dim)])
    codes = (cells - lo + 1) @ strides
    occupied, cell_of, count = np.unique(codes, return_inverse=True, return_counts=True)
    block = count.copy()
    for offset in list(product((-1, 0, 1), repeat=dim))[: 3**dim // 2]:
        nb = occupied + int(np.dot(offset, strides))
        pos = np.minimum(np.searchsorted(occupied, nb), len(occupied) - 1)
        hit = np.flatnonzero(occupied[pos] == nb)
        block[hit] += count[pos[hit]]
        block[pos[hit]] += count[hit]  # the mirrored offset
    return block[cell_of]


def range_candidates(x: np.ndarray, n: int, tree) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(keep, cells): the mask geometry._range_candidates defines, from
    cell_blocks, and the integer cell of each row (None when the mask falls
    back to every row)."""
    u, dim = x.shape
    keep = np.zeros(u, dtype=bool)
    keep[::_SAMPLE_STRIDE] = True
    d_sample, _ = tree.query(x[keep], k=n + 1)
    nearest = d_sample[:, 1].min()
    side = d_sample[:, n].max() * (1.0 - 1e-6) / (2.0 * np.sqrt(dim)) * (1.0 - 1e-6)
    extent = np.floor((tree.maxes - tree.mins) / side) + 3 if side > 0 else np.inf
    if not np.all(extent <= 2 ** min(20, 60 // dim)):
        return np.ones(u, dtype=bool), None
    cells = np.floor((x - tree.mins) / side).astype(np.int64)
    keep |= cell_blocks(cells) <= n
    if nearest > 0:
        keep[tree.query_pairs(nearest * (1.0 + 1e-6), output_type="ndarray").ravel()] = True
    return keep, cells


def tree_candidate_rows_whole(
    x: np.ndarray, n: int, queries: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """The tree route's (idx, d2) with every anchor retrieved at depth n + 2
    at once and the failing anchors widened together, by doubling."""
    q = x if queries is None else queries
    u = len(x)
    tree = cKDTree(x, leafsize=32)
    width = m = min(u, n + 2)
    idx_out = np.empty((len(q), width), dtype=np.int64)
    d2_out = np.empty((len(q), width), dtype=np.float64)
    rows = np.arange(len(q))
    while len(rows):
        q_rows = q[rows]
        d_tree, idx = tree.query(q_rows, k=m)
        idx_s, d2_s = _ranked(x, q_rows, idx.astype(np.int64), rows if queries is None else None)
        done = (d2_s[:, n - 1] < d_tree[:, -1] ** 2 * (1.0 - 1e-12)) | (m >= u)
        idx_out[rows[done]] = idx_s[done, :width]
        d2_out[rows[done]] = d2_s[done, :width]
        rows = rows[~done]
        m = min(u, 2 * m)
    return idx_out, d2_out


def joined_payload(arrays) -> list[tuple[np.ndarray, str]]:
    """A container payload as one array: each (array, dtype) converted with
    tobytes, the chunks joined into one uint8 array. Handed to
    scene_io._write_container in place of the arrays it streams, it gives
    the same file bytes."""
    data = b"".join(np.ascontiguousarray(a, dtype=np.dtype(d)).tobytes() for a, d in arrays)
    return [(np.frombuffer(data, np.uint8), "u1")]


def scatter(
    ids: np.ndarray, matrices: Sequence[RapidMatrix], k_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """(values, valid_width): (m, k_max) float64 rows padded with 1.0, each
    matrix row written at its anchor, and the int32 count of computed
    entries per point."""
    values = np.ones((len(ids), k_max), dtype=np.float64)
    valid = np.zeros(len(ids), dtype=np.int32)
    for mat in matrices:
        values[mat.anchors, : mat.k] = mat.values
        valid[mat.anchors] = mat.k
    return values, valid


class DenseConfusion:
    """(n, n) int64 counts, rows ground truth and columns prediction; points
    whose truth is ignored are left out. IoU is TP / (TP + FP + FN) with FP
    and FN from the class's column and row sums."""

    def __init__(self, num_classes: int, ignore: Sequence[int] = ()) -> None:
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)
        self.ignore = frozenset(ignore)

    def add(self, truth, pred) -> None:
        for t, p in zip(np.asarray(truth).tolist(), np.asarray(pred).tolist()):
            if t not in self.ignore:
                self.counts[t, p] += 1

    def iou(self, class_id: int) -> float:
        tp = int(self.counts[class_id, class_id])
        fp = int(self.counts[:, class_id].sum()) - tp
        fn = int(self.counts[class_id, :].sum()) - tp
        return nan if tp + fp + fn == 0 else tp / (tp + fp + fn)

    def miou(self) -> float:
        values = [self.iou(c) for c in range(len(self.counts)) if c not in self.ignore]
        return float(np.mean([v for v in values if not isnan(v)]))
