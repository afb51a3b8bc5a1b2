"""Forward evaluation of the nested voxel autoencoder and its losses.

The outer stage is voxel set attention: pointwise features are projected to
keys and values, cross-attended against a small set of latent queries with a
softmax computed independently inside each voxel group, and summed per voxel
into a voxel-wise tensor. The inner stage compresses the feature width with
linear+batchnorm stages, exchanges information between neighboring voxels
with two depthwise 3x3x3 convolutions over the sparse voxel grid, and
reconstructs the width with linear stages. The convolutions share one kernel
map per voxel grid: the (destination, source) voxel pairs of each of the 27
offsets, found once with a sorted-code lookup on geometry's cell grid (the
MinkowskiEngine idiom).
The point decoder broadcasts voxel features back to points and attends them
against point-side queries.

Voxel-side code runs in voxel order on flat arrays: one sort of one int64
code per point puts the points in voxel order; the encoder walks cache-sized
runs of whole voxels, where it forms each point's attention products and
sums them per voxel, so no per-point (m, l, d) tensor exists; linear stages
are one 2-D GEMM on the (rows, d) view; convolutions add slot by slot to
prefixes of the (c, l*d') rows, with voxels ranked by their count of present
offsets; and the decoder projects voxel rows once, then gathers them for
each block of points in storage order. Every sum keeps a fixed
order, so results do not depend on scheduling or on block sizes.

The contrastive loss pairs every point with its coordinate-nearest point of
the same class and of any other class. The pairs come from exact per-class
KD-tree queries through the library's one KNN routine, so the loss costs
O(m log m) per class instead of the O(m^2) of an all-pairs scan.

Everything here is pure forward math with explicit weights; there is no
training loop. Weights are built in memory, by WeightSet.seeded or from the
stage constructors, and never filed: no command reads or writes a weight file.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Optional, Union

import numpy as np

from .cloud import PointCloud
from .errors import ContractError
from .geometry import cell_codes, cell_neighbours, nearest_candidate_rows

_ACTIVATIONS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "identity": lambda x: x,
}


@dataclass(frozen=True)
class EmbeddingDims:
    """Shape parameters of the autoencoder.

    latents   number of latent queries l
    width     feature width d of the outer stage
    reduced   compressed width d' of the inner stage (at most d)
    stages    number of inner encoder stages
    """

    latents: int = 4
    width: int = 16
    reduced: int = 8
    stages: int = 2

    def __post_init__(self) -> None:
        if min(self.latents, self.width, self.reduced, self.stages) < 1:
            raise ContractError("all embedding dimensions must be >= 1")
        if self.reduced > self.width:
            raise ContractError("reduced width must not exceed width")

    def stage_widths(self) -> list[int]:
        """Inner encoder widths from d down to d', linearly interpolated."""
        d, dp, u = self.width, self.reduced, self.stages
        return [d] + [round(d + (dp - d) * (i + 1) / u) for i in range(u)]


@dataclass(frozen=True)
class VoxelGroups:
    """Point-to-voxel assignment with deterministic segment structure.

    point_voxel  (m,) voxel index per point
    voxel_coords (c, 3) integer voxel coordinates, lexicographically sorted
    order        (m,) point indices sorted by (voxel, point index)
    starts       (c,) segment start of each voxel within order
    """

    point_voxel: np.ndarray
    voxel_coords: np.ndarray
    order: np.ndarray
    starts: np.ndarray

    @property
    def num_points(self) -> int:
        return len(self.point_voxel)

    @property
    def num_voxels(self) -> int:
        return len(self.voxel_coords)

    @cached_property
    def conv_slots(self) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
        """(rank, slots): the kernel map regrouped so that each convolution
        step adds to a prefix of rows. The kernel map is geometry's
        cell_neighbours of the voxel grid: per 3x3x3 offset, the
        (destination, source) voxel pairs with source = destination + offset.
        Voxels are ranked by their count of present offsets, most first (a
        stable sort); voxel v is row rank[v]. Slot j holds, for each of the
        first n_j ranked voxels (those with more than j present offsets), the
        (source voxel, offset) of its j-th present offset in offset order, so
        adding slots 0, 1, ... in turn sums every voxel's terms in offset
        order. Built once per grid and shared by every convolution on it."""
        pairs = cell_neighbours(*cell_codes(self.voxel_coords))
        counts = np.bincount(np.concatenate([dst for dst, _ in pairs]), minlength=self.num_voxels)
        ranked, sizes = _longest_first(counts, 27)  # sizes[j] = n_j
        rank = np.empty_like(ranked)
        rank[ranked] = np.arange(len(ranked))
        ends = np.cumsum(sizes)
        begins = ends - sizes
        src_at, off_at = np.empty(ends[-1], dtype=np.int64), np.empty(ends[-1], dtype=np.int64)
        filled = np.zeros_like(counts)  # slots filled so far per voxel
        for t, (dst, src) in enumerate(pairs):
            at = begins[filled[dst]] + rank[dst]
            src_at[at], off_at[at] = src, t
            filled[dst] += 1
        return rank, tuple((src_at[a:b], off_at[a:b]) for a, b in zip(begins, ends) if a < b)


def _longest_first(counts: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """(ranked, longer): indices ranked by count, most first (a stable sort),
    and for each j < depth the number of counts above j, so the items with
    more than j entries are the first longer[j] ranked ones."""
    ranked = np.argsort(-counts, kind="stable")
    return ranked, np.searchsorted(-counts[ranked], -np.arange(depth), "left")


def voxelize(
    source: Union[PointCloud, np.ndarray], voxel_size: float
) -> VoxelGroups:
    """Assign points to voxels by floor division of coordinates.

    Voxels are ordered lexicographically by their integer coordinates, which
    makes the grouping independent of point storage order.
    """
    if not 0 < voxel_size < np.inf:  # false for nan too
        raise ContractError(f"voxel_size must be positive and finite, got {voxel_size}")
    points = source.points if isinstance(source, PointCloud) else np.asarray(source)
    scaled = np.floor(points / voxel_size)
    if not np.all((scaled >= -(2.0 ** 63)) & (scaled < 2.0 ** 63)):
        raise ContractError("voxel coordinates must be finite and fit int64")
    coords = scaled.astype(np.int64)
    codes, _ = cell_codes(coords)
    order = np.argsort(codes, kind="stable")  # ties keep point order
    ordered = codes[order]
    first = np.ones(len(order), dtype=bool)  # where the sorted codes change
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    point_voxel = np.empty_like(order)
    point_voxel[order] = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    return VoxelGroups(
        point_voxel=point_voxel,
        voxel_coords=coords[order[starts]],
        order=order,
        starts=starts,
    )


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearStage:
    """x @ weight + bias, from width a to width b: weight (a, b), bias (b,)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        shape = np.shape(self.weight)
        if len(shape) != 2 or min(shape) < 1:
            raise ContractError(f"linear weight must be a non-empty (a, b) matrix, got {shape}")
        _checked("linear bias", self.bias, shape[1:])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """x @ weight + bias over the last axis, as one 2-D GEMM on the
        (rows, d) view rather than a stacked matmul over leading axes."""
        y = x.reshape(-1, x.shape[-1]) @ self.weight
        y = y.reshape(x.shape[:-1] + y.shape[-1:])
        rows, (bias,) = _rowwise(y, self.bias)
        rows += bias  # rows is a view of y
        return y


@dataclass(frozen=True)
class NormStage:
    """Batch normalization with fixed statistics: (b,) vectors, var > 0."""

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    eps: float = 1e-5

    def __post_init__(self) -> None:
        shapes = [np.shape(v) for v in (self.gamma, self.beta, self.mean, self.var)]
        if len(shapes[0]) != 1 or shapes.count(shapes[0]) != 4:
            raise ContractError(f"batch-norm parameters must be (b,) vectors, got {shapes}")
        if np.any(np.asarray(self.var) <= 0):
            raise ContractError("batch-norm variance must be positive")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        std = np.sqrt(self.var + self.eps)
        rows, (mean, std, gamma, beta) = _rowwise(x, self.mean, std, self.gamma, self.beta)
        y = rows - mean  # (x - mean) / sqrt(var + eps) * gamma + beta, in place
        y /= std
        y *= gamma
        y += beta
        return y.reshape(x.shape)


def _rowwise(x: np.ndarray, *params: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """x as rows over all its axes but the first, and each last-axis
    parameter tiled along such a row: the arithmetic of broadcasting over the
    last axis, element for element, in numpy inner loops l*d rather than d
    long."""
    reps = prod(x.shape[1:-1])
    return x.reshape(-1, reps * x.shape[-1]), [np.tile(p, reps) for p in params]


@dataclass(frozen=True)
class WeightSet:
    """All parameters of the forward autoencoder evaluation.

    enc_key/enc_value  encode-side projections of the input features, (d_in, d)
    dec_query          decode-side projection of the input features, (d_in, d)
    dec_key/dec_value  projections of the broadcast voxel features, (d, d)
    inner_encoder      (linear, batchnorm) stages reducing d to d'
    ffn_conv1/2        depthwise 3x3x3 kernels, shape (l, d', 3, 3, 3)
    activation         nonlinearity between the two depthwise convolutions
    inner_decoder      linear stages reconstructing d' back to d

    Construction walks the chain: the projections are (d_in, d) and (d, d)
    for enc_key's (d_in, d), the encoder stages start at d with norms of their
    widths, both kernels are (l, d', 3, 3, 3) with l >= 1 at the encoder's end
    width d', and the decoder stages lead from d' back to d.
    """

    enc_key: LinearStage
    enc_value: LinearStage
    dec_query: LinearStage
    dec_key: LinearStage
    dec_value: LinearStage
    inner_encoder: tuple[tuple[LinearStage, NormStage], ...]
    ffn_conv1: np.ndarray
    ffn_conv2: np.ndarray
    activation: str
    inner_decoder: tuple[LinearStage, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.activation, str) or self.activation not in _ACTIVATIONS:
            raise ContractError(f"unknown activation {self.activation!r}")
        d_in, d = np.shape(self.enc_key.weight)
        for name, a in (("enc_value", d_in), ("dec_query", d_in), ("dec_key", d), ("dec_value", d)):
            _checked(f"{name}.weight", getattr(self, name).weight, (a, d))
        a = d
        for i, (lin, norm) in enumerate(self.inner_encoder):
            b = np.shape(lin.weight)[1]
            _checked(f"inner.enc{i}.weight", lin.weight, (a, b))
            _checked(f"inner.enc{i} norm", norm.mean, (b,))
            a = b
        for name in ("ffn_conv1", "ffn_conv2"):  # (l, d', 3, 3, 3), l of the first
            _checked(name, getattr(self, name), np.shape(self.ffn_conv1)[:1] + (a, 3, 3, 3))
        if np.shape(self.ffn_conv1)[0] < 1:
            raise ContractError("the kernels must have at least one latent, got l = 0")
        for i, lin in enumerate(self.inner_decoder):
            b = np.shape(lin.weight)[1]
            _checked(f"inner.dec{i}.weight", lin.weight, (a, b))
            a = b
        if a != d:
            raise ContractError(f"inner decoder ends at width {a}, not d = {d}")

    @classmethod
    def seeded(
        cls, dims: EmbeddingDims, rng: np.random.Generator, in_width: Optional[int] = None
    ) -> "WeightSet":
        """Random weights for input features of in_width (default dims.width)
        columns, drawn from the generator in a fixed order: encoder stages,
        decoder stages, projections, kernels."""
        d_in = dims.width if in_width is None else in_width
        if not isinstance(d_in, (int, np.integer)) or d_in < 1:
            raise ContractError(f"in_width must be an integer >= 1, got {in_width!r}")
        w, d = dims.stage_widths(), dims.width

        def linear(a: int, b: int) -> LinearStage:
            return LinearStage(rng.normal(0.0, 1.0 / np.sqrt(a), (a, b)), rng.normal(0.0, 0.01, b))

        def norm(b: int) -> NormStage:
            gamma, beta = rng.uniform(0.5, 1.5, b), rng.normal(0.0, 0.01, b)
            mean, var = rng.normal(0.0, 0.01, b), rng.uniform(0.5, 1.5, b)
            return NormStage(gamma, beta, mean, var, 1e-5)

        inner_enc = tuple((linear(a, b), norm(b)) for a, b in zip(w, w[1:]))
        inner_dec = tuple(linear(a, b) for a, b in zip(w[::-1], w[-2::-1]))
        projections = [linear(a, d) for a in (d_in, d_in, d_in, d, d)]
        kernel = (dims.latents, w[-1], 3, 3, 3)
        kernels = rng.normal(0.0, 0.2, kernel), rng.normal(0.0, 0.2, kernel)
        return cls(*projections, inner_enc, *kernels, "relu", inner_dec)


def seeded_latents(dims: EmbeddingDims, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(0.0, 1.0, size=(dims.latents, dims.width))


# ---------------------------------------------------------------------------
# forward operations
# ---------------------------------------------------------------------------


_SCATTER_BLOCK = 4096  # points per block of every point walk
_IN_ORDER = 8  # numpy's pairwise sum adds fewer terms than this in order


def _voxel_blocks(groups: VoxelGroups, *arrays: np.ndarray):
    """Per run of whole voxels of about _SCATTER_BLOCK points (a larger voxel
    is a run of its own): its voxel slice, point indices, segment bounds and
    the rows of each array, gathered in voxel order into blocks that stay in
    cache."""
    bounds = np.append(groups.starts, groups.num_points)
    v0 = 0
    while v0 < groups.num_voxels:
        v1 = max(v0 + 1, int(np.searchsorted(bounds, bounds[v0] + _SCATTER_BLOCK, "right")) - 1)
        idx = groups.order[bounds[v0] : bounds[v1]]
        blocks = [np.take(a, idx, axis=0) for a in arrays]
        yield slice(v0, v1), idx, bounds[v0 : v1 + 1] - bounds[v0], blocks
        v0 = v1


def _segment_sums(rows: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """np.add.reduceat(rows, bounds[:-1]) bit for bit, in fewer inner loops.

    numpy reduces a segment to its first row plus the sum of its other rows,
    and adds fewer than _IN_ORDER of those in order, starting from -0.0.
    Segments of up to _IN_ORDER rows are summed that way here, slot by slot
    as in the convolution: ranked by length, longest first (a stable sort),
    so slot j adds the j-th rows of a prefix of the segments. Longer
    segments go through reduceat itself.
    """
    starts, counts = bounds[:-1], np.diff(bounds)
    ranked, longer = _longest_first(counts, _IN_ORDER + 1)
    first, sizes = starts[ranked], counts[ranked]
    n = longer[_IN_ORDER]  # the reduceat ones lead the ranking
    out = np.take(rows, first, axis=0)
    rest = np.full((longer[1] - n, rows.shape[1]), -0.0)
    for j in range(1, _IN_ORDER):
        rest[: longer[j] - n] += np.take(rows, first[n : longer[j]] + j, axis=0)
    out[n : longer[1]] += rest
    if n:
        c = sizes[:n]
        at = np.cumsum(c) - c
        idx = np.repeat(first[:n] - at, c) + np.arange(at[-1] + c[-1])
        out[:n] = np.add.reduceat(np.take(rows, idx, axis=0), at)
    result = np.empty_like(out)
    result[ranked] = out
    return result


def _block_softmax(block: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Softmax over the rows of each segment bounds[i]:bounds[i + 1] of a
    voxel block of scores, independently per column."""
    starts, counts = bounds[:-1], np.diff(bounds)
    e = np.exp(block - np.repeat(np.maximum.reduceat(block, starts), counts, axis=0))
    e /= np.repeat(np.add.reduceat(e, starts), counts, axis=0)
    return e


def _column_fold(ufunc: np.ufunc, rows: np.ndarray) -> np.ndarray:
    """ufunc folded over the columns of rows in order: the row maximum
    exactly, and below _IN_ORDER columns numpy's own row sum bit for bit,
    without its per-row inner loops over a few elements."""
    out = rows[:, 0].copy()
    for j in range(1, rows.shape[1]):
        ufunc(out, rows[:, j], out=out)
    return out


def _voxel_shape(weights: WeightSet, groups: VoxelGroups) -> tuple[int, int, int]:
    """(c, l, d): the voxel tensor shape the weights take on the grid."""
    return (groups.num_voxels, weights.ffn_conv1.shape[0], weights.enc_key.weight.shape[1])


def _checked(name: str, x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """x as float64, or ContractError unless it has the given shape."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != shape:
        raise ContractError(f"{name} must have shape {shape}, got {x.shape}")
    return x


def vsa_encode(
    feats: np.ndarray,
    latents: np.ndarray,
    weights: WeightSet,
    groups: VoxelGroups,
) -> np.ndarray:
    """Outer voxel encoder: the (c, l, d) voxel tensor Hv.

    Each point's attention row (its key scored against the latents, with a
    softmax over the points of its voxel) weights its value row; Hv sums
    these (l, d) products over each voxel's points. One walk over voxel
    blocks does the softmax, the products and the sums, so the (m, l, d)
    per-point tensor is never built.
    """
    g = _checked("feats (m, d_in)", feats, (groups.num_points, weights.enc_key.weight.shape[0]))
    c, l, d = _voxel_shape(weights, groups)
    lat = _checked("latents (l, d)", latents, (l, d))
    scores = weights.enc_key(g) @ lat.T
    values = weights.enc_value(g)
    hv = np.empty((c, l * d))
    for voxels, _, bounds, (s, v) in _voxel_blocks(groups, scores, values):
        h = _block_softmax(s, bounds)[:, :, None] * v[:, None, :]
        hv[voxels] = _segment_sums(h.reshape(len(h), l * d), bounds)
    return hv.reshape(c, l, d)


def _sparse_depthwise_conv(x: np.ndarray, groups: VoxelGroups, kernel: np.ndarray) -> np.ndarray:
    """Depthwise 3x3x3 convolution over the occupied voxels of groups, x's
    grid; absent neighbors contribute zero. Slot by slot of
    VoxelGroups.conv_slots, the source rows times their offsets' taps are
    added to a prefix of the rows in rank order, so each voxel sums its
    present offsets in offset order from +0.0; one gather restores voxel
    order."""
    rank, slots = groups.conv_slots
    rows = x.reshape(len(x), prod(x.shape[1:]))
    taps = np.ascontiguousarray(kernel.reshape(-1, 27).T)  # (27, l*d') in offset order
    out = np.zeros_like(rows)
    for src, off in slots:
        g = np.take(rows, src, axis=0)
        g *= np.take(taps, off, axis=0)
        out[: len(src)] += g
    return np.take(out, rank, axis=0).reshape(x.shape)


def inner_bottleneck(
    hv: np.ndarray, weights: WeightSet, groups: VoxelGroups
) -> tuple[np.ndarray, np.ndarray]:
    """Inner autoencoder over the voxel tensor.

    Encoder stages (linear + batchnorm) reduce the width to d', the ConvFFN
    applies DwConv2 o zeta o DwConv1 over the sparse voxel grid, and decoder
    stages reconstruct the width. Returns (hbar, Hv_hat): the compressed
    embedding before the ConvFFN and the reconstructed voxel tensor.
    """
    x = _checked("hv (c, l, d)", hv, _voxel_shape(weights, groups))
    for lin, norm in weights.inner_encoder:
        x = norm(lin(x))
    hbar = x
    act = _ACTIVATIONS[weights.activation]
    y = _sparse_depthwise_conv(hbar, groups, weights.ffn_conv1)
    y = _sparse_depthwise_conv(act(y), groups, weights.ffn_conv2)
    for lin in weights.inner_decoder:
        y = lin(y)
    return hbar, y


def vsa_decode(
    hv_hat: np.ndarray,
    feats: np.ndarray,
    weights: WeightSet,
    groups: VoxelGroups,
) -> np.ndarray:
    """Point decoder: broadcast voxel features to points and attend against
    point-side queries. Returns the reconstructed (m, d) feature set. Each
    point's row depends on its own voxel alone, so the walk takes the points
    in storage order, _SCATTER_BLOCK at a time."""
    hv = _checked("hv_hat (c, l, d)", hv_hat, _voxel_shape(weights, groups))
    g = _checked("feats (m, d_in)", feats, (groups.num_points, weights.dec_query.weight.shape[0]))
    q = weights.dec_query(g)
    keys, values = weights.dec_key(hv), weights.dec_value(hv)  # project c voxel rows once
    out = np.empty_like(q)
    for lo in range(0, groups.num_points, _SCATTER_BLOCK):
        rows = slice(lo, lo + _SCATTER_BLOCK)
        scores = np.einsum("mld,md->ml", np.take(keys, groups.point_voxel[rows], axis=0), q[rows])
        scores -= _column_fold(np.maximum, scores)[:, None]
        e = np.exp(scores, out=scores)
        e /= (_column_fold(np.add, e) if e.shape[1] < _IN_ORDER else e.sum(axis=1))[:, None]
        out[rows] = np.einsum("ml,mld->md", e, np.take(values, groups.point_voxel[rows], axis=0))
    return out


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise cosine similarity; a zero vector has similarity 0."""
    na = np.sqrt(np.einsum("ij,ij->i", a, a))
    nb = np.sqrt(np.einsum("ij,ij->i", b, b))
    denom = na * nb
    dot = np.einsum("ij,ij->i", a, b)
    return np.divide(dot, denom, out=np.zeros_like(dot), where=denom > 0)


def _class_pairs(points: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point, the (distance, index)-smallest other point of its own class
    (pos) and of any other class (neg); -1 where no such point exists.

    Each class is one depth-1 self query on its members and one depth-1
    query of its members against the points of every other class. Members
    are ascending point indices, so the row-index tie-break of
    nearest_candidate_rows is the ascending point-index tie-break.
    """
    pos = np.full(len(points), -1, dtype=np.int64)
    neg = np.full(len(points), -1, dtype=np.int64)
    for c in np.unique(labels):
        inside = labels == c
        members, others = np.flatnonzero(inside), np.flatnonzero(~inside)
        if len(members) > 1:
            idx, _ = nearest_candidate_rows(points[members], 1)
            pos[members] = members[idx[:, 0]]
        if len(others) > 0:
            idx, _ = nearest_candidate_rows(points[others], 1, queries=points[members])
            neg[members] = others[idx[:, 0]]
    return pos, neg


def contrastive_loss(
    embeddings: np.ndarray,
    points: np.ndarray,
    labels: np.ndarray,
    alpha: float = 0.5,
) -> float:
    """Class-aware hinge loss on the cosine similarity of nearest positive
    and negative pairs.

    For each point, the positive pair is the coordinate-nearest point of the
    same class and the negative pair the coordinate-nearest point of a
    different class, ties broken by ascending point index; a term is skipped
    when no such point exists. When no point has a negative pair
    (single-class input), the loss degrades to positive terms only and a
    RuntimeWarning is emitted. Pairs come from exact per-class KD-tree
    queries, O(m log m) per class in time and O(m) in memory.
    """
    h = np.asarray(embeddings, dtype=np.float64)
    p = np.asarray(points, dtype=np.float64)
    y = np.asarray(labels)
    m = len(h)
    if len(p) != m or len(y) != m:
        raise ContractError("embeddings, points, and labels must align")
    if m == 0:
        raise ContractError("contrastive loss needs at least one point")
    pos, neg = _class_pairs(p, y)
    if np.all(neg < 0):
        warnings.warn(
            "all points share one class; contrastive loss uses positive terms only",
            RuntimeWarning,
            stacklevel=2,
        )
    total = np.zeros(m, dtype=np.float64)
    has_pos = pos >= 0
    if has_pos.any():
        s = _similarity(h[has_pos], h[pos[has_pos]])
        total[has_pos] += np.maximum(alpha - s, 0.0)
    has_neg = neg >= 0
    if has_neg.any():
        s = _similarity(h[has_neg], h[neg[has_neg]])
        total[has_neg] += np.maximum(s - alpha, 0.0)
    return float(total.mean())


@dataclass(frozen=True)
class EmbeddingForward:
    """Voxel tensor and decoded features of one autoencoder forward pass;
    shapes from (m points, c voxels, l latents, d width)."""

    voxelwise: np.ndarray      # (c, l, d) scatter-summed voxel tensor
    reconstructed: np.ndarray  # (m, d) decoded feature set


def autoencoder_forward(
    feats: np.ndarray,
    latents: np.ndarray,
    weights: WeightSet,
    groups: VoxelGroups,
) -> EmbeddingForward:
    """Full nested forward pass: outer encode, inner bottleneck, point decode."""
    g = np.asarray(feats, dtype=np.float64)
    hv = vsa_encode(g, latents, weights, groups)
    _, hv_hat = inner_bottleneck(hv, weights, groups)
    g_hat = vsa_decode(hv_hat, g, weights, groups)
    return EmbeddingForward(
        voxelwise=hv,
        reconstructed=g_hat,
    )


def reconstruction_loss(feats: np.ndarray, reconstructed: np.ndarray) -> float:
    """Mean squared error over all entries."""
    g = np.asarray(feats, dtype=np.float64)
    g_hat = np.asarray(reconstructed, dtype=np.float64)
    if g.shape != g_hat.shape:
        raise ContractError(f"shape mismatch: {g.shape} vs {g_hat.shape}")
    if g.size == 0:
        raise ContractError("reconstruction loss needs at least one entry")
    return float(np.mean((g - g_hat) ** 2))

