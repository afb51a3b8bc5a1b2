"""Rigid transforms, range computation, and exact k-nearest-neighbor search.

Every exact KNN runs one candidate walk. :func:`knn_brute`, the oracle,
walks it without a tree, so every point is a candidate; :func:`knn_indexed`
and :func:`nearest_candidate_rows` give it a KD-tree unless the subset is
tiny or the depth covers it, and the tree retrieves a superset of the
nearest. Both rank neighbors by ascending metric distance with ties broken
by ascending point index, and agree bit for bit: one re-rank computes every
candidate distance and sorts the candidates by the (distance, index) pair,
so ties leave it in ascending index order whatever order the candidates
came in. Subsets are checked by :func:`sorted_subset`. The tree retrieves
every anchor at depth n + 2 first and widens, by doubling, only the anchors
whose n-th exact distance does not sit strictly inside the tree's horizon.
The walk takes anchors in blocks of a fixed number of candidate entries, so
beyond the tree and the result its memory does not grow with the subset.

:func:`knn_distance_range` serves a caller that reads only the smallest
first and the largest n-th distance over all anchors: the tree's distances
point out the few rows that can hold them, and only those are ranked
exactly, so the result equals the extremes of the full ranking bit for bit.
In large subsets a cell-count certificate first rules out most rows, so
the tree queries only the sample that sets its bounds and the rows it
cannot rule out.

Metrics are expressed as embeddings: a metric is a callable mapping
``(cloud, subset) -> (n, D) float64`` such that the metric distance between
two points is the Euclidean distance between their embedded rows. Without
a metric, the KNN ranks the 3D coordinates themselves; the
reflectivity-augmented metric of the feature pipeline embeds into 4D.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .errors import ContractError, InsufficientPointsError

MetricEmbedding = Callable[[PointCloud, np.ndarray], np.ndarray]

# Up to this subset size nearest_candidate_rows builds no tree and ranks every
# row; tree construction overhead dominates for tiny regions.
BRUTE_FORCE_CUTOFF = 64

# From this subset size knn_distance_range queries only the rows a cell-count
# certificate cannot rule out; below it, querying every row is cheaper.
CERTIFY_CUTOFF = 4096
_SAMPLE_STRIDE = 32

# Candidate entries (anchors x candidates per anchor) per block of the
# candidate walk; temporaries stay a few MB at any subset size.
_RETRIEVE_BLOCK = 1 << 16

_ORTHONORMAL_TOL = 1e-12

# Bound on each translation component of RigidTransform.random, in meters.
_MAX_TRANSLATION = 50.0


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion p -> R p + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ContractError("rotation must be (3, 3) and translation (3,)")
        if not np.allclose(r.T @ r, np.eye(3), atol=_ORTHONORMAL_TOL, rtol=0.0):
            raise ContractError("rotation is not orthonormal within 1e-12")
        if abs(np.linalg.det(r) - 1.0) > _ORTHONORMAL_TOL:
            raise ContractError("rotation determinant must be +1 within 1e-12")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def random(cls, rng: np.random.Generator) -> "RigidTransform":
        """Uniform random rotation (QR of a Gaussian matrix) plus a translation
        uniform in [-_MAX_TRANSLATION, _MAX_TRANSLATION) per axis."""
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        t = rng.uniform(-_MAX_TRANSLATION, _MAX_TRANSLATION, size=3)
        return cls(q, t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) @ self.rotation.T + self.translation


def range_of(points: np.ndarray) -> np.ndarray:
    """(m,) Euclidean norms of the rows of an (m, 3) array."""
    p = np.asarray(points, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", p, p))


@dataclass(frozen=True)
class NeighborList:
    """k nearest neighbors of one anchor, ascending distance, ties by index.

    Indices are cloud-level (not subset-relative).
    """

    anchor: int
    indices: np.ndarray
    distances: np.ndarray

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.distances):
            raise ContractError("indices and distances must have equal length")
        if np.any(np.diff(self.distances) < 0):
            raise ContractError("distances must be nondecreasing")


# ---------------------------------------------------------------------------
# internal candidate machinery
#
# Every exact KNN reduces to "sorted candidate rows": per anchor, other
# points ordered by (squared distance, candidate row index). A tree, when
# the walk has one, only chooses candidates; `_ranked` alone computes their
# squared distances, by direct coordinate subtraction, and sorts them by
# (d2, row index), so the walk gives identical bits with or without a tree
# and ties follow the ascending row order. The tree is only trusted to
# *retrieve* a candidate superset.
# ---------------------------------------------------------------------------


def _ranked(
    x: np.ndarray, q: np.ndarray, idx: np.ndarray, own: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate rows idx of each query in q, ranked by exact squared distance.

    Each row of idx lists distinct rows of x, in any order; equal distances
    rank by ascending row index. A query's own row own[i] (when own is
    given) gets d2 = inf and ranks last. Returns (idx, d2).
    """
    diff = x[idx]
    diff -= q[:, None, :]  # x[idx] is a fresh copy: no second (a, m, D) array
    d2 = np.einsum("abc,abc->ab", diff, diff)
    del diff  # free the (a, m, D) copy before the (a, m) complex sort key exists
    if own is not None:
        d2[idx == own[:, None]] = np.inf
    # One key per candidate, d2 + 1j * index: numpy sorts complex numbers by
    # (real, imag), and indices are unique per row, so this is the
    # (d2, index) order.
    order = np.argsort(d2 + 1j * idx, axis=1)
    return np.take_along_axis(idx, order, axis=1), np.take_along_axis(d2, order, axis=1)


def _candidate_rows(
    x: np.ndarray, n: int, queries: Optional[np.ndarray] = None, tree: Optional[cKDTree] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted candidate rows, exact to depth n: each row keeps its
    (d2, index)-first min(u, n + 2) candidates.

    With tree (cKDTree(x, leafsize=32)) every anchor is retrieved at depth
    n + 2 first. An anchor is done once its n-th exact distance sits
    strictly inside the tree's horizon, which guarantees its first n entries
    are exactly the n smallest and that every candidate tied with the n-th
    distance was retrieved; only the anchors that fail are retrieved again,
    at double depth. Without a tree every row of x is a candidate, so each
    anchor is done in one round. Anchors go through in blocks of about
    _RETRIEVE_BLOCK candidate entries; a row depends only on its own query,
    so the blocks change no bit of the result.
    """
    q = x if queries is None else queries
    u = len(x)
    width = min(u, n + 2)
    start = u if tree is None else width
    idx_out = np.empty((len(q), width), dtype=np.int64)
    d2_out = np.empty((len(q), width), dtype=np.float64)
    step = max(1, _RETRIEVE_BLOCK // start)
    for lo in range(0, len(q), step):
        rows, m = np.arange(lo, min(lo + step, len(q))), start
        while len(rows):
            q_rows = q[rows]
            if m < u:
                d_tree, idx = tree.query(q_rows, k=m)
                idx = idx.astype(np.int64, copy=False)
                horizon = d_tree[:, -1] ** 2 * (1.0 - 1e-12)
            else:  # every row is a candidate, so the ranking is complete
                idx, horizon = np.broadcast_to(np.arange(u), (len(rows), u)), np.inf
            idx_s, d2_s = _ranked(x, q_rows, idx, rows if queries is None else None)
            done = (d2_s[:, n - 1] < horizon) | (m >= u)
            idx_out[rows[done]] = idx_s[done, :width]
            d2_out[rows[done]] = d2_s[done, :width]
            rows = rows[~done]
            m = min(u, 2 * m)
    return idx_out, d2_out


def nearest_candidate_rows(
    x: np.ndarray, n: int, queries: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-anchor candidates sorted by squared distance, exact to depth n.

    x is an (u, D) embedding. Without queries every row of x is an anchor,
    its own row is excluded, and n must satisfy 1 <= n <= u - 1. With an
    (a, D) queries array the anchors are the query rows, ranked against
    every row of x with no exclusion, and 1 <= n <= u. Equal distances are
    ordered by ascending row index of x. Rows are min(u, n + 2) wide;
    entries beyond the guaranteed depth only serve tie inclusion at the
    n-th distance, which the retrieval bound covers. The walk gets a tree
    unless u <= BRUTE_FORCE_CUTOFF or n is at its upper bound.
    """
    u = len(x)
    depth = u - 1 if queries is None else u
    if not 1 <= n <= depth:
        raise ContractError(f"need 1 <= n <= {depth}, got n={n}, u={u}")
    tree = None if u <= BRUTE_FORCE_CUTOFF or n >= depth else cKDTree(x, leafsize=32)
    return _candidate_rows(x, n, queries, tree)


def knn_distance_range(x: np.ndarray, n: int) -> tuple[np.float64, np.float64]:
    """(d2_min, d2_max): the smallest first and the largest n-th squared
    distance of nearest_candidate_rows(x, n), bit for bit, from exact ranks
    of the few rows that can hold them.

    A tree over x is queried at depth n + 1 with the row itself
    included, so column j of the tree distances is the j-th distance to
    another row, up to rounding. Only rows whose tree value lies within a
    relative 1e-9 of the extreme are ranked exactly, as queries that find
    themselves (or a duplicate) at distance 0 in column 0. An extreme tree
    distance of exactly 0 is returned unranked: the tree and the rank
    square the same coordinate differences, so it is exactly 0 in the rank
    too, and ranking the rows of a duplicate group would widen each of them
    to the group's size.

    Below CERTIFY_CUTOFF rows every row is queried. From it on, only the
    rows _range_candidates cannot rule out are; the near and far sets, and
    so the result, are the same.
    """
    u = len(x)
    if not 1 <= n < u - 1:  # nearest_candidate_rows checks n
        _, d2 = nearest_candidate_rows(x, n)
        return d2[:, 0].min(), d2[:, n - 1].max()
    tree = cKDTree(x, leafsize=32)
    q = x[_range_candidates(x, n, tree)] if u >= CERTIFY_CUTOFF else x
    d_tree, _ = tree.query(q, k=n + 1)
    first, nth = d_tree[:, 1], d_tree[:, n]
    lo, hi = first.min(), nth.max()
    near = (first <= lo * (1.0 + 1e-9)) & (lo > 0)
    far = (nth >= hi * (1.0 - 1e-9)) & (hi > 0)
    _, d2 = _candidate_rows(x, n + 1, q[near | far], tree)
    return (
        d2[:, 1].min() if lo > 0 else np.float64(0.0),
        d2[:, n].max() if hi > 0 else np.float64(0.0),
    )


def _range_candidates(x: np.ndarray, n: int, tree: cKDTree) -> np.ndarray:
    """Mask of the rows of x that can hold the smallest first or the largest
    n-th tree distance at depth n + 1; every row when unsure.

    A stride sample bounds both extremes. Its largest n-th distance, shrunk
    by 1e-6, is a lower bound L on the largest of all rows. In cells of
    side L / (2 sqrt(D)), shrunk by 1e-6 again, any two rows of a 3x3x3
    block of cells lie closer than L, so a row whose block holds n + 1 rows
    has an n-th distance below the far threshold and is ruled out. Blocks
    are counted over the cell_neighbours pairs of the occupied cells. The
    margins dwarf the relative rounding of the tree's distances (far from
    underflow, as the 1e-9 selection assumes too) and of the cell floor,
    which stays near 1e-9 of a cell as long as the span is at most 2**20
    cells; a wider span, or L = 0, falls back to every row. A row at the
    smallest first distance has another row within the sample's smallest,
    grown by 1e-6 (query_pairs), unless that is 0, which the sample then
    already holds.
    """
    u, dim = x.shape
    keep = np.zeros(u, dtype=bool)
    keep[::_SAMPLE_STRIDE] = True
    d_sample, _ = tree.query(x[keep], k=n + 1)
    nearest = d_sample[:, 1].min()
    side = d_sample[:, n].max() * (1.0 - 1e-6) / (2.0 * np.sqrt(dim)) * (1.0 - 1e-6)
    extent = np.floor((tree.maxes - tree.mins) / side) + 3 if side > 0 else np.inf
    if not np.all(extent <= 2 ** min(20, 60 // dim)):
        return np.ones(u, dtype=bool)
    codes, strides = cell_codes(np.floor((x - tree.mins) / side).astype(np.int64))
    cells, cell_of, count = np.unique(codes, return_inverse=True, return_counts=True)
    block = np.zeros_like(count)
    for i, j in cell_neighbours(cells, strides):
        block[i] += count[j]
    keep |= block[cell_of] <= n
    if nearest > 0:
        keep[tree.query_pairs(nearest * (1.0 + 1e-6), output_type="ndarray").ravel()] = True
    return keep


def cell_codes(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, strides): row-major codes of the rows of an (n, D) integer cell
    array in their bounding box widened by two cells per axis, so that for
    an offset in {-1, 0, 1}^D only cell + offset can have code + offset @
    strides. Codes ascend in lexicographic row order. ContractError if the
    box has more cells than int64 codes index."""
    if len(cells) == 0:
        return np.zeros(0, dtype=np.int64), np.ones(cells.shape[1], dtype=np.int64)
    lo = cells.min(axis=0)
    extent = [int(h) - int(a) + 3 for a, h in zip(lo, cells.max(axis=0))]
    if prod(extent) > np.iinfo(np.int64).max:
        raise ContractError("cell bounding box has more cells than int64 codes index")
    strides = np.array([prod(extent[i + 1 :]) for i in range(len(extent))], dtype=np.int64)
    return (cells - lo) @ strides, strides


def cell_neighbours(
    codes: np.ndarray, strides: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per offset in product((-1, 0, 1), repeat=D) order, the (i, j) pairs of
    unique ascending cell_codes codes with cell j = cell i + offset, i ascending.
    Half the offsets are searched: the centre pairs each cell with itself,
    and offset 3**D - 1 - t is offset t negated, so its pairs are t's swapped."""
    dim = len(strides)
    centre = np.arange(len(codes))
    pairs = [(centre, centre)] * 3**dim
    for t, offset in zip(range(3**dim // 2), product((-1, 0, 1), repeat=dim)):
        nb_codes = codes + int(np.dot(offset, strides))
        pos = np.minimum(np.searchsorted(codes, nb_codes), len(codes) - 1)
        i = np.flatnonzero(codes[pos] == nb_codes)
        pairs[t] = i, pos[i]
        pairs[-1 - t] = pairs[t][::-1]
    return tuple(pairs)


def sorted_subset(
    subset: Sequence[int] | np.ndarray, size: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Check a subset of a size-point cloud that must supply k neighbors per
    point; returns (order, anchors) with anchors = subset[order] ascending.

    Raises InsufficientPointsError below k + 1 points and ContractError for
    k < 1 or a subset that is not 1-D, holds non-integer values (floats and
    bools are not truncated into indices), holds an index outside [0, size)
    or repeats one.
    """
    idx = np.asarray(subset)
    if k < 1 or idx.ndim != 1:
        raise ContractError(f"need k >= 1 and a 1D index array, got k={k}, shape {idx.shape}")
    if idx.size and idx.dtype.kind not in "iu":
        raise ContractError(f"subset indices must be integers, got dtype {idx.dtype}")
    idx = idx.astype(np.int64, copy=False)
    if len(idx) < k + 1:
        raise InsufficientPointsError(
            f"subset of {len(idx)} points cannot supply k={k} neighbors"
        )
    order = np.argsort(idx, kind="stable")
    anchors = idx[order]
    if anchors[0] < 0 or anchors[-1] >= size:
        raise ContractError(f"subset indices must lie in [0, {size})")
    if np.any(np.diff(anchors) == 0):
        raise ContractError("subset contains duplicate indices")
    return order, anchors


def _knn_lists(
    subset: Sequence[int] | np.ndarray,
    cloud: PointCloud,
    k: int,
    metric: Optional[MetricEmbedding],
    candidate_rows: Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]],
) -> list[NeighborList]:
    """Neighbor lists of every subset point, in input order, from sorted
    candidate rows.

    Candidates are evaluated in ascending cloud-level index order, so the
    row routine's index tie-break is the cloud-level one.
    """
    order, anchors = sorted_subset(subset, len(cloud), k)
    x = cloud.points[anchors] if metric is None else metric(cloud, anchors)
    idx_rows, d2_rows = candidate_rows(np.asarray(x, dtype=np.float64), k)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return [
        NeighborList(int(anchors[r]), anchors[idx_rows[r, :k]], np.sqrt(d2_rows[r, :k]))
        for r in rank
    ]


def knn_brute(
    subset: Sequence[int] | np.ndarray,
    cloud: PointCloud,
    k: int,
    metric: Optional[MetricEmbedding] = None,
) -> list[NeighborList]:
    """Exact k nearest neighbors within a subset by exhaustive search.

    Ranks every other subset point by metric distance, ties broken by
    ascending point index. Raises InsufficientPointsError when the subset has
    fewer than k+1 points.
    """
    return _knn_lists(subset, cloud, k, metric, _candidate_rows)


def knn_indexed(
    subset: Sequence[int] | np.ndarray,
    cloud: PointCloud,
    k: int,
    metric: Optional[MetricEmbedding] = None,
) -> list[NeighborList]:
    """Accelerated exact KNN; output equals knn_brute for any input.

    nearest_candidate_rows gives the candidate walk a KD-tree over the
    metric embedding, which retrieves the candidates that the walk re-ranks
    with the same exact arithmetic as knn_brute; tiny subsets, and depths
    that cover the subset, rank every point without a tree.
    """
    return _knn_lists(subset, cloud, k, metric, nearest_candidate_rows)
