"""Range-aware pointwise distance distribution (RAPiD) matrices.

For a region of interest (a point subset), the RAPiD matrix stacks one row
per anchor point holding the k smallest 4D distances to its neighbors within
the region, where the fourth component is the difference of reflectivities
mapped onto the region's coordinate-distance range. Rows are ascending, the
matrix is sorted lexicographically by rows, entries beyond an outlier
threshold are substituted, and survivors are min-max normalized, which makes
the result invariant to rigid motions and to point storage order.

Neighbor selection is two exact k-depth KNN passes. The first, over the
coordinates, defines the pair set from which the reflectivity scale is
computed (the map g needs the distance range, which needs neighbor pairs);
it reads only two order statistics of that set, the smallest first and the
largest k-th distance, so it queries only the rows a cell-count
certificate cannot rule out and ranks exactly only the rows that can hold
them. The second runs over the embedding (x, y, z, g(r)); its k smallest
distances are the row. Both passes are exact to depth k, so matrix values
never depend on storage order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cloud import PointCloud
from .errors import ContractError
from .geometry import (
    MetricEmbedding,
    knn_distance_range,
    nearest_candidate_rows,
    sorted_subset,
)


@dataclass(frozen=True)
class RangeAwareConfig:
    """Per-range neighbor counts and the outlier threshold.

    band_edges  (close/mid boundary, mid/far boundary) in meters
    k_close, k_mid, k_far  neighbor counts per range band
    delta       outlier distance threshold, same units as the 4D distance
    """

    band_edges: tuple[float, float] = (20.0, 50.0)
    k_close: int = 10
    k_mid: int = 7
    k_far: int = 5
    delta: float = 2.0

    def __post_init__(self) -> None:
        lo, hi = self.band_edges
        if not 0.0 < lo < hi:
            raise ContractError("band_edges must satisfy 0 < close/mid < mid/far")
        if not 1 <= min(self.ks) <= max(self.ks) < 2**31:  # valid_width is int32
            raise ContractError(f"all k values must lie in [1, 2**31), got {self.ks}")
        if not self.delta > 0:  # false for nan too
            raise ContractError(f"delta must be positive, got {self.delta}")

    @property
    def ks(self) -> tuple[int, int, int]:
        return (self.k_close, self.k_mid, self.k_far)

    @property
    def k_max(self) -> int:
        return max(self.ks)

    def fallback_chain(self, band: int) -> list[int]:
        """k values to try for a sparse band: the band's k, then every
        strictly smaller configured k in descending order."""
        k = self.ks[band]
        smaller = sorted({v for v in self.ks if v < k}, reverse=True)
        return [k, *smaller]


@dataclass(frozen=True)
class ReflectivityScale:
    """Reflectivity extremes and coordinate-distance range of one region."""

    r_min: float
    r_max: float
    d_min: float
    d_max: float

    def __post_init__(self) -> None:
        if self.r_min > self.r_max:
            raise ContractError("r_min must not exceed r_max")
        if not 0.0 <= self.d_min <= self.d_max:
            raise ContractError("need 0 <= d_min <= d_max")


@dataclass(frozen=True)
class RapidMatrix:
    """u x k matrix of normalized sorted distances for one region of interest.

    values   (u, k) float64 in [0, 1]; each row ascending, rows in
             lexicographic ascending order
    roi_id   region identifier, e.g. "ring003-mid" or "class001-close"
    k        neighbor count
    scale    reflectivity/distance scale used by the 4D metric
    anchors  original point index of each row, in post-sort row order
    seconds  (knn, normalize, sort) seconds of the rapid() call that built
             it; () for a decoded matrix, as containers do not store them
    outliers count of entries above delta, written back as 1.0, in the
             rapid() call that built it; None for a decoded matrix, as
             containers do not store it
    """

    values: np.ndarray
    roi_id: str
    k: int
    scale: ReflectivityScale
    anchors: np.ndarray
    seconds: tuple[float, ...] = ()
    outliers: Optional[int] = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        a = np.asarray(self.anchors, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != self.k:
            raise ContractError(f"values must be (u, {self.k}), got {v.shape}")
        if a.shape != (v.shape[0],):
            raise ContractError("anchors must have one entry per row")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "anchors", a)

    @property
    def u(self) -> int:
        return self.values.shape[0]


def reflectivity_map(r: np.ndarray, scale: ReflectivityScale) -> np.ndarray:
    """Linear map of reflectivity onto [d_min, d_max].

    Degenerate scale (r_min == r_max, a constant-reflectivity region) maps
    everything to d_min so the 4D metric collapses to the 3D one.
    """
    r = np.asarray(r, dtype=np.float64)
    if scale.r_max == scale.r_min:
        return np.full_like(r, scale.d_min)
    return (r - scale.r_min) / (scale.r_max - scale.r_min) * (
        scale.d_max - scale.d_min
    ) + scale.d_min


def reflectivity_metric(scale: ReflectivityScale) -> MetricEmbedding:
    """4D metric embedding (x, y, z, g(r)) for the geometry KNN routines."""

    def embed(cloud: PointCloud, subset: np.ndarray) -> np.ndarray:
        idx = np.asarray(subset)
        g = reflectivity_map(cloud.remission[idx], scale)
        return np.column_stack([cloud.points[idx], g])

    return embed


def band_indices(ranges: np.ndarray, config: RangeAwareConfig) -> np.ndarray:
    """Vectorized band assignment: 0 close, 1 mid, 2 far."""
    r = np.asarray(ranges, dtype=np.float64)
    return np.searchsorted(np.asarray(config.band_edges), r, side="right").astype(
        np.int8
    )


def _rapid_rows(
    subset: Sequence[int] | np.ndarray, cloud: PointCloud, k: int
) -> tuple[np.ndarray, np.ndarray, ReflectivityScale]:
    """Un-normalized sorted-per-row 4D distance rows in ascending-anchor order."""
    _, anchors = sorted_subset(subset, len(cloud), k)
    refl = cloud.remission[anchors]
    # Coordinate k-NN pairs define the scale of the reflectivity map; it
    # reads only their smallest and largest distance.
    d2_min, d2_max = knn_distance_range(cloud.points[anchors], k)
    scale = ReflectivityScale(
        r_min=float(refl.min()),
        r_max=float(refl.max()),
        d_min=float(np.sqrt(d2_min)),
        d_max=float(np.sqrt(d2_max)),
    )

    # The row: the k smallest distances in the 4D embedding (x, y, z, g(r)).
    embedded = reflectivity_metric(scale)(cloud, anchors)
    rho2 = nearest_candidate_rows(embedded, k)[1]  # values only: the indices die here
    rows = np.sqrt(rho2[:, :k])
    return rows, anchors, scale


def _lexsorted(rows: np.ndarray, anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows in stable lexicographic order, with their anchors.

    Needs every value >= +0.0 and no NaN, which holds for distances and for
    their normalized values: big-endian IEEE bytes of such values compare
    as the values do, so one stable argsort of each row's bytes, viewed as
    a single V{8k} key, is the lexicographic order.
    """
    key = np.ascontiguousarray(rows, dtype=">f8").view(f"V{8 * rows.shape[1]}")
    order = np.argsort(key.ravel(), kind="stable")
    return rows[order], anchors[order]


def rapid_unnormalized(
    subset: Sequence[int] | np.ndarray,
    cloud: PointCloud,
    k: int,
) -> tuple[np.ndarray, np.ndarray, ReflectivityScale]:
    """Raw 4D distance matrix before outlier handling and normalization.

    Rows ascending and in lexicographic order; used by invariance checks that
    compare distances at double precision. Returns (rows, anchors, scale).
    """
    rows, anchors, scale = _rapid_rows(subset, cloud, k)
    rows, anchors = _lexsorted(rows, anchors)
    return rows, anchors, scale


def rapid(
    subset: Sequence[int] | np.ndarray,
    cloud: PointCloud,
    k: int,
    delta: float,
    roi_id: str = "",
) -> RapidMatrix:
    """Full RAPiD pipeline for one region of interest.

    Entries above delta are dropped from normalization and written back as
    exactly 1.0; survivors are min-max normalized over the whole matrix (a
    constant matrix normalizes to 0.0). Rows are sorted lexicographically by
    their final values. The matrix carries the seconds of its three steps
    and its outlier count.
    """
    t0 = time.perf_counter()
    rows, anchors, scale = _rapid_rows(subset, cloud, k)
    t1 = time.perf_counter()
    # Normalized in place: min and max are exact in any order, and distances
    # hold no -0.0 or NaN, so no copy of the survivors is needed.
    outlier = rows > delta
    if not outlier.all():
        kept = ~outlier
        lo = float(rows.min(where=kept, initial=np.inf))
        hi = float(rows.max(where=kept, initial=-np.inf))
        if hi > lo:
            rows -= lo
            rows /= hi - lo
        else:
            rows[:] = 0.0
    rows[outlier] = 1.0
    t2 = time.perf_counter()
    values, anchors = _lexsorted(rows, anchors)
    seconds = (t1 - t0, t2 - t1, time.perf_counter() - t2)
    return RapidMatrix(values, roi_id, k, scale, anchors, seconds, int(outlier.sum()))
