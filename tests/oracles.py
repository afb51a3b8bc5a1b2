"""Scalar reference implementations of pieces the library computes in bulk.

Each oracle states one definition of the paper point by point, with no
vectorization and no neighbor search, and is compared in the tests with the
production code that computes the same quantity:

rho            4D distance of one pair  vs  distances in reflectivity_metric
compute_scale  scale from neighbor lists  vs  the scale rapid_unnormalized returns
select_k       k for one point's range band  vs  band_indices
cylindrical_bin  elevation bin of one point  vs  the ring ids of partition_rings
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from rapidfeat import (
    InsufficientPointsError,
    NeighborList,
    PointCloud,
    RangeAwareConfig,
    ReflectivityScale,
    SensorGeometry,
    UndefinedAngleError,
    reflectivity_map,
)


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


def cylindrical_bin(point: np.ndarray, geometry: SensorGeometry) -> tuple[int, int]:
    """(theta_bin, phi_bin) of one point; errors on a zero-norm point.

    theta_bin = floor(atan2(y, x) / dtheta)
    phi_bin   = floor(atan2(z, hypot(x, y)) / dphi), unclipped
    """
    x, y, z = (float(c) for c in point)
    if x * x + y * y + z * z == 0.0:
        raise UndefinedAngleError("cylindrical angles undefined at the origin")
    theta = np.arctan2(y, x)
    phi = np.arctan2(z, np.hypot(x, y))
    return int(np.floor(theta / geometry.delta_theta)), int(
        np.floor(phi / geometry.delta_phi)
    )
