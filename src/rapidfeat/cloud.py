"""Core point cloud containers shared by every stage of the pipeline.

A :class:`PointCloud` is columnar and immutable: coordinates, remission and
the optional ring/label channels are stored as read-only numpy arrays, so a
cloud can be shared freely across parallel workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ContractError


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a)
    if out is a:
        out = a.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PointCloud:
    """Columnar LiDAR scan.

    points    (m, 3) float64 coordinates in meters
    remission (m,) float64 scalar per point, used as the reflectivity r
              (nominally in [0, 1] on disk, not enforced)
    ring      optional (m,) int32 beam index
    label     optional (m,) int32 semantic class id

    A non-empty ring or label array must have an integer dtype and values
    that fit int32; anything else is a ContractError, never a cast.
    """

    points: np.ndarray
    remission: np.ndarray
    ring: Optional[np.ndarray] = None
    label: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ContractError(f"points must have shape (m, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
            raise ContractError(f"non-finite coordinates at indices {bad[:8].tolist()}")
        rem = np.asarray(self.remission, dtype=np.float64)
        if rem.shape != (len(pts),):
            raise ContractError(
                f"remission length {rem.shape} does not match {len(pts)} points"
            )
        if not np.isfinite(rem).all():
            raise ContractError("non-finite remission values")
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "remission", _readonly(rem))
        for name in ("ring", "label"):
            chan = getattr(self, name)
            if chan is None:
                continue
            arr = np.asarray(chan)
            if arr.shape != (len(pts),):
                raise ContractError(f"{name} length does not match point count")
            if arr.size and arr.dtype.kind not in "iu":  # floats and bools are not truncated
                raise ContractError(f"{name} must be integers, got dtype {arr.dtype}")
            if arr.size and not -(2**31) <= arr.min() <= arr.max() < 2**31:
                raise ContractError(f"{name} values must fit int32")
            object.__setattr__(self, name, _readonly(arr.astype(np.int32, copy=False)))

    def __len__(self) -> int:
        return len(self.points)

    def with_labels(self, labels: np.ndarray) -> "PointCloud":
        return replace(self, label=labels)

    def with_points(self, points: np.ndarray) -> "PointCloud":
        return replace(self, points=np.asarray(points, dtype=np.float64))

    def take(self, indices: np.ndarray) -> "PointCloud":
        """Row-subset of the cloud, preserving optional channels."""
        idx = np.asarray(indices)
        return PointCloud(
            points=self.points[idx],
            remission=self.remission[idx],
            ring=None if self.ring is None else self.ring[idx],
            label=None if self.label is None else self.label[idx],
        )


@dataclass(frozen=True)
class SensorGeometry:
    """Spinning LiDAR beam layout, as the elevation ring rule reads it.

    beam_count  number of laser beams B
    delta_phi   mean vertical angular resolution, radians, in (0, inf)
    """

    beam_count: int
    delta_phi: float

    def __post_init__(self) -> None:
        if not 1 <= self.beam_count < 2**31:  # ring ids are int32
            raise ContractError(f"beam_count must be in [1, 2**31), got {self.beam_count}")
        if not 0.0 < self.delta_phi < math.inf:  # false for nan too
            raise ContractError(f"delta_phi must be positive and finite, got {self.delta_phi}")

    @classmethod
    def from_fov(
        cls, beam_count: int, vertical_fov_deg: tuple[float, float]
    ) -> "SensorGeometry":
        """Beam layout from beam count and vertical field of view.

        vertical_fov_deg is (low, high) elevation in degrees, the unit of
        config files. The only derivation of delta_phi: exactly
        radians(high - low) / beam_count, so the beams sit on bin edges.
        """
        lo, hi = vertical_fov_deg
        if not hi > lo:  # false for nan too
            raise ContractError("vertical_fov_deg must be (low, high) with high > low")
        cls(beam_count, 1.0)  # rejects a beam_count outside [1, 2**31) before dividing by it
        return cls(beam_count=beam_count, delta_phi=math.radians(hi - lo) / beam_count)
