"""Region-of-interest partitioning and scan-level feature assembly.

A scan is split into rings (cylindrical quantization, or the sensor's native
ring channel when present) or into semantic classes, each region is further
split into range bands, and per-region RAPiD matrices are scattered back to
their anchor points as a fixed-width pointwise feature set. Sparse regions
fall back along the configured k chain and finally to all-padding rows.

With more than one worker, regions are dispatched one per task, largest
first (ties in plan order), and written back in plan order, so the output
bytes and the order of roi ids do not depend on the worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cloud import PointCloud, SensorGeometry
from .errors import ContractError, LabelsRequiredError, UndefinedAngleError
from .geometry import range_of
from .rapid import RangeAwareConfig, RapidMatrix, band_indices, rapid

BAND_NAMES = ("close", "mid", "far")


def cylindrical_bins(
    points: np.ndarray, geometry: SensorGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (theta_bin, phi_bin) quantization.

    theta_bin = floor(atan2(y, x) / dtheta)
    phi_bin   = floor(elevation / dphi)

    Elevation is computed as atan2(z, hypot(x, y)), which equals
    asin(z / |p|) for nonzero points and is stable at the poles.
    """
    p = np.asarray(points, dtype=np.float64)
    single = p.ndim == 1
    p = np.atleast_2d(p)
    norms = np.einsum("ij,ij->i", p, p)
    if np.any(norms == 0.0):
        raise UndefinedAngleError("cylindrical angles undefined at the origin")
    theta = np.arctan2(p[:, 1], p[:, 0])
    phi = np.arctan2(p[:, 2], np.hypot(p[:, 0], p[:, 1]))
    tb = np.floor(theta / geometry.delta_theta).astype(np.int64)
    pb = np.floor(phi / geometry.delta_phi).astype(np.int64)
    if single:
        return tb[0], pb[0]
    return tb, pb


def cylindrical_bin(point: np.ndarray, geometry: SensorGeometry) -> tuple[int, int]:
    """Quantize one point; errors on a zero-norm point."""
    tb, pb = cylindrical_bins(point, geometry)
    return int(tb), int(pb)


@dataclass(frozen=True)
class RingPartition:
    """Disjoint cover of the scan by beam rings."""

    per_point: np.ndarray
    members: dict[int, np.ndarray]

    def __post_init__(self) -> None:
        total = sum(len(v) for v in self.members.values())
        if total != len(self.per_point):
            raise ContractError("ring members must cover every point exactly once")


@dataclass(frozen=True)
class ClassPartition:
    """Disjoint cover of the labeled points by semantic class."""

    per_point: np.ndarray
    members: dict[int, np.ndarray]


def partition_rings(cloud: PointCloud, geometry: SensorGeometry) -> RingPartition:
    """Ring ids from the native channel when present, else phi quantization
    clipped to [0, B)."""
    if len(cloud) == 0:
        raise ContractError("cannot partition an empty cloud")
    if cloud.ring is not None:
        ring = cloud.ring.astype(np.int64)
        if ring.min() < 0 or ring.max() >= geometry.beam_count:
            raise ContractError("native ring indices exceed the beam count")
    else:
        _, pb = cylindrical_bins(cloud.points, geometry)
        ring = np.clip(pb, 0, geometry.beam_count - 1)
    members = {
        int(rid): np.flatnonzero(ring == rid) for rid in np.unique(ring)
    }
    return RingPartition(per_point=ring.astype(np.int32), members=members)


def partition_classes(cloud: PointCloud) -> ClassPartition:
    if cloud.label is None:
        raise LabelsRequiredError("class partition requires per-point labels")
    label = cloud.label.astype(np.int64)
    members = {int(c): np.flatnonzero(label == c) for c in np.unique(label)}
    return ClassPartition(per_point=label.astype(np.int32), members=members)


@dataclass(frozen=True)
class PointwiseFeatureSet:
    """Scan-aligned feature rows: row j describes point j of the input cloud.

    values       (m, k_max) float64, padded with 1.0
    roi          (m,) int32 ring or class id
    valid_width  (m,) int32 count of computed entries per row (0 for padding)
    matrices     the per-region matrices the rows were scattered from
    """

    values: np.ndarray
    roi: np.ndarray
    valid_width: np.ndarray
    matrices: tuple[RapidMatrix, ...] = ()

    def __post_init__(self) -> None:
        m = len(self.values)
        if self.roi.shape != (m,) or self.valid_width.shape != (m,):
            raise ContractError("per-point channels must match the row count")


def _rapid_job(args, timings: Optional[dict] = None) -> RapidMatrix:
    pts, refl, k, delta, roi_id = args
    local = PointCloud(points=pts, remission=refl)
    return rapid(np.arange(len(local)), local, k, delta, roi_id=roi_id, timings=timings)


def _plan_jobs(
    members: dict[int, np.ndarray],
    band: np.ndarray,
    config: RangeAwareConfig,
    prefix: str,
) -> tuple[list[tuple[np.ndarray, int, str]], list[np.ndarray]]:
    """Split each region into range bands and pick a workable k per sub-region.

    Returns the computable jobs and the index arrays that fall through the
    whole fallback chain (left as padding).
    """
    jobs: list[tuple[np.ndarray, int, str]] = []
    padded: list[np.ndarray] = []
    for rid in sorted(members):
        region = members[rid]
        for b in range(3):
            sub = region[band[region] == b]
            if len(sub) == 0:
                continue
            k_use = next(
                (k for k in config.fallback_chain(b) if len(sub) >= k + 1), None
            )
            if k_use is None:
                padded.append(sub)
            else:
                jobs.append((sub, k_use, f"{prefix}{rid:03d}-{BAND_NAMES[b]}"))
    return jobs, padded


def _run_jobs(
    cloud: PointCloud,
    jobs: list[tuple[np.ndarray, int, str]],
    delta: float,
    workers: int,
    timings: Optional[dict],
) -> list[RapidMatrix]:
    payloads = [
        (cloud.points[sub], cloud.remission[sub], k, delta, roi_id)
        for sub, k, roi_id in jobs
    ]
    if workers <= 1:
        return [_rapid_job(payload, timings) for payload in payloads]
    # One region per task, largest first: a task holding several big
    # regions would keep one worker busy while the others idle.
    order = sorted(range(len(jobs)), key=lambda i: -len(jobs[i][0]))
    matrices: list[Optional[RapidMatrix]] = [None] * len(jobs)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for i, mat in zip(order, pool.map(_rapid_job, [payloads[i] for i in order])):
            matrices[i] = mat
    return matrices


def _scatter(
    cloud: PointCloud,
    per_point_roi: np.ndarray,
    jobs: list[tuple[np.ndarray, int, str]],
    matrices: list[RapidMatrix],
    config: RangeAwareConfig,
) -> PointwiseFeatureSet:
    m = len(cloud)
    k_max = config.k_max
    values = np.ones((m, k_max), dtype=np.float64)
    valid = np.zeros(m, dtype=np.int32)
    remapped = []
    for (sub, k, _), mat in zip(jobs, matrices):
        anchors = sub[mat.anchors]  # job anchors are subset-relative positions
        values[anchors, :k] = mat.values
        valid[anchors] = k
        remapped.append(
            RapidMatrix(
                values=mat.values,
                roi_id=mat.roi_id,
                k=mat.k,
                scale=mat.scale,
                anchors=anchors,
            )
        )
    return PointwiseFeatureSet(
        values=values,
        roi=per_point_roi.astype(np.int32),
        valid_width=valid,
        matrices=tuple(remapped),
    )


def _extract(
    cloud: PointCloud,
    members: dict[int, np.ndarray],
    per_point: np.ndarray,
    prefix: str,
    config: RangeAwareConfig,
    workers: int,
    timings: Optional[dict],
    t0: float,
) -> PointwiseFeatureSet:
    """RAPiD per (region x range band) of one partition, scattered back to
    points. The partition stage is timed from t0, taken before partitioning."""
    band = band_indices(np.asarray(range_of(cloud.points)), config)
    jobs, _ = _plan_jobs(members, band, config, prefix)
    if timings is not None:
        timings["partition"] = timings.get("partition", 0.0) + (
            time.perf_counter() - t0
        )
    matrices = _run_jobs(cloud, jobs, config.delta, workers, timings)
    return _scatter(cloud, per_point, jobs, matrices, config)


def r_rapid(
    cloud: PointCloud,
    geometry: SensorGeometry,
    config: RangeAwareConfig,
    workers: int = 1,
    timings: Optional[dict] = None,
) -> PointwiseFeatureSet:
    """Intra-ring features: RAPiD per (ring x range band), scattered back to
    points. Needs no labels."""
    t0 = time.perf_counter()
    rings = partition_rings(cloud, geometry)
    return _extract(
        cloud, rings.members, rings.per_point, "ring", config, workers, timings, t0
    )


def c_rapid(
    cloud: PointCloud,
    config: RangeAwareConfig,
    workers: int = 1,
    timings: Optional[dict] = None,
) -> PointwiseFeatureSet:
    """Intra-class features: RAPiD per (class x range band). Labels required
    (ground truth or externally supplied pseudo labels)."""
    t0 = time.perf_counter()
    classes = partition_classes(cloud)
    return _extract(
        cloud, classes.members, classes.per_point, "class", config, workers, timings, t0
    )
