"""Region-of-interest partitioning and scan-level feature assembly.

A scan is split into rings (the elevation ring rule, or the sensor's native
ring channel when present) or into semantic classes, each region is further
split into range bands, and the per-region RAPiD matrices, anchored to their
points, make the fixed-width pointwise feature set. Sparse regions fall back
along the configured k chain and finally to all-padding rows.

With w > 1 workers, the calling process is one of them: it forks w - 1
helper processes, each of which receives the scan once, and a helper task
carries only a region's point indices. Regions are dispatched one per task,
largest first (ties in plan order). The calling process computes the largest
region itself, then takes back every queued region no helper has started.
Results are written back in plan order, so the output bytes and the order of
roi ids do not depend on the worker count. A dead helper is a RapidError.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .cloud import PointCloud, SensorGeometry
from .errors import ContractError, LabelsRequiredError, RapidError, UndefinedAngleError
from .geometry import range_of
from .rapid import RangeAwareConfig, RapidMatrix, band_indices, rapid

BAND_NAMES = ("close", "mid", "far")


def elevation_rings(points: np.ndarray, geometry: SensorGeometry) -> np.ndarray:
    """The ring rule: (m,) int32 elevation bin floor(elevation / delta_phi)
    clipped to [0, B).

    Elevation is atan2(z, hypot(x, y)): asin(z / |p|) for every point but
    the origin, even one whose squared norm underflows, and stable at poles.
    """
    p = np.asarray(points, dtype=np.float64)
    if np.any((p[:, 0] == 0) & (p[:, 1] == 0) & (p[:, 2] == 0)):
        raise UndefinedAngleError("elevation undefined at the origin")
    phi = np.arctan2(p[:, 2], np.hypot(p[:, 0], p[:, 1]))
    bins = np.floor(phi / geometry.delta_phi).astype(np.int64)
    return np.clip(bins, 0, geometry.beam_count - 1).astype(np.int32)


def partition_rings(cloud: PointCloud, geometry: SensorGeometry) -> np.ndarray:
    """(m,) int32 ring id per point: the native channel when present, else
    the elevation ring rule."""
    if len(cloud) == 0:
        raise ContractError("cannot partition an empty cloud")
    if cloud.ring is None:
        return elevation_rings(cloud.points, geometry)
    if cloud.ring.min() < 0 or cloud.ring.max() >= geometry.beam_count:
        raise ContractError("native ring indices exceed the beam count")
    return cloud.ring.astype(np.int32)


def partition_classes(cloud: PointCloud) -> np.ndarray:
    """(m,) int32 semantic class id per point."""
    if cloud.label is None:
        raise LabelsRequiredError("class partition requires per-point labels")
    return cloud.label.astype(np.int32)


@dataclass(frozen=True)
class PointwiseFeatureSet:
    """Scan-aligned features: roi (m,) holds the ring or class id of each input
    point, width the row width (k_max at extraction) and matrices the region
    matrices, no two anchoring one point. Derived on first read: values
    (m, width) float64, each matrix row at its anchor and 1.0 padding, and
    valid_width (m,) int32, each row's computed entries (0 for padding)."""

    roi: np.ndarray
    width: int
    matrices: tuple[RapidMatrix, ...] = ()

    def __post_init__(self) -> None:
        if self.roi.ndim != 1:
            raise ContractError("roi must hold one id per point")
        if not 1 <= self.width < 2**31 or any(mat.k > self.width for mat in self.matrices):
            raise ContractError(f"width {self.width} must be in [1, 2^31) and at least every k")
        anchors = np.concatenate([np.zeros(0, np.int64), *(mat.anchors for mat in self.matrices)])
        if anchors.size and not 0 <= anchors.min() <= anchors.max() < len(self.roi):
            raise ContractError(f"anchors must lie in [0, {len(self.roi)})")
        if np.bincount(anchors).max(initial=0) > 1:
            raise ContractError("a point anchors rows of two matrices")

    @cached_property
    def values(self) -> np.ndarray:
        values = np.ones((len(self.roi), self.width))
        for mat in self.matrices:
            values[mat.anchors, : mat.k] = mat.values
        return values

    @cached_property
    def valid_width(self) -> np.ndarray:
        valid = np.zeros(len(self.roi), dtype=np.int32)
        for mat in self.matrices:
            valid[mat.anchors] = mat.k
        return valid


def _plan_jobs(
    ids: np.ndarray,
    band: np.ndarray,
    config: RangeAwareConfig,
    prefix: str,
) -> list[tuple[np.ndarray, int, str]]:
    """Group points into regions by id, split each region into range bands
    and pick a workable k per sub-region.

    Returns the computable jobs in ascending id order; a sub-region that
    falls through the whole fallback chain gets no job and stays padding.
    """
    jobs: list[tuple[np.ndarray, int, str]] = []
    for rid in np.unique(ids).tolist():
        region = np.flatnonzero(ids == rid)
        for b in range(3):
            sub = region[band[region] == b]
            if len(sub) == 0:
                continue
            k_use = next(
                (k for k in config.fallback_chain(b) if len(sub) >= k + 1), None
            )
            if k_use is not None:
                jobs.append((sub, k_use, f"{prefix}{rid:03d}-{BAND_NAMES[b]}"))
    return jobs


_scan: Optional[PointCloud] = None  # the cloud a pool worker's region jobs index


def _set_scan(cloud: PointCloud) -> None:
    global _scan
    _scan = cloud


def _region_job(task: tuple[np.ndarray, int, str, float]) -> RapidMatrix:
    sub, k, roi_id, delta = task
    return rapid(sub, _scan, k, delta, roi_id=roi_id)


def _run_jobs(
    cloud: PointCloud,
    jobs: list[tuple[np.ndarray, int, str]],
    delta: float,
    workers: int,
) -> list[RapidMatrix]:
    workers = min(workers, len(jobs))  # a fork pool starts them all at once
    if workers <= 1:
        return [rapid(s, cloud, k, delta, roi_id=r) for s, k, r in jobs]
    # One region per task, largest first: a task holding several big
    # regions would keep one process busy while the others idle. The calling
    # process counts as a worker: it runs the largest region while w - 1
    # helpers start on the rest, then cancels and runs each queued region
    # no helper has started, largest first.
    order = sorted(range(len(jobs)), key=lambda i: -len(jobs[i][0]))
    matrices: list[Optional[RapidMatrix]] = [None] * len(jobs)
    with ProcessPoolExecutor(
        max_workers=workers - 1, initializer=_set_scan, initargs=(cloud,)
    ) as pool:
        try:
            futures = [(i, pool.submit(_region_job, (*jobs[i], delta))) for i in order[1:]]
            for i, f in [(order[0], None), *futures]:
                if f is None or f.cancel():  # False once a helper has the region
                    sub, k, roi_id = jobs[i]
                    matrices[i] = rapid(sub, cloud, k, delta, roi_id=roi_id)
            for i, f in futures:
                if not f.cancelled():
                    matrices[i] = f.result()
        except BaseException as exc:
            pool.shutdown(cancel_futures=True)  # queued helper work would delay the error
            if isinstance(exc, BrokenProcessPool):
                raise RapidError(f"a region helper process died: {exc}") from exc
            raise
    return matrices


def _extract(
    cloud: PointCloud,
    ids: np.ndarray,
    prefix: str,
    config: RangeAwareConfig,
    workers: int,
) -> PointwiseFeatureSet:
    """RAPiD per (region x range band) of the per-point region ids, anchored
    to points."""
    band = band_indices(range_of(cloud.points), config)
    matrices = _run_jobs(cloud, _plan_jobs(ids, band, config, prefix), config.delta, workers)
    return PointwiseFeatureSet(ids, config.k_max, tuple(matrices))


def r_rapid(
    cloud: PointCloud,
    geometry: SensorGeometry,
    config: RangeAwareConfig,
    workers: int = 1,
) -> PointwiseFeatureSet:
    """Intra-ring features: RAPiD per (ring x range band), anchored to
    points. Needs no labels."""
    rings = partition_rings(cloud, geometry)
    return _extract(cloud, rings, "ring", config, workers)


def c_rapid(
    cloud: PointCloud,
    config: RangeAwareConfig,
    workers: int = 1,
) -> PointwiseFeatureSet:
    """Intra-class features: RAPiD per (class x range band). Labels required
    (ground truth or externally supplied pseudo labels)."""
    classes = partition_classes(cloud)
    return _extract(cloud, classes, "class", config, workers)
