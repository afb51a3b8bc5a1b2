"""Output checks for the benchmark workloads.

Regions are recomputed here from the scan file, independently of the
library's partition code: rings by floor(elevation / delta_phi) clipped to
[0, beams) (the library's rule when a scan has no ring channel, as a .bin
file has not), classes from the label file, range bands at the configured
edges with an exact edge hit in the farther band.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rapidfeat import knn_brute, rapid_unnormalized, reflectivity_metric, scene_io

_ROI = re.compile(r"^(ring|class)(\d+)-(close|mid|far)$")
_BANDS = ("close", "mid", "far")


@dataclass(frozen=True)
class Sensor:
    beams: int
    fov_deg: tuple[float, float]
    per_beam: int
    ks: tuple[int, int, int]
    band_edges: tuple[float, float] = (20.0, 50.0)

    @property
    def delta_phi(self) -> float:
        return np.radians(self.fov_deg[1] - self.fov_deg[0]) / self.beams

    def fallback(self, band: int) -> list[int]:
        k = self.ks[band]
        return [k, *sorted({v for v in self.ks if v < k}, reverse=True)]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_scan(path: Path) -> np.ndarray:
    return np.fromfile(path, dtype="<f4").reshape(-1, 4).astype(np.float64)


def read_labels(path: Path) -> np.ndarray:
    return (np.fromfile(path, dtype="<u4") & 0xFFFF).astype(np.int64)


def scan_regions(xyz: np.ndarray, labels: np.ndarray, sensor: Sensor) -> dict:
    """Per-point ring id, class id and band index."""
    elev = np.arctan2(xyz[:, 2], np.hypot(xyz[:, 0], xyz[:, 1]))
    ring = np.clip(np.floor(elev / sensor.delta_phi), 0, sensor.beams - 1).astype(np.int64)
    rng = np.sqrt(np.einsum("ij,ij->i", xyz, xyz))
    band = (rng >= sensor.band_edges[0]).astype(np.int64) + (rng >= sensor.band_edges[1])
    return {"ring": ring, "class": labels, "band": band}


def lex_inversions(v: np.ndarray) -> np.ndarray:
    """Adjacent row pairs (index of the first row) that are out of
    lexicographic order as stored."""
    diff = v[1:] != v[:-1]
    first = np.argmax(diff, axis=1)
    rows = np.arange(len(first))
    return rows[diff.any(axis=1) & (v[:-1][rows, first] > v[1:][rows, first])]


def check_feature_file(
    path: Path, kind: str, regions: dict, sensor: Sensor
) -> tuple[list[str], int]:
    """Problems with one extract output (an empty list means it passed),
    and the number of float32 lexicographic inversions.

    kind is "ring" or "class". Checks: the file reads back through
    load_feature_file; each matrix has ascending rows in lexicographic row
    order with values in [0, 1]; its anchors are exactly its region and its
    k is the first of the band's fallback chain the region can supply; the
    pointwise record carries the matrix rows, valid_width equal to the
    region's k, and padding (valid_width 0, all 1.0) everywhere else.

    The library sorts rows at float64 and the container stores float32, so
    two rows whose leading entries round to the same float32 can come out
    inverted in a later column. Such an inversion is counted, not failed;
    an inversion in the first column, which rounding cannot cause, fails.
    """
    problems: list[str] = []
    try:
        ff = scene_io.load_feature_file(path)
    except Exception as exc:  # any read failure fails the scan, never the run
        return [f"{path.name}: load_feature_file failed: {exc!r}"], 0
    pw = ff.pointwise
    m = len(regions["band"])
    if pw is None or pw.values.shape[0] != m:
        return [f"{path.name}: no pointwise record of {m} rows"], 0
    inversions = 0
    ids = regions[kind]
    if not np.array_equal(pw.roi, ids):
        problems.append(f"{path.name}: pointwise roi differs from the {kind} ids")
    covered = np.zeros(m, dtype=bool)
    k_max = max(sensor.ks)
    for mat in ff.matrices:
        name = f"{path.name}:{mat.roi_id}"
        hit = _ROI.match(mat.roi_id)
        if hit is None or hit.group(1) != kind:
            problems.append(f"{name}: unexpected region id")
            continue
        band = _BANDS.index(hit.group(3))
        region = np.flatnonzero((ids == int(hit.group(2))) & (regions["band"] == band))
        v = mat.values
        if not np.array_equal(np.sort(mat.anchors), region):
            problems.append(f"{name}: anchors are not exactly the region")
            continue
        k_expect = next((k for k in sensor.fallback(band) if len(region) >= k + 1), None)
        if mat.k != k_expect:
            problems.append(f"{name}: k={mat.k}, expected {k_expect}")
        if v.size and (v.min() < 0.0 or v.max() > 1.0):
            problems.append(f"{name}: values outside [0, 1]")
        if np.any(np.diff(v, axis=1) < 0):
            problems.append(f"{name}: a row is not ascending")
        inv = lex_inversions(v)
        inversions += len(inv)
        if np.any(v[inv, 0] != v[inv + 1, 0]):
            problems.append(f"{name}: rows are not in lexicographic order")
        if np.any(pw.valid_width[mat.anchors] != mat.k):
            problems.append(f"{name}: valid_width differs from k")
        rows = pw.values[mat.anchors]
        if not (np.array_equal(rows[:, : mat.k], v) and np.all(rows[:, mat.k :] == 1.0)):
            problems.append(f"{name}: pointwise rows differ from the matrix")
        covered[mat.anchors] = True
    pad = ~covered
    for b in range(3):
        for rid in np.unique(ids[pad & (regions["band"] == b)]):
            size = np.count_nonzero((ids == rid) & (regions["band"] == b))
            if size >= min(sensor.fallback(b)) + 1:
                problems.append(f"{path.name}: region {kind}{rid}-{_BANDS[b]} left as padding")
    if np.any(pw.valid_width[pad] != 0) or np.any(pw.values[pad] != 1.0):
        problems.append(f"{path.name}: padding rows are not valid_width 0 and all 1.0")
    if pw.values.shape[1] != k_max:
        problems.append(f"{path.name}: pointwise width {pw.values.shape[1]} != {k_max}")
    return problems, inversions


def output_counts(paths: list[Path]) -> dict:
    """Regions and padded points over extract outputs."""
    regions = padded = 0
    for path in paths:
        ff = scene_io.load_feature_file(path)
        regions += len(ff.matrices)
        padded += int(np.count_nonzero(ff.pointwise.valid_width == 0))
    return {"regions": regions, "padded": padded}


def oracle_4d_mismatch_rows(
    scan_path: Path, feature_paths: list[Path], max_points: int = 3000
) -> int:
    """Rows of regions of at most max_points points whose 4D distances differ
    from knn_brute under reflectivity_metric at the region's own scale.

    This is the exact-4D definition of PAPER.md; a nonzero count is the
    known pool re-rank defect, reported as a count and not as a failed scan.
    """
    cloud = scene_io.load_kitti_scan(scan_path)
    bad = 0
    for path in feature_paths:
        for mat in scene_io.load_feature_file(path).matrices:
            if mat.u > max_points:
                continue
            rows, anchors, scale = rapid_unnormalized(mat.anchors, cloud, mat.k)
            lists = knn_brute(anchors, cloud, mat.k, reflectivity_metric(scale))
            oracle = np.stack([nl.distances for nl in lists])
            close = np.abs(rows - oracle) <= 1e-9 * np.maximum(1.0, np.abs(oracle))
            bad += int(np.count_nonzero(~close.all(axis=1)))
    return bad
