"""Seeded LiDAR-style scans and geometric labels for the benchmark workloads.

Two sensors:

* ``kitti_style_scan`` is a 64-beam spinning scan of ground returns plus a
  ring of structures at 60 m. It reproduces the generator of the test suite
  (``tests/conftest.py``) byte for byte, so the benchmark and the 120k-point
  performance criterion measure the same scan; ``run.py`` checks that.
* ``nusc_style_sweep`` is a 32-beam sweep with the vertical field of view of
  an HDL-32E (-30.67 to +10.67 degrees), ground at a 1.84 m mounting height
  and walls whose distance changes from one azimuth sector to the next.

``geometric_labels`` assigns classes from the coordinates alone: ground and
structure are large classes, and seeded (azimuth, range) boxes carve small
classes of fewer than 500 points, so C-RAPiD sees both huge and tiny regions.
"""

from __future__ import annotations

import numpy as np

from rapidfeat import PointCloud

GROUND_CLASS = 1
STRUCTURE_CLASS = 2
SMALL_CLASS_LIMIT = 500
# Ground returns of both sensors lie near z = -1.8 m; structure sits above -1.3 m.
GROUND_Z = -1.5


def kitti_style_scan(seed: int, beams: int = 64, per_beam: int = 300) -> PointCloud:
    """Realistic spinning-scan geometry: ground returns plus structures."""
    rng = np.random.default_rng(seed)
    chunks, rings = [], []
    for b in range(beams):
        elev = np.radians(-24.8 + b * (26.8 / beams))
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, per_beam))
        if elev < -0.02:
            dist = np.minimum(1.8 / np.tan(-elev), 80.0)
        else:
            dist = np.full(per_beam, 60.0)
        dist = dist * rng.uniform(0.92, 1.08, per_beam)
        x = dist * np.cos(ang) * np.cos(elev)
        y = dist * np.sin(ang) * np.cos(elev)
        z = dist * np.sin(elev)
        chunks.append(np.stack([x, y, z], axis=1))
        rings.append(np.full(per_beam, b, dtype=np.int32))
    pts = np.concatenate(chunks)
    return PointCloud(
        points=pts,
        remission=rng.uniform(0.0, 1.0, len(pts)),
        ring=np.concatenate(rings),
    )


NUSC_FOV_DEG = (-30.67, 10.67)
NUSC_HEIGHT = 1.84


def nusc_style_sweep(seed: int, beams: int = 32, per_beam: int = 1085) -> PointCloud:
    """32-beam sweep (34,720 points by default): ground below the horizon,
    walls 12-45 m away in 24 azimuth sectors above it."""
    rng = np.random.default_rng(seed)
    lo, hi = NUSC_FOV_DEG
    wall = rng.uniform(12.0, 45.0, 24)
    chunks, rings = [], []
    for b in range(beams):
        elev = np.radians(lo + b * (hi - lo) / beams)
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, per_beam))
        if elev < -0.02:
            dist = np.full(per_beam, min(NUSC_HEIGHT / np.tan(-elev), 70.0))
        else:
            dist = wall[(ang / (2.0 * np.pi) * len(wall)).astype(np.int64)]
        dist = dist * rng.uniform(0.95, 1.05, per_beam)
        x = dist * np.cos(ang) * np.cos(elev)
        y = dist * np.sin(ang) * np.cos(elev)
        z = dist * np.sin(elev)
        chunks.append(np.stack([x, y, z], axis=1))
        rings.append(np.full(per_beam, b, dtype=np.int32))
    pts = np.concatenate(chunks)
    return PointCloud(
        points=pts,
        remission=rng.uniform(0.0, 1.0, len(pts)),
        ring=np.concatenate(rings),
    )


def geometric_labels(
    points: np.ndarray, seed: int, small_classes: int, ground_z: float = GROUND_Z
) -> np.ndarray:
    """Per-point class ids from coordinates.

    Points below ``ground_z`` are ground, the rest structure. Then each of
    ``small_classes`` seeded boxes in (azimuth, horizontal range) around a
    seeded anchor point claims the ground or structure points inside it, as
    class ids 3, 4, ...; a box is shrunk in azimuth until it claims fewer
    than SMALL_CLASS_LIMIT points. Boxes never take points from each other
    and always keep their anchor, so every small class exists.
    """
    p = np.asarray(points, dtype=np.float64)
    label = np.where(p[:, 2] < ground_z, GROUND_CLASS, STRUCTURE_CLASS).astype(np.int32)
    az = np.arctan2(p[:, 1], p[:, 0])
    horiz = np.hypot(p[:, 0], p[:, 1])
    rng = np.random.default_rng([seed, 0x1AB])
    for i in range(small_classes):
        free = np.flatnonzero(label <= STRUCTURE_CLASS)
        anchor = free[rng.integers(len(free))]
        half = rng.uniform(0.01, 0.2)
        reach = rng.uniform(0.5, 6.0)
        near = (label <= STRUCTURE_CLASS) & (np.abs(horiz - horiz[anchor]) <= reach)
        gap = np.abs((az - az[anchor] + np.pi) % (2.0 * np.pi) - np.pi)
        inside = near & (gap <= half)
        while np.count_nonzero(inside) >= SMALL_CLASS_LIMIT:
            half *= 0.7
            inside = near & (gap <= half)
        label[inside] = 3 + i
    return label
