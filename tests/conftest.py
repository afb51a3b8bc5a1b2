"""Shared scene builders and fixtures."""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np
import pytest

from rapidfeat import (
    BoxPrimitive,
    CylinderPrimitive,
    PlanePrimitive,
    PointCloud,
    PointwiseFeatureSet,
    SensorGeometry,
    SyntheticSceneSpec,
    synthesize_scene,
)
from rapidfeat.scene_io import CONTAINER_VERSION, MAGIC


def sealed(body: bytes) -> bytes:
    """body with the container's little-endian CRC-32 trailer appended."""
    return body + struct.pack("<I", zlib.crc32(body))


def write_raw_container(path, header, payload=b"") -> None:
    """A sealed container of any JSON header and the payload bytes as they
    are, for headers and payloads the library's writer never makes."""
    head = json.dumps(header).encode("utf-8")
    start = MAGIC + struct.pack("<II", CONTAINER_VERSION, len(head))
    path.write_bytes(sealed(start + head + bytes(payload)))


def feature_set(matrices) -> PointwiseFeatureSet:
    """matrices, whose anchors must be disjoint, as one feature set: roi id 0
    for every point up to the largest anchor, and the largest k as width."""
    points = max((int(m.anchors.max()) + 1 for m in matrices if m.u), default=0)
    width = max((m.k for m in matrices), default=1)
    return PointwiseFeatureSet(np.zeros(points, dtype=np.int32), width, tuple(matrices))


def small_geometry(beams: int = 16) -> SensorGeometry:
    return SensorGeometry.from_fov(beams, (-10.0, 10.0))


def default_scene(seed: int = 3, noise: float = 0.02) -> SyntheticSceneSpec:
    """Ground plane, a box, and a pole: spans classes and close/mid ranges."""
    return SyntheticSceneSpec(
        primitives=(
            PlanePrimitive(
                origin=(0.0, 0.0, -1.5),
                u_axis=(1.0, 0.0, 0.0),
                v_axis=(0.0, 1.0, 0.0),
                extent_u=18.0,
                extent_v=18.0,
                count=2500,
                class_id=1,
                reflectivity=0.2,
            ),
            BoxPrimitive(
                center=(8.0, 3.0, 0.0),
                size=(4.0, 2.0, 1.6),
                count=700,
                class_id=2,
                reflectivity=0.6,
            ),
            CylinderPrimitive(
                center=(-6.0, 5.0, 0.5),
                radius=0.3,
                height=4.0,
                count=250,
                class_id=3,
                reflectivity=0.9,
            ),
        ),
        noise_sigma=noise,
        seed=seed,
    )


def random_cloud(
    rng: np.random.Generator, n: int, spread: float = 10.0
) -> PointCloud:
    return PointCloud(
        points=rng.uniform(-spread, spread, size=(n, 3)),
        remission=rng.uniform(0.0, 1.0, size=n),
    )


def kitti_style_scan(
    seed: int, beams: int = 64, per_beam: int = 300
) -> PointCloud:
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


@pytest.fixture
def scene_cloud() -> PointCloud:
    return synthesize_scene(default_scene())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
