"""Shared scene builders and fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from rapidfeat import (
    BoxPrimitive,
    CylinderPrimitive,
    PlanePrimitive,
    PointCloud,
    SensorGeometry,
    SyntheticSceneSpec,
    synthesize_scene,
)


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
