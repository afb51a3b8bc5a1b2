"""The bytes `rapidfeat extract` writes, pinned by sha256.

A refactor or speed-up that claims unchanged outputs proves it by passing
this module unedited. A change that alters the bytes by design (a new ring
rule, a new sort precision) edits the digests here and states the old and
the new digest and the definition change behind them. Each case runs at
workers 1 and 2, so the pins also hold the byte identity across worker
counts.
"""

import hashlib
import json

import numpy as np
import pytest

from rapidfeat import save_kitti_labels, save_kitti_scan
from rapidfeat.cli import EXIT_OK, main

from conftest import kitti_style_scan

# The minimal synthetic config of README.md, with the output paths set per test.
README_CONFIG = {
    "input": {
        "synthetic": {
            "seed": 11,
            "noise_sigma": 0.02,
            "primitives": [
                {"type": "plane", "origin": [0, 0, -1.5], "u_axis": [1, 0, 0],
                 "v_axis": [0, 1, 0], "extent_u": 15, "extent_v": 15, "count": 3000,
                 "class_id": 1, "reflectivity": 0.2},
                {"type": "box", "center": [8, 3, 0], "size": [4, 2, 1.6], "count": 700,
                 "class_id": 2, "reflectivity": 0.6},
            ],
        }
    },
    "sensor": {"beam_count": 16, "vertical_fov_deg": [-10, 10]},
    "rapid": {"k_close": 10, "k_mid": 7, "k_far": 5, "band_edges": [20.0, 50.0], "delta": 2.0},
}

README_DIGESTS = {
    "r.rapd": "e16fd0956b1a066e7855f0836e493f4f64ad9f27719fb53325d28bbc0a18e940",
    "c.rapd": "8092a90884f15874d469499aa6fbbfd01b87eab990410e1bb09a8b1dec99c0a4",
}

KITTI_DIGESTS = {
    "r.rapd": "102f157ccbc0bf8fdb69b7b8cbf474307691c5851db102dd897ae2bf9afc541e",
    "c.rapd": "1954da2ebe2a069a43e177fff42de2d2059790c25551fbcb41a9ad54d848b97f",
}


def kitti_labels(points: np.ndarray) -> np.ndarray:
    """Ground (1) below z = -1.5, structure (2) above, and two azimuth
    sectors carved out as small classes: 3 takes a few hundred points (the
    tree route), 4 fewer than 64 (the brute route)."""
    azimuth = np.arctan2(points[:, 1], points[:, 0])
    labels = np.where(points[:, 2] < -1.5, 1, 2)
    labels[(azimuth >= 0.0) & (azimuth < 0.1)] = 3
    labels[(azimuth >= 1.0) & (azimuth < 1.01)] = 4
    return labels


def _extract(tmp_path, doc: dict, workers: int) -> dict:
    out = tmp_path / f"w{workers}"
    out.mkdir()
    doc = {
        **doc,
        "output": {"features": str(out / "r.rapd"), "class_features": str(out / "c.rapd")},
    }
    cfg = tmp_path / f"cfg{workers}.json"
    cfg.write_text(json.dumps(doc))
    assert main(["extract", "--config", str(cfg), "--workers", str(workers)]) == EXIT_OK
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("r.rapd", "c.rapd")
    }


@pytest.mark.parametrize("workers", [1, 2])
def test_readme_config_digests(tmp_path, workers):
    assert _extract(tmp_path, README_CONFIG, workers) == README_DIGESTS


@pytest.mark.parametrize("workers", [1, 2])
def test_kitti_bin_scan_digests(tmp_path, workers):
    # A .bin scan has no ring channel, so R-RAPiD takes the elevation ring rule.
    cloud = kitti_style_scan(seed=21, per_beam=300)
    save_kitti_scan(cloud, tmp_path / "scan.bin")
    save_kitti_labels(kitti_labels(cloud.points), tmp_path / "scan.label")
    doc = {
        "input": {"scan": str(tmp_path / "scan.bin"), "labels": str(tmp_path / "scan.label")},
        "sensor": {"beam_count": 64, "vertical_fov_deg": [-24.8, 2.0]},
    }
    assert _extract(tmp_path, doc, workers) == KITTI_DIGESTS
