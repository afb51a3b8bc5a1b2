"""The bytes `rapidfeat extract` writes, pinned by sha256.

A refactor or speed-up that claims unchanged outputs proves it by passing
this module unedited. A change that alters the bytes by design (a new ring
rule, a new sort precision) edits the digests here and states the old and
the new digest and the definition change behind them. Each case runs at
workers 1 and 2, so the pins also hold the byte identity across worker
counts.

The decoded pins hash what load_feature_file returns: every matrix and the
pointwise rows, roi ids and valid widths. They were first computed from
files of the earlier layout, which stored the rows, with that layout's own
loader. A change of file layout alone leaves them as they are.

The weight pins hash the tensors WeightSet.seeded and WeightSet.identity
build, so a change to how the builders lay out or draw the weights shows
here. Forward-pass bytes are not pinned: the GEMMs run through BLAS kernels
whose summation order varies with the CPU.
"""

import hashlib
import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from rapidfeat import EmbeddingDims, WeightSet, save_kitti_labels, save_kitti_scan
from rapidfeat.cli import EXIT_OK, main
from rapidfeat.scene_io import load_feature_file

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
    "r.rapd": "65246119760c3f0526e9738a7e297c4a889f331e7d57f797be69b21db96046f4",
    "c.rapd": "36ad922e115a8170f0e88cffde39f5ab7d292312c1f022ffff3965523db0794f",
}

KITTI_DIGESTS = {
    "r.rapd": "d0e1a31b5f9c36d36906ef2897b499130b7234b2d1b0350732ef4dbf3d711c97",
    "c.rapd": "79c0edb24c9a134cfe04702ed3066b104e4e78280e4d871dd45bd26dc5e94d95",
}

README_DECODED = {
    "r.rapd": "82bff31a7df31553d6b0674a0c71d2f3ae2fc800c31e4d31a39d150c7d154a59",
    "c.rapd": "e66b1e9db03c0c4bc09f7461e29d6fa88ef48e7f6df311adc9ac35db223ae08a",
}

KITTI_DECODED = {
    "r.rapd": "cbbe1f697636b7c22e5513b87f41df7fa1bd24f9fc48167d85406119509c53eb",
    "c.rapd": "f9b4d09eb66db867c6c18749423144b6f6b533fdf41a72122e909ed2800bbb63",
}

# (builder, dims, in_width, seed) -> sha256 of its tensors and eps in draw order.
WEIGHT_DIGESTS = {
    ("seeded", EmbeddingDims(4, 10, 5, 2), 10, 3): (
        "85cffe7768e9ba19466cbd42db538e3653cf070c8a762644a94b6aefcda40d23"
    ),
    ("seeded", EmbeddingDims(3, 6, 3, 3), 5, 7): (
        "99d489e1fa03153f76e86f8c73e8f0af764a7ea7ec46b4b9f4268e4a6d62c980"
    ),
    ("identity", EmbeddingDims(4, 10, 10, 2), None, None): (
        "bb6e9fd6fbce77c7d162026820520f5241b4ec92a1bd20407abd0e10c37716a6"
    ),
    ("identity", EmbeddingDims(2, 6, 6, 3), None, None): (
        "7a182d9f2f901428dd594824bab6c61212287b40f9231ab952df6ad556c1f140"
    ),
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


def _decoded(path) -> str:
    """sha256 of what load_feature_file decodes from path: each matrix's id,
    k, scale, values and anchors, then the pointwise values, roi and
    valid_width, each array with its dtype and shape."""
    features = load_feature_file(path)
    h = hashlib.sha256()

    def update(*arrays):
        for a in arrays:
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())

    for m in features.matrices:
        h.update(json.dumps([m.roi_id, m.k, asdict(m.scale)]).encode())
        update(m.values, m.anchors)
    pw = features.pointwise
    update(pw.values, pw.roi, pw.valid_width)
    return h.hexdigest()


def _extract(tmp_path, doc: dict, workers: int) -> tuple[dict, dict]:
    """(file digests, decoded digests) of the R and C outputs."""
    out = tmp_path / f"w{workers}"
    out.mkdir()
    doc = {
        **doc,
        "output": {"features": str(out / "r.rapd"), "class_features": str(out / "c.rapd")},
    }
    cfg = tmp_path / f"cfg{workers}.json"
    cfg.write_text(json.dumps(doc))
    assert main(["extract", "--config", str(cfg), "--workers", str(workers)]) == EXIT_OK
    names = ("r.rapd", "c.rapd")
    return (
        {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names},
        {name: _decoded(out / name) for name in names},
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_readme_config_digests(tmp_path, workers):
    assert _extract(tmp_path, README_CONFIG, workers) == (README_DIGESTS, README_DECODED)


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
    assert _extract(tmp_path, doc, workers) == (KITTI_DIGESTS, KITTI_DECODED)


def _weight_digest(weights: WeightSet) -> str:
    """sha256 of every tensor and eps of weights, each with its dtype and
    shape, in the order the builders draw them: inner encoder stages (linear,
    then norm), inner decoder stages, the five projections, the two kernels."""
    stages = [stage for pair in weights.inner_encoder for stage in pair]
    stages += [*weights.inner_decoder, weights.enc_key, weights.enc_value]
    stages += [weights.dec_query, weights.dec_key, weights.dec_value]
    values = [getattr(stage, f.name) for stage in stages for f in fields(stage)]
    h = hashlib.sha256()
    for value in [*values, weights.ffn_conv1, weights.ffn_conv2]:
        a = np.asarray(value)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(WEIGHT_DIGESTS), ids=lambda c: f"{c[0]}-{c[1].width}-{c[2]}")
def test_weight_digests(case):
    builder, dims, in_width, seed = case
    if builder == "seeded":
        weights = WeightSet.seeded(dims, np.random.default_rng(seed), in_width=in_width)
    else:
        weights = WeightSet.identity(dims)
    assert _weight_digest(weights) == WEIGHT_DIGESTS[case]
