"""Scan ingestion, synthetic scene generation, and feature persistence.

On-disk formats:

* KITTI scan (.bin): packed little-endian float32, four per point, in the
  order x, y, z, remission.
* KITTI label (.label): packed little-endian uint32 per point; the low 16
  bits are the semantic class, the high 16 bits (instance id) are discarded.
* Feature container (.rapd): magic "RAPD", uint32 version, uint32 header
  length, UTF-8 JSON header, a raw little-endian payload laid out by the
  header, then a uint32 CRC-32 of all bytes before it. It holds one
  PointwiseFeatureSet. The header holds kind, meta, points, width and one
  entry (roi_id, k, rows, scale) per matrix; the payload holds each matrix's
  float32 values (rows x k; finite, in [0, 1], ascending in each row) and
  int64 anchors in header order, then the int32 roi ids of the points, and
  ends there. The pointwise rows derive from the matrices; weights are never
  filed.
"""

from __future__ import annotations

import json
import math
import struct
import sys
import zlib
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cache
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Union, get_args, get_origin, get_type_hints

import numpy as np

from .cloud import PointCloud
from .errors import (
    ContractError,
    EmptySceneError,
    FormatError,
    LabelMismatchError,
    MalformedScanError,
)
from .partition import PointwiseFeatureSet
from .rapid import RapidMatrix, ReflectivityScale

MAGIC = b"RAPD"
CONTAINER_VERSION = 2

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# typed JSON reader: the one reader of the run config and of the container
# header
# ---------------------------------------------------------------------------


def _typed(value, kind, key: str):
    """value as an instance of kind, an annotation built from int, float,
    str, dict, Optional and tuple; ContractError for a value of any other
    JSON type. A bool is never a number, and a float must be finite: an int
    read as a float is converted, and one beyond the float range is an error."""
    if kind is float and type(value) in (int, float):
        if not abs(value) <= sys.float_info.max:  # false for nan too; exact for any int
            raise ContractError(f"{key} must be a finite number")
        return float(value)
    if type(kind) is type:  # int, float, str or dict
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ContractError(f"{key} must be {kind.__name__}, got {value!r}")
        return value
    args = get_args(kind)
    if get_origin(kind) is Union:  # Optional[...]
        return None if value is None else _typed(value, args[0], key)
    if not isinstance(value, list):  # tuple[...]
        raise ContractError(f"{key} must be a list, got {value!r}")
    if args[-1] is Ellipsis:
        args = args[:1] * len(value)
    if len(value) != len(args):
        raise ContractError(f"{key} must hold {len(args)} values, got {len(value)}")
    return tuple(_typed(v, a, f"{key}[{i}]") for i, (v, a) in enumerate(zip(value, args)))


def _get(doc: dict, key: str, kind, default=MISSING, at: str = ""):
    """The value at the dotted key of doc read as kind, or default when a
    key on the way is absent (ContractError without a default); at prefixes
    the key in error messages."""
    *sections, last = key.split(".")
    for i, section in enumerate(sections):
        doc = _typed(doc.get(section, {}), dict, at + ".".join(sections[: i + 1]))
    if last in doc:
        return _typed(doc[last], kind, at + key)
    if default is MISSING:
        raise ContractError(f"{at}{key} is missing")
    return default


_hints = cache(get_type_hints)  # per class: resolving annotations is slow


def _fields(cls, doc, key: str):
    """The frozen dataclass cls from a JSON object: each field read by its
    annotation, a missing field at its default; other keys are ignored."""
    doc, hints = _typed(doc, dict, key), _hints(cls)
    for f in fields(cls):
        if f.name not in doc and f.default is MISSING:
            raise ContractError(f"{key}.{f.name} is missing")
    return cls(**{n: _typed(v, hints[n], f"{key}.{n}") for n, v in doc.items() if n in hints})


# ---------------------------------------------------------------------------
# KITTI formats
# ---------------------------------------------------------------------------


def load_kitti_scan(path: PathLike) -> PointCloud:
    """Decode a packed float32 scan; point order is preserved.

    Errors on a file size that is not a multiple of 16 bytes and on
    non-finite values (reporting the offending point indices).
    """
    raw = Path(path).read_bytes()
    if len(raw) % 16 != 0:
        raise MalformedScanError(
            f"{path}: size {len(raw)} is not a multiple of 16 bytes"
        )
    data = np.frombuffer(raw, dtype="<f4").reshape(-1, 4).astype(np.float64)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        raise MalformedScanError(
            f"{path}: non-finite values at point indices {bad[:8].tolist()}"
        )
    return PointCloud(points=data[:, :3], remission=data[:, 3])


def save_kitti_scan(cloud: PointCloud, path: PathLike) -> None:
    data = np.column_stack([cloud.points, cloud.remission]).astype("<f4")
    Path(path).write_bytes(data.tobytes())


def load_label_array(path: PathLike) -> np.ndarray:
    """Semantic class ids from a label file (low 16 bits of each uint32)."""
    raw = Path(path).read_bytes()
    if len(raw) % 4 != 0:
        raise MalformedScanError(f"{path}: size {len(raw)} is not a multiple of 4")
    values = np.frombuffer(raw, dtype="<u4")
    return (values & 0xFFFF).astype(np.int32)


def load_kitti_labels(path: PathLike, cloud: PointCloud) -> PointCloud:
    """Attach semantic labels to a cloud; errors on a count mismatch."""
    labels = load_label_array(path)
    if len(labels) != len(cloud):
        raise LabelMismatchError(
            f"{path}: {len(labels)} labels for a {len(cloud)}-point cloud"
        )
    return cloud.with_labels(labels)


def save_kitti_labels(labels: np.ndarray, path: PathLike) -> None:
    """Write class ids as a label file; each must fit its 16 bits."""
    labels = np.asarray(labels)
    if not np.all((labels >= 0) & (labels < 2**16)):  # false for nan too
        raise ContractError("a .label class id must lie in [0, 2**16)")
    Path(path).write_bytes(labels.astype("<u4").tobytes())


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------


def _check_primitive(prim, **sizes: float) -> None:
    """ContractError unless prim's sizes and count are >= 0, a (count, 3)
    float64 array can be sized and its class id fits int32."""
    for name, value in {**sizes, "count": prim.count}.items():
        if not value >= 0:  # false for nan too
            raise ContractError(f"{name} must be >= 0, got {value}")
    if prim.count > np.iinfo(np.intp).max // 24:
        raise ContractError(f"count {prim.count} is too large for a (count, 3) float64 array")
    if not -(2**31) <= prim.class_id < 2**31:
        raise ContractError(f"class_id must fit int32, got {prim.class_id}")


@dataclass(frozen=True)
class PlanePrimitive:
    """Rectangular patch origin + a*u_axis + b*v_axis, a,b uniform."""

    origin: tuple[float, float, float]
    u_axis: tuple[float, float, float]
    v_axis: tuple[float, float, float]
    extent_u: float
    extent_v: float
    count: int
    class_id: int
    reflectivity: float

    def __post_init__(self) -> None:
        _check_primitive(self, extent_u=self.extent_u, extent_v=self.extent_v)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        a = rng.uniform(-self.extent_u, self.extent_u, self.count)
        b = rng.uniform(-self.extent_v, self.extent_v, self.count)
        origin = np.asarray(self.origin, dtype=np.float64)
        return (
            origin
            + a[:, None] * np.asarray(self.u_axis, dtype=np.float64)
            + b[:, None] * np.asarray(self.v_axis, dtype=np.float64)
        )


@dataclass(frozen=True)
class BoxPrimitive:
    """Points on the surface of an axis-aligned box, area-weighted per face."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    count: int
    class_id: int
    reflectivity: float

    def __post_init__(self) -> None:
        _check_primitive(self, size=min(self.size))
        sx, sy, sz = self.size
        if not sy * sz + sx * sz + sx * sy > 0:
            raise ContractError(f"box size {self.size} has no surface area")

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        sx, sy, sz = self.size
        areas = np.array([sy * sz, sy * sz, sx * sz, sx * sz, sx * sy, sx * sy])
        faces = rng.choice(6, size=self.count, p=areas / areas.sum())
        a = rng.uniform(-0.5, 0.5, self.count)
        b = rng.uniform(-0.5, 0.5, self.count)
        pts = np.empty((self.count, 3), dtype=np.float64)
        half = np.array([sx, sy, sz]) / 2.0
        for f in range(6):
            m = faces == f
            axis = f // 2
            sign = 1.0 if f % 2 == 0 else -1.0
            others = [i for i in range(3) if i != axis]
            pts[m, axis] = sign * half[axis]
            pts[m, others[0]] = a[m] * self.size[others[0]]
            pts[m, others[1]] = b[m] * self.size[others[1]]
        return pts + np.asarray(self.center, dtype=np.float64)


@dataclass(frozen=True)
class CylinderPrimitive:
    """Points on the lateral surface of a vertical cylinder."""

    center: tuple[float, float, float]
    radius: float
    height: float
    count: int
    class_id: int
    reflectivity: float

    def __post_init__(self) -> None:
        _check_primitive(self, radius=self.radius, height=self.height)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        theta = rng.uniform(0.0, 2.0 * np.pi, self.count)
        z = rng.uniform(-self.height / 2.0, self.height / 2.0, self.count)
        pts = np.stack(
            [self.radius * np.cos(theta), self.radius * np.sin(theta), z], axis=1
        )
        return pts + np.asarray(self.center, dtype=np.float64)


Primitive = Union[PlanePrimitive, BoxPrimitive, CylinderPrimitive]


@dataclass(frozen=True)
class SyntheticSceneSpec:
    """Deterministic scene: the seed fully determines the output cloud."""

    primitives: tuple[Primitive, ...]
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.noise_sigma >= 0 and self.seed >= 0):  # false for nan too
            raise ContractError("noise_sigma and seed must be >= 0")


def synthesize_scene(spec: SyntheticSceneSpec) -> PointCloud:
    """Sample every primitive in order and add measurement noise. The cloud
    holds what a scan and its label file hold: points, remission and labels,
    no ring channel."""
    if not spec.primitives:
        raise EmptySceneError("scene needs at least one primitive")
    rng = np.random.default_rng(spec.seed)
    chunks, labels, refl = [], [], []
    for prim in spec.primitives:
        pts = prim.sample(rng)
        chunks.append(pts)
        labels.append(np.full(len(pts), prim.class_id, dtype=np.int32))
        refl.append(np.full(len(pts), prim.reflectivity, dtype=np.float64))
    points = np.concatenate(chunks, axis=0)
    if spec.noise_sigma > 0:
        points = points + rng.normal(0.0, spec.noise_sigma, points.shape)
    return PointCloud(points=points, remission=np.concatenate(refl), label=np.concatenate(labels))


# ---------------------------------------------------------------------------
# feature container
# ---------------------------------------------------------------------------


def _write_container(
    path: PathLike, header: dict, arrays: Iterable[tuple[np.ndarray, str]]
) -> None:
    """Write a container: its header, then its payload one (array, dtype) at a
    time, each converted only as it is written, then its CRC-32 trailer."""
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    start = MAGIC + struct.pack("<II", CONTAINER_VERSION, len(head)) + head
    crc = zlib.crc32(start)
    with open(path, "wb") as fh:
        fh.write(start)
        for array, dtype in arrays:
            chunk = np.ascontiguousarray(array, dtype=dtype).data
            fh.write(chunk)
            crc = zlib.crc32(chunk, crc)
        fh.write(struct.pack("<I", crc))


def _read_container(path: PathLike) -> tuple[dict, memoryview]:
    """(header, payload); the payload views the file's bytes up to the checked trailer."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise FormatError(f"{path}: not a RAPD container")
    version, head_len = struct.unpack("<II", raw[4:12])
    if version != CONTAINER_VERSION:
        raise FormatError(f"{path}: unsupported container version {version}")
    body = memoryview(raw)[:-4]
    if len(raw) < 16 or zlib.crc32(body) != struct.unpack("<I", raw[-4:])[0]:
        raise FormatError(f"{path}: CRC-32 trailer mismatch (corrupt, truncated or older file)")
    if len(body) < 12 + head_len:
        raise FormatError(f"{path}: truncated header")
    try:  # ValueError: bad UTF-8, bad JSON, or an integer of too many digits
        header = _typed(json.loads(raw[12 : 12 + head_len].decode("utf-8")), dict, "header")
    except (ValueError, ContractError) as exc:
        raise FormatError(f"{path}: corrupt header ({exc})") from exc
    return header, body[12 + head_len :]


def _count(doc: dict, key: str, at: str = "") -> int:
    """The size at key of doc, an integer in [0, 2^31) (the bound of a row
    width, so that any (0, k) shape can be made); ContractError otherwise."""
    n = _get(doc, key, int, at=at)
    if not 0 <= n < 2**31:
        raise ContractError(f"{at}{key} must be in [0, 2^31), got {n}")
    return n


def _arrays(payload: memoryview, layout: list[tuple[str, tuple[int, ...]]]) -> list[np.ndarray]:
    """Read-only views of the consecutive (dtype, shape) arrays of layout;
    ContractError unless the payload ends exactly where the last one does."""
    sizes = [np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in layout]
    if (size := sum(sizes)) != len(payload):
        raise ContractError(f"payload of {len(payload)} bytes, not the {size} its header sizes")
    offsets = accumulate(sizes, initial=0)
    return [
        np.frombuffer(payload, dtype, math.prod(shape), offset).reshape(shape)
        for (dtype, shape), offset in zip(layout, offsets)
    ]


def _matrix(entry: dict, at: str, values: np.ndarray, anchors: np.ndarray) -> RapidMatrix:
    """The matrix a header entry names over its decoded values and anchors."""
    mat = RapidMatrix(
        roi_id=_get(entry, "roi_id", str, at=at),
        k=values.shape[1],
        scale=_fields(ReflectivityScale, _get(entry, "scale", dict, at=at), f"{at}scale"),
        values=values.astype(np.float64),
        anchors=anchors.astype(np.int64),
    )
    if not ((mat.values >= 0) & (mat.values <= 1)).all():  # false for nan too
        raise ContractError(f"{at}values must be finite and in [0, 1]")
    if (mat.values[:, 1:] < mat.values[:, :-1]).any():
        raise ContractError(f"{at}values must ascend within each row")
    return mat


@dataclass(frozen=True)
class FeatureFile:
    """Decoded feature container: the feature set extract wrote and its meta."""

    pointwise: PointwiseFeatureSet
    meta: dict

    @property
    def matrices(self) -> tuple[RapidMatrix, ...]:
        return self.pointwise.matrices


def save_feature_file(path: PathLike, features: PointwiseFeatureSet, meta: dict) -> None:
    """Persist a feature set and meta; lossless at float32. The header sizes
    every array; the payload holds each matrix's values and anchors, then the roi ids."""
    entries = [
        {"roi_id": m.roi_id, "k": m.k, "rows": m.u, "scale": asdict(m.scale)}
        for m in features.matrices
    ]
    header = {
        "kind": "rapid-features", "meta": meta, "points": len(features.roi),
        "width": features.width, "matrices": entries,
    }
    arrays = [a for m in features.matrices for a in ((m.values, "<f4"), (m.anchors, "<i8"))]
    _write_container(path, header, [*arrays, (features.roi, "<i4")])


def load_feature_file(path: PathLike) -> FeatureFile:
    """Decode a feature container; FormatError on a checksum mismatch, on any
    malformed header, on a payload that is not exactly the arrays the header
    sizes and on a feature set that breaks a contract, such as values out of [0, 1]."""
    header, payload = _read_container(path)
    try:
        if (kind := _get(header, "kind", str)) != "rapid-features":
            raise ContractError(f"container holds {kind!r}, not rapid-features")
        meta = _get(header, "meta", dict, {})
        entries = _get(header, "matrices", tuple[dict, ...])
        ats = [f"matrices[{i}]." for i in range(len(entries))]
        layout = []
        for entry, at in zip(entries, ats):
            rows, k = _count(entry, "rows", at), _count(entry, "k", at)
            layout += [("<f4", (rows, k)), ("<i8", (rows,))]
        *arrays, roi = _arrays(payload, [*layout, ("<i4", (_count(header, "points"),))])
        pairs = zip(arrays[::2], arrays[1::2])
        matrices = tuple(_matrix(e, at, v, a) for e, at, (v, a) in zip(entries, ats, pairs))
        pointwise = PointwiseFeatureSet(roi.astype(np.int32), _get(header, "width", int), matrices)
    except ContractError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return FeatureFile(pointwise, meta)


def write_pgm(values01: np.ndarray, path: PathLike) -> None:
    """Binary PGM (P5) of a matrix with values in [0, 1] mapped to 0..255.

    Image width is the column count and height the row count, so a u x k
    matrix becomes a k x u image with row order preserved.
    """
    v = np.asarray(values01, dtype=np.float64)
    gray = np.clip(np.rint(v * 255.0), 0, 255).astype(np.uint8)
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())
