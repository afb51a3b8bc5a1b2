"""Run configuration: documented defaults, JSON config files, flag overrides.

The config file is a single JSON document with nested sections. Every field
has a default; CLI flags override file values. Defaults:

    input.scan / input.labels / input.synthetic   null (choose one input)
    output.features                               "r_rapid.rapd"
    output.class_features                         null (no C-RAPiD output; not output.features)
    sensor.beam_count                             64
    sensor.vertical_fov_deg                       [-24.8, 2.0] degrees
    rapid.k_close / k_mid / k_far                 10 / 7 / 5
    rapid.band_edges                              [20.0, 50.0] meters
    rapid.delta                                   2.0 meters
    eval.num_classes / eval.ignore                20 / [0] (num_classes in [1, 2**16], as a
                                                  .label id is 16 bits; eval is O(num_classes))
    workers                                       1 (at least 1)
    seed                                          0 (at least 0; check-invariance)

Every value, the synthetic scene's too, is read by its field's type and
never coerced: a string or a bool is not a number, an integer field takes no
fraction, a vector is a list of exactly its length, and a path is a string
with no NUL. A number must be finite: NaN, Infinity and 1e400 (read as
infinity) are errors, and an integer in a float field must fit a finite
float, so a 400-digit one is too. Any other value raises ContractError. The
reader is scene_io's, which reads the .rapd header and records the same way.

The ring rule's vertical resolution is SensorGeometry.from_fov of the beam
count and the field of view; no key overrides it. A synthetic scene, like a
scan file, carries no ring channel, so its rings come from the same rule.
Keys outside this list are ignored, among them the horizontal resolution
keys, the vertical resolution override and the synthetic scene's
input.synthetic.pose of older config files. The k triple (10, 7, 5) suits
64-beam scans and (8, 6, 3) suits 32-beam scans.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from .cloud import SensorGeometry
from .errors import ContractError
from .rapid import RangeAwareConfig
from .scene_io import BoxPrimitive, CylinderPrimitive, PlanePrimitive, SyntheticSceneSpec
from .scene_io import _fields, _get, _typed

_PRIMITIVES = {"plane": PlanePrimitive, "box": BoxPrimitive, "cylinder": CylinderPrimitive}


def _scene(doc: dict, at: str) -> SyntheticSceneSpec:
    """The synthetic scene of a config."""
    prims = []
    for i, p in enumerate(_get(doc, "primitives", tuple[dict, ...], (), at)):
        key = f"{at}primitives[{i}]"
        kind = _get(p, "type", str, at=f"{key}.")
        if kind not in _PRIMITIVES:
            raise ContractError(f"{key}: unknown primitive type {kind!r}")
        prims.append(_fields(_PRIMITIVES[kind], p, key))
    return SyntheticSceneSpec(
        primitives=tuple(prims),
        noise_sigma=_get(doc, "noise_sigma", float, 0.0, at),
        seed=_get(doc, "seed", int, 0, at),
    )


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration for one pipeline run."""

    scan: Optional[str]
    labels: Optional[str]
    synthetic: Optional[SyntheticSceneSpec]
    features_out: str
    class_features_out: Optional[str]
    sensor: SensorGeometry
    vertical_fov_deg: tuple[float, float]
    rapid: RangeAwareConfig
    eval_num_classes: int
    eval_ignore: tuple[int, ...]
    workers: int
    seed: int

    @classmethod
    def load(
        cls, path: Optional[str] = None, overrides: Optional[dict] = None
    ) -> "RunConfig":
        """The config file, then overrides (dotted key -> value, from CLI flags);
        an unset key takes its default."""
        doc: dict = {}
        if path is not None:
            try:  # ValueError: bad UTF-8, bad JSON, or an integer of too many digits
                doc = _typed(json.loads(Path(path).read_text()), dict, f"{path}: config")
            except ValueError as exc:
                raise ContractError(f"{path}: invalid config JSON ({exc})") from exc
        return cls.from_dict(doc, overrides)

    @classmethod
    def from_dict(cls, doc: dict, overrides: Optional[dict] = None) -> "RunConfig":
        """The resolved config; a malformed value raises ContractError."""
        over = overrides or {}

        def get(key: str, kind, default):
            value = _typed(over[key], kind, key) if key in over else _get(doc, key, kind, default)
            if isinstance(value, str) and "\0" in value:  # every str setting is a path
                raise ContractError(f"{key} holds a NUL character: {value!r}")
            return value

        workers, seed = get("workers", int, 1), get("seed", int, 0)
        for key, value, low in (("workers", workers, 1), ("seed", seed, 0)):
            if value < low:
                raise ContractError(f"{key} must be >= {low}, got {value}")
        fov = get("sensor.vertical_fov_deg", tuple[float, float], (-24.8, 2.0))
        sensor = SensorGeometry.from_fov(get("sensor.beam_count", int, 64), fov)
        synthetic = get("input.synthetic", Optional[dict], None)
        features_out = get("output.features", str, "r_rapid.rapd")
        class_out = get("output.class_features", Optional[str], None)
        if class_out is not None and os.path.abspath(class_out) == os.path.abspath(features_out):
            raise ContractError(f"output.class_features {class_out!r} is output.features")
        return cls(
            scan=get("input.scan", Optional[str], None),
            labels=get("input.labels", Optional[str], None),
            synthetic=None if synthetic is None else _scene(synthetic, "input.synthetic."),
            features_out=features_out,
            class_features_out=class_out,
            sensor=sensor,
            vertical_fov_deg=fov,
            rapid=_fields(RangeAwareConfig, doc.get("rapid", {}), "rapid"),
            eval_num_classes=get("eval.num_classes", int, 20),
            eval_ignore=get("eval.ignore", tuple[int, ...], (0,)),
            workers=workers,
            seed=seed,
        )


def config_echo(config: RunConfig) -> dict[str, Any]:
    """The settings an extract output's bytes depend on, recorded in the
    container: the RAPiD settings, and the beams and field of view of the ring ids."""
    return {
        "k": list(config.rapid.ks),
        "band_edges": list(config.rapid.band_edges),
        "delta": config.rapid.delta,
        "beam_count": config.sensor.beam_count,
        "vertical_fov_deg": list(config.vertical_fov_deg),
    }
