"""Run configuration: documented defaults, JSON config files, flag overrides.

The config file is a single JSON document with nested sections. Every field
has a default; CLI flags override file values. Defaults:

    input.scan / input.labels / input.synthetic   null (choose one input)
    output.features                               "r_rapid.rapd"
    output.class_features                         null (C-RAPiD not written)
    sensor.beam_count                             64
    sensor.vertical_fov_deg                       [-24.8, 2.0] degrees
    rapid.k_close / k_mid / k_far                 10 / 7 / 5
    rapid.band_edges                              [20.0, 50.0] meters
    rapid.delta                                   2.0 meters
    eval.num_classes / eval.ignore                20 / [0]
    workers                                       1
    seed                                          0

The ring rule's vertical resolution is SensorGeometry.from_fov of the beam
count and the field of view; no key overrides it. Keys outside this list are
ignored, among them the horizontal resolution keys and the vertical
resolution override of older config files. The k triple (10, 7, 5) suits
64-beam scans and (8, 6, 3) suits 32-beam scans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from .cloud import SensorGeometry
from .errors import ContractError
from .rapid import RangeAwareConfig


def defaults() -> dict:
    return {
        "input": {"scan": None, "labels": None, "synthetic": None},
        "output": {"features": "r_rapid.rapd", "class_features": None},
        "sensor": {"beam_count": 64, "vertical_fov_deg": [-24.8, 2.0]},
        "rapid": {
            "k_close": 10,
            "k_mid": 7,
            "k_far": 5,
            "band_edges": [20.0, 50.0],
            "delta": 2.0,
        },
        "eval": {"num_classes": 20, "ignore": [0]},
        "workers": 1,
        "seed": 0,
    }


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration for one pipeline run."""

    scan: Optional[str]
    labels: Optional[str]
    synthetic: Optional[dict]
    features_out: str
    class_features_out: Optional[str]
    sensor: SensorGeometry
    rapid: RangeAwareConfig
    eval_num_classes: int
    eval_ignore: tuple[int, ...]
    workers: int
    seed: int

    @classmethod
    def load(
        cls, path: Optional[str] = None, overrides: Optional[dict] = None
    ) -> "RunConfig":
        """Defaults, then the config file, then CLI overrides."""
        doc = defaults()
        if path is not None:
            try:
                file_doc = json.loads(Path(path).read_text())
            except json.JSONDecodeError as exc:
                raise ContractError(f"{path}: invalid config JSON ({exc})") from exc
            if not isinstance(file_doc, dict):
                raise ContractError(f"{path}: config must be a JSON object")
            doc = _deep_merge(doc, file_doc)
        if overrides:
            doc = _deep_merge(doc, overrides)
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """The resolved config; a malformed value raises ContractError."""
        try:
            sensor, rap = doc["sensor"], doc["rapid"]
            for section, key in (
                ("input", "scan"), ("input", "labels"),
                ("output", "features"), ("output", "class_features"),
            ):
                if not isinstance(doc[section][key], (str, type(None))):
                    raise ContractError(f"{section}.{key} must be a path string")
            seed = int(doc["seed"])
            if seed < 0:
                raise ContractError("seed must be >= 0")
            return cls(
                scan=doc["input"]["scan"],
                labels=doc["input"]["labels"],
                synthetic=doc["input"]["synthetic"],
                features_out=doc["output"]["features"],
                class_features_out=doc["output"]["class_features"],
                sensor=SensorGeometry.from_fov(
                    int(sensor["beam_count"]), sensor["vertical_fov_deg"]
                ),
                rapid=RangeAwareConfig(
                    band_edges=tuple(float(e) for e in rap["band_edges"]),
                    k_close=int(rap["k_close"]),
                    k_mid=int(rap["k_mid"]),
                    k_far=int(rap["k_far"]),
                    delta=float(rap["delta"]),
                ),
                eval_num_classes=int(doc["eval"]["num_classes"]),
                eval_ignore=tuple(int(i) for i in doc["eval"]["ignore"]),
                workers=int(doc["workers"]),
                seed=seed,
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ContractError(f"malformed config value: {type(exc).__name__} {exc}") from exc


def config_echo(config: RunConfig) -> dict[str, Any]:
    """Hyperparameters recorded in output containers for provenance."""
    return {
        "k": list(config.rapid.ks),
        "band_edges": list(config.rapid.band_edges),
        "delta": config.rapid.delta,
        "beam_count": config.sensor.beam_count,
        "seed": config.seed,
    }
