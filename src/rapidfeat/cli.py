"""Command-line surface for the feature pipeline.

Commands: extract, check-invariance, eval, heatmap. Exit codes are 0
on success, 1 for usage errors, 2 for data errors, and 3 when an invariant
check fails, so the invariance checker can gate CI jobs.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import scene_io
from .cloud import PointCloud
from .config import RunConfig, config_echo
from .errors import ContractError, LabelsRequiredError, RapidError
from .geometry import RigidTransform
from .metrics import ConfusionMatrix, _mean_defined, accumulate, iou
from .partition import PointwiseFeatureSet, _run_jobs, c_rapid, r_rapid

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INVARIANT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs) -> None:
        # Flags are spelled out in full: an abbreviation would change meaning
        # once its command gained a second flag of the same prefix.
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):  # noqa: A003 - argparse hook
        raise _UsageError(message)


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:  # false for nan too
        raise argparse.ArgumentTypeError(f"--tolerance must be finite and >= 0, got {text}")
    return value


def _load_cloud(config: RunConfig) -> PointCloud:
    """Input cloud from the scan file or the synthetic scene in the config."""
    if config.scan is not None:
        cloud = scene_io.load_kitti_scan(config.scan)
        if config.labels is not None:
            cloud = scene_io.load_kitti_labels(config.labels, cloud)
        return cloud
    if config.synthetic is not None:
        return scene_io.synthesize_scene(config.synthetic)
    raise _UsageError("no input: set input.scan or input.synthetic in the config")


# argparse dest -> dotted config key, for each flag that overrides a config value
_OVERRIDES = {
    "scan": "input.scan",
    "labels": "input.labels",
    "out": "output.features",
    "class_out": "output.class_features",
    "workers": "workers",
    "seed": "seed",
}


def _config_overrides(args: argparse.Namespace) -> dict:
    values = {key: getattr(args, dest, None) for dest, key in _OVERRIDES.items()}
    return {key: value for key, value in values.items() if value is not None}


def _save(path: str, features: PointwiseFeatureSet, config: RunConfig) -> None:
    """Write one extract output and print its per-region statistics."""
    scene_io.save_feature_file(path, features, config_echo(config))
    m = len(features.roi)
    print(f"wrote {path}: {m} pointwise rows")
    print(f"{'roi':<18}{'points':>8}{'k':>4}{'outliers':>10}{'seconds':>9}  histogram[0,1]")
    steps = np.zeros(3)  # the (knn, normalize, sort) seconds of every rapid() call
    for mat in features.matrices:
        hist, _ = np.histogram(mat.values, bins=10, range=(0.0, 1.0))
        steps += mat.seconds
        print(
            f"{mat.roi_id:<18}{mat.u:>8}{mat.k:>4}{mat.outliers:>10}"
            f"{sum(mat.seconds):>9.4f}  {hist.tolist()}"
        )
    n_pad = m - sum(mat.u for mat in features.matrices)  # no point anchors two rows
    print(f"total points {m}, regions {len(features.matrices)}, pad-only points {n_pad}")
    print("step seconds: knn {:.4f}, normalize {:.4f}, sort {:.4f}".format(*steps))


def cmd_extract(args: argparse.Namespace) -> int:
    config = RunConfig.load(args.config, _config_overrides(args))
    cloud, workers = _load_cloud(config), config.workers
    if config.class_features_out is not None and cloud.label is None:
        raise LabelsRequiredError("a class output requires labels: set --labels or input.labels")
    _save(config.features_out, r_rapid(cloud, config.sensor, config.rapid, workers=workers), config)
    if config.class_features_out is not None:
        _save(config.class_features_out, c_rapid(cloud, config.rapid, workers=workers), config)
    return EXIT_OK


def cmd_check_invariance(args: argparse.Namespace) -> int:
    config = RunConfig.load(args.config, _config_overrides(args))
    if args.trials < 1:
        raise _UsageError("--trials must be >= 1")
    cloud = _load_cloud(config)
    # Regions are frozen on the input cloud, so transformed reruns recompute
    # the same regions (range bands depend on |p|).
    baseline = r_rapid(cloud, config.sensor, config.rapid, workers=config.workers)
    if not baseline.matrices:
        raise RapidError("no region to compare: every point of the scan is padding")
    jobs = [(mat.anchors, mat.k, mat.roi_id) for mat in baseline.matrices]
    rng = np.random.default_rng(config.seed)
    worst = 0.0
    for trial in range(args.trials):
        if args.non_rigid:
            factor = 1.0 + 0.5 * (trial + 1) / args.trials
            moved = cloud.with_points(cloud.points * factor)
        else:
            moved = cloud.with_points(RigidTransform.random(rng).apply(cloud.points))
        rerun = _run_jobs(moved, jobs, config.rapid.delta, config.workers)
        for mat, again in zip(baseline.matrices, rerun):
            worst = max(worst, float(np.abs(again.values - mat.values).max()))
    print(f"compared {len(baseline.matrices)} regions, {sum(m.u for m in baseline.matrices)} rows")
    print(f"max feature deviation over {args.trials} trials: {worst:.3e}")
    if worst > args.tolerance:
        print(f"deviation exceeds tolerance {args.tolerance:.1e}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    config = RunConfig.load(args.config, _config_overrides(args))
    cm = ConfusionMatrix.empty(config.eval_num_classes, config.eval_ignore)
    truth_files = sorted(Path(args.truth).glob("*.label"))
    pred_files = sorted(Path(args.pred).glob("*.label"))
    if [f.name for f in truth_files] != [f.name for f in pred_files]:
        raise RapidError("truth and prediction scan lists are not aligned")
    if not truth_files:
        raise RapidError(f"no .label files under {args.truth}")
    for tf, pf in zip(truth_files, pred_files):
        truth = scene_io.load_label_array(tf)
        pred = scene_io.load_label_array(pf)
        try:
            accumulate(cm, truth, pred)
        except ContractError as exc:
            raise ContractError(f"{tf.name}: {exc}") from exc
    rows = [(c, iou(cm, c)) for c in range(config.eval_num_classes) if c not in cm.ignore]
    for c, v in rows:
        print(f"class {c:>3}  IoU {'undefined' if math.isnan(v) else f'{v:.4f}'}")
    mean = _mean_defined(v for _, v in rows)
    print(f"mIoU {mean:.4f}")
    if args.csv:
        cells = [[c, "" if math.isnan(v) else f"{v:.6f}"] for c, v in rows]
        with open(args.csv, "w", newline="") as fh:
            csv.writer(fh).writerows([["class", "iou"], *cells, ["miou", f"{mean:.6f}"]])
        print(f"wrote {args.csv}")
    return EXIT_OK


def cmd_heatmap(args: argparse.Namespace) -> int:
    matrices = scene_io.load_feature_file(args.features).matrices
    match = [m for m in matrices if m.roi_id == args.roi]
    if not match:
        available = ", ".join(m.roi_id for m in matrices[:12])
        raise RapidError(
            f"region {args.roi!r} not in {args.features} (first regions: {available})"
        )
    scene_io.write_pgm(match[0].values, args.out)
    u, k = match[0].values.shape
    print(f"wrote {args.out}: {k}x{u} image for region {args.roi}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="rapidfeat", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p: _Parser, *int_flags: str) -> None:  # only flags p's command reads
        p.add_argument("--config", default=None, help="JSON config file")
        for flag in int_flags:
            p.add_argument(flag, type=int, default=None)

    p = sub.add_parser("extract", help="compute and store RAPiD features")
    common(p, "--workers")
    p.add_argument("--scan", default=None, help="KITTI .bin scan path")
    p.add_argument("--labels", default=None, help="KITTI .label path")
    p.add_argument("--out", default=None, help="feature container output path")
    p.add_argument(
        "--class-out",
        dest="class_out",
        default=None,
        help="write intra-class features here (requires labels)",
    )
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser(
        "check-invariance", help="verify features under random rigid motions"
    )
    common(p, "--workers", "--seed")
    p.add_argument("--scan", default=None)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--tolerance", type=_tolerance, default=1e-6)
    p.add_argument(
        "--non-rigid",
        dest="non_rigid",
        action="store_true",
        help="negative control: apply a scaling instead of a rigid motion",
    )
    p.set_defaults(func=cmd_check_invariance)

    p = sub.add_parser("eval", help="per-class IoU and mIoU from label files")
    common(p)
    p.add_argument("--truth", required=True, help="directory of truth .label files")
    p.add_argument("--pred", required=True, help="directory of predicted .label files")
    p.add_argument("--csv", default=None, help="write the IoU table here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("heatmap", help="export one region's matrix as a PGM image")
    p.add_argument("features", help="feature container path")
    p.add_argument("--roi", required=True, help="region id, e.g. ring003-mid")
    p.add_argument("--out", required=True, help="output .pgm path")
    p.set_defaults(func=cmd_heatmap)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RapidError, OSError, MemoryError) as exc:  # MemoryError: a scene too large
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
