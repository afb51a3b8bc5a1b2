"""Command-line surface for the feature pipeline.

Commands: extract, check-invariance, eval, bench, heatmap. Exit codes are 0
on success, 1 for usage errors, 2 for data errors, and 3 when an invariant
check fails, so the invariance checker can gate CI jobs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Optional

import numpy as np

from . import scene_io
from .cloud import PointCloud
from .config import RunConfig, config_echo
from .errors import RapidError
from .geometry import RigidTransform, apply_transform
from .metrics import ConfusionMatrix, accumulate, iou, miou
from .partition import PointwiseFeatureSet, c_rapid, r_rapid
from .rapid import rapid

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INVARIANT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs) -> None:
        # Exact flag names only: bench must not read --workers as --workers-list.
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):  # noqa: A003 - argparse hook
        raise _UsageError(message)


def _worker_counts(text: str) -> list[int]:
    counts = [int(w) for w in text.split(",")]
    if min(counts) < 1:
        raise argparse.ArgumentTypeError(f"worker counts must be >= 1, got {text}")
    return counts


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


def _print_roi_stats(features: PointwiseFeatureSet) -> None:
    print(f"{'roi':<18}{'points':>8}{'k':>4}{'pad_rate':>10}  histogram[0,1]")
    for mat in features.matrices:
        pad = float(np.mean(mat.values == 1.0))
        hist, _ = np.histogram(mat.values, bins=10, range=(0.0, 1.0))
        print(f"{mat.roi_id:<18}{mat.u:>8}{mat.k:>4}{pad:>10.3f}  {hist.tolist()}")
    n_pad = int(np.sum(features.valid_width == 0))
    print(
        f"total points {len(features.values)}, regions {len(features.matrices)}, "
        f"pad-only points {n_pad}"
    )


def cmd_extract(args: argparse.Namespace) -> int:
    config = RunConfig.load(args.config, _config_overrides(args))
    cloud = _load_cloud(config)
    features = r_rapid(cloud, config.sensor, config.rapid, workers=config.workers)
    scene_io.save_feature_file(
        config.features_out, features.matrices, features, meta=config_echo(config)
    )
    print(f"wrote {config.features_out}: {len(features.values)} pointwise rows")
    _print_roi_stats(features)
    if config.class_features_out is not None:
        class_features = c_rapid(cloud, config.rapid, workers=config.workers)
        scene_io.save_feature_file(
            config.class_features_out,
            class_features.matrices,
            class_features,
            meta=config_echo(config),
        )
        print(
            f"wrote {config.class_features_out}: "
            f"{len(class_features.values)} pointwise rows"
        )
        _print_roi_stats(class_features)
    return EXIT_OK


def cmd_check_invariance(args: argparse.Namespace) -> int:
    config = RunConfig.load(args.config, _config_overrides(args))
    if args.trials < 1:
        raise _UsageError("--trials must be >= 1")
    cloud = _load_cloud(config)
    # Regions are frozen on the input cloud, so transformed reruns recompute
    # the same regions (range bands depend on |p|).
    baseline = r_rapid(cloud, config.sensor, config.rapid, workers=config.workers)
    delta = config.rapid.delta
    rng = np.random.default_rng(config.seed)
    worst = 0.0
    for trial in range(args.trials):
        if args.identity:
            moved = cloud
        elif args.non_rigid:
            factor = 1.0 + 0.5 * (trial + 1) / args.trials
            moved = cloud.with_points(cloud.points * factor)
        else:
            moved = apply_transform(cloud, RigidTransform.random(rng))
        for mat in baseline.matrices:
            values = rapid(mat.anchors, moved, mat.k, delta).values
            worst = max(worst, float(np.abs(values - mat.values).max()))
    print(f"max feature deviation over {args.trials} trials: {worst:.3e}")
    if worst > args.tolerance:
        print(f"deviation exceeds tolerance {args.tolerance:.1e}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    config = RunConfig.load(args.config, _config_overrides(args))
    truth_files = sorted(Path(args.truth).glob("*.label"))
    pred_files = sorted(Path(args.pred).glob("*.label"))
    if [f.name for f in truth_files] != [f.name for f in pred_files]:
        raise RapidError("truth and prediction scan lists are not aligned")
    if not truth_files:
        raise RapidError(f"no .label files under {args.truth}")
    cm = ConfusionMatrix.empty(config.eval_num_classes, config.eval_ignore)
    for tf, pf in zip(truth_files, pred_files):
        truth = scene_io.load_label_array(tf)
        pred = scene_io.load_label_array(pf)
        if len(truth) != len(pred):
            raise RapidError(f"{tf.name}: truth/pred length mismatch")
        accumulate(cm, truth, pred)
    rows = []
    for c in range(config.eval_num_classes):
        if c in cm.ignore:
            continue
        v = iou(cm, c)
        rows.append((c, v))
        shown = "undefined" if math.isnan(v) else f"{v:.4f}"
        print(f"class {c:>3}  IoU {shown}")
    mean = miou(cm)
    print(f"mIoU {mean:.4f}")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["class", "iou"])
            for c, v in rows:
                writer.writerow([c, "" if math.isnan(v) else f"{v:.6f}"])
            writer.writerow(["miou", f"{mean:.6f}"])
        print(f"wrote {args.csv}")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    config = RunConfig.load(args.config, _config_overrides(args))
    t0 = time.perf_counter()
    cloud = _load_cloud(config)
    load_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    features = r_rapid(cloud, config.sensor, config.rapid, workers=1)
    base_wall = time.perf_counter() - t0
    base_bytes = features.values.tobytes()
    digest = hashlib.sha256(base_bytes).hexdigest()[:16]
    print(f"points {len(cloud)}, regions {len(features.matrices)}, sha {digest}")
    # Partition is the rest of the run: ring rule, banding, planning, scatter.
    steps = np.array([m.seconds for m in features.matrices]).reshape(-1, 3).sum(axis=0)
    stages = {"load": load_time, "partition": base_wall - steps.sum()}
    stages.update(zip(("knn", "normalize", "sort"), steps))
    print("stage timings (workers=1):")
    for stage in ("load", "partition", "knn", "sort", "normalize"):
        print(f"  {stage:<10} {stages[stage]:8.4f} s")
    print(f"{'workers':>8}{'seconds':>10}{'speedup':>9}  identical")
    table = [(1, base_wall, 1.0, True)]
    print(f"{1:>8}{base_wall:>10.3f}{1.0:>9.2f}  yes")
    for w in args.workers_list:
        if w == 1:
            continue
        t0 = time.perf_counter()
        fs = r_rapid(cloud, config.sensor, config.rapid, workers=w)
        wall = time.perf_counter() - t0
        same = fs.values.tobytes() == base_bytes
        table.append((w, wall, base_wall / wall, same))
        print(f"{w:>8}{wall:>10.3f}{base_wall / wall:>9.2f}  {'yes' if same else 'NO'}")
        if not same:
            print("worker outputs diverge from the single-worker run", file=sys.stderr)
            return EXIT_INVARIANT
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["workers", "seconds", "speedup", "identical"])
            for w, wall, speedup, same in table:
                writer.writerow([w, f"{wall:.4f}", f"{speedup:.3f}", same])
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
    common(p, "--workers", "--seed")
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
        "--identity", action="store_true", help="use the identity transform"
    )
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

    p = sub.add_parser("bench", help="stage timings and worker scaling")
    common(p)
    p.add_argument("--scan", default=None)
    p.add_argument(
        "--workers-list",
        dest="workers_list",
        type=_worker_counts,
        default="1,2,4,8",
        help="comma-separated worker counts",
    )
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_bench)

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
    # MemoryError: a scene too large; BrokenProcessPool: a pool worker died
    except (RapidError, OSError, MemoryError, BrokenProcessPool) as exc:
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
