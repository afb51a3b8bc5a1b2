"""Workload set-up, the timed loop, output checks and metric assembly."""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import checks
import scans
from checks import Sensor
from spans import Tracer, self_times

from rapidfeat import EmbeddingDims, WeightSet, seeded_latents
import rapidfeat.cli
import rapidfeat.geometry
from rapidfeat import embed, fusion, metrics, scene_io

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LAYERS = json.loads((BENCH / "layers.json").read_text())["metrics"]

KITTI = Sensor(beams=64, fov_deg=(-24.8, 2.0), per_beam=1875, ks=(10, 7, 5))
NUSC = Sensor(beams=32, fov_deg=scans.NUSC_FOV_DEG, per_beam=1085, ks=(8, 6, 3))

VOXEL_SIZE = 0.2
CONTRASTIVE_POINTS = 4096
NUM_CLASSES = 20
IGNORE = (0,)
SETUP_REPEATS = 3
MIN_SCANS = 3


def _knn_counts(args, kwargs, result) -> dict:
    """Tree or brute path and widening rounds of one nearest_candidate_rows
    call, inferred from its region size and returned row width."""
    x, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
    u, width = len(x), int(result[0].shape[1])
    brute = u <= rapidfeat.geometry.BRUTE_FORCE_CUTOFF or n >= u - 1
    rounds, m = 0, min(u, n + 4)
    while not brute and m < width:
        m, rounds = min(u, 2 * m), rounds + 1
    return {"rows": u, "depth": int(n), "width": width, "brute": brute, "rounds": rounds}


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": Path(args[0]).stat().st_size}


def _rapid_rows(args, kwargs, result) -> dict:
    return {"rows": int(result.u)}


# (module, public name the module imported, span name, counts)
BINDINGS = [
    ("rapidfeat.cli", "r_rapid", "partition", None),
    ("rapidfeat.cli", "c_rapid", "partition", None),
    ("rapidfeat.partition", "rapid", "rapid", _rapid_rows),
    ("rapidfeat.rapid", "nearest_candidate_rows", "geometry", _knn_counts),
    ("rapidfeat.embed", "vsa_encode", "embed.encode", None),
    ("rapidfeat.embed", "inner_bottleneck", "embed.bottleneck", None),
    ("rapidfeat.embed", "vsa_decode", "embed.decode", None),
    ("rapidfeat.scene_io", "load_kitti_scan", "scene_io.load", _file_bytes),
    ("rapidfeat.scene_io", "load_kitti_labels", "scene_io.load", _file_bytes),
    ("rapidfeat.scene_io", "load_feature_file", "scene_io.load", _file_bytes),
    ("rapidfeat.scene_io", "save_feature_file", "scene_io.save", _file_bytes),
]

SELF_METRIC = {
    "scan": "bench.self_s",
    "cli": "cli.self_s",
    "partition": "partition.self_s",
    "rapid": "rapid.self_s",
    "geometry": "geometry.knn_s",
    "scene_io.load": "scene_io.load_s",
    "scene_io.save": "scene_io.save_s",
    "embed.voxelize": "embed.voxelize_s",
    "embed.encode": "embed.encode_s",
    "embed.bottleneck": "embed.bottleneck_s",
    "embed.decode": "embed.decode_s",
    "embed.forward": "embed.forward_self_s",
    "embed.recon_loss": "embed.recon_loss_s",
    "embed.contrastive": "embed.contrastive_s",
    "fusion": "fusion.s",
    "metrics": "metrics.eval_s",
}


def _cli(argv: list[str], tracer: Tracer) -> int:
    """rapidfeat.cli.main with its table printing kept off the terminal."""
    with contextlib.redirect_stdout(io.StringIO()):
        with tracer.span("cli"):
            return rapidfeat.cli.main(argv)


def _write_config(path: Path, sensor: Sensor, workers: int) -> Path:
    doc = {
        "sensor": {
            "beam_count": sensor.beams,
            "vertical_fov_deg": list(sensor.fov_deg),
            "measurements_per_cycle": sensor.per_beam,
        },
        "rapid": dict(zip(("k_close", "k_mid", "k_far"), sensor.ks)),
        "workers": workers,
    }
    path.write_text(json.dumps(doc))
    return path


def _extract_argv(config: Path, scan: Path, labels: Path, out: Path, class_out: Path):
    return [
        "extract", "--config", str(config), "--scan", str(scan), "--labels", str(labels),
        "--out", str(out), "--class-out", str(class_out),
    ]


def _write_scan(inputs: Path, stem: str, cloud, labels) -> tuple[Path, Path]:
    scan, label = inputs / f"{stem}.bin", inputs / f"{stem}.label"
    scene_io.save_kitti_scan(cloud, scan)
    scene_io.save_kitti_labels(labels, label)
    return scan, label


def _kitti_scan(seed: int):
    return scans.kitti_style_scan(seed, beams=KITTI.beams, per_beam=KITTI.per_beam)


class Extract:
    """``rapidfeat extract`` with R- and C-RAPiD outputs on a pool of scans."""

    def __init__(self, sensor, generator, small_classes, workers, pool):
        self.sensor, self.generator = sensor, generator
        self.small_classes, self.workers, self.pool = small_classes, workers, pool
        self.reference: list[tuple[str, str]] | None = None
        self.seen: dict[int, tuple[str, str]] = {}
        self.digests: list[dict] = []

    def setup(self, inputs: Path, seed: int, tracer: Tracer) -> None:
        self.items, self.points = [], []
        self.config = _write_config(inputs / "config.json", self.sensor, self.workers)
        for i in range(self.pool):
            cloud = self.generator(seed * 16 + i)
            labels = scans.geometric_labels(cloud.points, seed * 16 + i, self.small_classes)
            scan, label = _write_scan(inputs, f"scan{i}", cloud, labels)
            outs = (inputs / f"scan{i}.r.rapd", inputs / f"scan{i}.c.rapd")
            self.items.append((scan, label, *outs))
            self.points.append(len(cloud))
        warm = cloud.take(np.arange(0, len(cloud), 40))
        scan, label = _write_scan(inputs, "warm", warm, labels[::40])
        argv = _extract_argv(self.config, scan, label, inputs / "warm.r", inputs / "warm.c")
        if _cli(argv, tracer) != 0:
            raise RuntimeError("warm-up extract failed")

    def after_setup(self, inputs: Path, tracer: Tracer, trace: bool) -> dict:
        """Regions for the checks and, with workers > 1, the workers=1
        reference outputs (traced when tracing)."""
        self.regions = [
            checks.scan_regions(checks.read_scan(s)[:, :3], checks.read_labels(lab), self.sensor)
            for s, lab, _, _ in self.items
        ]
        if self.workers == 1:
            return {}
        config = _write_config(inputs / "config-w1.json", self.sensor, 1)
        self.reference = []
        t0 = time.perf_counter()
        for i, (scan, label, _, _) in enumerate(self.items):
            ref = (inputs / f"ref{i}.r.rapd", inputs / f"ref{i}.c.rapd")
            cm = tracer.traced(BINDINGS, f"ref{i}") if trace else contextlib.nullcontext()
            with cm:
                rc = _cli(_extract_argv(config, scan, label, *ref), tracer)
            if rc != 0:
                raise RuntimeError(f"workers=1 reference extract exited {rc}")
            self.reference.append(tuple(checks.sha256_file(p) for p in ref))
        return {"reference_s": time.perf_counter() - t0}

    def scan(self, i: int, tracer: Tracer):
        scan, label, out, class_out = self.items[i]
        return _cli(_extract_argv(self.config, scan, label, out, class_out), tracer)

    def check(self, i: int, rc) -> list[str]:
        if rc != 0:
            return [f"rapidfeat extract exited {rc}"]
        _, _, out, class_out = self.items[i]
        problems, inv_r = checks.check_feature_file(out, "ring", self.regions[i], self.sensor)
        more, inv_c = checks.check_feature_file(class_out, "class", self.regions[i], self.sensor)
        problems += more
        digest = (checks.sha256_file(out), checks.sha256_file(class_out))
        self.digests.append(
            {"item": i, "r_rapid": digest[0], "c_rapid": digest[1], "f32_lex_inversions": inv_r + inv_c}
        )
        if self.reference is not None and digest != self.reference[i]:
            problems.append(f"outputs differ from the workers=1 reference of item {i}")
        if self.seen.setdefault(i, digest) != digest:
            problems.append(f"outputs of item {i} changed between repeats")
        return problems

    def layer_counts(self) -> list[dict]:
        """Per item: counts read from the outputs and the exact-4D oracle
        count."""
        out = []
        for scan, _, r, c in self.items:
            counts = checks.output_counts([r, c])
            out.append(
                {
                    "partition.regions": counts["regions"],
                    "partition.padded_points": counts["padded"],
                    "rapid.oracle_4d_mismatch_rows": checks.oracle_4d_mismatch_rows(scan, [r, c]),
                }
            )
        return out


class Embed:
    """Embed/fuse/eval step on the .rapd features set-up writes."""

    pool = 1

    def __init__(self):
        self.seen: str | None = None
        self.digests: list[dict] = []

    def setup(self, inputs: Path, seed: int, tracer: Tracer) -> None:
        cloud = _kitti_scan(seed * 16)
        labels = scans.geometric_labels(cloud.points, seed * 16, 8)
        scan, label = _write_scan(inputs, "scan0", cloud, labels)
        feats = (inputs / "scan0.r.rapd", inputs / "scan0.c.rapd")
        config = _write_config(inputs / "config.json", KITTI, 1)
        if _cli(_extract_argv(config, scan, label, *feats), tracer) != 0:
            raise RuntimeError("extract of the embedding inputs failed")
        self.items = [(scan, label, *feats)]
        self.points = [len(cloud)]

        rng = np.random.default_rng([seed, 0xE3B])
        width = max(KITTI.ks)
        self.dims = EmbeddingDims(latents=4, width=width, reduced=width // 2, stages=2)
        self.params = [
            (WeightSet.seeded(self.dims, rng, in_width=width), seeded_latents(self.dims, rng))
            for _ in feats
        ]
        self.sub = np.sort(rng.choice(len(cloud), CONTRASTIVE_POINTS, replace=False))
        channels = len(feats) * width
        self.gate = fusion.gate_weights(channels, 4, rng)
        self.head = rng.normal(0.0, 1.0, size=(self.dims.latents * channels, NUM_CLASSES))

        small = cloud.take(np.arange(0, len(cloud), 40))
        groups = embed.voxelize(small, VOXEL_SIZE)
        weights, latents = self.params[0]
        embed.autoencoder_forward(np.full((len(small), width), 0.5), latents, weights, groups)

    def after_setup(self, inputs: Path, tracer: Tracer, trace: bool) -> dict:
        return {}

    def scan(self, i: int, tracer: Tracer) -> dict:
        scan, label, *feat_paths = self.items[i]
        cloud = scene_io.load_kitti_labels(label, scene_io.load_kitti_scan(scan))
        feats = [scene_io.load_feature_file(p).pointwise.values for p in feat_paths]
        with tracer.span("embed.voxelize", {}) as attrs:
            groups = embed.voxelize(cloud, VOXEL_SIZE)
            attrs["voxels"] = groups.num_voxels
        forwards, recon = [], []
        for f, (weights, latents) in zip(feats, self.params):
            with tracer.span("embed.forward"):
                fwd = embed.autoencoder_forward(f, latents, weights, groups)
            with tracer.span("embed.recon_loss"):
                recon.append(embed.reconstruction_loss(f, fwd.reconstructed))
            forwards.append(fwd)
        emb = np.hstack([fwd.reconstructed[self.sub] for fwd in forwards])
        with tracer.span("embed.contrastive"):
            contr = embed.contrastive_loss(emb, cloud.points[self.sub], cloud.label[self.sub])
        with tracer.span("fusion", {}) as attrs:
            cat = fusion.concat_embeddings([fwd.voxelwise for fwd in forwards])
            gate = fusion.excite(fusion.squeeze(cat), *self.gate)
            fused = fusion.fuse(cat, gate)
            attrs["channels"] = int(cat.shape[2])
        pred = np.argmax(fused.reshape(len(fused), -1) @ self.head, axis=1)[groups.point_voxel]
        with tracer.span("metrics"):
            cm = metrics.ConfusionMatrix.empty(NUM_CLASSES, IGNORE)
            metrics.accumulate(cm, cloud.label, pred)
            ious = [metrics.iou(cm, c) for c in range(NUM_CLASSES) if c not in cm.ignore]
            mean_iou = metrics.miou(cm)
        return {
            "recon": recon, "contrastive": contr, "miou": mean_iou, "ious": ious,
            "fused": fused, "pred": pred, "voxels": groups.num_voxels,
        }

    def check(self, i: int, out: dict) -> list[str]:
        problems = []
        losses = [*out["recon"], out["contrastive"]]
        if not all(np.isfinite(losses)):
            problems.append(f"non-finite loss in {losses}")
        if not np.isfinite(out["miou"]):
            problems.append(f"non-finite mIoU {out['miou']}")
        digest = hashlib.sha256(out["fused"].tobytes())
        digest.update(out["pred"].astype("<i8").tobytes())
        digest.update(np.asarray(losses + [out["miou"]], dtype="<f8").tobytes())
        self.digests.append(
            {"item": i, "output": digest.hexdigest(), "losses": losses, "miou": out["miou"]}
        )
        if self.seen is None:
            self.seen = digest.hexdigest()
        elif self.seen != digest.hexdigest():
            problems.append("embedding outputs changed between repeats")
        return problems



def _make(name: str):
    if name == "kitti120k-extract":
        return Extract(KITTI, _kitti_scan, small_classes=8, workers=1, pool=2)
    if name == "nusc32-extract-w2":
        return Extract(NUSC, scans.nusc_style_sweep, small_classes=14, workers=2, pool=4)
    return Embed()


def _conftest_self_check() -> dict:
    """The benchmark's KITTI-style scan against the test suite's generator,
    seed 77, 120,000 points."""
    path = ROOT / "tests" / "conftest.py"
    if not path.is_file():
        return {"status": "skipped", "reason": "no tests/conftest.py"}
    spec = importlib.util.spec_from_file_location("_bench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ImportError as exc:
        return {"status": "skipped", "reason": f"conftest import failed: {exc}"}
    reference = getattr(module, "kitti_style_scan", None)
    if reference is None:
        return {"status": "skipped", "reason": "conftest has no kitti_style_scan"}
    a, b = _kitti_scan(77), reference(77, beams=KITTI.beams, per_beam=KITTI.per_beam)
    same = all(
        np.asarray(getattr(a, f)).tobytes() == np.asarray(getattr(b, f)).tobytes()
        for f in ("points", "remission", "ring")
    )
    return {"status": "equal" if same else "differs"}


def _peak_rss_mb() -> float:
    """Largest peak resident set of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _layer_metrics(
    tracer: Tracer, traced: list[str], items: list[int], workload, overhead: float
) -> tuple[dict, list[str]]:
    """Per-layer metrics as means per traced scan, and problems with the span
    tree (self times that do not add up to the root span)."""
    problems = []
    spans = [s for s in tracer.spans if s["scan"] in traced]
    own = self_times(spans)
    values = {m["name"]: 0.0 for m in LAYERS}
    for scan in traced:
        mine = [s for s in spans if s["scan"] == scan and s["pid"] == tracer.main_pid]
        root = [s for s in mine if s["name"] == "scan"]
        total = sum(own[s["id"]] for s in mine)
        if len(root) != 1 or abs(total - (root[0]["end"] - root[0]["start"])) > 1e-6:
            problems.append(f"{scan}: layer self times do not sum to the root span")
    for s in spans:
        values[SELF_METRIC[s["name"]]] += own[s["id"]]
        a = s["attrs"]
        if s["name"] == "rapid":
            values["rapid.calls"] += 1
            values["rapid.rows"] += a["rows"]
        elif s["name"] == "geometry":
            values["geometry.brute_calls" if a["brute"] else "geometry.tree_calls"] += 1
            values["geometry.widen_rounds"] += a["rounds"]
        elif s["name"].startswith("scene_io."):
            kind = "read" if s["name"] == "scene_io.load" else "written"
            values[f"scene_io.bytes_{kind}"] += a["bytes"]
        elif s["name"] == "embed.voxelize":
            values["embed.voxels"] += a["voxels"]
            values["embed.conv_searches"] += 2 * 27 * a["voxels"]
        elif s["name"] == "fusion":
            values["fusion.channels"] += a["channels"]
    values = {k: v / len(traced) for k, v in values.items()}
    knn = [s["attrs"] for s in spans if s["name"] == "geometry"]
    if knn:
        values["geometry.useful_ratio"] = sum(a["depth"] * a["rows"] for a in knn) / sum(
            a["width"] * a["rows"] for a in knn
        )
    if isinstance(workload, Extract):
        values["partition.parallel_eff"] = _parallel_eff(tracer, traced, workload)
        per_item = workload.layer_counts()
        for key in per_item[0]:
            values[key] = statistics.mean(per_item[i][key] for i in items)
    values["trace.overhead_s"] = overhead
    return values, problems


def _parallel_eff(tracer: Tracer, traced: list[str], workload: Extract) -> float:
    """r+c seconds at workers=1 over workers x the r+c seconds at the
    workload's worker count; 1 when the workload runs at workers=1."""
    if workload.workers == 1:
        return 1.0

    def partition_s(scan_ids) -> float:
        spans = [
            s for s in tracer.spans
            if s["scan"] in scan_ids and s["name"] == "partition" and s["pid"] == tracer.main_pid
        ]
        return sum(s["end"] - s["start"] for s in spans) / len(scan_ids)

    refs = [f"ref{i}" for i in range(workload.pool)]
    return partition_s(refs) / (workload.workers * partition_s(traced))


def run(name: str, seed: int, seconds: float, trace: bool, inputs: Path) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, run record)."""
    workload = _make(name)
    tracer = Tracer(inputs)
    run_problems: list[str] = []
    record: dict = {}
    if name.startswith("kitti"):
        record["generator_self_check"] = _conftest_self_check()
        if record["generator_self_check"]["status"] == "differs":
            run_problems.append("KITTI-style generator differs from tests/conftest.py")

    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(inputs, seed, tracer)
        setup_times.append(time.perf_counter() - t0)
    record["setup_times_s"] = setup_times
    record.update(workload.after_setup(inputs, tracer, trace))

    plain, traced_s, traced_ids, traced_items, points, failures = [], [], [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        enough = len(plain) >= MIN_SCANS and (not trace or len(traced_s) >= MIN_SCANS)
        if enough and time.perf_counter() - start >= seconds:
            break
        # Traced runs alternate untraced and traced scans of the same item.
        i = (attempted // 2 if trace else attempted) % workload.pool
        scan_id = f"scan{attempted}"
        on = trace and attempted % 2 == 1
        cm = tracer.traced(BINDINGS, scan_id) if on else contextlib.nullcontext()
        with cm:
            with tracer.span("scan"):
                t0 = time.perf_counter()
                out = workload.scan(i, tracer)
                dt = time.perf_counter() - t0
        if on:
            tracer.collect_spills()
            traced_s.append(dt)
            traced_ids.append(scan_id)
            traced_items.append(i)
        else:
            plain.append(dt)
            points.append(workload.points[i])
        attempted += 1
        problems = workload.check(i, out)
        if problems:
            failures.append({"scan": scan_id, "item": i, "problems": problems})

    record.update(
        scan_times_s=plain, traced_scan_times_s=traced_s, failures=failures,
        output_digests=workload.digests, failed_frac=len(failures) / attempted,
    )
    if trace:
        overhead = statistics.median(traced_s) - statistics.median(plain)
        values, problems = _layer_metrics(tracer, traced_ids, traced_items, workload, overhead)
        run_problems += problems
        record["spans"] = tracer.spans
        record["unbound_names"] = tracer.unbound
        units = {m["name"]: m["unit"] for m in LAYERS}
        out_metrics = {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}
    else:
        out_metrics = {
            "scan_s": {"value": statistics.median(plain), "unit": "s"},
            "points_per_s": {"value": sum(points) / sum(plain), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
            "ok_frac": {"value": 1.0 - len(failures) / attempted, "unit": "frac"},
        }
    record["run_problems"] = run_problems
    result = {
        "correct": not failures and not run_problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": out_metrics,
    }
    return result, record
