"""Layered benchmark of the rapidfeat feature path.

Run from the repository root:

    python3 perfbench/run.py --workload kitti120k-extract --seed 1 --seconds 20 --trace 0

Workloads (why each was chosen is in BENCHMARK.json):

* kitti120k-extract  ``rapidfeat extract`` on labelled 64-beam 120,000-point
  scans, workers=1, k=(10, 7, 5).
* nusc32-extract-w2  the same command on labelled 32-beam 34,720-point sweeps
  with 16 classes, workers=2, k=(8, 6, 3); outputs must be byte-identical to
  a workers=1 run made in set-up.
* kitti120k-embed    one training-style forward step per scan: read the R-
  and C-RAPiD .rapd files set-up wrote, voxelize at 0.2 m, autoencoder
  forward and reconstruction loss per feature set, contrastive loss on a
  seeded 4,096-point subsample, channel-attention fusion, and IoU/mIoU of a
  seeded linear head's argmax labels.

The library is driven only through its public functions and the inputs are
generated from --seed. Every scan's outputs are checked; a scan that fails a
check counts in ``failed``. --trace 0 prints the end-to-end metrics; --trace 1
alternates untraced and traced scans and prints the per-layer metrics listed
in layers.json. The last stdout line is the result JSON; the full run record
(versions, per-scan times, output sha256s, spans) goes to
.perfbench-out/<workload>-seed<seed>-trace<t>-<pid>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("kitti120k-extract", "nusc32-extract-w2", "kitti120k-embed")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pin_blas_threads() -> int:
    """One BLAS thread, set before numpy is imported. Threaded BLAS on a
    small shared machine doubled the run-to-run spread of kitti120k-embed,
    and nusc32-extract-w2 already runs one process per CPU."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return 1


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "rapidfeat" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = _nproc()
    blas_threads = _pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    import workloads  # imports numpy: after the BLAS pin

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        result, record = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), inputs
        )
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    import numpy
    import scipy

    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        nproc=nproc,
        blas_threads=blas_threads,
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        git_commit=_git_commit(),
        src_sha256=_src_sha256(),
        result=result,
    )
    spans = record.pop("spans", None)
    if spans is not None:
        (work / "spans.json").write_text(json.dumps(spans))
    (work / "record.json").write_text(json.dumps(record, indent=1, default=str))
    print(f"run record: {work / 'record.json'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
