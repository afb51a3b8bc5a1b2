"""The benchmark's trace hooks resolve against the library.

perfbench traces a layer by rebinding a name a module imported; a name the
module no longer has is skipped and reported as unbound, so a refactor that
renames or removes one silently drops that layer from every traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads(monkeypatch):
    """perfbench's workloads module; importing it also imports checks, which
    imports the library names it recomputes outputs with."""
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its siblings by name
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_every_traced_name_is_bound(monkeypatch):
    workloads = load_workloads(monkeypatch)
    unbound = [
        f"{module}.{attr}"
        for module, attr, _, _ in workloads.BINDINGS
        if getattr(importlib.import_module(module), attr, None) is None
    ]
    assert workloads.BINDINGS and unbound == []


def test_knn_counts_read_a_real_call(monkeypatch):
    # The counts of a traced KNN call read library names outside BINDINGS
    # (geometry.BRUTE_FORCE_CUTOFF); a traced run would fail on a missing one.
    from rapidfeat.geometry import nearest_candidate_rows

    workloads = load_workloads(monkeypatch)
    rng = np.random.default_rng(0)
    for u, brute in ((40, True), (300, False)):
        x = rng.normal(size=(u, 4))
        counts = workloads._knn_counts((x, 5), {}, nearest_candidate_rows(x, 5))
        assert counts["rows"] == u and counts["depth"] == 5 and counts["width"] == 7
        assert counts["brute"] is brute


def test_forward_reaches_each_traced_stage_once(monkeypatch):
    # perfbench times the three stages by rebinding these module names; a
    # forward that bypassed one would read 0 seconds for that layer.
    from rapidfeat import EmbeddingDims, WeightSet, autoencoder_forward, embed, seeded_latents

    calls = {}
    for name in ("vsa_encode", "inner_bottleneck", "vsa_decode"):
        def counted(*args, _name=name, _inner=getattr(embed, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(embed, name, counted)
    rng = np.random.default_rng(0)
    dims = EmbeddingDims(latents=2, width=4, reduced=2, stages=1)
    points = rng.uniform(-1.0, 1.0, size=(30, 3))
    autoencoder_forward(
        rng.normal(size=(30, 4)),
        seeded_latents(dims, rng),
        WeightSet.seeded(dims, rng),
        embed.voxelize(points, 0.5),
    )
    assert calls == {"vsa_encode": 1, "inner_bottleneck": 1, "vsa_decode": 1}
