"""The benchmark's trace hooks resolve against the library.

perfbench traces a layer by rebinding a name a module imported; a name the
module no longer has is skipped and reported as unbound, so a refactor that
renames or removes one silently drops that layer from every traced run.
"""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_is_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its siblings by name
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    unbound = [
        f"{module}.{attr}"
        for module, attr, _, _ in workloads.BINDINGS
        if getattr(importlib.import_module(module), attr, None) is None
    ]
    assert workloads.BINDINGS and unbound == []
