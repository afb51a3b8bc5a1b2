"""In-memory spans recorded at the library's layer boundaries.

A traced scan rebinds the public names that each calling module imported
(``rapidfeat.cli.r_rapid``, ``rapidfeat.partition.rapid``, ...) to wrappers
that record a span around the call, and restores the originals afterwards.
The library itself is not changed.

Pool workers forked inside a traced call inherit the wrappers and the span
stack, so their spans keep the dispatching span as parent. A worker cannot
hand its in-memory list back, so it appends each finished span to a JSON
lines file named after its pid; ``collect_spills`` reads those files into the
parent's list after the scan.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from pathlib import Path
from typing import Callable, Optional


class Tracer:
    """Spans as dicts: id, parent, name, start, end, scan, pid, attrs."""

    def __init__(self, spill_dir: Path) -> None:
        self.spans: list[dict] = []
        self.enabled = False
        self.scan: Optional[str] = None
        self.spill_dir = spill_dir
        self.main_pid = os.getpid()
        self._stack: list[str] = []
        self._count = 0
        self._saved: list[tuple[object, str, object]] = []
        self.unbound: list[str] = []

    def _finish(self, record: dict) -> None:
        if os.getpid() == self.main_pid:
            self.spans.append(record)
            return
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    @contextlib.contextmanager
    def span(self, name: str, attrs: Optional[dict] = None):
        """Record one span; a no-op while tracing is off. ``attrs`` may be
        filled in by the body before the span ends."""
        if not self.enabled:
            yield attrs
            return
        self._count += 1
        span_id = f"{os.getpid()}:{self._count}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._finish(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "scan": self.scan,
                    "pid": os.getpid(),
                    "attrs": attrs or {},
                }
            )

    def wrap(
        self, name: str, fn: Callable, counts: Optional[Callable] = None
    ) -> Callable:
        """Wrapper recording a span named ``name`` around ``fn``; ``counts``
        maps (args, kwargs, result) to span attributes."""

        def traced(*args, **kwargs):
            attrs: dict = {}
            with self.span(name, attrs):
                result = fn(*args, **kwargs)
                if counts is not None:
                    attrs.update(counts(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, bindings: list[tuple[str, str, str, Optional[Callable]]]) -> None:
        """Rebind ``module.attr`` for each (module, attr, span name, counts).
        Names a module no longer has are listed in ``unbound``."""
        for module_name, attr, name, counts in bindings:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                if f"{module_name}.{attr}" not in self.unbound:
                    self.unbound.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, counts))
        self.enabled = True

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self.enabled = False

    @contextlib.contextmanager
    def traced(self, bindings, scan: str):
        """Tracing on, with the bindings installed, for one scan."""
        self.scan = scan
        self.install(bindings)
        try:
            yield
        finally:
            self.restore()
            self.scan = None

    def collect_spills(self) -> None:
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(json.loads(line) for line in fh)
            path.unlink()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self seconds per span id: duration minus the part of it covered by
    direct children recorded in the same process."""
    children: dict[str, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        kids = [c for c in children.get(s["id"], []) if c["pid"] == s["pid"]]
        for c in sorted(kids, key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
