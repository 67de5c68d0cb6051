"""Benchmark-side span tracer for the staged replay.

The referee benchmark adds no instrumentation inside ``src/``: a traced
run re-executes a statement as a sequence of calls into each layer's
public functions and wraps *those calls* in spans recorded here.  A span
is ``(id, name, layer, parent, iteration, start, end, attrs)``; spans
live in memory and are dumped as JSON when the run ends.

A layer's **self time** is its spans' duration minus the part their
direct children cover, so nested spans never double count.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class Tracer:
    """Records nested spans on one thread (the benchmark's driver thread)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.iteration: int | None = None

    @contextmanager
    def span(self, name: str, layer: str, **attrs) -> Iterator[dict]:
        """Time the enclosed block as one span attributed to ``layer``."""
        record = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "iteration": self.iteration,
            "start": 0.0,
            "end": 0.0,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def self_seconds(self) -> dict[int, float]:
        """Self time per span id: duration minus direct children."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def by_iteration(self, key: str = "layer") -> dict[int, dict[str, float]]:
        """``{iteration: {layer-or-name: self seconds}}`` over all spans."""
        own = self.self_seconds()
        out: dict[int, dict[str, float]] = {}
        for s in self.spans:
            bucket = out.setdefault(s["iteration"], {})
            bucket[s[key]] = bucket.get(s[key], 0.0) + own[s["id"]]
        return out

    def roots(self, name: str) -> list[dict]:
        """Top-level spans called ``name`` (one per replay iteration)."""
        return [s for s in self.spans if s["parent"] is None and s["name"] == name]

    def dump(self, path: Path) -> None:
        """Write every span to ``path`` (times relative to the first span)."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        spans = [
            {**s, "start": s["start"] - origin, "end": s["end"] - origin}
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": spans}, indent=1) + "\n")
