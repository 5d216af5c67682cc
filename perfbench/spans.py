"""In-process span tracing of labelgrid's public functions.

The tracer replaces module and class attributes of an imported labelgrid
with wrappers that record one span (name, start, end, parent) per call,
plus counters taken from the call's arguments and result. Nothing in the
program is edited; :meth:`Tracer.patched` restores every attribute on
exit. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        span = Span(index, name, 0.0, 0.0, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable[[Counter, tuple, dict, object], None]] = None,
             prepare: Optional[Callable[["Tracer", dict], None]] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``observe`` adds counts per call,
        ``prepare`` may swap keyword arguments (such as callbacks) first."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                prepare(self, kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self, labelgrid_modules: dict):
        """Wrap every traced attribute of the given labelgrid modules."""
        saved = []
        try:
            for owner, attr, name, observe, prepare in _targets(labelgrid_modules):
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, observe, prepare))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # --- derived numbers ------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration
        return out

    def self_totals(self) -> dict[str, float]:
        """Summed self time per span name: duration minus direct children."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration - child_time[s.id]
        return out

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]


# --- what is traced ---------------------------------------------------------

def _frame_bytes(counts, args, kwargs, result) -> None:
    record, base_dir = args[0], Path(args[1])
    for key in ("depth_file", "proba_file", "logits_file"):
        if key in record:
            counts["fileio.frame_bytes_read"] += os.path.getsize(base_dir / record[key])


def _registered(counts, args, kwargs, result) -> None:
    frame = args[0]
    counts["registration.pixels_in"] += frame.depth.size - result.pixels_skipped_depth
    counts["registration.voxels_out"] += len(result.measurements)


def _snapshot_written(counts, args, kwargs, result) -> None:
    counts["fileio.snapshot_bytes"] += os.path.getsize(args[0])


def _trace_on_frame(tracer: Tracer, kwargs: dict) -> None:
    """Record the per-frame callback of fuse_stream as its own span, so
    grid-update self time excludes per-frame snapshot writes."""
    on_frame = kwargs.get("on_frame")
    if on_frame is not None:
        kwargs["on_frame"] = tracer.wrap("fusion.on_frame", on_frame)


def _targets(m: dict):
    """(owner, attribute, span name, observe, prepare) for each traced call.

    Attributes are patched where the caller looks them up: ``cli`` and
    ``fusion`` import some functions by name, the rest call through the
    ``fileio`` and ``simulator`` modules.
    """
    grid_cls = m["grid"].LabelOccupancyGrid
    return [
        (m["fileio"], "load_frame", "fileio.load_frame", _frame_bytes, None),
        (m["fileio"], "save_grid", "fileio.save_grid", _snapshot_written, None),
        (m["fileio"], "load_grid", "fileio.load_grid", None, None),
        (m["fileio"], "write_probimg", "fileio.write_probimg", None, None),
        (m["fileio"], "write_depth_pgm", "fileio.write_depth_pgm", None, None),
        (m["fusion"], "register_frame", "registration.register_frame", _registered, None),
        (m["cli"], "fuse_stream", "fusion.fuse_stream", None, _trace_on_frame),
        (m["cli"], "iou_3d", "metrics.iou_3d", None, None),
        (grid_cls, "segment", "grid.segment", None, None),
        (grid_cls, "centroid", "grid.centroid", None, None),
        (m["simulator"], "render_scene", "simulator.render_scene", None, None),
        (m["simulator"], "render_proba", "simulator.render_proba", None, None),
    ]
