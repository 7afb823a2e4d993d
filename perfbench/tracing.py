"""Span recording for the traced benchmark run.

The program itself carries no instrumentation: :func:`instrument` wraps
the public functions and methods of each layer from the outside, for the
duration of one traced run, and :meth:`Tracer.restore` puts the originals
back.

Two kinds of wrapper:

* a **span** records ``(id, name, start, end, parent, ident, self, rows)``
  for every call.  ``ident`` is shared by every span of one simulated
  trace or one stream lane; ``self`` is the span's duration minus the
  time its child spans cover.  Spans live in memory and are written out
  once, when the run ends (:meth:`Tracer.dump`);
* a **leaf** wraps calls made millions of times per trace (mobility,
  neighbour queries, medium sends).  A record per call would cost more
  memory than the trace itself, so leaf calls fold into one aggregate
  ``(calls, total, self)`` per leaf name and enclosing span.

Calls nest on one thread, so a stack of open frames gives exact self
times: a frame accumulates its children's durations and hands its own
duration to its parent when it closes.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter


class _Frame:
    __slots__ = ("sid", "child")

    def __init__(self, sid: int):
        self.sid = sid
        self.child = 0.0


class Tracer:
    """In-memory span store with an open-frame stack."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.leaves: dict[tuple[str, int], list] = {}
        self.ident = ""
        self._stack: list[_Frame] = []
        self._restore: list = []
        self._last_id = 0

    # -- recording -----------------------------------------------------
    def _open(self) -> _Frame:
        self._last_id += 1
        frame = _Frame(self._last_id)
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame, name: str, start: float, end: float,
               ident: str, rows: int) -> None:
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += duration
        self.spans.append((
            frame.sid, name, start, end, parent.sid if parent else 0,
            ident, duration - frame.child, rows,
        ))

    @contextmanager
    def region(self, name: str, ident: str | None = None):
        """A span around a block of benchmark code (a round, a lane)."""
        previous = self.ident
        if ident is not None:
            self.ident = ident
        frame = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(frame, name, start, perf_counter(), self.ident, 0)
            self.ident = previous

    def span(self, name: str, fn, ident_of=None, rows_of=None):
        """Wrap ``fn`` so every call records one span."""
        tracer = self

        def wrapper(*args, **kwargs):
            previous = tracer.ident
            if ident_of is not None:
                tracer.ident = ident_of(*args, **kwargs)
            frame = tracer._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rows = rows_of(*args, **kwargs) if rows_of is not None else 0
                tracer._close(frame, name, start, end, tracer.ident, rows)
                tracer.ident = previous

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name: str, fn):
        """Wrap a hot leaf ``fn``; calls aggregate per enclosing span."""
        stack = self._stack
        leaves = self.leaves

        def wrapper(*args, **kwargs):
            frame = _Frame(0)
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                owner = 0
                if stack:
                    stack[-1].child += duration
                    # The nearest enclosing *recorded* span owns the call.
                    for open_frame in reversed(stack):
                        if open_frame.sid:
                            owner = open_frame.sid
                            break
                agg = leaves.get((name, owner))
                if agg is None:
                    agg = leaves[(name, owner)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame.child

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------
    def patch_method(self, cls, attr: str, wrapper) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def patch_function(self, fn, wrapper) -> None:
        """Rebind ``fn`` in every loaded module that imported it by name."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._restore.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- queries -------------------------------------------------------
    def by_name(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[1] == name]

    def names(self) -> dict[int, str]:
        return {s[0]: s[1] for s in self.spans}

    def leaf_totals(self, name: str) -> tuple[int, float, float]:
        calls = total = self_s = 0.0
        for (leaf, _owner), (n, t, s) in self.leaves.items():
            if leaf == name:
                calls += n
                total += t
                self_s += s
        return int(calls), total, self_s

    def ledger(self) -> list[tuple[str, int, float, float]]:
        """``(name, calls, total_s, self_s)`` per span and leaf name."""
        rows: dict[str, list] = {}
        for s in self.spans:
            row = rows.setdefault(s[1], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s[3] - s[2]
            row[2] += s[6]
        for (leaf, _owner), (n, t, self_s) in self.leaves.items():
            row = rows.setdefault(leaf, [0, 0.0, 0.0])
            row[0] += n
            row[1] += t
            row[2] += self_s
        return sorted(
            ((name, n, t, s) for name, (n, t, s) in rows.items()),
            key=lambda r: -r[3],
        )

    def dump(self, path) -> None:
        """Write every span and leaf aggregate as JSON lines."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, ident, self_s, rows in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "ident": ident, "self": self_s,
                    "rows": rows,
                }) + "\n")
            for (name, owner), (n, total, self_s) in sorted(self.leaves.items()):
                fh.write(json.dumps({
                    "leaf": name, "parent": owner, "calls": n,
                    "total": total, "self": self_s,
                }) + "\n")


class NullTracer:
    """The untraced run's stand-in: regions cost nothing."""

    ident = ""

    @contextmanager
    def region(self, name: str, ident: str | None = None):
        yield


def _trace_ident(config, attacks=(), taps=()) -> str:
    kind = "attacked" if attacks else "normal"
    return f"{config.protocol}_{kind}/seed{config.seed}"


def _rows(self, X, *args, **kwargs) -> int:
    return len(X)


def instrument(tracer: Tracer) -> Tracer:
    """Wrap each layer's public entry points; undo with ``restore()``."""
    from repro.attribution.attributor import AlarmAttributor
    from repro.core.model import CrossFeatureDetector, CrossFeatureModel
    from repro.features import extraction
    from repro.runtime.cache import ArtifactCache
    from repro.simulation import scenario
    from repro.simulation.engine import Simulator
    from repro.simulation.medium import WirelessMedium
    from repro.simulation.mobility import RandomWaypointMobility
    from repro.stream import durability, replay
    from repro.stream.detector import OnlineDetector
    from repro.stream.extractor import StreamingExtractor
    from repro.stream.fleet import FleetDetector, FleetStream

    def method(cls, attr, name, **kw):
        tracer.patch_method(cls, attr, tracer.span(name, cls.__dict__[attr], **kw))

    def leaf(cls, attr, name):
        tracer.patch_method(cls, attr, tracer.leaf(name, cls.__dict__[attr]))

    def function(fn, name, **kw):
        tracer.patch_function(fn, tracer.span(name, fn, **kw))

    # simulation
    function(scenario.run_scenario, "simulation.run_scenario", ident_of=_trace_ident)
    method(Simulator, "run", "simulation.run")
    for attr in ("position", "positions_at", "speeds_at"):
        leaf(RandomWaypointMobility, attr, "simulation.mobility")
    for attr in ("neighbors", "in_range"):
        leaf(WirelessMedium, attr, "simulation.neighbor")
    for attr in ("broadcast", "unicast"):
        leaf(WirelessMedium, attr, "simulation.medium_send")
    # features / core / attribution / runtime
    function(extraction.extract_features, "features.extract")
    method(CrossFeatureModel, "fit", "core.fit")
    method(CrossFeatureDetector, "calibrate", "core.calibrate")
    method(CrossFeatureModel, "normality_score", "core.normality_score", rows_of=_rows)
    method(AlarmAttributor, "attribute", "attribution.attribute")
    method(ArtifactCache, "get", "runtime.cache_get")
    # stream
    function(replay.replay_trace, "stream.replay")
    method(replay.ReplayCursor, "__init__", "stream.replay")
    method(replay.ReplayCursor, "step_tick", "stream.replay")
    method(StreamingExtractor, "on_tick", "stream.window_close")
    method(OnlineDetector, "consume", "stream.consume")
    method(FleetStream, "on_tick", "stream.fleet_tick")
    method(FleetDetector, "drop", "stream.fleet_seal")
    method(FleetDetector, "finish", "stream.fleet_seal")
    function(durability.save_fleet_checkpoint, "stream.checkpoint")
    return tracer
