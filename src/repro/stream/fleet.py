"""Fleet detection: many monitored streams, one scoring pipeline.

The paper's deployment story is an IDS agent on *every* node.  A
:class:`FleetDetector` multiplexes N
:class:`~repro.stream.extractor.StreamingExtractor` streams — one per
monitored node, across one or many concurrent scenarios — into a single
pipeline: windows closing on the same sampling tick are collected into
one bucket and scored in **one** vectorized
:meth:`~repro.core.model.CrossFeatureModel.normality_score` call, instead
of N separate single-row calls.  Watching one node is the one-lane case:
:class:`~repro.stream.detector.OnlineDetector` is a thin adapter over a
fleet with a single externally fed lane, so row policy, quarantine,
attribution and snapshots exist once, here.

Correctness rests on the streaming contract: every step of
``normality_score`` (discretizer transform, frontier-batched tree walk,
per-row probability pooling) treats rows independently, so scoring the
``(N, L)`` tick bucket is bit-identical to N independent ``(1, L)``
calls — a fleet run reproduces N independent one-lane runs exactly
(asserted by ``tests/stream/test_fleet_equivalence.py`` and in the bench
harness).

Mechanics
---------
Each stream is a *lane* with a time **frontier**: the latest sampling
tick the lane's clock has proven passed.  Delivered rows buffer in
per-tick buckets; a bucket at time ``t`` finalises (scores) once every
active lane's frontier is strictly past ``t`` — the fleet watermark.
Lanes that finish or are :meth:`dropped <FleetDetector.drop>` stop
holding the watermark back, so a dead probe cannot stall the fleet; a
*late* lane simply delays finalisation (rows buffer cheaply).

Per-stream alarms keep :class:`~repro.stream.detector.Alarm` semantics
(tagged with the lane name); each finalised bucket is additionally put
to a fused network-level vote: if the number of alarming streams meets
the quorum policy (k-of-n or fraction-of-reporting, see
:mod:`repro.stream.config`) a :class:`FleetAlarm` fires.

Streams are either **tap-fed** — :meth:`FleetDetector.add_stream`
returns a :class:`FleetStream` implementing the scenario tap protocol,
so it rides :func:`~repro.simulation.scenario.run_scenario` or
:func:`~repro.stream.replay.replay_trace` directly — or **externally
fed** via :meth:`attach` / :meth:`ingest` / :meth:`seal`, for rows that
arrive from outside the in-process simulator (and for benchmarks that
time scoring without extraction).

Construction mirrors the single-stream surface
(:mod:`repro.stream.config` documents the shared keywords)::

    fleet = FleetDetector.from_detector(fitted, quorum=0.5)
    for m in monitors:
        fleet.add_stream(m, sampling_period=config.sampling_period)
    run_scenario(config, attacks, taps=fleet.taps())
    result = fleet.result()

or, end to end through the runtime layer::

    result = Session().fleet_detect(plan, quorum=2)
"""

from __future__ import annotations

import heapq
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.attribution import (
    AlarmAttributor,
    Verdict,
    attribution_enabled,
    contribution_matrix,
    fuse_verdicts,
)
from repro.core.model import CrossFeatureDetector, CrossFeatureModel
from repro.features.traffic import DEFAULT_SAMPLING_PERIODS
from repro.stream.config import (
    DEFAULT_ATTRIBUTION,
    DEFAULT_MAX_FAULTS,
    DEFAULT_MONITOR,
    DEFAULT_QUORUM,
    DEFAULT_ROW_POLICY,
    DEFAULT_WARMUP,
    needed_votes,
    resolve_threshold,
    validate_quorum,
    validate_row_policy,
)
from repro.stream.detector import Alarm, StreamResult
from repro.stream.extractor import StreamingExtractor, WindowRow
from repro.stream.faults import RowFaultInjector, StreamFault, StreamFaultPlan

@dataclass(frozen=True)
class FleetAlarm:
    """One fused network-level verdict: the quorum of streams alarmed.

    ``streams``/``scores`` list the alarming lanes (and their scores) on
    the tick; ``reporting`` is how many streams delivered a window for
    the tick at all, and ``needed`` the quorum the policy demanded of
    them.  ``latency_s`` is the wall-clock cost of the batch scoring
    call that produced the verdict.  ``verdict`` fuses the alarming
    lanes' typed votes (None unless attribution is on).
    """

    time: float                  #: window end, simulation seconds
    streams: tuple[str, ...]     #: names of the alarming lanes
    scores: tuple[float, ...]    #: their normality scores, same order
    reporting: int               #: lanes that delivered a window this tick
    needed: int                  #: alarming lanes the quorum demanded
    threshold: float             #: decision threshold in force
    latency_s: float             #: wall-clock seconds for the batch score
    verdict: Verdict | None = None  #: fused typed verdict over lane votes


class _Lane:
    """Per-stream bookkeeping inside the fleet (not public API)."""

    __slots__ = (
        "name", "scenario", "monitor", "frontier", "done",
        "times", "scores", "latencies", "alarms",
        "crashed", "ticks_seen", "consecutive_faults",
        "last_time", "last_index",
    )

    def __init__(self, name: str, scenario: str, monitor: int):
        self.name = name
        self.scenario = scenario
        self.monitor = monitor
        self.frontier = float("-inf")
        self.done = False
        self.times: list[float] = []
        self.scores: list[float] = []
        self.latencies: list[float] = []
        self.alarms: list[Alarm] = []
        self.crashed = False           # injected crash: the lane went silent
        self.ticks_seen = 0            # sampling ticks observed (crash keying)
        self.consecutive_faults = 0    # quarantine circuit-breaker counter
        self.last_time = float("-inf")  # last admitted row's window end
        self.last_index = -1           # last admitted row's index


class FleetStream:
    """One tap-fed fleet lane: the scenario tap protocol, multiplexed.

    Wraps a :class:`StreamingExtractor` whose emitted rows are delivered
    to the owning :class:`FleetDetector`'s tick buckets; each sampling
    tick advances the lane's frontier and lets the fleet finalise every
    bucket the whole fleet has moved past.  Pass instances to
    :func:`~repro.simulation.scenario.run_scenario` via ``taps=`` or to
    :func:`~repro.stream.replay.replay_trace` like any other tap.
    """

    def __init__(self, fleet: "FleetDetector", lane: _Lane, extractor: StreamingExtractor):
        self._fleet = fleet
        self._lane = lane
        self._extractor = extractor

    @property
    def name(self) -> str:
        """The lane name (``"<scenario>/n<monitor>"`` by default)."""
        return self._lane.name

    @property
    def scenario(self) -> str:
        """Scenario group this lane belongs to."""
        return self._lane.scenario

    @property
    def monitor(self) -> int:
        """Observed node id (the scenario binds the tap by this)."""
        return self._lane.monitor

    # -- scenario-tap protocol -----------------------------------------
    def bind(self, stats) -> None:
        """Subscribe the inner extractor to the monitor's live log."""
        self._extractor.bind(stats)

    def unbind(self) -> None:
        """Detach the inner extractor from its bound node."""
        self._extractor.unbind()

    def on_tick(self, time: float, speed: float) -> None:
        """A sampling tick: advance the window clock and the watermark.

        Checks the fleet's injected fault plan for this lane's crash
        point; a crashed lane goes permanently silent (its frontier
        freezes, so only a ``stall_timeout`` or end-of-stream seal can
        release the watermark it holds).
        """
        lane = self._lane
        tick_index = lane.ticks_seen
        lane.ticks_seen += 1
        if not lane.crashed:
            plan = self._fleet._fault_plan
            if plan is not None and plan.lane_crash(lane.name, tick_index):
                self._fleet._crash_lane(lane)
        if lane.crashed:
            return
        self._extractor.on_tick(time, speed)
        lane.frontier = float(time)
        self._fleet._advance()

    def finish(self) -> None:
        """Stream end: flush the pending window, release the watermark.

        Idempotent; a crashed lane is sealed with reason ``"crashed"``
        instead of flushing (its tail never arrived).
        """
        lane = self._lane
        if lane.done:
            return
        if lane.crashed:
            self._fleet._seal_lane(lane, "crashed")
            return
        self._fleet._flush_stream(lane)
        self._fleet._finish_lane(lane)

    # -- NodeStats-listener protocol (replay feeds these directly) -----
    def on_packet(self, time, ptype, direction) -> None:
        if not self._lane.crashed:
            self._extractor.on_packet(time, ptype, direction)

    def on_route_event(self, time, kind) -> None:
        if not self._lane.crashed:
            self._extractor.on_route_event(time, kind)

    def on_route_length(self, time, hops) -> None:
        if not self._lane.crashed:
            self._extractor.on_route_length(time, hops)


@dataclass
class FleetResult:
    """Everything one fleet run produced.

    ``streams`` maps lane name to the same :class:`StreamResult` an
    independent :class:`OnlineDetector` over that stream would have
    frozen (scores bit-identical); ``fused`` is the network-level alarm
    stream and ``batch_sizes`` the per-tick scoring batch sizes (the
    multiplexing win: mean batch size ≈ active streams).
    """

    threshold: float
    method: str
    quorum: int | float
    streams: dict[str, StreamResult]
    fused: list[FleetAlarm]
    batch_sizes: list[int] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Lane name -> abnormal-seal reason ("dropped" / "stalled" /
    #: "faulted" / "crashed"); lanes that simply finished are absent.
    sealed: dict[str, str] = field(default_factory=dict)
    #: Every quarantined row across the fleet, in detection order.
    fault_records: list[StreamFault] = field(default_factory=list)
    #: Seal attempts on already-finished lanes (idempotent no-ops).
    duplicate_seals: int = 0

    @property
    def n_streams(self) -> int:
        """Number of lanes the fleet multiplexed."""
        return len(self.streams)

    @property
    def windows(self) -> int:
        """Total windows scored across every lane."""
        return sum(r.windows for r in self.streams.values())

    @property
    def alarms(self) -> int:
        """Total per-stream alarms across every lane."""
        return sum(len(r.alarms) for r in self.streams.values())

    @property
    def batches(self) -> int:
        """Vectorized scoring calls the run needed (one per closed tick)."""
        return len(self.batch_sizes)

    @property
    def mean_batch_size(self) -> float:
        """Mean rows per scoring call — the multiplexing factor."""
        return (
            sum(self.batch_sizes) / len(self.batch_sizes)
            if self.batch_sizes else 0.0
        )

    @property
    def windows_per_second(self) -> float:
        """Fleet detection throughput (scored windows per wall-clock second)."""
        return self.windows / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def summary(self) -> str:
        """One-line human-readable digest (the CLI prints this)."""
        return (
            f"{self.n_streams} streams, {self.windows} windows in "
            f"{self.batches} batches (mean {self.mean_batch_size:.1f} rows), "
            f"{self.alarms} stream alarms, {len(self.fused)} fused alarms, "
            f"{self.windows_per_second:,.0f} windows/s"
        )


class FleetDetector:
    """Score many monitored streams through one vectorized pipeline.

    Parameters
    ----------
    model:
        A *trained* (and, for ``calibrated_probability``, calibrated)
        :class:`CrossFeatureModel` shared by every lane.
    threshold, method, quorum, on_alarm, on_fused:
        The shared construction keywords — see
        :mod:`repro.stream.config` for semantics and defaults.
    on_batch:
        Callback ``(batch_size, seconds)`` per vectorized scoring call
        (the Session wires :meth:`RuntimeMetrics.record_fleet_batch`
        here for per-tick batch-size accounting).
    row_policy, max_consecutive_faults, stall_timeout:
        Degraded-input handling — see :mod:`repro.stream.config`.
    faults:
        Optional injected :class:`~repro.stream.faults.StreamFaultPlan`
        (deterministic chaos for tests and the stream-chaos bench).
    on_fault:
        Callback per quarantined :class:`StreamFault`.
    on_seal:
        Callback ``(lane_name, reason)`` per abnormal lane seal
        ("dropped" / "stalled" / "faulted" / "crashed") and per
        duplicate seal attempt (reason ``"duplicate"``).
    attribution:
        Attach typed verdicts: one
        :class:`~repro.attribution.AlarmAttributor` per lane (each lane
        carries its own CUSUM/blame history) with contributions computed
        in one batched call per tick bucket, and a fused verdict voted
        over the alarming lanes on each :class:`FleetAlarm`.  Runs
        strictly after scoring — scores/alarms/fused timing are
        bit-identical on or off (``REPRO_ATTRIBUTION=0`` force-disables).
    """

    def __init__(
        self,
        model: CrossFeatureModel,
        threshold: float,
        method: str = "avg_probability",
        quorum: int | float = DEFAULT_QUORUM,
        on_alarm: Callable[[Alarm], None] | None = None,
        on_fused: Callable[[FleetAlarm], None] | None = None,
        on_batch: Callable[[int, float], None] | None = None,
        row_policy: str = DEFAULT_ROW_POLICY,
        max_consecutive_faults: int = DEFAULT_MAX_FAULTS,
        stall_timeout: float | None = None,
        faults: StreamFaultPlan | None = None,
        on_fault: Callable[[StreamFault], None] | None = None,
        on_seal: Callable[[str, str], None] | None = None,
        attribution: bool = DEFAULT_ATTRIBUTION,
    ):
        if model.discretizer is None:
            raise ValueError("model must be fitted before fleet detection")
        if stall_timeout is not None and stall_timeout <= 0:
            raise ValueError(f"stall_timeout must be positive, got {stall_timeout}")
        self.model = model
        self.threshold = float(threshold)
        self.method = method
        self.quorum = validate_quorum(quorum)
        self.on_alarm = on_alarm
        self.on_fused = on_fused
        self.on_batch = on_batch
        self.row_policy = validate_row_policy(row_policy)
        self.max_consecutive_faults = int(max_consecutive_faults)
        self.stall_timeout = stall_timeout
        self.on_fault = on_fault
        self.on_seal = on_seal
        self.attribution = bool(attribution) and attribution_enabled()
        self._attributors: dict[str, AlarmAttributor] = {}
        self.fused: list[FleetAlarm] = []
        self.batch_sizes: list[int] = []
        self.fault_records: list[StreamFault] = []
        self.sealed: dict[str, str] = {}
        self.duplicate_seals = 0
        self._fault_plan = faults if faults else None
        self._injectors: dict[str, RowFaultInjector] = {}
        self._lanes: dict[str, _Lane] = {}
        self._streams: dict[str, FleetStream] = {}
        self._buckets: dict[float, list[tuple[_Lane, WindowRow]]] = {}
        self._heap: list[float] = []
        self._finalized_through = float("-inf")

    # ------------------------------------------------------------------
    # Construction (the unified surface; see repro.stream.config)
    # ------------------------------------------------------------------
    @classmethod
    def from_detector(
        cls,
        detector: CrossFeatureDetector,
        threshold: float | None = None,
        quorum: int | float = DEFAULT_QUORUM,
        on_alarm: Callable[[Alarm], None] | None = None,
        on_fused: Callable[[FleetAlarm], None] | None = None,
        on_batch: Callable[[int, float], None] | None = None,
        row_policy: str = DEFAULT_ROW_POLICY,
        max_consecutive_faults: int = DEFAULT_MAX_FAULTS,
        stall_timeout: float | None = None,
        faults: StreamFaultPlan | None = None,
        on_fault: Callable[[StreamFault], None] | None = None,
        on_seal: Callable[[str, str], None] | None = None,
        attribution: bool = DEFAULT_ATTRIBUTION,
    ) -> "FleetDetector":
        """Wrap a fitted batch :class:`CrossFeatureDetector` unchanged.

        ``threshold=None`` adopts the detector's calibrated
        ``threshold_`` (see :func:`~repro.stream.config.resolve_threshold`).
        """
        return cls(
            model=detector.model,
            threshold=resolve_threshold(detector, threshold),
            method=detector.method,
            quorum=quorum,
            on_alarm=on_alarm,
            on_fused=on_fused,
            on_batch=on_batch,
            row_policy=row_policy,
            max_consecutive_faults=max_consecutive_faults,
            stall_timeout=stall_timeout,
            faults=faults,
            on_fault=on_fault,
            on_seal=on_seal,
            attribution=attribution,
        )

    # ------------------------------------------------------------------
    # Stream registration
    # ------------------------------------------------------------------
    def _register(self, name: str, scenario: str, monitor: int) -> _Lane:
        if name in self._lanes:
            raise ValueError(f"stream {name!r} is already registered")
        lane = _Lane(name, scenario, monitor)
        self._lanes[name] = lane
        if self.attribution:
            # One attributor per lane: CUSUM/blame history is a
            # property of the stream, not of the fleet.
            self._attributors[name] = AlarmAttributor(self.model, self.threshold)
        return lane

    def add_stream(
        self,
        monitor: int = DEFAULT_MONITOR,
        scenario: str = "s0",
        periods: Sequence[float] = DEFAULT_SAMPLING_PERIODS,
        sampling_period: float = 5.0,
        warmup: float = DEFAULT_WARMUP,
        name: str | None = None,
    ) -> FleetStream:
        """Register a tap-fed lane extracting windows at ``monitor``.

        Returns the :class:`FleetStream` tap; pass it to
        ``run_scenario(..., taps=...)`` or ``replay_trace``.  Lanes in
        different ``scenario`` groups may ride different concurrent
        scenarios; their same-time windows still share score batches.
        """
        lane = self._register(name or f"{scenario}/n{monitor}", scenario, monitor)
        extractor = StreamingExtractor(
            monitor=monitor,
            periods=tuple(periods),
            sampling_period=sampling_period,
            warmup=warmup,
            on_row=lambda row, _lane=lane: self._deliver(_lane, row),
            keep_rows=False,
        )
        stream = FleetStream(self, lane, extractor)
        self._streams[lane.name] = stream
        self._make_injector(lane)
        return stream

    def taps(self, scenario: str | None = None) -> list[FleetStream]:
        """The registered tap-fed streams (optionally one scenario group)."""
        return [
            s for s in self._streams.values()
            if scenario is None or s.scenario == scenario
        ]

    # ------------------------------------------------------------------
    # Externally-fed lanes (rows arrive from outside the simulator)
    # ------------------------------------------------------------------
    def attach(
        self,
        name: str,
        monitor: int = DEFAULT_MONITOR,
        scenario: str = "s0",
    ) -> None:
        """Register an externally-fed lane (no extractor of its own).

        Feed it with :meth:`ingest` (closed :class:`WindowRow` events —
        from a remote probe, a message bus, or a benchmark harness) and
        advance its clock with :meth:`seal`.
        """
        lane = self._register(name, scenario, monitor)
        self._make_injector(lane)

    def ingest(self, name: str, row: WindowRow) -> None:
        """Deliver one closed window for an externally-fed lane.

        Under ``row_policy="strict"`` a delivery on a finished lane
        raises; ``"quarantine"`` records it as a ``"late"`` fault.
        """
        lane = self._lanes[name]
        if lane.done:
            if self.row_policy == "quarantine":
                self._quarantine(
                    lane, row, "late",
                    f"row delivered after lane {name!r} was sealed",
                )
                return
            raise ValueError(f"stream {name!r} already finished")
        self._deliver(lane, row)

    def seal(self, name: str, through: float) -> None:
        """Promise no more rows with ``time <= through`` on one lane.

        Sealing a finished lane is an idempotent no-op, counted in
        ``duplicate_seals`` (restart logic may seal defensively).
        """
        lane = self._lanes[name]
        if lane.done:
            self._duplicate_seal(lane)
            return
        lane.frontier = max(lane.frontier, float(through))
        self._advance()

    def seal_all(self, through: float) -> None:
        """Advance every unfinished lane's frontier in one call."""
        t = float(through)
        for lane in self._lanes.values():
            if not lane.done:
                lane.frontier = max(lane.frontier, t)
        self._advance()

    def drop(self, name: str) -> None:
        """A stream died or left: stop waiting for it.

        Windows it already delivered still score; it just no longer
        holds the fleet watermark back, and fused quorums are evaluated
        over the streams that keep reporting.  Dropping a finished lane
        is an idempotent no-op counted in ``duplicate_seals``.
        """
        lane = self._lanes[name]
        if lane.done:
            self._duplicate_seal(lane)
            return
        self._flush_stream(lane)
        self._seal_lane(lane, "dropped")

    def finish(self) -> None:
        """Fleet end: flush every lane and score the remaining buckets."""
        for stream in self._streams.values():
            stream.finish()
        for lane in self._lanes.values():
            if not lane.done:
                injector = self._injectors.get(lane.name)
                if injector is not None:
                    injector.flush()
                self._finish_lane(lane)

    # ------------------------------------------------------------------
    # The multiplexer core
    # ------------------------------------------------------------------
    @property
    def n_streams(self) -> int:
        """Registered lanes (tap-fed + externally fed)."""
        return len(self._lanes)

    @property
    def windows(self) -> int:
        """Windows scored so far across the whole fleet."""
        return sum(len(lane.scores) for lane in self._lanes.values())

    def _make_injector(self, lane: _Lane) -> None:
        """Attach a per-lane row-fault injector when a plan is installed."""
        if self._fault_plan is not None:
            self._injectors[lane.name] = RowFaultInjector(
                self._fault_plan,
                lane.name,
                deliver=lambda row, _lane=lane: self._admit(_lane, row),
            )

    def _deliver(self, lane: _Lane, row: WindowRow) -> None:
        """Route one closed window through the fault plan to admission."""
        if lane.crashed:
            return
        injector = self._injectors.get(lane.name)
        if injector is not None:
            injector(row)
        else:
            self._admit(lane, row)

    def _classify_row(self, lane: _Lane, row: WindowRow) -> tuple[str, str] | None:
        """The quarantine verdict for a degraded row, or ``None`` if clean.

        Checked in order: NaN features, out-of-range features or time,
        a re-delivery of the lane's last admitted window (same time, no
        newer index — a duplicate even once its tick was scored), then a
        window at or before the finalised watermark (late).
        """
        t = float(row.time)
        if np.isnan(row.features).any():
            return "nan", "row carries NaN features"
        if np.isinf(row.features).any():
            return "out_of_range", "row carries non-finite features"
        if not np.isfinite(t) or t < 0:
            return "out_of_range", f"window time {t} is not a valid instant"
        if t == lane.last_time and row.index <= lane.last_index:
            return "duplicate", f"window {row.index} at {t} was already delivered"
        if t <= self._finalized_through:
            return "late", (
                f"window at {t} arrived after its tick was finalised "
                f"(watermark {self._finalized_through})"
            )
        return None

    def _quarantine(self, lane: _Lane, row: WindowRow, kind: str, detail: str) -> None:
        """Record one quarantined row; trip the consecutive-fault breaker."""
        fault = StreamFault(
            stream=lane.name, kind=kind, index=row.index,
            time=float(row.time), detail=detail,
        )
        self.fault_records.append(fault)
        if self.on_fault is not None:
            self.on_fault(fault)
        lane.consecutive_faults += 1
        if not lane.done and lane.consecutive_faults > self.max_consecutive_faults:
            self._seal_lane(lane, "faulted")

    def _admit(self, lane: _Lane, row: WindowRow) -> None:
        """Validate one row under the policy and buffer it into its bucket."""
        t = float(row.time)
        if self.row_policy == "quarantine":
            verdict = self._classify_row(lane, row)
            if verdict is not None:
                self._quarantine(lane, row, *verdict)
                return
            lane.consecutive_faults = 0
        elif t <= self._finalized_through:
            raise ValueError(
                f"stream {lane.name!r} delivered a window at {t} after its "
                f"tick was finalised (watermark {self._finalized_through}); "
                f"seal lanes only once their rows are in"
            )
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = bucket = []
            heapq.heappush(self._heap, t)
        bucket.append((lane, row))
        lane.last_time = t
        lane.last_index = row.index

    def _crash_lane(self, lane: _Lane) -> None:
        """An injected crash point: the lane goes permanently silent."""
        lane.crashed = True
        injector = self._injectors.get(lane.name)
        if injector is not None:
            injector.restore({"held": None})  # a held row dies with the lane

    def _flush_stream(self, lane: _Lane) -> None:
        """Flush a lane's pending window and any held (delayed) row."""
        stream = self._streams.get(lane.name)
        if stream is not None and not lane.crashed:
            stream._extractor.finish()
        injector = self._injectors.get(lane.name)
        if injector is not None:
            injector.flush()

    def _finish_lane(self, lane: _Lane) -> None:
        """Normal end of stream: mark done, release the watermark."""
        if lane.done:
            self._duplicate_seal(lane)
            return
        lane.done = True
        self._advance()

    def _seal_lane(self, lane: _Lane, reason: str) -> None:
        """Abnormal end of stream: record why the lane was taken out."""
        if lane.done:
            self._duplicate_seal(lane)
            return
        lane.done = True
        self.sealed[lane.name] = reason
        if self.on_seal is not None:
            self.on_seal(lane.name, reason)
        self._advance()

    def _duplicate_seal(self, lane: _Lane) -> None:
        """Seal/drop on an already-finished lane: a counted no-op."""
        self.duplicate_seals += 1
        if self.on_seal is not None:
            self.on_seal(lane.name, "duplicate")

    def _watermark(self) -> float:
        """Min frontier over active lanes (+inf once all are done)."""
        active = [
            lane.frontier for lane in self._lanes.values() if not lane.done
        ]
        return min(active) if active else float("inf")

    def _check_stalls(self) -> None:
        """Seal lanes lagging the most advanced live lane past the bound.

        Compared *within each scenario group*: lanes of a group that has
        not started yet (sequential multi-scenario runs) sit at ``-inf``
        and are never stalled — a lane only becomes stall-eligible once
        it has advanced its frontier at least once, so the first tick of
        a run (where sibling taps have not yet been dispatched) cannot
        seal the whole fleet.  A crashed lane in a running group *has* a
        frontier, falls behind its siblings and is sealed.  Marks lanes
        done inline (no recursive :meth:`_advance`); the caller
        recomputes the watermark right after.
        """
        groups: dict[str, list[_Lane]] = {}
        for lane in self._lanes.values():
            if not lane.done:
                groups.setdefault(lane.scenario, []).append(lane)
        for lanes in groups.values():
            if len(lanes) < 2:
                continue
            max_frontier = max(lane.frontier for lane in lanes)
            if max_frontier == float("-inf"):
                continue
            cutoff = max_frontier - self.stall_timeout
            for lane in lanes:
                if lane.frontier == float("-inf"):
                    continue
                if lane.frontier < cutoff:
                    lane.done = True
                    self.sealed[lane.name] = "stalled"
                    if self.on_seal is not None:
                        self.on_seal(lane.name, "stalled")

    def _advance(self) -> None:
        """Finalise every bucket the whole fleet has moved past."""
        if self.stall_timeout is not None:
            self._check_stalls()
        if not self._heap:
            return
        watermark = self._watermark()
        while self._heap and self._heap[0] < watermark:
            t = heapq.heappop(self._heap)
            self._finalized_through = t
            self._score_bucket(t, self._buckets.pop(t))

    def _score_bucket(self, t: float, entries: list[tuple[_Lane, WindowRow]]) -> None:
        """One vectorized scoring call for all windows closing at ``t``."""
        X = np.vstack([row.features for _, row in entries])
        t0 = _time.perf_counter()
        scores = self.model.normality_score(X, self.method)
        latency = _time.perf_counter() - t0
        self.batch_sizes.append(len(entries))
        if self.on_batch is not None:
            self.on_batch(len(entries), latency)

        # Attribution reads the finished scores, never the reverse:
        # contributions for every alarming row in the bucket come from
        # one batched sub-model pass (mirroring the scoring call).
        contributions: dict[int, np.ndarray] = {}
        if self._attributors:
            alarm_rows = [
                k for k, s in enumerate(scores) if float(s) < self.threshold
            ]
            if alarm_rows:
                batch = contribution_matrix(self.model, X[alarm_rows])
                contributions = {k: batch[j] for j, k in enumerate(alarm_rows)}

        alarming: list[tuple[_Lane, float]] = []
        votes: list[Verdict] = []
        for k, ((lane, row), score) in enumerate(zip(entries, scores)):
            s = float(score)
            lane.times.append(row.time)
            lane.scores.append(s)
            lane.latencies.append(latency)
            is_alarm = s < self.threshold
            verdict = None
            attributor = self._attributors.get(lane.name)
            if attributor is not None:
                verdict = attributor.attribute(
                    row.time, s, row.features, is_alarm,
                    contribution=contributions.get(k),
                )
            if is_alarm:
                alarm = Alarm(
                    index=row.index,
                    time=row.time,
                    score=s,
                    threshold=self.threshold,
                    monitor=lane.monitor,
                    latency_s=latency,
                    stream=lane.name,
                    verdict=verdict,
                )
                lane.alarms.append(alarm)
                alarming.append((lane, s))
                if verdict is not None:
                    votes.append(verdict)
                if self.on_alarm is not None:
                    self.on_alarm(alarm)

        reporting = len(entries)
        needed = needed_votes(self.quorum, reporting)
        if len(alarming) >= needed:
            fused = FleetAlarm(
                time=t,
                streams=tuple(lane.name for lane, _ in alarming),
                scores=tuple(s for _, s in alarming),
                reporting=reporting,
                needed=needed,
                threshold=self.threshold,
                latency_s=latency,
                verdict=fuse_verdicts(votes) if votes else None,
            )
            self.fused.append(fused)
            if self.on_fused is not None:
                self.on_fused(fused)

    # ------------------------------------------------------------------
    def result(
        self,
        labels: "Mapping[str, np.ndarray] | None" = None,
        elapsed_s: float = 0.0,
    ) -> FleetResult:
        """Freeze the run into a :class:`FleetResult`.

        ``labels`` optionally maps lane names to per-window ground
        truth (lanes without an entry default to all-normal).
        """
        streams: dict[str, StreamResult] = {}
        for name, lane in self._lanes.items():
            latencies = np.asarray(lane.latencies, dtype=float)
            lane_labels = labels.get(name) if labels is not None else None
            streams[name] = StreamResult(
                monitor=lane.monitor,
                threshold=self.threshold,
                method=self.method,
                times=np.asarray(lane.times, dtype=float),
                scores=np.asarray(lane.scores, dtype=float),
                labels=(
                    np.asarray(lane_labels, dtype=bool)
                    if lane_labels is not None
                    else np.zeros(len(lane.scores), dtype=bool)
                ),
                alarms=list(lane.alarms),
                windows=len(lane.scores),
                elapsed_s=elapsed_s,
                mean_latency_s=float(latencies.mean()) if len(latencies) else 0.0,
                max_latency_s=float(latencies.max()) if len(latencies) else 0.0,
            )
        return FleetResult(
            threshold=self.threshold,
            method=self.method,
            quorum=self.quorum,
            streams=streams,
            fused=list(self.fused),
            batch_sizes=list(self.batch_sizes),
            elapsed_s=elapsed_s,
            sealed=dict(self.sealed),
            fault_records=list(self.fault_records),
            duplicate_seals=self.duplicate_seals,
        )

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The fleet's full mutable run state, lanes and buckets included.

        Captures every lane's frontier / verdicts / extractor rings /
        injector state, the unfinalised tick buckets, the heap and the
        watermark — everything needed to resume a durable run exactly —
        plus, under ``"attribution"``, each lane's attributor history
        when attribution is on.
        Construction knobs (model, threshold, quorum, policy) are not
        captured; restore targets a same-shaped fleet.
        """
        lanes = {}
        for name, lane in self._lanes.items():
            stream = self._streams.get(name)
            injector = self._injectors.get(name)
            lanes[name] = {
                "frontier": lane.frontier,
                "done": lane.done,
                "crashed": lane.crashed,
                "ticks_seen": lane.ticks_seen,
                "consecutive_faults": lane.consecutive_faults,
                "last_time": lane.last_time,
                "last_index": lane.last_index,
                "times": list(lane.times),
                "scores": list(lane.scores),
                "latencies": list(lane.latencies),
                "alarms": list(lane.alarms),
                "extractor": (
                    stream._extractor.snapshot() if stream is not None else None
                ),
                "injector": injector.snapshot() if injector is not None else None,
            }
        state = {
            "lanes": lanes,
            "buckets": {
                t: [(lane.name, row) for lane, row in bucket]
                for t, bucket in self._buckets.items()
            },
            "heap": list(self._heap),
            "finalized_through": self._finalized_through,
            "fused": list(self.fused),
            "batch_sizes": list(self.batch_sizes),
            "fault_records": list(self.fault_records),
            "sealed": dict(self.sealed),
            "duplicate_seals": self.duplicate_seals,
        }
        if self._attributors:
            state["attribution"] = {
                name: attributor.snapshot()
                for name, attributor in self._attributors.items()
            }
        return state

    def restore(self, state: dict) -> None:
        """Adopt a :meth:`snapshot` taken from a same-shaped fleet.

        The same lanes must already be registered (same names, via
        ``add_stream``/``attach`` with the original
        knobs).  Restored alarms and faults do not re-fire hooks.
        """
        if set(state["lanes"]) != set(self._lanes):
            raise ValueError(
                "snapshot does not match this fleet's registered lanes"
            )
        for name, lane_state in state["lanes"].items():
            lane = self._lanes[name]
            lane.frontier = lane_state["frontier"]
            lane.done = lane_state["done"]
            lane.crashed = lane_state["crashed"]
            lane.ticks_seen = lane_state["ticks_seen"]
            lane.consecutive_faults = lane_state["consecutive_faults"]
            lane.last_time = lane_state["last_time"]
            lane.last_index = lane_state["last_index"]
            lane.times = list(lane_state["times"])
            lane.scores = list(lane_state["scores"])
            lane.latencies = list(lane_state["latencies"])
            lane.alarms = list(lane_state["alarms"])
            stream = self._streams.get(name)
            if stream is not None and lane_state["extractor"] is not None:
                stream._extractor.restore(lane_state["extractor"])
            injector = self._injectors.get(name)
            if injector is not None and lane_state["injector"] is not None:
                injector.restore(lane_state["injector"])
        self._buckets = {
            t: [(self._lanes[name], row) for name, row in bucket]
            for t, bucket in state["buckets"].items()
        }
        self._heap = list(state["heap"])
        self._finalized_through = state["finalized_through"]
        self.fused = list(state["fused"])
        self.batch_sizes = list(state["batch_sizes"])
        self.fault_records = list(state["fault_records"])
        self.sealed = dict(state["sealed"])
        self.duplicate_seals = state["duplicate_seals"]
        # Attribution history restores where both sides carry it; a
        # snapshot of a plain run leaves fresh attributors empty.
        for name, attributor_state in state.get("attribution", {}).items():
            if name in self._attributors:
                self._attributors[name].restore(attributor_state)
