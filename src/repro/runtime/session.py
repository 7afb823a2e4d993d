"""The :class:`Session` facade — the one documented pipeline entry point.

A session owns the three runtime services and threads every experiment
through them:

* a :class:`~repro.runtime.executor.TraceExecutor` that fans independent
  trace simulations out across worker processes (``jobs=``);
* an :class:`~repro.runtime.cache.ArtifactCache` that persists simulated
  traces on disk, content-addressed by scenario + attack composition +
  simulator code version (``cache_dir=``, ``cache=False`` to disable);
* a :class:`~repro.runtime.metrics.RuntimeMetrics` with per-trace timing,
  cache hit/miss counters and a live progress hook (``metrics=``).

Usage::

    from repro import ExperimentPlan, Session

    session = Session(jobs=4)
    bundle = session.bundle(ExperimentPlan(protocol="aodv"))
    result = session.detect(ExperimentPlan(protocol="dsr"), classifier="c45")
    results = session.sweep(four_scenarios())          # shares one fan-out
    stream = session.stream_detect(plan)               # one live monitor
    fleet = session.fleet_detect(plan, quorum=2)       # every node, fused

The pre-Session module-level helpers (``cached_bundle`` /
``cached_result`` / ``simulate_bundle``) have been removed; importing
them raises :class:`ImportError` with the migration hint.
"""

from __future__ import annotations

import os
import time
import warnings
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.eval.experiments import (
    DetectionResult,
    ExperimentPlan,
    RawTraces,
    TraceBundle,
    _fit_detector,
    _score_detector,
    extract_bundle,
    plan_sim_key,
)
from repro.runtime.cache import ArtifactCache, ResumeJournal, attack_signature
from repro.runtime.executor import SupervisionPolicy, TraceExecutor, TraceTask
from repro.runtime.faults import FaultPlan
from repro.runtime.metrics import RuntimeMetrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.attacks.base import Attack
    from repro.core.model import CrossFeatureDetector
    from repro.simulation.scenario import ScenarioConfig, SimulationTrace
    from repro.stream.detector import Alarm, StreamResult
    from repro.stream.faults import StreamFault, StreamFaultPlan
    from repro.stream.fleet import FleetAlarm, FleetResult

#: File name of the sweep resume journal inside the cache directory.
_JOURNAL_NAME = "sweep.journal"


def _env_jobs() -> int:
    """Worker count from ``$REPRO_JOBS`` (defaults to 1 = serial).

    An unparsable or non-positive value warns loudly instead of silently
    serialising a deployment that believed it configured a pool.
    """
    raw = os.environ.get("REPRO_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring invalid $REPRO_JOBS value {raw!r} (not an integer); "
            f"running with 1 worker",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1
    if jobs < 1:
        warnings.warn(
            f"ignoring invalid $REPRO_JOBS value {raw!r} (must be >= 1); "
            f"running with 1 worker",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1
    return jobs


def _plan_tasks(plan: ExperimentPlan) -> list[TraceTask]:
    """The independent simulations of one test condition, in bundle order."""
    tasks = [
        TraceTask(plan.scenario_config(s), (), f"train[{s}]")
        for s in plan.train_seeds
    ]
    tasks.append(
        TraceTask(plan.scenario_config(plan.calibration_seed), (),
                  f"calibration[{plan.calibration_seed}]")
    )
    tasks.extend(
        TraceTask(plan.scenario_config(s), (), f"normal[{s}]")
        for s in plan.normal_seeds
    )
    tasks.extend(
        TraceTask(plan.scenario_config(s), tuple(plan.build_attacks()), f"attack[{s}]")
        for s in plan.attack_seeds
    )
    return tasks


def _assemble_raw(plan: ExperimentPlan, traces: "list[SimulationTrace]") -> RawTraces:
    """Rebuild a :class:`RawTraces` from the flat `_plan_tasks` order."""
    n_train = len(plan.train_seeds)
    n_normal = len(plan.normal_seeds)
    return RawTraces(
        plan=plan,
        train=traces[:n_train],
        calibration=traces[n_train],
        normal_evals=traces[n_train + 1:n_train + 1 + n_normal],
        abnormal_evals=traces[n_train + 1 + n_normal:],
    )


class Session:
    """Pipeline runtime: parallel simulation + persistent artifact cache.

    Parameters
    ----------
    cache_dir:
        Artifact cache directory (default: ``$REPRO_CACHE_DIR`` or
        ``~/.cache/repro``).
    jobs:
        Worker processes for trace fan-out; ``None`` reads ``$REPRO_JOBS``
        (default 1 = serial).  Results are seed-deterministic regardless.
    metrics:
        A :class:`RuntimeMetrics` to account into (one is created
        otherwise); pass one with an ``on_event`` hook for live progress.
    cache:
        ``False`` disables the on-disk cache entirely (simulations still
        memoise in memory within the session).
    max_entries, max_bytes:
        Cache eviction bounds, forwarded to :class:`ArtifactCache`.
    policy:
        A :class:`~repro.runtime.executor.SupervisionPolicy` controlling
        per-task retries, timeout and pool respawns (defaults: 2 retries,
        no timeout, 2 respawns).
    task_timeout, max_retries:
        Convenience overrides applied on top of ``policy`` — the knobs
        the CLI exposes.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` injected into
        both the executor and the cache (deterministic chaos testing).
    profile_stages:
        ``True`` wraps every timed pipeline stage (``simulate`` /
        ``extract`` / ``fit`` / ``score`` / ``stream`` / ``fleet``) in a
        cProfile and collects one top-N cumulative table per stage on
        :attr:`profiler` (a :class:`~repro.runtime.profiling.
        StageProfiler`; ``session.profiler.render()`` prints them).
        ``None`` (default) reads ``$REPRO_PROFILE_STAGES``.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        jobs: int | None = None,
        metrics: RuntimeMetrics | None = None,
        cache: bool = True,
        max_entries: int = 512,
        max_bytes: int = 4 << 30,
        policy: SupervisionPolicy | None = None,
        task_timeout: float | None = None,
        max_retries: int | None = None,
        faults: FaultPlan | None = None,
        profile_stages: bool | None = None,
    ):
        self.jobs = _env_jobs() if jobs is None else max(1, int(jobs))
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        policy = policy if policy is not None else SupervisionPolicy()
        overrides = {}
        if task_timeout is not None:
            overrides["task_timeout"] = task_timeout
        if max_retries is not None:
            overrides["max_retries"] = max_retries
        if overrides:
            import dataclasses

            policy = dataclasses.replace(policy, **overrides)
        self.policy = policy
        self.faults = faults
        self.cache: ArtifactCache | None = (
            ArtifactCache(
                cache_dir=cache_dir,
                max_entries=max_entries,
                max_bytes=max_bytes,
                metrics=self.metrics,
                faults=faults,
            )
            if cache
            else None
        )
        self.executor = TraceExecutor(
            jobs=self.jobs, metrics=self.metrics, policy=self.policy, faults=faults
        )
        if self.cache is not None:
            self.journal = ResumeJournal(self.cache.dir / _JOURNAL_NAME)
            #: Keys completed by *previous* (possibly interrupted) runs;
            #: cache hits on these count as resumed work, not plain hits.
            self._journaled = self.journal.load()
        else:
            self.journal = None
            self._journaled = frozenset()
        if profile_stages is None:
            profile_stages = os.environ.get(
                "REPRO_PROFILE_STAGES", "0"
            ) not in ("0", "false", "")
        if profile_stages:
            from repro.runtime.profiling import StageProfiler

            self.profiler: "StageProfiler | None" = StageProfiler()
        else:
            self.profiler = None
        self._raw: dict[ExperimentPlan, RawTraces] = {}
        self._bundles: dict[ExperimentPlan, TraceBundle] = {}
        self._results: dict[tuple, DetectionResult] = {}
        self._detectors: dict[tuple, "CrossFeatureDetector"] = {}

    @contextmanager
    def _stage(self, name: str):
        """Time one pipeline stage (and profile it when enabled).

        Yields a namespace whose ``elapsed`` holds the stage seconds once
        the block exits; the duration is recorded via
        :meth:`RuntimeMetrics.record_stage` and, with ``profile_stages``
        on, the block's execution accumulates into ``profiler``'s table
        for ``name``.
        """
        ctx = self.profiler.stage(name) if self.profiler is not None \
            else nullcontext()
        timer = SimpleNamespace(elapsed=0.0)
        t0 = time.perf_counter()
        with ctx:
            yield timer
        timer.elapsed = time.perf_counter() - t0
        self.metrics.record_stage(name, timer.elapsed)

    # ------------------------------------------------------------------
    # Trace level
    # ------------------------------------------------------------------
    def _task_key(self, task: TraceTask) -> str:
        if self.cache is None:
            raise RuntimeError(
                "Session._task_key requires the artifact cache; "
                "this session was created with cache=False"
            )
        return self.cache.key(
            ("trace", task.config, [attack_signature(a) for a in task.attacks])
        )

    def _traces(self, tasks: Sequence[TraceTask]) -> "list[SimulationTrace]":
        """Resolve a batch of tasks through cache + executor, in order.

        Fresh traces are flushed to the cache (and the resume journal)
        *as they complete*, not at batch end — an interrupted or failed
        batch loses only its in-flight work, and the next run picks up
        from the journaled keys.
        """
        tasks = list(tasks)
        results: list["SimulationTrace | None"] = [None] * len(tasks)
        pending: list[tuple[int, str | None, TraceTask]] = []
        for i, task in enumerate(tasks):
            if self.cache is not None:
                key = self._task_key(task)
                hit = self.cache.get(key)
                if hit is not None:
                    if key in self._journaled:
                        self.metrics.record_resumed(task.label)
                    self.metrics.record_cache_hit(task.label)
                    results[i] = hit
                    continue
                self.metrics.record_cache_miss(task.label)
                pending.append((i, key, task))
            else:
                pending.append((i, None, task))
        if not pending:
            return results  # type: ignore[return-value]

        def flush(batch_index: int, trace: "SimulationTrace") -> None:
            i, key, _task = pending[batch_index]
            results[i] = trace
            if self.cache is not None and key is not None:
                if self.cache.put(key, trace) and self.journal is not None:
                    self.journal.record(key)

        with self._stage("simulate"):
            fresh = self.executor.run(
                [task for _, _, task in pending], on_result=flush
            )
        for (i, _key, _task), trace in zip(pending, fresh):
            if results[i] is None:  # pragma: no cover - flush already filled these
                results[i] = trace
        return results  # type: ignore[return-value]

    def trace(
        self,
        config: "ScenarioConfig",
        attacks: Sequence["Attack"] = (),
        label: str = "",
    ) -> "SimulationTrace":
        """Run (or load) one scenario through the cache + executor."""
        task = TraceTask(config, tuple(attacks), label or f"scenario[{config.seed}]")
        return self._traces([task])[0]

    # ------------------------------------------------------------------
    # Plan level
    # ------------------------------------------------------------------
    def prefetch(self, plans: Sequence[ExperimentPlan]) -> None:
        """Simulate every missing trace of several plans as ONE fan-out.

        With ``jobs > 1`` this is what makes sweeps scale: all plans'
        cache misses share a single process-pool batch instead of each
        plan draining its own 7-trace pool.
        """
        spans: list[tuple[ExperimentPlan, int, int]] = []
        seen: set[ExperimentPlan] = set()
        all_tasks: list[TraceTask] = []
        for plan in plans:
            sim_key = plan_sim_key(plan)
            if sim_key in self._raw or sim_key in seen:
                continue
            seen.add(sim_key)
            tasks = _plan_tasks(sim_key)
            spans.append((sim_key, len(all_tasks), len(tasks)))
            all_tasks.extend(tasks)
        if not all_tasks:
            return
        traces = self._traces(all_tasks)
        for sim_key, start, n in spans:
            self._raw[sim_key] = _assemble_raw(sim_key, traces[start:start + n])

    def raw_traces(self, plan: ExperimentPlan) -> RawTraces:
        """All simulated traces of a test condition (no feature extraction).

        Traces are shared across plans that differ only in extraction
        knobs (periods, warmup, labels, monitor), exactly like the legacy
        ``cached_raw_traces``.
        """
        sim_key = plan_sim_key(plan)
        if sim_key not in self._raw:
            self.prefetch([plan])
        raw = self._raw[sim_key]
        return RawTraces(
            plan=plan,
            train=raw.train,
            calibration=raw.calibration,
            normal_evals=raw.normal_evals,
            abnormal_evals=raw.abnormal_evals,
        )

    def bundle(self, plan: ExperimentPlan, monitor: int | None = None) -> TraceBundle:
        """Feature datasets of a test condition (simulate + extract).

        ``monitor`` overrides the plan's observation point without
        re-simulating (multi-monitor analyses); only the plan-default
        monitor is memoised.
        """
        if monitor is not None and monitor != plan.monitor:
            raw = self.raw_traces(plan)
            with self._stage("extract"):
                bundle = extract_bundle(raw, monitor=monitor)
            return bundle
        if plan not in self._bundles:
            raw = self.raw_traces(plan)
            with self._stage("extract"):
                self._bundles[plan] = extract_bundle(raw)
        return self._bundles[plan]

    def detect(
        self,
        plan: ExperimentPlan,
        classifier: str = "c45",
        method: str = "calibrated_probability",
        false_alarm_rate: float = 0.02,
        max_models: int | None = None,
        n_buckets: int = 5,
    ) -> DetectionResult:
        """Full detection experiment on one plan (memoised per knob set).

        Scores the plan's evaluation traces with :meth:`fitted_detector`,
        so detecting and then streaming or fleeting the same plan and
        knob set trains once.
        """
        key = (plan, classifier, method, false_alarm_rate, max_models, n_buckets)
        if key not in self._results:
            detector = self.fitted_detector(
                plan, classifier, method, false_alarm_rate, max_models, n_buckets
            )
            with self._stage("score"):
                self._results[key] = _score_detector(
                    self.bundle(plan), detector, classifier
                )
        return self._results[key]

    def fitted_detector(
        self,
        plan: ExperimentPlan,
        classifier: str = "c45",
        method: str = "calibrated_probability",
        false_alarm_rate: float = 0.02,
        max_models: int | None = None,
        n_buckets: int = 5,
    ) -> "CrossFeatureDetector":
        """A trained + calibrated detector for one plan (memoised per knob set).

        Trains on the plan's training traces and calibrates the decision
        threshold on its held-out calibration trace; :meth:`detect`
        scores this same detector, and online deployment uses it as is.
        """
        key = (plan, classifier, method, false_alarm_rate, max_models, n_buckets)
        if key not in self._detectors:
            bundle = self.bundle(plan)
            with self._stage("fit"):
                self._detectors[key] = _fit_detector(
                    bundle, classifier, method, false_alarm_rate, max_models,
                    n_buckets,
                )
        return self._detectors[key]

    def stream_detect(
        self,
        plan: ExperimentPlan,
        classifier: str = "c45",
        method: str = "calibrated_probability",
        false_alarm_rate: float = 0.02,
        seed: int | None = None,
        attack: bool = True,
        monitor: int | None = None,
        warmup: float | None = None,
        threshold: float | None = None,
        max_models: int | None = None,
        n_buckets: int = 5,
        on_alarm: "Callable[[Alarm], None] | None" = None,
        row_policy: str | None = None,
        attribution: bool = False,
        checkpoint: "str | os.PathLike | None" = None,
        checkpoint_every: int | None = None,
        resume_from: "str | os.PathLike | None" = None,
        stream_faults: "StreamFaultPlan | str | None" = None,
    ) -> "StreamResult":
        """Online detection: train offline, then score a *live* scenario.

        The one-lane case of :meth:`fleet_detect`: trains (or reuses) the
        plan's detector via :meth:`fitted_detector`, then runs ONE fresh
        scenario with a single fleet lane named ``n<monitor>`` tapping
        the monitor's recorder, scoring every sampling window the moment
        it closes and raising :class:`~repro.stream.Alarm` events
        (surfaced as ``"alarm"`` metrics events, so the CLI can print
        them live).  Per-window features and scores are bit-identical to
        the batch pipeline over the same trace.  Returns the lane's
        :class:`~repro.stream.StreamResult`.

        Parameters
        ----------
        seed:
            Mobility seed of the streamed trace (default: the plan's
            first attack seed, or first normal seed with
            ``attack=False``).
        attack:
            ``False`` streams an intrusion-free trace instead (expected
            alarm rate ≈ the calibrated false-alarm rate).
        monitor, warmup, threshold, on_alarm, row_policy, attribution:
            The shared construction keywords (see
            :mod:`repro.stream.config`); ``None`` defaults to the plan's
            monitor / warmup, the calibrated threshold and the shared
            row policy.  ``attribution=True`` attaches a typed
            :class:`~repro.attribution.Verdict` to every alarm — the
            ``"alarm"`` metrics events gain ``type=... features=...``
            fragments and each verdict is counted via
            :meth:`RuntimeMetrics.record_verdict` (scores and alarm
            decisions are unchanged).
        checkpoint, checkpoint_every, resume_from, stream_faults:
            Durable-run and chaos knobs, as in :meth:`fleet_detect`;
            with one lane a checkpoint round is one sampling tick, and
            ``stream_faults`` clauses target the lane ``n<monitor>``.
            A single stream has no consecutive-fault breaker and emits
            no fused-alarm, fleet-batch or lane-seal events.
        """
        from repro.stream.config import NO_FAULT_BREAKER

        monitor = plan.monitor if monitor is None else int(monitor)
        if monitor == plan.attacker:
            raise ValueError("monitor must differ from the attacker")
        if seed is None:
            seed = plan.attack_seeds[0] if attack else plan.normal_seeds[0]
        result = self._detect_lanes(
            plan, (seed,), (monitor,), single=True, attack=attack, warmup=warmup,
            training=dict(classifier=classifier, method=method,
                          false_alarm_rate=false_alarm_rate, max_models=max_models,
                          n_buckets=n_buckets),
            checkpoint=checkpoint, checkpoint_every=checkpoint_every,
            resume_from=resume_from, stream_faults=stream_faults,
            on_alarm=on_alarm, on_fused=None, threshold=threshold,
            row_policy=row_policy, attribution=attribution,
            max_consecutive_faults=NO_FAULT_BREAKER,
        )
        return result.streams[f"n{monitor}"]

    def fleet_detect(
        self,
        plan: ExperimentPlan,
        classifier: str = "c45",
        method: str = "calibrated_probability",
        false_alarm_rate: float = 0.02,
        seeds: Sequence[int] | None = None,
        attack: bool = True,
        monitors: Sequence[int] | None = None,
        warmup: float | None = None,
        threshold: float | None = None,
        quorum: int | float = 1,
        max_models: int | None = None,
        n_buckets: int = 5,
        on_alarm: "Callable[[Alarm], None] | None" = None,
        on_fused: "Callable[[FleetAlarm], None] | None" = None,
        row_policy: str | None = None,
        attribution: bool = False,
        max_consecutive_faults: int | None = None,
        stall_timeout: float | None = None,
        checkpoint: "str | os.PathLike | None" = None,
        checkpoint_every: int | None = None,
        resume_from: "str | os.PathLike | None" = None,
        stream_faults: "StreamFaultPlan | str | None" = None,
    ) -> "FleetResult":
        """Fleet detection: one detector watching every node at once.

        Trains (or reuses) the plan's detector via
        :meth:`fitted_detector`, registers one streaming lane per
        (scenario, monitor), named ``s<k>/n<monitor>``, then runs one
        fresh scenario per seed with all of that scenario's taps riding
        it.  Windows closing on the same tick — across every monitored
        node and every scenario — are scored in one vectorized batch;
        per-stream scores are bit-identical to independent
        :meth:`stream_detect` runs over the same traces.

        Per-stream alarms surface as ``"alarm"`` metrics events, fused
        network-level verdicts as ``"fused_alarm"`` events (the CLI
        prints them live), and every scoring batch is accounted via
        :meth:`RuntimeMetrics.record_fleet_batch`.

        Parameters
        ----------
        seeds:
            Mobility seeds, one fresh scenario each (default: the plan's
            first attack seed, or first normal seed with
            ``attack=False``).
        attack:
            ``False`` streams intrusion-free scenarios instead.
        monitors, warmup, threshold, quorum, on_alarm, on_fused:
            The shared construction keywords (see
            :mod:`repro.stream.config`); ``monitors=None`` watches every
            node except the plan's attacker.
        attribution:
            ``True`` attaches typed verdicts per lane alarm and a fused
            verdict (majority vote over the alarming lanes) per
            :class:`~repro.stream.FleetAlarm`; the ``"alarm"`` /
            ``"fused_alarm"`` metrics events gain ``type=...``
            fragments and verdicts are counted via
            :meth:`RuntimeMetrics.record_verdict`.  Scores, alarm sets
            and fused timing are unchanged.
        row_policy, max_consecutive_faults, stall_timeout:
            Degraded-input handling (see :mod:`repro.stream.config`);
            ``None`` takes the shared defaults.  Quarantined rows,
            auto-sealed lanes and duplicate seals surface as
            ``"stream_fault"`` / ``"lane_sealed"`` /
            ``"duplicate_seal"`` metrics events and ride the
            :class:`~repro.stream.FleetResult`.
        checkpoint, checkpoint_every, resume_from:
            Durable-run knobs (see :mod:`repro.stream.durability`):
            ``checkpoint`` snapshots the full fleet state every
            ``checkpoint_every`` lockstep rounds; ``resume_from``
            restores such a snapshot and continues, with scores and
            alarms bit-identical to the uninterrupted run.
        stream_faults:
            Injected chaos — a :class:`~repro.stream.faults.StreamFaultPlan`
            or its mini-language string.

        Plain live runs simulate fresh, bypassing the artifact cache
        (timed as the ``fleet`` stage); durable runs (any of
        ``checkpoint`` / ``resume_from`` / ``stream_faults`` set) record
        the traces through the cache and replay them round-robin (see
        :func:`~repro.stream.durability.run_durable_fleet`) — live ==
        replay keeps the scores bit-identical either way.  Ground-truth
        labels are attached post hoc under the plan's label policy.
        """
        from repro.stream.config import DEFAULT_MAX_FAULTS

        if seeds is None:
            seeds = (plan.attack_seeds[0],) if attack else (plan.normal_seeds[0],)
        if monitors is None:
            monitors = tuple(m for m in range(plan.n_nodes) if m != plan.attacker)
        if max_consecutive_faults is None:
            max_consecutive_faults = DEFAULT_MAX_FAULTS
        return self._detect_lanes(
            plan, tuple(seeds), tuple(monitors), single=False, attack=attack,
            warmup=warmup,
            training=dict(classifier=classifier, method=method,
                          false_alarm_rate=false_alarm_rate, max_models=max_models,
                          n_buckets=n_buckets),
            checkpoint=checkpoint, checkpoint_every=checkpoint_every,
            resume_from=resume_from, stream_faults=stream_faults,
            on_alarm=on_alarm, on_fused=on_fused, threshold=threshold,
            quorum=quorum, row_policy=row_policy, attribution=attribution,
            max_consecutive_faults=max_consecutive_faults,
            stall_timeout=stall_timeout,
        )

    def _detect_lanes(
        self,
        plan: ExperimentPlan,
        seeds: tuple[int, ...],
        monitors: tuple[int, ...],
        single: bool,
        attack: bool,
        warmup: float | None,
        training: dict,
        checkpoint: "str | os.PathLike | None",
        checkpoint_every: int | None,
        resume_from: "str | os.PathLike | None",
        stream_faults: "StreamFaultPlan | str | None",
        on_alarm: "Callable[[Alarm], None] | None",
        on_fused: "Callable[[FleetAlarm], None] | None",
        **fleet_knobs,
    ) -> "FleetResult":
        """The one streaming driver behind both public entry points.

        Trains, registers one lane per (scenario ``s<k>``, monitor),
        relays alarms / faults (fleets also fused alarms, batches and
        seals) into the metrics, runs live or replays durably, and
        labels every lane whose scored windows still align with the
        trace's ticks (quarantined, dropped or crashed rows leave
        fewer; those lanes stay all-normal).  ``single`` names the one
        lane ``n<monitor>`` and keeps the ``stream`` stage and labels.
        """
        import numpy as np

        from repro.simulation.scenario import run_scenario
        from repro.stream.durability import run_durable_fleet
        from repro.stream.faults import StreamFaultPlan
        from repro.stream.fleet import FleetDetector

        def relay_alarm(alarm: "Alarm") -> None:
            at = f"t={alarm.time:g}s" if single else f"{alarm.stream} t={alarm.time:g}s"
            label = (
                f"{'window ' if single else ''}{at} score={alarm.score:.4f} "
                f"< {alarm.threshold:.4f}"
            )
            if alarm.verdict is not None:
                label += f" {alarm.verdict.summary()}"
                self.metrics.record_verdict(f"{at} {alarm.verdict.summary()}")
            self.metrics.record_alarm(label, alarm.latency_s)
            if on_alarm is not None:
                on_alarm(alarm)

        def relay_fused(fused: "FleetAlarm") -> None:
            label = (
                f"t={fused.time:g}s {len(fused.streams)}/{fused.reporting} "
                f"streams below {fused.threshold:.4f} "
                f"(quorum {fused.needed})"
            )
            if fused.verdict is not None:
                label += f" {fused.verdict.summary()}"
                self.metrics.record_verdict(
                    f"fused t={fused.time:g}s {fused.verdict.summary()}"
                )
            self.metrics.record_fused_alarm(label, fused.latency_s)
            if on_fused is not None:
                on_fused(fused)

        def relay_fault(fault: "StreamFault") -> None:
            self.metrics.record_stream_fault(
                f"{fault.stream} {fault.kind} row {fault.index} "
                f"t={fault.time:g}: {fault.detail}"
            )

        def relay_seal(name: str, reason: str) -> None:
            if reason == "duplicate":
                self.metrics.record_duplicate_seal(name)
            else:
                self.metrics.record_lane_sealed(f"{name}: {reason}")

        warmup = plan.warmup if warmup is None else float(warmup)
        if isinstance(stream_faults, str):
            stream_faults = StreamFaultPlan.parse(stream_faults)
        durable = (
            checkpoint is not None
            or resume_from is not None
            or stream_faults is not None
        )
        fleet = FleetDetector.from_detector(
            self.fitted_detector(plan, **training),
            on_alarm=relay_alarm,
            on_fused=None if single else relay_fused,
            on_batch=None if single else self.metrics.record_fleet_batch,
            on_fault=relay_fault,
            on_seal=None if single else relay_seal,
            faults=stream_faults,
            **fleet_knobs,
        )
        scenarios = {f"s{k}": seed for k, seed in enumerate(seeds)}
        sampling_period = plan.scenario_config(plan.train_seeds[0]).sampling_period
        for scenario in scenarios:
            for monitor in monitors:
                fleet.add_stream(
                    monitor,
                    scenario=scenario,
                    periods=plan.periods,
                    sampling_period=sampling_period,
                    warmup=warmup,
                    name=f"n{monitor}" if single else None,
                )

        stage = "stream" if single else "fleet"
        attacks = plan.build_attacks() if attack else []
        traces: dict[str, "SimulationTrace"] = {}
        if durable:
            for name, seed in scenarios.items():
                traces[name] = self.trace(
                    plan.scenario_config(seed), attacks,
                    label=f"stream[{seed}]" if single else f"fleet[{name}]",
                )
            with self._stage(stage) as timer:
                run_durable_fleet(
                    traces,
                    fleet,
                    checkpoint=checkpoint,
                    checkpoint_every=checkpoint_every,
                    resume_from=resume_from,
                    faults=stream_faults,
                    on_checkpoint=lambda r: self.metrics.record_checkpoint(str(r)),
                    on_restore=lambda r: self.metrics.record_restore(str(r)),
                )
        else:
            with self._stage(stage) as timer:
                for name, seed in scenarios.items():
                    traces[name] = run_scenario(
                        plan.scenario_config(seed), attacks=attacks,
                        taps=fleet.taps(name),
                    )
                fleet.finish()

        result = fleet.result(elapsed_s=timer.elapsed)
        for name, trace in traces.items():
            ticks = np.asarray(trace.tick_times, dtype=float)
            truth = np.asarray(trace.window_labels(plan.label_policy), dtype=bool)
            if warmup > 0:
                truth = truth[ticks >= warmup]
            for tap in fleet.taps(name):
                lane = result.streams[tap.name]
                if len(truth) == lane.windows:
                    lane.labels = truth
        return result

    def sweep(
        self,
        plans: Mapping[str, ExperimentPlan] | Sequence[ExperimentPlan],
        classifier: str = "c45",
        method: str = "calibrated_probability",
        **knobs,
    ):
        """Detection experiments over several plans, sharing one fan-out.

        Accepts a name→plan mapping (returns a name→result dict, e.g. the
        output of :func:`~repro.eval.experiments.four_scenarios`) or a
        plain sequence of plans (returns a list of results in order).
        """
        if isinstance(plans, Mapping):
            self.prefetch(list(plans.values()))
            return {
                name: self.detect(plan, classifier=classifier, method=method, **knobs)
                for name, plan in plans.items()
            }
        plans = list(plans)
        self.prefetch(plans)
        return [
            self.detect(plan, classifier=classifier, method=method, **knobs)
            for plan in plans
        ]

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover
        where = str(self.cache.dir) if self.cache is not None else "disabled"
        return f"Session(jobs={self.jobs}, cache={where!r})"


# ----------------------------------------------------------------------
# Process-wide default session (backs the legacy module-level helpers).
# ----------------------------------------------------------------------
_default_session: Session | None = None


def default_session() -> Session:
    """The lazily-created session behind the legacy module-level API."""
    global _default_session
    if _default_session is None:
        _default_session = Session()
    return _default_session


def set_default_session(session: Session | None) -> None:
    """Replace (or with ``None``, reset) the process-wide default session."""
    global _default_session
    _default_session = session
