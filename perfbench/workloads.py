"""The benchmark's three workloads, their set-up and their output checks.

Each workload is a *set-up* (repeated, and timed as ``setup_s``) and a
*unit* of work (timed; repeated until the run's ``--seconds`` are used
up, at least once).  Every unit is checked against the batch pipeline
and, where the inputs are the pinned ones, against ``pins.json``:

* ``paper-cold`` — a cold ``Session(cache=False, jobs=1).detect`` with
  C4.5 for AODV and for DSR, one train / calibration / normal / attacked
  trace each, simulated from the default plan seeds.
* ``online-replay`` — one normal and one attacked recorded eval trace
  of each default plan replayed at monitor 0, one stream at a time,
  through ``StreamingExtractor`` → ``OnlineDetector.consume`` with
  attribution.
* ``fleet-durable`` — one ``FleetDetector`` (quorum 2) with a lane per
  (DSR eval trace, non-attacker monitor), advanced in lockstep by
  ``ReplayCursor`` with ``save_fleet_checkpoint`` every 10 rounds.

The stream workloads replay a trace store owned by the benchmark: the 14
traces of the two default plans, simulated once into ``.store/`` and
verified against their pinned fingerprints on every load.

The seed orders the work and never changes what is simulated: it picks
the protocol order of ``paper-cold`` and the order in which stream lanes
are replayed or registered.  Seed 0 keeps the plan order.  (Shifting
the plan seeds instead makes the attacked AODV trace's black-hole storm
cost 14-24 s depending on the mobility seed; see README.md.)  Every
checked output is order-free, so the pins hold at every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import ExperimentPlan, Session, extract_features
from repro.eval.experiments import RawTraces
from repro.simulation.scenario import trace_fingerprint
from repro.stream import (
    FleetDetector,
    OnlineDetector,
    extractor_for_config,
    replay_trace,
    save_fleet_checkpoint,
)
from repro.stream.replay import ReplayCursor

from tracing import NullTracer

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"

PROTOCOLS = ("aodv", "dsr")
SETUP_REPS = 3
MONITOR = 0
QUORUM = 2
CHECKPOINT_EVERY = 10


@dataclass(frozen=True)
class Size:
    """Scenario scale; the tests use a reduced one."""

    n_nodes: int = 20
    duration: float = 1000.0       #: the default plans behind the trace store
    cold_duration: float = 400.0   #: paper-cold traces (see README: run budget)
    max_connections: int = 40


FULL = Size()


def stream_plans(size: Size) -> dict[str, ExperimentPlan]:
    """The default ``ExperimentPlan`` of each protocol, at ``size``."""
    return {
        p: ExperimentPlan(
            protocol=p, n_nodes=size.n_nodes, duration=size.duration,
            max_connections=size.max_connections,
        )
        for p in PROTOCOLS
    }


def cold_plans(size: Size) -> dict[str, ExperimentPlan]:
    """One train / calibration / normal / attacked trace per protocol."""
    return {
        p: replace(
            plan,
            duration=size.cold_duration,
            train_seeds=plan.train_seeds[:1],
            normal_seeds=plan.normal_seeds[:1],
            attack_seeds=plan.attack_seeds[:1],
        )
        for p, plan in stream_plans(size).items()
    }


def plan_traces(raw: RawTraces) -> dict[str, object]:
    """Label → trace for every simulation of one plan."""
    p = raw.plan
    out = {f"{p.protocol}/train[{s}]": t for s, t in zip(p.train_seeds, raw.train)}
    out[f"{p.protocol}/calibration[{p.calibration_seed}]"] = raw.calibration
    out.update(
        (f"{p.protocol}/normal[{s}]", t) for s, t in zip(p.normal_seeds, raw.normal_evals)
    )
    out.update(
        (f"{p.protocol}/attack[{s}]", t) for s, t in zip(p.attack_seeds, raw.abnormal_evals)
    )
    return out


def eval_traces(raw: RawTraces) -> dict[str, object]:
    return {
        label: t for label, t in plan_traces(raw).items()
        if "/normal[" in label or "/attack[" in label
    }


def logged_packets(trace) -> int:
    return sum(
        len(times) for node in trace.recorder.nodes
        for times in node.packet_times.values()
    )


# ----------------------------------------------------------------------
# Digests and checks
# ----------------------------------------------------------------------
def sha256(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def result_digest(result) -> str:
    """sha256 of a ``DetectionResult``'s scores, threshold and AUC."""
    scores = np.ascontiguousarray(result.scores, dtype=np.float64)
    return sha256(scores.tobytes(), float(result.threshold), float(result.auc))


def alarms_digest(alarms_by_lane: dict[str, list]) -> str:
    """Order-free digest of per-lane alarms (verdicts included)."""
    return sha256(sorted(
        (lane, a.index, a.time, a.score, repr(a.verdict))
        for lane, alarms in alarms_by_lane.items() for a in alarms
    ))


def fused_digest(fused) -> str:
    """Order-free digest of a fleet's fused alarm set."""
    return sha256(sorted(
        (f.time, tuple(sorted(zip(f.streams, f.scores))), f.reporting, f.needed)
        for f in fused
    ))


class Pins:
    """Golden outputs at the default seed (``pins.json``).

    With ``update=True`` observed values are recorded instead of checked
    (for an intentional semantic change; the diff then shows it).
    """

    def __init__(self, table: dict | None = None, update: bool = False):
        self.table = table if table is not None else {}
        self.update = update

    @classmethod
    def load(cls, path: Path = PINS_PATH, update: bool = False) -> "Pins":
        table = json.loads(path.read_text()) if path.exists() else {}
        return cls(table, update)

    def save(self, path: Path = PINS_PATH) -> None:
        path.write_text(json.dumps(self.table, indent=1, sort_keys=True) + "\n")

    def check(self, section: str, key: str, value: str) -> str | None:
        """``None`` when ``value`` matches its pin, else a failure line."""
        pinned = self.table.setdefault(section, {})
        if self.update:
            pinned[key] = value
            return None
        if key not in pinned:
            return f"{section}: no pin for {key}"
        if pinned[key] != value:
            return f"{section}: {key} is {value[:16]}..., pinned {pinned[key][:16]}..."
        return None


# ----------------------------------------------------------------------
# The benchmark-owned trace store
# ----------------------------------------------------------------------
class TraceStore:
    """The default plans' traces, simulated once and verified on load."""

    def __init__(self, directory: Path, size: Size, pins: Pins):
        self.dir = Path(directory)
        self.pins = pins
        self.plans = stream_plans(size)

    def ensure(self, protocols=PROTOCOLS) -> None:
        """Simulate whatever is missing (untimed; uses every core)."""
        Session(cache_dir=self.dir, jobs=min(2, os.cpu_count() or 1)).prefetch(
            [self.plans[p] for p in protocols]
        )

    def heal(self, protocols=PROTOCOLS) -> None:
        """Distrust every entry: wipe the store and simulate it again."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.ensure(protocols)

    def load(self, protocols) -> tuple[dict, dict, list[str], str]:
        """Traces, fitted detectors, fingerprint failures, inputs digest.

        One fresh ``Session`` per call, so every set-up repetition pays
        the disk load, the fingerprint check and the fit again.
        """
        session = Session(cache_dir=self.dir, jobs=1)
        raws, detectors, failures, fingerprints = {}, {}, [], []
        for p in protocols:
            plan = self.plans[p]
            raws[p] = session.raw_traces(plan)
            for label, trace in plan_traces(raws[p]).items():
                fingerprints.append((label, trace_fingerprint(trace)))
                failures.append(self.pins.check("store", *fingerprints[-1]))
            detectors[p] = session.fitted_detector(plan)
        return raws, detectors, [f for f in failures if f], sha256(fingerprints)


def source_digest() -> str:
    """Digest of the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for root in (HERE.parent / "src" / "repro", HERE):
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def kept(path: Path, compute):
    """``compute()``, kept in ``path`` for later runs of the same sources."""
    try:
        return pickle.loads(path.read_bytes())
    except (OSError, EOFError, pickle.UnpicklingError):
        value = compute()
        tmp = path.with_name(f".{path.name}.{os.getpid()}")
        tmp.write_bytes(pickle.dumps(value))
        os.replace(tmp, path)
        return value


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Unit:
    """What one timed unit of work produced."""

    wall_s: float
    latencies_s: list[float]
    windows: int
    digests: dict
    counts: dict = field(default_factory=dict)
    outputs: object = None


@dataclass
class Outcome:
    """One workload run: the fields of the JSON result line, plus a report."""

    attempted: int
    failed: int
    failures: list[str]
    metrics: dict[str, tuple[float, str]]
    report: list[str]

    @property
    def correct(self) -> bool:
        return not self.failures


def percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float) * 1e3, q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def lane_order(names: list, seed: int) -> list:
    """The seed's order of the work (seed 0 keeps the plan order)."""
    names = list(names)
    if seed:
        random.Random(seed).shuffle(names)
    return names


# ----------------------------------------------------------------------
# paper-cold
# ----------------------------------------------------------------------
class PaperCold:
    name = "paper-cold"
    tail_q = None        # two DetectionResults: the tail is the slower one
    protocols = ()       # simulates its own traces, cold

    def __init__(self, seed: int, size: Size, pins: Pins, workdir: Path, store: TraceStore):
        self.seed, self.size, self.pins = seed, size, pins

    def setup(self, tracer) -> tuple[object, list[str]]:
        plans = cold_plans(self.size)
        return {p: plans[p] for p in lane_order(list(plans), self.seed)}, []

    def unit(self, plans, tracer) -> Unit:
        results, latencies = {}, []
        t0 = perf_counter()
        with tracer.region("bench.unit"):
            session = Session(cache=False, jobs=1)
            for p, plan in plans.items():
                t = perf_counter()
                results[p] = session.detect(plan, classifier="c45")
                latencies.append(perf_counter() - t)
        wall = perf_counter() - t0
        traces = {}
        for p, plan in plans.items():
            traces.update(plan_traces(session.raw_traces(plan)))
        return Unit(
            wall_s=wall,
            latencies_s=latencies,
            windows=sum(len(r.scores) for r in results.values()),
            digests={
                "traces": {k: trace_fingerprint(t) for k, t in traces.items()},
                "results": {p: result_digest(r) for p, r in results.items()},
            },
            counts={
                "packets": sum(logged_packets(t) for t in traces.values()),
                "traces": len(traces),
                "trace_s": [s for _label, s in session.metrics.trace_seconds],
            },
            outputs=results,
        )

    def check(self, plans, unit: Unit) -> tuple[int, int, list[str]]:
        failures = []
        for label, fp in unit.digests["traces"].items():
            failures.append(self.pins.check(self.name, f"trace {label}", fp))
        for p, digest in unit.digests["results"].items():
            failures.append(self.pins.check(self.name, f"result {p}", digest))
        for p, result in unit.outputs.items():
            if not np.isfinite(result.scores).all() or len(result.scores) == 0:
                failures.append(f"paper-cold: {p} scores missing or not finite")
        failures = [f for f in failures if f]
        n = len(unit.digests["traces"])
        return n, min(n, len(failures)), failures

    def report(self, unit: Unit) -> list[str]:
        return [
            f"detect_s            {unit.wall_s:10.3f} s   (both DetectionResults, "
            f"{unit.counts['traces']} traces simulated)",
            "per-protocol detect " + ", ".join(
                f"{p} {t:.3f} s" for p, t in zip(unit.outputs, unit.latencies_s)
            ),
            f"slowest trace       {max(unit.counts['trace_s']):10.3f} s",
        ]


# ----------------------------------------------------------------------
# online-replay
# ----------------------------------------------------------------------
class OnlineReplay:
    name = "online-replay"
    tail_q = 95          # 724 windows: p95 has 36 beyond; p99 swung ~10 % run to run
    protocols = PROTOCOLS

    def __init__(self, seed: int, size: Size, pins: Pins, workdir: Path, store: TraceStore):
        self.seed, self.pins, self.workdir, self.store = seed, pins, workdir, store
        self._reference = None

    def setup(self, tracer):
        with tracer.region("bench.setup"):
            raws, detectors, failures, inputs = self.store.load(self.protocols)
        lanes = []
        for p in self.protocols:
            plan, traces = self.store.plans[p], eval_traces(raws[p])
            lanes += [
                (label, p, traces[label]) for label in (
                    f"{p}/normal[{plan.normal_seeds[0]}]",
                    f"{p}/attack[{plan.attack_seeds[0]}]",
                )
            ]
        ctx = {
            "lanes": lane_order(lanes, self.seed),
            "detectors": detectors,
            "plans": self.store.plans,
            "inputs": inputs,
        }
        return ctx, failures

    def unit(self, ctx, tracer) -> Unit:
        latencies: list[float] = []
        detectors, events, raised = {}, 0, []

        def timed(consume):
            def on_row(row):
                t = perf_counter()
                consume(row)
                latencies.append(perf_counter() - t)
            return on_row

        t0 = perf_counter()
        with tracer.region("bench.unit"):
            for label, p, trace in ctx["lanes"]:
                plan = ctx["plans"][p]
                online = OnlineDetector.from_detector(
                    ctx["detectors"][p], monitor=MONITOR, attribution=True
                )
                tap = extractor_for_config(
                    trace.config, monitor=MONITOR, periods=plan.periods,
                    warmup=plan.warmup, on_row=timed(online.consume), keep_rows=False,
                )
                detectors[label] = online
                with tracer.region("bench.lane", ident=label):
                    try:
                        events += replay_trace(trace, tap)
                    except Exception:  # a lane failure is counted, not fatal
                        raised.append(label)
                        traceback.print_exc(file=sys.stderr)
        wall = perf_counter() - t0
        alarms = {label: d.alarms for label, d in detectors.items()}
        return Unit(
            wall_s=wall,
            latencies_s=latencies,
            windows=sum(len(d.scores) for d in detectors.values()),
            digests={
                "scores": sha256(sorted((k, d.scores) for k, d in detectors.items())),
                "alarms": alarms_digest(alarms),
            },
            counts={
                "events": events,
                "windows": sum(len(d.scores) for d in detectors.values()),
                "alarms": sum(len(a) for a in alarms.values()),
                "verdicts": sum(
                    1 for a in alarms.values() for x in a if x.verdict is not None
                ),
                "lanes_failed": len(raised),
            },
            outputs=(detectors, raised),
        )

    def reference(self, ctx) -> dict[str, np.ndarray]:
        """Batch ``extract_features`` → ``normality_score`` per lane.

        Kept across runs of the same sources on the same verified store
        traces: the batch path is deterministic on those inputs.
        """
        def batch():
            scores = {}
            for label, p, trace in ctx["lanes"]:
                plan, det = ctx["plans"][p], ctx["detectors"][p]
                ds = extract_features(
                    trace, monitor=MONITOR, periods=plan.periods,
                    warmup=plan.warmup, label_policy=plan.label_policy,
                )
                scores[label] = det.model.normality_score(ds.X, det.method)
            return scores

        if self._reference is None:
            key = sha256(source_digest(), ctx["inputs"])[:16]
            self._reference = kept(self.workdir / f"reference-{self.name}-{key}.pkl", batch)
        return self._reference

    def check(self, ctx, unit: Unit) -> tuple[int, int, list[str]]:
        detectors, raised = unit.outputs
        reference = self.reference(ctx)
        attempted = sum(len(r) for r in reference.values())
        failed, failures = 0, []
        for label, expected in reference.items():
            got = np.asarray(detectors[label].scores, dtype=float)
            if label in raised or not np.array_equal(got, expected):
                bad = len(expected) if len(got) != len(expected) else int(
                    (got != expected).sum()
                )
                failed += max(bad, 1)
                if label not in raised:
                    failures.append(
                        f"online-replay: {label} online scores differ from batch "
                        f"({len(got)} vs {len(expected)} rows)"
                    )
        failures.append(self.pins.check(self.name, "alarms", unit.digests["alarms"]))
        return attempted, failed, [f for f in failures if f]

    def report(self, unit: Unit) -> list[str]:
        return [
            f"window_p50_ms       {percentile_ms(unit.latencies_s, 50):10.3f} ms  "
            f"(consume incl. attribution, n={len(unit.latencies_s)})",
            f"window_p95_ms       {percentile_ms(unit.latencies_s, 95):10.3f} ms",
            f"window_p99_ms       {percentile_ms(unit.latencies_s, 99):10.3f} ms",
            f"online_windows_per_s{unit.windows / unit.wall_s:10.1f} 1/s "
            f"({unit.windows} windows in {unit.wall_s:.3f} s)",
        ]


# ----------------------------------------------------------------------
# fleet-durable
# ----------------------------------------------------------------------
class FleetDurable:
    name = "fleet-durable"
    tail_q = 95          # 201 rounds: p95 is the highest with ten beyond it
    protocols = ("dsr",)

    def __init__(self, seed: int, size: Size, pins: Pins, workdir: Path, store: TraceStore):
        self.seed, self.pins, self.workdir, self.store = seed, pins, workdir, store
        self.checkpoint_path = Path(workdir) / f"fleet-{os.getpid()}.ckpt"
        self._reference = None

    def setup(self, tracer):
        with tracer.region("bench.setup"):
            raws, detectors, failures, inputs = self.store.load(self.protocols)
        plan = self.store.plans["dsr"]
        traces = eval_traces(raws["dsr"])
        monitors = [m for m in range(plan.n_nodes) if m != plan.attacker]
        lanes = [(scenario, m) for scenario in traces for m in monitors]
        ctx = {
            "plan": plan,
            "detector": detectors["dsr"],
            "traces": traces,
            "lanes": lane_order(lanes, self.seed),
            "inputs": inputs,
        }
        return ctx, failures

    def unit(self, ctx, tracer) -> Unit:
        plan, traces = ctx["plan"], ctx["traces"]
        sampling_period = plan.scenario_config(plan.train_seeds[0]).sampling_period
        rounds: list[float] = []
        checkpoint_s: list[float] = []
        raised: dict[str, str] = {}
        finish_raises = 0
        t0 = perf_counter()
        with tracer.region("bench.unit"):
            fleet = FleetDetector.from_detector(
                ctx["detector"], quorum=QUORUM, attribution=False
            )
            for scenario, monitor in ctx["lanes"]:
                fleet.add_stream(
                    monitor, scenario=scenario, periods=plan.periods,
                    sampling_period=sampling_period, warmup=plan.warmup,
                )
            cursors = [
                (tap.name, ReplayCursor(traces[tap.scenario], tap)) for tap in fleet.taps()
            ]
            n_round = 0
            while any(not c.done for _, c in cursors):
                r0 = perf_counter()
                with tracer.region("stream.round"):
                    for name, cursor in cursors:
                        if cursor.done:
                            continue
                        tracer.ident = name
                        try:
                            cursor.step_tick()
                        except Exception as exc:  # isolate the lane, keep going
                            raised[name] = f"round {n_round}: {exc!r}"
                            cursor.done = True
                            try:
                                fleet.drop(name)
                            except Exception:
                                finish_raises += 1
                    tracer.ident = ""
                    n_round += 1
                    if n_round % CHECKPOINT_EVERY == 0:
                        c0 = perf_counter()
                        save_fleet_checkpoint(
                            self.checkpoint_path,
                            {name: c.position for name, c in cursors}, fleet,
                        )
                        checkpoint_s.append(perf_counter() - c0)
                rounds.append(perf_counter() - r0)
            try:
                fleet.finish()
            except Exception:
                finish_raises += 1
        wall = perf_counter() - t0
        checkpoint_bytes = (
            self.checkpoint_path.stat().st_size if self.checkpoint_path.exists() else 0
        )
        self.checkpoint_path.unlink(missing_ok=True)
        result = fleet.result()
        return Unit(
            wall_s=wall,
            latencies_s=rounds,
            windows=result.windows,
            digests={
                "scores": sha256(sorted(
                    (k, r.scores) for k, r in result.streams.items()
                )),
                "fused": fused_digest(result.fused),
                "raised": sorted(raised),
            },
            counts={
                "events": sum(c.position for _, c in cursors),
                "windows": result.windows,
                "alarms": result.alarms,
                "fused_alarms": len(result.fused),
                "lanes_failed": len(raised),
                "finish_raises": finish_raises,
                "checkpoints": len(checkpoint_s),
                "checkpoint_bytes": checkpoint_bytes,
                "rounds": len(rounds),
            },
            outputs=(result, raised),
        )

    def reference(self, ctx) -> dict[str, np.ndarray]:
        """Batch scores per lane: one ``normality_score`` over every lane.

        Kept across runs like :meth:`OnlineReplay.reference`.
        """
        def batch():
            plan, det = ctx["plan"], ctx["detector"]
            names, blocks = [], []
            for scenario, monitor in sorted(ctx["lanes"]):
                ds = extract_features(
                    ctx["traces"][scenario], monitor=monitor, periods=plan.periods,
                    warmup=plan.warmup, label_policy=plan.label_policy,
                )
                names.append(f"{scenario}/n{monitor}")
                blocks.append(ds.X)
            scores = det.model.normality_score(np.vstack(blocks), det.method)
            bounds = np.cumsum([0] + [len(b) for b in blocks])
            return {name: scores[bounds[k]:bounds[k + 1]] for k, name in enumerate(names)}

        if self._reference is None:
            key = sha256(source_digest(), ctx["inputs"])[:16]
            self._reference = kept(self.workdir / f"reference-{self.name}-{key}.pkl", batch)
        return self._reference

    def check(self, ctx, unit: Unit) -> tuple[int, int, list[str]]:
        result, raised = unit.outputs
        failures = []
        failed = set(raised)
        for name, expected in self.reference(ctx).items():
            if name in raised:
                continue
            got = result.streams[name].scores
            if not np.array_equal(got, expected):
                failed.add(name)
                failures.append(
                    f"fleet-durable: lane {name} scores differ from batch "
                    f"({len(got)} vs {len(expected)} rows)"
                )
        failures.append(self.pins.check(self.name, "fused", unit.digests["fused"]))
        return len(ctx["lanes"]), len(failed), [f for f in failures if f]

    def report(self, unit: Unit) -> list[str]:
        result, raised = unit.outputs
        lines = [
            f"fleet_windows_per_s {unit.windows / unit.wall_s:10.1f} 1/s "
            f"({unit.windows} windows, {len(result.streams)} lanes, "
            f"{unit.counts['rounds']} rounds in {unit.wall_s:.3f} s)",
            f"round_p50_ms        {percentile_ms(unit.latencies_s, 50):10.3f} ms  "
            f"(n={len(unit.latencies_s)})",
            f"round_p95_ms        {percentile_ms(unit.latencies_s, 95):10.3f} ms",
            f"lanes raised        {len(raised):10d}     "
            f"(finish/drop raises: {unit.counts['finish_raises']})",
        ]
        lines += [f"  lane {name}: {why}" for name, why in sorted(raised.items())]
        return lines


WORKLOAD_CLASSES = {cls.name: cls for cls in (PaperCold, OnlineReplay, FleetDurable)}


# ----------------------------------------------------------------------
# Driving one run
# ----------------------------------------------------------------------
def end_to_end(workload, setup_s: float, units: list[Unit]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics: medians over the run's units."""
    latencies = [x for u in units for x in u.latencies_s]
    tail = (
        max(latencies) * 1e3 if workload.tail_q is None
        else percentile_ms(latencies, workload.tail_q)
    )
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(u.wall_s for u in units), "s"),
        "windows_per_s": (statistics.median(u.windows / u.wall_s for u in units), "1/s"),
        "latency_p50_ms": (percentile_ms(latencies, 50), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def timed_setup(workload, store: TraceStore, tracer, reps: int):
    """Median set-up seconds over ``reps``; heals a bad store once."""
    times, ctx, failures = [], None, []
    healed = False
    while len(times) < reps:
        ctx = None      # let the previous repetition's traces go first
        t0 = perf_counter()
        ctx, failures = workload.setup(tracer)
        elapsed = perf_counter() - t0
        if failures and not healed and not store.pins.update:
            # A stale or corrupt entry is never trusted: simulate it again
            # (untimed) and redo this repetition.
            healed = True
            store.heal(workload.protocols)
            continue
        times.append(elapsed)
        if failures:
            break
    return ctx, statistics.median(times), failures


def run(workload_name: str, seed: int, seconds: float, size: Size = FULL,
        store_dir: Path = HERE / ".store", workdir: Path = HERE / ".out",
        pins: Pins | None = None, import_s: float = 0.0) -> Outcome:
    """One untraced run of a workload: the end-to-end metrics."""
    pins = pins if pins is not None else Pins.load()
    workdir.mkdir(parents=True, exist_ok=True)
    store = TraceStore(store_dir, size, pins)
    workload = WORKLOAD_CLASSES[workload_name](seed, size, pins, workdir, store)
    if workload.protocols:
        store.ensure(workload.protocols)
    tracer = NullTracer()
    ctx, setup_s, failures = timed_setup(workload, store, tracer, SETUP_REPS)
    units = []
    t0 = perf_counter()
    while not units or perf_counter() - t0 < seconds:
        units.append(workload.unit(ctx, tracer))
    attempted = failed = 0
    for unit in units:
        a, f, unit_failures = workload.check(ctx, unit)
        attempted, failed = attempted + a, failed + f
        failures += unit_failures
    failures = list(dict.fromkeys(failures))
    metrics = end_to_end(workload, import_s + setup_s, units)
    report = [f"units               {len(units):10d}"] + workload.report(units[0])
    return Outcome(attempted, failed, failures, metrics, report)


def run_traced(workload_name: str, seed: int, size: Size = FULL,
               store_dir: Path = HERE / ".store", workdir: Path = HERE / ".out",
               pins: Pins | None = None) -> tuple[Outcome, "Tracer"]:
    """One traced run of a workload: the per-layer metrics.

    A traced set-up, then one unit untraced and the same unit traced,
    back to back on the same inputs.  Their outputs (fingerprints, score
    and alarm digests) must be identical, which shows that the wrappers
    observe without perturbing; the gap between their wall-clocks is the
    tracing overhead.
    """
    from ledger import LAYER_METRICS, layer_metrics
    from tracing import Tracer, instrument

    pins = pins if pins is not None else Pins.load()
    workdir.mkdir(parents=True, exist_ok=True)
    store = TraceStore(store_dir, size, pins)
    workload = WORKLOAD_CLASSES[workload_name](seed, size, pins, workdir, store)
    if workload.protocols:
        store.ensure(workload.protocols)
    tracer = Tracer()
    try:
        ctx, _setup_s, failures = timed_setup(workload, store, instrument(tracer), 1)
    finally:
        tracer.restore()
    base = workload.unit(ctx, NullTracer())
    try:
        traced = workload.unit(ctx, instrument(tracer))
    finally:
        tracer.restore()
    if traced.digests != base.digests:
        failures.append(f"{workload_name}: traced outputs differ from the untraced run's")
    attempted = failed = 0
    for unit in (base, traced):
        a, f, unit_failures = workload.check(ctx, unit)
        attempted, failed = attempted + a, failed + f
        failures += unit_failures
    failures = list(dict.fromkeys(failures))
    values = layer_metrics(tracer, traced.counts, base.wall_s, traced.wall_s)
    metrics = {name: (values[name], unit) for name, unit, _b in LAYER_METRICS}
    return Outcome(attempted, failed, failures, metrics, workload.report(traced)), tracer
