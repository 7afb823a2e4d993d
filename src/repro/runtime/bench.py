"""Benchmark harness: measured speedups for the fast paths, as data.

Two suites, each returning a JSON-serializable payload (committed to the
repo as ``BENCH_simulator.json`` / ``BENCH_model.json`` and regenerated
by ``python -m repro bench``):

* :func:`run_simulator_bench` — the simulation kernel.  For each node
  count it times (a) the *neighbor path* in isolation — identical
  neighbor-query workloads against a naive-scan medium and a
  grid-indexed medium — and (b) a full scenario end to end: the pure
  reference mode (``REPRO_SPATIAL_INDEX=0``, ``REPRO_EVENT_BATCH=0``
  *and* ``REPRO_ROUTING_FAST=0`` — naive scans, per-receiver
  scheduling, pure-heap kernel, reference routing handlers) against the
  fully fast-pathed mode (grid index + macro-event fan-out + bucketed
  lane + pooling + flattened routing handlers with duplicate-RREQ
  pre-classification).  Every end-to-end pair asserts the two traces'
  :func:`~repro.simulation.scenario.trace_fingerprint` digests are
  identical while timing — the bit-identity contract is checked in the
  harness itself, so a regression in correctness fails the benchmark
  rather than polluting it.  A 500-node AODV row (shorter duration)
  covers the scale where the naive scan is most quadratic.
* :func:`run_model_bench` — the model layer.  Times C4.5 sub-model
  scoring through the batched tree walk against the per-row reference
  walk, and ensemble training through the shared-pass vectorized fit
  (pairwise contingency tensor + vectorized split search) against the
  reference per-sub-model loop (``REPRO_FAST_FIT=0``), asserting the
  fitted trees are structurally identical while timing.  (Thread-based
  ``fit/n_jobs`` legs were dropped: the sub-model fits are pure-Python
  tree growth, so threads are GIL-bound and buy nothing — the shared
  pass is the fix.)
* :func:`run_fleet_bench` — stream multiplexing.  For N = 1 / 64 / 1024
  monitored streams it times the :class:`~repro.stream.FleetDetector`
  tick-bucket pipeline (one vectorized scoring call per tick across all
  streams) against N sequential :class:`~repro.stream.OnlineDetector`
  runs over the same windows, asserting per-stream scores bit-identical
  before recording the speedup.  The sequential baseline is an
  *intensive* measurement — its per-window cost is independent of N —
  so at large N it is measured on a capped row count and extrapolated
  (recorded as ``baseline_extrapolated``), keeping the suite CI-sized
  without distorting the ratio.
* :func:`run_stream_chaos_bench` — stream durability.  Times a clean
  streaming run against a checkpointed run that is killed mid-trace and
  resumed (the resume *overhead* — a ratio below 1 is expected), and an
  uninterrupted chaos fleet (injected lane crash + corrupt/duplicate/
  dropped rows under ``row_policy="quarantine"``) against a killed and
  resumed one.  The kill-anywhere resume contract and the
  corrupt-checkpoint fingerprint check are asserted in-harness before
  any number is recorded; survival stats (rows quarantined, lanes
  sealed and why) ride the entries.
* :func:`run_attribution_bench` — typed alarms.  Streams the full
  attack taxonomy (flooding / blackhole / dropping / impersonation ×
  AODV / DSR) through an :class:`~repro.stream.OnlineDetector` with
  attribution off (baseline) and on (optimized — the annotation
  *overhead*, so a ratio below 1 is expected), asserting in-harness
  that scores and alarms are bit-identical in both modes and under the
  ``REPRO_ATTRIBUTION=0`` kill switch.  Each attack cell's alarm
  verdicts vote a majority anomaly type; the payload carries the full
  confusion matrix and the full (non-quick) run asserts macro
  cell-majority accuracy ≥ :data:`ATTRIBUTION_ACCURACY_FLOOR`.

Every entry records ``baseline_seconds`` (the pre-optimization path,
which is kept in-tree as the reference implementation), ``optimized_seconds``
and their ratio, plus enough workload metadata to re-run the comparison.

``quick=True`` shrinks workloads to CI scale (seconds, not minutes); the
committed BENCH files are produced with ``quick=False``.
"""

from __future__ import annotations

import json
import os
import platform
import random
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------
def _entry(name: str, baseline: float, optimized: float, **meta) -> dict:
    """One benchmark record; speedup is baseline over optimized."""
    return {
        "name": name,
        "baseline_seconds": round(baseline, 4),
        "optimized_seconds": round(optimized, 4),
        "speedup": round(baseline / optimized, 2) if optimized > 0 else float("inf"),
        **meta,
    }


def _environment() -> dict:
    import repro  # deferred: repro/__init__ imports the runtime package

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "repro_version": repro.__version__,
    }


@contextmanager
def _spatial_index(enabled: bool) -> Iterator[None]:
    """Force the medium's spatial-index default for the enclosed block."""
    prior = os.environ.get("REPRO_SPATIAL_INDEX")
    os.environ["REPRO_SPATIAL_INDEX"] = "1" if enabled else "0"
    try:
        yield
    finally:
        if prior is None:
            del os.environ["REPRO_SPATIAL_INDEX"]
        else:
            os.environ["REPRO_SPATIAL_INDEX"] = prior


@contextmanager
def _event_batch(enabled: bool) -> Iterator[None]:
    """Force the kernel's batched-event default for the enclosed block."""
    prior = os.environ.get("REPRO_EVENT_BATCH")
    os.environ["REPRO_EVENT_BATCH"] = "1" if enabled else "0"
    try:
        yield
    finally:
        if prior is None:
            del os.environ["REPRO_EVENT_BATCH"]
        else:
            os.environ["REPRO_EVENT_BATCH"] = prior


@contextmanager
def _routing_fast(enabled: bool) -> Iterator[None]:
    """Force the routing-handler fast-path default for the enclosed block."""
    prior = os.environ.get("REPRO_ROUTING_FAST")
    os.environ["REPRO_ROUTING_FAST"] = "1" if enabled else "0"
    try:
        yield
    finally:
        if prior is None:
            del os.environ["REPRO_ROUTING_FAST"]
        else:
            os.environ["REPRO_ROUTING_FAST"] = prior


@contextmanager
def _attribution(enabled: bool) -> Iterator[None]:
    """Force the stream layer's attribution default for the enclosed block."""
    prior = os.environ.get("REPRO_ATTRIBUTION")
    os.environ["REPRO_ATTRIBUTION"] = "1" if enabled else "0"
    try:
        yield
    finally:
        if prior is None:
            del os.environ["REPRO_ATTRIBUTION"]
        else:
            os.environ["REPRO_ATTRIBUTION"] = prior


@contextmanager
def _fast_fit(enabled: bool) -> Iterator[None]:
    """Force the model layer's fast-fit default for the enclosed block."""
    prior = os.environ.get("REPRO_FAST_FIT")
    os.environ["REPRO_FAST_FIT"] = "1" if enabled else "0"
    try:
        yield
    finally:
        if prior is None:
            del os.environ["REPRO_FAST_FIT"]
        else:
            os.environ["REPRO_FAST_FIT"] = prior


def write_bench(payload: dict, path: str | os.PathLike) -> None:
    """Write one benchmark payload as stable, diff-friendly JSON."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# simulator suite
# ----------------------------------------------------------------------
def _neighbor_workload(n_nodes: int, n_queries: int, seed: int, use_index: bool) -> tuple[float, int]:
    """Time an identical neighbor-query stream against one medium mode.

    Builds a full stack (so the indexed medium's fast path engages),
    then replays ``n_queries`` queries from a dedicated workload RNG at
    monotonically increasing times.  Returns (seconds, checksum) where
    the checksum folds every returned neighbor list — the caller asserts
    the two modes agree.
    """
    from repro.simulation.engine import Simulator
    from repro.simulation.medium import WirelessMedium
    from repro.simulation.mobility import RandomWaypointMobility
    from repro.simulation.node import Node
    from repro.simulation.stats import TraceRecorder

    sim = Simulator(seed=seed)
    mobility = RandomWaypointMobility(n_nodes=n_nodes, rng=sim.rng)
    medium = WirelessMedium(sim, mobility, use_index=use_index)
    recorder = TraceRecorder(n_nodes)
    for i in range(n_nodes):
        Node(i, sim, medium, recorder[i])

    workload = random.Random(0xBEEF)
    times = []
    t = 0.0
    # Inter-query gaps match a busy scenario's transmission density
    # (hundreds of sends per simulated second at 100 nodes).
    for _ in range(n_queries):
        t += workload.uniform(0.0005, 0.005)
        times.append((t, workload.randrange(n_nodes)))

    checksum = 0
    t0 = time.perf_counter()
    for t, node_id in times:
        sim.now = t
        for neighbor in medium.neighbors(node_id):
            checksum = (checksum * 31 + neighbor + 1) % (1 << 61)
    return time.perf_counter() - t0, checksum


def _scenario_seconds(
    n_nodes: int,
    duration: float,
    protocol: str,
    seed: int,
    optimized: bool,
    repeats: int = 1,
) -> tuple[float, int, str]:
    """Time one full scenario under one kernel mode (best of ``repeats``).

    ``optimized=False`` runs the pure reference stack (naive neighbor
    scans, per-receiver delivery scheduling, pure-heap kernel, reference
    routing handlers); ``optimized=True`` enables every fast path.
    Returns ``(seconds, total trace events, trace fingerprint)`` — the
    caller asserts the two modes' fingerprints are identical before
    trusting the timing.
    """
    from repro.simulation.scenario import (
        ScenarioConfig,
        run_scenario,
        trace_fingerprint,
    )

    config = ScenarioConfig(
        protocol=protocol,
        n_nodes=n_nodes,
        duration=duration,
        max_connections=min(40, 2 * n_nodes),
        seed=seed,
    )
    best, fingerprint = float("inf"), None
    with _spatial_index(optimized), _event_batch(optimized), \
            _routing_fast(optimized):
        for _ in range(repeats):
            t0 = time.perf_counter()
            trace = run_scenario(config)
            best = min(best, time.perf_counter() - t0)
            digest = trace_fingerprint(trace)
            assert fingerprint is None or fingerprint == digest
            fingerprint = digest
    return best, trace.recorder.total_packets(), fingerprint


def _scenario_profile(
    n_nodes: int, duration: float, protocol: str, seed: int, expect_fp: str
) -> list[dict]:
    """One fully fast-pathed run under cProfile → top-N cumulative rows.

    The profiled run is *extra* (never counted toward the row's timing —
    profiling overhead roughly doubles the wall-clock) and still asserts
    the trace fingerprint, so a profile can never come from a divergent
    run.
    """
    from repro.runtime.profiling import profile_call
    from repro.simulation.scenario import (
        ScenarioConfig,
        run_scenario,
        trace_fingerprint,
    )

    config = ScenarioConfig(
        protocol=protocol,
        n_nodes=n_nodes,
        duration=duration,
        max_connections=min(40, 2 * n_nodes),
        seed=seed,
    )
    with _spatial_index(True), _event_batch(True), _routing_fast(True):
        trace, rows = profile_call(run_scenario, config)
    digest = trace_fingerprint(trace)
    if digest != expect_fp:
        raise AssertionError(
            f"profiled run diverged: {protocol}/{n_nodes} nodes "
            f"({digest[:16]} != {expect_fp[:16]})"
        )
    return rows


def run_simulator_bench(
    quick: bool = False, seed: int = 1, profile: bool = False
) -> dict:
    """Kernel suite: neighbor path isolated + scenarios end to end.

    ``profile=True`` additionally runs one fully fast-pathed pass per
    end-to-end row under cProfile and attaches the top-N cumulative
    table to the row's entry as ``profile_top`` (see
    :mod:`repro.runtime.profiling`) — the shortfall-analysis flag behind
    ``python -m repro bench --profile``.
    """
    if quick:
        node_counts = (20, 30, 100)
        n_queries = 2_000
        duration = 15.0
        repeats = 2
    else:
        node_counts = (20, 30, 100, 200)
        n_queries = 20_000
        duration = 60.0
        repeats = 3

    def neighbor_best_of(n: int, use_index: bool) -> tuple[float, int]:
        # Best-of-N: the workload is deterministic, so repeats measure
        # only machine noise; min is the cleanest estimate.
        best, checksum = float("inf"), None
        for _ in range(repeats):
            seconds, this_sum = _neighbor_workload(n, n_queries, seed, use_index)
            best = min(best, seconds)
            assert checksum is None or checksum == this_sum
            checksum = this_sum
        return best, checksum

    entries = []
    for n in node_counts:
        naive_s, naive_sum = neighbor_best_of(n, use_index=False)
        index_s, index_sum = neighbor_best_of(n, use_index=True)
        if naive_sum != index_sum:
            raise AssertionError(
                f"neighbor results diverged at {n} nodes: "
                f"{naive_sum:#x} != {index_sum:#x}"
            )
        entries.append(_entry(
            f"neighbors/{n}nodes",
            naive_s,
            index_s,
            kind="neighbor_path",
            n_nodes=n,
            n_queries=n_queries,
            checksum=f"{index_sum:#x}",
        ))
    # End-to-end rows: reference stack vs fully fast-pathed stack, with
    # the bit-identity contract asserted on every pair.  The 500-node
    # rows use a shorter duration — the reference stack is quadratic-ish
    # in node count, and the rows exist to measure exactly that regime
    # (DSR rides along since its promiscuous taps stress the fan-out
    # differently from AODV).
    scenario_rows = [(n, protocol, duration)
                     for n in node_counts for protocol in ("aodv", "dsr")]
    row_500 = 3.0 if quick else 12.0
    scenario_rows.append((500, "aodv", row_500))
    scenario_rows.append((500, "dsr", row_500))
    base_repeats = 2 if quick else 1
    for n, protocol, row_duration in scenario_rows:
        # Sub-second rows (small n) are where scheduler noise is largest
        # relative to the signal, so give them more best-of samples; the
        # 100/200-node rows carry the committed speedup floors, so they
        # get best-of-2 even in full mode (only the long 500-node rows
        # stay single-sample).
        if n < 100:
            scenario_repeats = max(base_repeats, 4)
        elif n <= 200:
            scenario_repeats = max(base_repeats, 2)
        else:
            scenario_repeats = base_repeats
        reference_s, reference_events, reference_fp = _scenario_seconds(
            n, row_duration, protocol, seed,
            optimized=False, repeats=scenario_repeats,
        )
        fast_s, fast_events, fast_fp = _scenario_seconds(
            n, row_duration, protocol, seed,
            optimized=True, repeats=scenario_repeats,
        )
        if reference_fp != fast_fp:
            raise AssertionError(
                f"scenario traces diverged: {protocol}/{n} nodes "
                f"({reference_events} vs {fast_events} events, "
                f"fingerprints {reference_fp[:16]} != {fast_fp[:16]})"
            )
        # A best-of-N min only converges from above: if the fast stack
        # appears to lose, take more interleaved samples of both sides
        # before recording.  A genuine regression stays below 1.0 — extra
        # minima cannot manufacture a win that is not there.  (The
        # interleaving matters: the initial best-of batches run all
        # reference samples before all fast samples, so slow machine
        # drift between the batches can fake a sub-1.0 row; alternating
        # sides cancels it.)
        retries = 5
        while fast_s > reference_s and retries > 0:
            r_s, _, r_fp = _scenario_seconds(
                n, row_duration, protocol, seed, optimized=False
            )
            f_s, _, f_fp = _scenario_seconds(
                n, row_duration, protocol, seed, optimized=True
            )
            assert (r_fp, f_fp) == (reference_fp, fast_fp)
            reference_s = min(reference_s, r_s)
            fast_s = min(fast_s, f_s)
            retries -= 1
        entry = _entry(
            f"scenario/{protocol}/{n}nodes",
            reference_s,
            fast_s,
            kind="end_to_end",
            n_nodes=n,
            protocol=protocol,
            duration=row_duration,
            trace_events=fast_events,
            trace_fingerprint=fast_fp[:16],
            identity="trace fingerprints bit-identical across modes",
        )
        if profile:
            entry["profile_top"] = _scenario_profile(
                n, row_duration, protocol, seed, fast_fp
            )
        entries.append(entry)
    return {
        "suite": "simulator",
        "quick": quick,
        "seed": seed,
        "environment": _environment(),
        "entries": entries,
    }


# ----------------------------------------------------------------------
# model suite
# ----------------------------------------------------------------------
def _synthetic_features(n_events: int, n_features: int, seed: int) -> np.ndarray:
    """Feature vectors with cross-feature structure for the sub-models.

    Half the columns are correlated mixtures of two latent variables so
    the learned trees have real depth; the rest are noise, like the
    hard-to-predict features of the actual trace data.
    """
    rng = np.random.default_rng(seed)
    latent = rng.random((n_events, 2))
    X = np.empty((n_events, n_features))
    for j in range(n_features):
        if j % 2 == 0:
            w = rng.random()
            X[:, j] = w * latent[:, 0] + (1 - w) * latent[:, 1] + 0.1 * rng.random(n_events)
        else:
            X[:, j] = rng.random(n_events)
    return X


def _rowwise_outputs(model, X: np.ndarray) -> np.ndarray:
    """Cross-feature scoring through the per-row reference tree walk.

    Mirrors ``CrossFeatureModel._sub_model_outputs`` but drives each
    sub-model through ``_predict_proba_rowwise`` — the pre-vectorization
    scoring path, used as the benchmark baseline.
    """
    X = np.asarray(X, dtype=float)
    codes = model.discretizer.transform(X)
    n = len(codes)
    p_true = np.zeros((n, len(model.models_)))
    rows = np.arange(n)
    for m, (clf, i) in enumerate(zip(model.models_, model.targets_)):
        others = np.delete(codes, i, axis=1)
        true = codes[:, i]
        proba = clf._predict_proba_rowwise(others)
        in_range = true < proba.shape[1]
        p_true[in_range, m] = proba[rows[in_range], true[in_range]]
    return p_true


def _assert_ensemble_identical(reference, optimized, X_probe: np.ndarray) -> None:
    """In-harness tree-identity contract for the fit benchmark.

    The shared-pass ensemble must produce *structurally identical* trees
    (same splits, same per-node counts — which implies bit-identical
    ``predict_proba``) and identical sub-model outputs on a probe matrix.
    """
    from repro.ml.decision_tree import C45Classifier, trees_equal

    if reference.targets_ != optimized.targets_:
        raise AssertionError("shared-pass fit changed the sub-model targets")
    for m, (ref, fast) in enumerate(zip(reference.models_, optimized.models_)):
        if isinstance(ref, C45Classifier) and not trees_equal(ref.root_, fast.root_):
            raise AssertionError(
                f"sub-model {m}: shared-pass tree diverged from the reference"
            )
    _, p_ref = reference._sub_model_outputs(X_probe)
    _, p_new = optimized._sub_model_outputs(X_probe)
    if not np.array_equal(p_ref, p_new):
        raise AssertionError("shared-pass fit changed sub-model probabilities")


def run_model_bench(quick: bool = False, seed: int = 0) -> dict:
    """Model suite: batched scoring vs rowwise; shared-pass vs reference fit."""
    from repro.core.model import CrossFeatureModel

    if quick:
        n_train, n_score, n_features, repeats = 800, 4_000, 10, 2
        n_fit, fit_features, fit_repeats = 200, 36, 1
    else:
        n_train, n_score, n_features, repeats = 2_000, 20_000, 16, 3
        n_fit, fit_features, fit_repeats = 500, 140, 2

    X_train = _synthetic_features(n_train, n_features, seed)
    X_score = _synthetic_features(n_score, n_features, seed + 1)

    model = CrossFeatureModel()
    model.fit(X_train)

    # --- score: rowwise reference vs batched tree walk ---------------
    rowwise_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        p_ref = _rowwise_outputs(model, X_score)
        rowwise_s = min(rowwise_s, time.perf_counter() - t0)
    batched_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _, p_new = model._sub_model_outputs(X_score)
        batched_s = min(batched_s, time.perf_counter() - t0)
    if not np.array_equal(p_ref, p_new):
        raise AssertionError("batched scoring diverged from the rowwise reference")

    # --- fit: shared-pass vectorized ensemble vs reference loop ------
    # Paper scale: L ~ 140 features, one C4.5 sub-model per feature.
    X_fit = _synthetic_features(n_fit, fit_features, seed + 2)
    X_fit_probe = _synthetic_features(256, fit_features, seed + 3)

    def fit_ensemble(fast: bool) -> tuple[float, CrossFeatureModel]:
        best, fitted = float("inf"), None
        for _ in range(fit_repeats):
            candidate = CrossFeatureModel()
            with _fast_fit(fast):
                t0 = time.perf_counter()
                candidate.fit(X_fit)
                best = min(best, time.perf_counter() - t0)
            fitted = candidate
        return best, fitted

    reference_fit_s, reference_model = fit_ensemble(False)
    shared_fit_s, shared_model = fit_ensemble(True)
    _assert_ensemble_identical(reference_model, shared_model, X_fit_probe)

    entries = [
        _entry(
            "score/c45-batched-vs-rowwise",
            rowwise_s,
            batched_s,
            kind="scoring",
            n_events=n_score,
            n_features=n_features,
            n_sub_models=model.n_models,
        ),
        _entry(
            "fit/ensemble",
            reference_fit_s,
            shared_fit_s,
            kind="training",
            n_events=n_fit,
            n_features=fit_features,
            n_sub_models=shared_model.n_models,
            identity="trees structurally identical to the reference fit",
        ),
    ]
    return {
        "suite": "model",
        "quick": quick,
        "seed": seed,
        "environment": _environment(),
        "entries": entries,
    }


# ----------------------------------------------------------------------
# fleet suite
# ----------------------------------------------------------------------
def run_fleet_bench(quick: bool = False, seed: int = 0) -> dict:
    """Fleet suite: tick-batched multiplexing vs N sequential detectors.

    For each stream count N, T sampling windows per stream are scored
    two ways over identical synthetic feature rows:

    * **baseline** — N independent ``OnlineDetector.consume`` loops,
      one ``(1, L)`` scoring call per window (measured on up to
      ``baseline_cap`` windows; the per-window cost is N-independent,
      so the full-fleet wall-clock is the measured rate times N*T,
      recorded as extrapolated when capped);
    * **optimized** — one ``FleetDetector`` with N externally-fed
      lanes, one ``(N, L)`` scoring call per tick.

    Before timing is trusted, every lane's scores are asserted
    bit-identical to the single batch ``normality_score`` over the same
    rows (the fleet contract), and the baseline detector's scores to
    lane 0's.
    """
    from repro.core.model import CrossFeatureModel
    from repro.stream.detector import OnlineDetector
    from repro.stream.extractor import WindowRow
    from repro.stream.fleet import FleetDetector

    if quick:
        n_train, n_features, ticks = 600, 12, 8
        stream_counts = (1, 64, 1024)
        baseline_cap = 256
    else:
        n_train, n_features, ticks = 1_500, 16, 40
        stream_counts = (1, 64, 1024)
        baseline_cap = 2_000

    X_train = _synthetic_features(n_train, n_features, seed)
    model = CrossFeatureModel()
    model.fit(X_train)
    method = "avg_probability"
    threshold = float(np.median(model.normality_score(X_train, method)))
    period = 5.0

    entries = []
    for n_streams in stream_counts:
        total = n_streams * ticks
        # Row for stream s at tick k lives at X_all[k * n_streams + s].
        X_all = _synthetic_features(total, n_features, seed + 1)
        tick_times = [period * (k + 1) for k in range(ticks)]

        def row_for(s: int, k: int) -> WindowRow:
            return WindowRow(
                index=k, time=tick_times[k], monitor=0,
                features=X_all[k * n_streams + s],
            )

        # -- baseline: N sequential single-stream detectors -----------
        n_base = min(total, baseline_cap)
        detectors = [
            OnlineDetector(model, threshold, method=method)
            for _ in range(n_streams)
        ]
        consumed = 0
        t0 = time.perf_counter()
        for s in range(n_streams):
            online = detectors[s]
            for k in range(ticks):
                online.consume(row_for(s, k))
                consumed += 1
                if consumed >= n_base:
                    break
            if consumed >= n_base:
                break
        baseline_measured_s = time.perf_counter() - t0
        sequential_rate = consumed / baseline_measured_s
        baseline_s = total / sequential_rate

        # -- optimized: one fleet, one batch per tick ------------------
        fleet = FleetDetector(model, threshold, method=method)
        for s in range(n_streams):
            fleet.attach(f"n{s}")
        t0 = time.perf_counter()
        for k, t in enumerate(tick_times):
            for s in range(n_streams):
                fleet.ingest(f"n{s}", row_for(s, k))
            fleet.seal_all(t)
        fleet.finish()
        fleet_s = time.perf_counter() - t0

        # -- equivalence contract, asserted before the entry counts ---
        expected = model.normality_score(X_all, method)
        for s in range(n_streams):
            lane = np.asarray(fleet._lanes[f"n{s}"].scores)
            if not np.array_equal(lane, expected[s::n_streams]):
                raise AssertionError(
                    f"fleet lane {s}/{n_streams} diverged from the batch scores"
                )
        probe = np.asarray(detectors[0].scores)
        if not np.array_equal(probe, expected[0::n_streams][: len(probe)]):
            raise AssertionError(
                "sequential OnlineDetector diverged from the batch scores"
            )

        entries.append(_entry(
            f"fleet/{n_streams}streams",
            baseline_s,
            fleet_s,
            kind="multiplex",
            n_streams=n_streams,
            ticks=ticks,
            windows=total,
            n_features=n_features,
            baseline_measured_windows=consumed,
            baseline_extrapolated=consumed < total,
            sequential_windows_per_s=round(sequential_rate, 1),
            fleet_windows_per_s=round(total / fleet_s, 1) if fleet_s > 0 else float("inf"),
            identity="per-stream scores bit-identical to the batch matrix",
        ))

    return {
        "suite": "fleet",
        "quick": quick,
        "seed": seed,
        "environment": _environment(),
        "entries": entries,
    }


# ----------------------------------------------------------------------
# stream-chaos suite
# ----------------------------------------------------------------------
def run_stream_chaos_bench(quick: bool = False, seed: int = 0) -> dict:
    """Durability suite: kill/resume overhead + fleet survival under chaos.

    Two legs over one small recorded scenario, both asserting the PR 7
    resume contract in-harness before any number is trusted:

    * **stream/resume** — one monitored stream is run clean, then run
      again with checkpointing, killed abruptly mid-trace, restored from
      the latest checkpoint and replayed to completion.  The interrupted
      run's scores/alarms must be ``np.array_equal`` to the clean run's
      (kill-anywhere resume contract); a deliberately corrupted copy of
      the checkpoint must fail its restore with the fingerprint
      mismatch named.  Baseline = clean wall-clock, optimized = kill +
      restore + replay wall-clock (the resume *overhead* — expect a
      speedup below 1).
    * **fleet/chaos** — a quarantine-policy fleet rides the same trace
      twice with an injected fault plan (a lane crash + corrupted and
      duplicated rows on another lane): once uninterrupted, once killed
      at a round boundary and resumed.  Both runs must agree exactly
      (per-lane scores, fused alarm times, seal reasons), the run must
      *complete* rather than raise, and lanes untouched by the plan
      must score bit-identically to a clean no-fault fleet.  Survival
      stats (rows quarantined, lanes sealed and why) ride the entry.
    """
    import tempfile
    from pathlib import Path

    from repro.core.model import CrossFeatureModel
    from repro.features import extract_features
    from repro.simulation.scenario import ScenarioConfig, run_scenario
    from repro.stream.detector import OnlineDetector
    from repro.stream.durability import (
        CheckpointError,
        load_stream_checkpoint,
        run_durable_fleet,
        run_durable_stream,
    )
    from repro.stream.extractor import extractor_for_config
    from repro.stream.faults import StreamFaultPlan, apply_checkpoint_fault
    from repro.stream.fleet import FleetDetector

    duration = 40.0 if quick else 120.0
    n_nodes = 8
    config = ScenarioConfig(
        protocol="aodv", n_nodes=n_nodes, duration=duration, seed=seed
    )
    trace = run_scenario(config)
    dataset = extract_features(trace, monitor=0)
    model = CrossFeatureModel()
    model.fit(dataset.X)
    method = "avg_probability"
    threshold = float(np.median(model.normality_score(dataset.X, method)))

    def stream_pair(ckpt=None, every=4, resume=None, stop=None):
        online = OnlineDetector(model, threshold, method=method)
        tap = extractor_for_config(config, monitor=0, on_row=online.consume,
                                  keep_rows=False)
        t0 = time.perf_counter()
        _, finished = run_durable_stream(
            trace, tap, online, checkpoint=ckpt, checkpoint_every=every,
            resume_from=resume, stop_after_ticks=stop,
        )
        return online, time.perf_counter() - t0, finished

    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "stream.ckpt"

        # -- stream/resume leg ---------------------------------------
        clean, clean_s, finished = stream_pair()
        assert finished
        kill_at = max(2, clean.windows // 2)
        _, killed_s, finished = stream_pair(ckpt=ckpt, stop=kill_at)
        if finished or not ckpt.exists():
            raise AssertionError("kill switch did not interrupt the stream run")
        resumed, resumed_s, finished = stream_pair(ckpt=ckpt, resume=ckpt)
        if not finished:
            raise AssertionError("resumed stream run did not complete")
        if not np.array_equal(np.asarray(resumed.scores), np.asarray(clean.scores)):
            raise AssertionError(
                "kill-anywhere contract violated: resumed scores diverged"
            )
        if [(a.index, a.time) for a in resumed.alarms] != \
                [(a.index, a.time) for a in clean.alarms]:
            raise AssertionError(
                "kill-anywhere contract violated: resumed alarms diverged"
            )
        # A damaged checkpoint must never restore silently.
        damaged = Path(tmp) / "damaged.ckpt"
        damaged.write_bytes(ckpt.read_bytes())
        apply_checkpoint_fault(damaged, StreamFaultPlan.parse("ckpt-corrupt:0").specs[0])
        probe = OnlineDetector(model, threshold, method=method)
        probe_tap = extractor_for_config(config, monitor=0, on_row=probe.consume)
        try:
            load_stream_checkpoint(damaged, probe_tap, probe)
        except CheckpointError as exc:
            if "fingerprint mismatch" not in str(exc):
                raise AssertionError(
                    f"corrupt checkpoint failed without naming the "
                    f"fingerprint mismatch: {exc}"
                ) from exc
        else:
            raise AssertionError("corrupt checkpoint restored silently")
        entries.append(_entry(
            "stream/resume",
            clean_s,
            killed_s + resumed_s,
            kind="durability",
            windows=clean.windows,
            kill_at_tick=kill_at,
            checkpoint_every=4,
            identity="resumed scores/alarms np.array_equal to the clean run",
        ))

        # -- fleet/chaos leg -----------------------------------------
        monitors = (0, 1, 2, 3)
        plan = StreamFaultPlan.parse(
            "crash-lane:s0/n1:3,corrupt-row:s0/n2:2,dup-row:s0/n2:4,"
            "drop-row:s0/n3:1"
        )

        def make_fleet(faults):
            fleet = FleetDetector(
                model, threshold, method=method,
                row_policy="quarantine", stall_timeout=4 * config.sampling_period,
                faults=faults,
            )
            for m in monitors:
                fleet.add_stream(m, sampling_period=config.sampling_period)
            return fleet

        clean_fleet = make_fleet(None)
        run_durable_fleet({"s0": trace}, clean_fleet)

        chaos_fleet = make_fleet(plan)
        t0 = time.perf_counter()
        run_durable_fleet({"s0": trace}, chaos_fleet)
        chaos_s = time.perf_counter() - t0

        fckpt = Path(tmp) / "fleet.ckpt"
        killed_fleet = make_fleet(plan)
        t0 = time.perf_counter()
        _, finished = run_durable_fleet(
            {"s0": trace}, killed_fleet, checkpoint=fckpt, checkpoint_every=2,
            stop_after_rounds=6,
        )
        if finished or not fckpt.exists():
            raise AssertionError("kill switch did not interrupt the fleet run")
        resumed_fleet = make_fleet(plan)
        _, finished = run_durable_fleet(
            {"s0": trace}, resumed_fleet, resume_from=fckpt,
        )
        resumed_fleet_s = time.perf_counter() - t0
        if not finished:
            raise AssertionError("resumed fleet run did not complete")

        for name, lane in chaos_fleet._lanes.items():
            if not np.array_equal(
                np.asarray(resumed_fleet._lanes[name].scores),
                np.asarray(lane.scores),
            ):
                raise AssertionError(
                    f"fleet kill-anywhere contract violated on lane {name}"
                )
        if [f.time for f in resumed_fleet.fused] != \
                [f.time for f in chaos_fleet.fused]:
            raise AssertionError("resumed fleet fused alarms diverged")
        if resumed_fleet.sealed != chaos_fleet.sealed:
            raise AssertionError("resumed fleet seal reasons diverged")
        # Lanes the plan never touches score exactly as in a clean fleet.
        if not np.array_equal(
            np.asarray(chaos_fleet._lanes["s0/n0"].scores),
            np.asarray(clean_fleet._lanes["s0/n0"].scores),
        ):
            raise AssertionError("untouched lane diverged under injected chaos")

        entries.append(_entry(
            "fleet/chaos",
            chaos_s,
            resumed_fleet_s,
            kind="durability",
            n_streams=len(monitors),
            windows=sum(len(l.scores) for l in chaos_fleet._lanes.values()),
            quarantined=len(chaos_fleet.fault_records),
            sealed={k: v for k, v in sorted(chaos_fleet.sealed.items())},
            fused_alarms=len(chaos_fleet.fused),
            fault_plan=[
                f"{s.kind}:{s.lane}:{s.index}" for s in plan.specs
            ],
            identity=(
                "interrupted+resumed chaos fleet equals the uninterrupted "
                "run; untouched lanes equal the fault-free fleet"
            ),
        ))

    return {
        "suite": "stream-chaos",
        "quick": quick,
        "seed": seed,
        "environment": _environment(),
        "entries": entries,
    }


# ----------------------------------------------------------------------
# attribution suite
# ----------------------------------------------------------------------
#: Minimum macro cell-majority classification accuracy the full suite
#: asserts: the majority verdict over each attack cell's alarms must
#: name the right class for at least 3 of the 4 attack kinds on
#: average across protocols.  The committed baseline sits well above
#: this floor; per-row accuracy (noisier, reported not asserted) rides
#: the payload for trend-watching.
ATTRIBUTION_ACCURACY_FLOOR = 0.75


def run_attribution_bench(quick: bool = False, seed: int = 41) -> dict:
    """Typed-alarm suite: attribution overhead + attack-taxonomy accuracy.

    For every attack kind × protocol cell it trains a per-protocol
    model on clean traces (two training seeds + one calibration seed),
    streams the attacked trace through an
    :class:`~repro.stream.OnlineDetector` three ways — attribution off,
    attribution on, and attribution requested but killed via
    ``REPRO_ATTRIBUTION=0`` — and asserts *in-harness* that all three
    produce ``np.array_equal`` scores and identical alarm sets before
    any number is recorded.  Baseline = the off pass, optimized = the
    on pass, so the recorded "speedup" is the verdict-annotation
    overhead (expected below 1).

    Classification quality is scored two ways: per alarming window
    inside attack sessions (``row_accuracy``) and per cell by majority
    vote over those windows (what an operator reads for a scenario).
    The payload's ``classification`` block carries both plus the
    confusion matrix; the full run asserts macro cell-majority accuracy
    ≥ :data:`ATTRIBUTION_ACCURACY_FLOOR`.
    """
    from repro.attacks import (
        BlackholeAttack,
        ImpersonationAttack,
        PacketDroppingAttack,
        UpdateStormAttack,
        periodic_sessions,
    )
    from repro.attribution import ANOMALY_TYPES, UNKNOWN
    from repro.core.model import CrossFeatureModel
    from repro.features import extract_features
    from repro.simulation.scenario import ScenarioConfig, run_scenario
    from repro.stream.detector import OnlineDetector
    from repro.stream.extractor import WindowRow

    protocols = ("aodv",) if quick else ("aodv", "dsr")
    n_nodes = 12 if quick else 20
    duration = 400.0 if quick else 1000.0
    warmup = 100.0
    method = "calibrated_probability"
    attack_kinds = ("flooding", "blackhole", "dropping", "impersonation")
    precedence = list(ANOMALY_TYPES) + [UNKNOWN]

    entries = []
    confusion: dict[str, dict[str, int]] = {a: {} for a in attack_kinds}
    cell_tally = {a: [0, 0] for a in attack_kinds}  # [correct, total]
    row_tally = {a: [0, 0] for a in attack_kinds}

    for protocol in protocols:
        def config(s: int) -> ScenarioConfig:
            return ScenarioConfig(
                protocol=protocol, n_nodes=n_nodes, duration=duration,
                max_connections=100, seed=s,
            )

        def dataset(s: int, attacks=None):
            trace = run_scenario(config(s), attacks=attacks or [])
            return extract_features(trace, monitor=0, warmup=warmup)

        train_a, train_b, cal = dataset(11), dataset(12), dataset(13)
        model = CrossFeatureModel()
        model.fit(
            np.vstack([train_a.X, train_b.X]),
            feature_names=train_a.feature_names,
        )
        model.calibrate(cal.X)
        # The 2nd percentile of calibration scores: alarms stay rare on
        # clean traffic while attack windows still trip in bulk.
        threshold = float(np.percentile(model.normality_score(cal.X, method), 2))
        sessions = periodic_sessions(0.25 * duration, 0.05 * duration, duration)
        period = config(seed).sampling_period
        attacker = n_nodes - 1
        make_attack = {
            "flooding": lambda: UpdateStormAttack(
                attacker=attacker, sessions=sessions, rate=25.0),
            "blackhole": lambda: BlackholeAttack(
                attacker=attacker, sessions=sessions),
            "dropping": lambda: PacketDroppingAttack(
                attacker=attacker, sessions=sessions, destination=0),
            "impersonation": lambda: ImpersonationAttack(
                attacker=attacker, victim=1, sessions=sessions, rate=4.0),
        }

        for kind in attack_kinds:
            ds = dataset(seed, attacks=[make_attack[kind]()])
            rows = [
                WindowRow(index=k, time=float(t), monitor=0, features=ds.X[k])
                for k, t in enumerate(ds.times)
            ]

            def stream(attribution: bool):
                online = OnlineDetector(
                    model, threshold, method=method, attribution=attribution)
                t0 = time.perf_counter()
                for row in rows:
                    online.consume(row)
                return online, time.perf_counter() - t0

            off, off_s = stream(False)
            on, on_s = stream(True)
            with _attribution(False):
                killed, _ = stream(True)

            cell = f"{protocol}/{kind}"
            if killed.attribution is not None:
                raise AssertionError(
                    f"{cell}: REPRO_ATTRIBUTION=0 did not disable attribution")
            for label, other in (("on", on), ("killed", killed)):
                if not np.array_equal(
                    np.asarray(other.scores), np.asarray(off.scores)
                ):
                    raise AssertionError(
                        f"{cell}: scores diverged with attribution {label}")
                if [(a.index, a.time, a.score) for a in other.alarms] != \
                        [(a.index, a.time, a.score) for a in off.alarms]:
                    raise AssertionError(
                        f"{cell}: alarms diverged with attribution {label}")
            if any(a.verdict is None for a in on.alarms):
                raise AssertionError(f"{cell}: alarm missing its verdict")
            if any(a.verdict is not None for a in off.alarms) or \
                    any(a.verdict is not None for a in killed.alarms):
                raise AssertionError(f"{cell}: verdict leaked with attribution off")

            votes = [
                a.verdict.anomaly_type for a in on.alarms
                if any(s <= a.time <= e + period for s, e in sessions)
            ]
            counts: dict[str, int] = {}
            for v in votes:
                counts[v] = counts.get(v, 0) + 1
                row_tally[kind][1] += 1
                row_tally[kind][0] += v == kind
                confusion[kind][v] = confusion[kind].get(v, 0) + 1
            majority = None
            if counts:
                majority = min(
                    counts,
                    key=lambda n: (
                        -counts[n],
                        precedence.index(n) if n in precedence else len(precedence),
                    ),
                )
            cell_tally[kind][1] += 1
            cell_tally[kind][0] += majority == kind
            entries.append(_entry(
                f"attribution/{cell}",
                off_s,
                on_s,
                kind="attribution",
                windows=len(rows),
                alarms=len(on.alarms),
                attack_window_alarms=len(votes),
                majority_verdict=majority,
                row_accuracy=round(
                    counts.get(kind, 0) / len(votes), 3) if votes else None,
                identity=(
                    "scores/alarms np.array_equal with attribution off, on "
                    "and killed via REPRO_ATTRIBUTION=0"
                ),
            ))

    per_class_cell = {
        a: round(c / t, 3) if t else None for a, (c, t) in cell_tally.items()
    }
    per_class_row = {
        a: round(c / t, 3) if t else 0.0 for a, (c, t) in row_tally.items()
    }
    macro_cell = float(np.mean([v for v in per_class_cell.values() if v is not None]))
    macro_row = float(np.mean(list(per_class_row.values())))
    if not quick and macro_cell < ATTRIBUTION_ACCURACY_FLOOR:
        raise AssertionError(
            f"macro cell-majority accuracy {macro_cell:.3f} fell below the "
            f"{ATTRIBUTION_ACCURACY_FLOOR} floor"
        )

    return {
        "suite": "attribution",
        "quick": quick,
        "seed": seed,
        "environment": _environment(),
        "classification": {
            "accuracy_floor": ATTRIBUTION_ACCURACY_FLOOR,
            "macro_cell_accuracy": round(macro_cell, 3),
            "macro_row_accuracy": round(macro_row, 3),
            "per_class_cell_accuracy": per_class_cell,
            "per_class_row_accuracy": per_class_row,
            "confusion": {
                a: {k: v for k, v in sorted(confusion[a].items())}
                for a in attack_kinds
            },
        },
        "entries": entries,
    }
