"""Per-layer metrics of a traced run, computed from its spans.

Each metric names the module it measures and the end-to-end metric it
should move (README.md has the full map).  Self times come from the
span store (:mod:`tracing`); counts are work the unit did, taken from
its outputs so that every ratio is printed beside its base.
"""

from __future__ import annotations

import numpy as np

#: (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("simulation.trace_s.aodv_normal", "s", "lower"),
    ("simulation.trace_s.aodv_attacked", "s", "lower"),
    ("simulation.trace_s.dsr_normal", "s", "lower"),
    ("simulation.trace_s.dsr_attacked", "s", "lower"),
    ("simulation.traces", "count", "higher"),
    ("simulation.packets", "count", "higher"),
    ("simulation.us_per_packet", "us", "lower"),
    ("simulation.mobility_calls", "count", "lower"),
    ("simulation.mobility_s", "s", "lower"),
    ("simulation.neighbor_calls", "count", "lower"),
    ("simulation.neighbor_s", "s", "lower"),
    ("simulation.medium_send_calls", "count", "lower"),
    ("simulation.medium_send_s", "s", "lower"),
    ("simulation.run_self_s", "s", "lower"),
    ("features.extract_s", "s", "lower"),
    ("features.extract_calls", "count", "higher"),
    ("core.fit_s", "s", "lower"),
    ("core.calibrate_s", "s", "lower"),
    ("core.score_batch_s", "s", "lower"),
    ("core.rows_scored", "count", "higher"),
    ("core.score_row_ms_p50", "ms", "lower"),
    ("core.score_row_ms_p99", "ms", "lower"),
    ("core.score_row_calls", "count", "higher"),
    ("core.score_tick_ms_p50", "ms", "lower"),
    ("core.score_tick_ms_p90", "ms", "lower"),
    ("core.score_ticks", "count", "higher"),
    ("core.tick_rows", "count", "higher"),
    ("stream.replay_s", "s", "lower"),
    ("stream.events", "count", "higher"),
    ("stream.us_per_event", "us", "lower"),
    ("stream.fleet_self_s", "s", "lower"),
    ("stream.windows", "count", "higher"),
    ("stream.alarms", "count", "higher"),
    ("stream.fused_alarms", "count", "higher"),
    ("stream.lanes_failed", "count", "lower"),
    ("stream.checkpoint_ms_p50", "ms", "lower"),
    ("stream.checkpoint_bytes", "bytes", "lower"),
    ("stream.checkpoints", "count", "higher"),
    ("attribution.attribute_ms_p50", "ms", "lower"),
    ("attribution.attribute_ms_p99", "ms", "lower"),
    ("attribution.attribute_calls", "count", "higher"),
    ("attribution.verdicts", "count", "higher"),
    ("runtime.trace_load_s", "s", "lower"),
    ("runtime.trace_loads", "count", "higher"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
]

#: Spans under which a ``normality_score`` call is not batch scoring.
_SCORE_PARENTS = {
    "core.calibrate": "calibrate",
    "stream.consume": "row",
    "stream.fleet_tick": "tick",
    "stream.fleet_seal": "tick",     # buckets released by drop() / finish()
    "stream.replay": "tick",         # ... or by a cursor reaching its end
}


def _pct_ms(durations: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(durations) * 1e3, q)) if durations else 0.0


def layer_metrics(tracer, counts: dict, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value for one traced unit."""
    names = tracer.names()

    def durations(name):
        return [s[3] - s[2] for s in tracer.by_name(name)]

    def self_s(name):
        return sum(s[6] for s in tracer.by_name(name))

    m: dict[str, float] = {name: 0.0 for name, _u, _b in LAYER_METRICS}

    # simulation: one run_scenario span per trace, keyed "<proto>_<kind>/seed<n>"
    for span in tracer.by_name("simulation.run_scenario"):
        m[f"simulation.trace_s.{span[5].split('/')[0]}"] += span[3] - span[2]
    sim_s = sum(durations("simulation.run_scenario"))
    m["simulation.traces"] = len(durations("simulation.run_scenario"))
    m["simulation.packets"] = counts.get("packets", 0)
    if m["simulation.packets"]:
        m["simulation.us_per_packet"] = sim_s / m["simulation.packets"] * 1e6
    for layer in ("mobility", "neighbor", "medium_send"):
        calls, _total, self_time = tracer.leaf_totals(f"simulation.{layer}")
        m[f"simulation.{layer}_s"] = self_time
        m[f"simulation.{layer}_calls"] = calls
    m["simulation.run_self_s"] = self_s("simulation.run")

    m["features.extract_s"] = sum(durations("features.extract"))
    m["features.extract_calls"] = len(durations("features.extract"))

    m["core.fit_s"] = sum(durations("core.fit"))
    m["core.calibrate_s"] = sum(durations("core.calibrate"))
    by_kind: dict[str, list] = {"batch": [], "calibrate": [], "row": [], "tick": []}
    for span in tracer.by_name("core.normality_score"):
        by_kind[_SCORE_PARENTS.get(names.get(span[4]), "batch")].append(span)
    m["core.score_batch_s"] = sum(s[3] - s[2] for s in by_kind["batch"])
    m["core.rows_scored"] = sum(s[7] for s in by_kind["batch"])
    rows = [s[3] - s[2] for s in by_kind["row"]]
    m["core.score_row_ms_p50"] = _pct_ms(rows, 50)
    m["core.score_row_ms_p99"] = _pct_ms(rows, 99)
    m["core.score_row_calls"] = len(rows)
    ticks = [s[3] - s[2] for s in by_kind["tick"]]
    m["core.score_tick_ms_p50"] = _pct_ms(ticks, 50)
    m["core.score_tick_ms_p90"] = _pct_ms(ticks, 90)
    m["core.score_ticks"] = len(ticks)
    m["core.tick_rows"] = sum(s[7] for s in by_kind["tick"])

    # stream: replay self time = merge dispatch + extractor + rings
    m["stream.replay_s"] = self_s("stream.replay") + self_s("stream.window_close")
    m["stream.events"] = counts.get("events", 0)
    if m["stream.events"]:
        m["stream.us_per_event"] = m["stream.replay_s"] / m["stream.events"] * 1e6
    m["stream.fleet_self_s"] = sum(
        self_s(name) for name in ("stream.fleet_tick", "stream.fleet_seal", "stream.round")
    )
    for key in ("windows", "alarms", "fused_alarms", "lanes_failed",
                "checkpoint_bytes", "checkpoints"):
        m[f"stream.{key}"] = counts.get(key, 0)
    m["stream.checkpoint_ms_p50"] = _pct_ms(durations("stream.checkpoint"), 50)

    attribute = durations("attribution.attribute")
    m["attribution.attribute_ms_p50"] = _pct_ms(attribute, 50)
    m["attribution.attribute_ms_p99"] = _pct_ms(attribute, 99)
    m["attribution.attribute_calls"] = len(attribute)
    m["attribution.verdicts"] = counts.get("verdicts", 0)

    m["runtime.trace_load_s"] = sum(durations("runtime.cache_get"))
    m["runtime.trace_loads"] = len(durations("runtime.cache_get"))

    m["trace.untraced_s"] = untraced_s
    m["trace.traced_s"] = traced_s
    m["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
    m["trace.spans"] = len(tracer.spans)
    return m
