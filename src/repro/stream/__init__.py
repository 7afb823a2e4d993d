"""repro.stream — online detection over live sampling windows.

The batch pipeline needs a finished trace; this subsystem runs the same
analysis *while the node is being watched*: a
:class:`StreamingExtractor` tap consumes the monitor's event stream and
closes one feature window per sampling tick (ring buffers over the
multi-period Table 5 grid — O(1) amortised per window), and an
:class:`OnlineDetector` scores each window as it closes, emitting typed
:class:`Alarm` events with latency accounting.  With ``attribution`` on,
each alarm additionally carries a :class:`~repro.attribution.Verdict` —
anomaly class, culprit features, estimated onset — computed strictly
after scoring, so scores and alarm decisions stay bit-identical.

At fleet scale, a :class:`FleetDetector` multiplexes N extractor streams
(one per monitored node, across one or many scenarios) into a single
pipeline: all windows closing on the same tick are scored in **one**
vectorized batch, per-stream :class:`Alarm` streams are fused into
network-level :class:`FleetAlarm` verdicts under a configurable quorum
policy, and every construction surface shares the keywords documented in
:mod:`repro.stream.config`.

Watching one node is the one-lane case of watching many: an
:class:`OnlineDetector` is a thin adapter over a one-lane
:class:`FleetDetector`, and ``Session.stream_detect`` runs the same
fleet driver as ``Session.fleet_detect`` with a single lane.

The contract: for any scenario, the streamed per-window feature rows and
scores are **bit-identical** to the batch
``extract_features`` → ``CrossFeatureModel.normality_score`` path over
the completed trace — and a fleet run is bit-identical to N independent
one-lane runs (asserted end to end by ``tests/stream/``).

Long-lived runs are *durable*: the full fleet state checkpoints to one
fingerprinted file kind and resumes through one driver
(:mod:`repro.stream.durability`); a run killed at any tick restores +
replays to bit-identical results.  Degraded input is governed by a
``row_policy`` (quarantine late / duplicate / NaN / out-of-range rows as
typed :class:`StreamFault` records instead of raising), and
:mod:`repro.stream.faults` injects deterministic row / lane-crash /
checkpoint faults for chaos testing.

Usage::

    from repro import ScenarioConfig, Session
    from repro.stream import FleetDetector, OnlineDetector, StreamingExtractor

    session = Session()
    result = session.stream_detect(plan)          # train (cached) + stream live
    verdict = session.fleet_detect(plan, quorum=2)   # every node, fused alarms

    # or hand-wired on a raw scenario:
    detector = OnlineDetector.from_detector(fitted, on_alarm=print)
    tap = StreamingExtractor(monitor=0, on_row=detector.consume,
                             sampling_period=config.sampling_period)
    run_scenario(config, attacks, taps=[tap])
"""

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
from repro.stream.detector import Alarm, OnlineDetector, StreamResult
from repro.stream.durability import (
    CheckpointError,
    load_fleet_checkpoint,
    read_checkpoint,
    save_fleet_checkpoint,
    write_checkpoint,
)
from repro.stream.extractor import StreamingExtractor, WindowRow, extractor_for_config
from repro.stream.faults import StreamFault, StreamFaultPlan, StreamFaultSpec
from repro.stream.fleet import FleetAlarm, FleetDetector, FleetResult, FleetStream
from repro.stream.replay import replay_trace
from repro.stream.ring import EventRing, RouteLengthRing

__all__ = [
    "Alarm",
    "CheckpointError",
    "DEFAULT_ATTRIBUTION",
    "DEFAULT_MAX_FAULTS",
    "DEFAULT_MONITOR",
    "DEFAULT_QUORUM",
    "DEFAULT_ROW_POLICY",
    "DEFAULT_WARMUP",
    "EventRing",
    "FleetAlarm",
    "FleetDetector",
    "FleetResult",
    "FleetStream",
    "OnlineDetector",
    "RouteLengthRing",
    "StreamFault",
    "StreamFaultPlan",
    "StreamFaultSpec",
    "StreamResult",
    "StreamingExtractor",
    "WindowRow",
    "extractor_for_config",
    "load_fleet_checkpoint",
    "needed_votes",
    "read_checkpoint",
    "replay_trace",
    "resolve_threshold",
    "save_fleet_checkpoint",
    "validate_quorum",
    "validate_row_policy",
    "write_checkpoint",
]
