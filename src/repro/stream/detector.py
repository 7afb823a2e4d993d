"""Online anomaly detection over streamed feature windows.

An :class:`OnlineDetector` wraps a trained
:class:`~repro.core.model.CrossFeatureModel` plus a decision threshold
and consumes :class:`~repro.stream.extractor.WindowRow` events as windows
close, emitting a typed :class:`Alarm` the moment a window's normality
score falls below the threshold — the deployment posture the paper
frames (an IDS watching a live node), instead of scoring a finished
trace after the fact.

Watching one node is the one-lane case of watching many: the detector
is a thin adapter over a :class:`~repro.stream.fleet.FleetDetector` with
one externally fed lane named ``""``, whose row policy, attribution and
snapshots it uses unchanged.

Scoring one row at a time is bit-identical to scoring the batch matrix:
every step of :meth:`CrossFeatureModel.normality_score` — discretizer
transform, sub-model tree walk, per-row probability lookup and the
per-row mean / geometric pooling — treats rows independently, so the
``(1, L)`` slice reproduces the batch row's bits.  The streaming test
suite asserts this end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.attribution import AlarmAttributor, Verdict, resolve_attributor
from repro.core.model import CrossFeatureDetector, CrossFeatureModel
from repro.stream.config import (
    DEFAULT_ATTRIBUTION,
    DEFAULT_ROW_POLICY,
    NO_FAULT_BREAKER,
    resolve_threshold,
)
from repro.stream.extractor import WindowRow
from repro.stream.faults import StreamFault

if TYPE_CHECKING:  # pragma: no cover
    from repro.stream.fleet import FleetDetector

#: Lane name of the single stream (alarms and faults carry ``stream=""``).
_LANE = ""


@dataclass(frozen=True)
class Alarm:
    """One anomaly alarm raised by the online detector.

    ``latency_s`` is the wall-clock cost of scoring the window — the
    delay between the window closing (row delivery) and the alarm being
    available to act on.  ``verdict`` is the typed attribution verdict
    (None unless the detector was built with ``attribution``).
    """

    index: int          #: emitted-window index at the monitor
    time: float         #: window end, simulation seconds
    score: float        #: normality score (higher = more normal)
    threshold: float    #: decision threshold in force
    monitor: int        #: observed node
    latency_s: float    #: wall-clock seconds from window close to alarm
    stream: str = ""    #: fleet lane name ("" outside fleet detection)
    verdict: Verdict | None = None  #: typed attribution verdict


@dataclass
class StreamResult:
    """Everything one streaming run produced.

    ``labels`` is the post-hoc ground truth per emitted window (empty for
    live deployments without it); latency statistics cover *every* scored
    window, alarmed or not.
    """

    monitor: int
    threshold: float
    method: str
    times: np.ndarray
    scores: np.ndarray
    labels: np.ndarray
    alarms: list[Alarm]
    windows: int
    elapsed_s: float
    mean_latency_s: float
    max_latency_s: float

    @property
    def windows_per_second(self) -> float:
        """Detection throughput (scored windows per wall-clock second)."""
        return self.windows / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def recall_precision(self) -> tuple[float, float]:
        """Operating point of the emitted alarms against ``labels``.

        Requires ground truth with at least one intrusion window (raises
        :class:`ValueError` otherwise, like the batch metrics).
        """
        from repro.eval.metrics import recall_precision_at

        return recall_precision_at(self.scores, self.labels, self.threshold)

    def summary(self) -> str:
        """One-line human-readable digest (the CLI prints this)."""
        return (
            f"{self.windows} windows scored, {len(self.alarms)} alarms, "
            f"{self.windows_per_second:.0f} windows/s, "
            f"latency mean {self.mean_latency_s * 1e3:.2f}ms / "
            f"max {self.max_latency_s * 1e3:.2f}ms"
        )


class OnlineDetector:
    """Consume closed windows, score them, raise alarms.

    Parameters
    ----------
    model:
        A *trained* (and, for ``calibrated_probability``, calibrated)
        :class:`CrossFeatureModel`.
    threshold:
        Decision threshold: alarm iff ``score < threshold`` (the batch
        detector's rule).
    method:
        Scoring rule, as in :meth:`CrossFeatureModel.normality_score`.
    monitor:
        Node id stamped on emitted alarms.
    on_alarm:
        Callback invoked with each :class:`Alarm` as it fires.
    row_policy:
        Degraded-input policy (see :mod:`repro.stream.config`):
        ``"strict"`` trusts the extractor and raises on a window at or
        before the last scored one; ``"quarantine"`` validates each row
        and routes late, duplicate, NaN-bearing or out-of-range ones to
        ``fault_records`` instead of scoring them.  A single stream has
        no consecutive-fault breaker: tripping it would end detection.
    on_fault:
        Callback invoked with each quarantined
        :class:`~repro.stream.faults.StreamFault`.
    attribution:
        Attach typed verdicts to alarms: ``True`` builds a default
        :class:`~repro.attribution.AlarmAttributor` over this model and
        threshold, or pass a configured attributor.  Runs strictly
        after scoring — scores and alarm decisions are bit-identical
        with it on or off (``REPRO_ATTRIBUTION=0`` force-disables).
    """

    def __init__(
        self,
        model: CrossFeatureModel,
        threshold: float,
        method: str = "avg_probability",
        monitor: int = 0,
        on_alarm: Callable[[Alarm], None] | None = None,
        row_policy: str = DEFAULT_ROW_POLICY,
        on_fault: Callable[[StreamFault], None] | None = None,
        attribution: AlarmAttributor | bool = DEFAULT_ATTRIBUTION,
    ):
        from repro.stream.fleet import FleetDetector

        self._fleet: FleetDetector = FleetDetector(
            model, threshold, method=method, on_alarm=on_alarm,
            row_policy=row_policy, max_consecutive_faults=NO_FAULT_BREAKER,
            on_fault=on_fault,
        )
        self._fleet.attach(_LANE, monitor=monitor)
        self._lane = self._fleet._lanes[_LANE]
        self.model = model
        self.threshold = self._fleet.threshold
        self.method = method
        self.monitor = monitor
        self.row_policy = self._fleet.row_policy
        self.attribution = resolve_attributor(model, self.threshold, attribution)
        if self.attribution is not None:
            self._fleet._attributors[_LANE] = self.attribution

    @classmethod
    def from_detector(
        cls,
        detector: CrossFeatureDetector,
        threshold: float | None = None,
        monitor: int = 0,
        on_alarm: Callable[[Alarm], None] | None = None,
        row_policy: str = DEFAULT_ROW_POLICY,
        on_fault: Callable[[StreamFault], None] | None = None,
        attribution: AlarmAttributor | bool = DEFAULT_ATTRIBUTION,
    ) -> "OnlineDetector":
        """Wrap a fitted batch :class:`CrossFeatureDetector` unchanged.

        ``threshold=None`` adopts the detector's calibrated
        ``threshold_`` — the shared construction rule documented in
        :mod:`repro.stream.config`.
        """
        return cls(
            model=detector.model,
            threshold=resolve_threshold(detector, threshold),
            method=detector.method,
            monitor=monitor,
            on_alarm=on_alarm,
            row_policy=row_policy,
            on_fault=on_fault,
            attribution=attribution,
        )

    # ------------------------------------------------------------------
    # Run state (the lane's lists; restore replaces them)
    # ------------------------------------------------------------------
    @property
    def times(self) -> list[float]:
        """Window end times scored so far."""
        return self._lane.times

    @property
    def scores(self) -> list[float]:
        """Normality scores so far, one per scored window."""
        return self._lane.scores

    @property
    def latencies(self) -> list[float]:
        """Wall-clock scoring seconds per scored window."""
        return self._lane.latencies

    @property
    def alarms(self) -> list[Alarm]:
        """Alarms raised so far."""
        return self._lane.alarms

    @property
    def fault_records(self) -> list[StreamFault]:
        """Quarantined rows so far (always empty under ``strict``)."""
        return self._fleet.fault_records

    @property
    def windows(self) -> int:
        """Windows scored so far."""
        return len(self._lane.scores)

    @property
    def quarantined(self) -> int:
        """Degraded rows quarantined so far (always 0 under ``strict``)."""
        return len(self._fleet.fault_records)

    def consume(self, row: WindowRow) -> Alarm | None:
        """Score one closed window; return the alarm if one fires.

        Wire this as the :class:`StreamingExtractor`'s ``on_row`` hook.
        The row is ingested and the lane sealed just past its time, so
        it is scored (as a one-row tick batch) before the call returns.
        Under ``row_policy="quarantine"`` a degraded row is recorded on
        ``fault_records`` and *not* scored (returns ``None``).
        """
        alarms = self._lane.alarms
        fired = len(alarms)
        self._fleet.ingest(_LANE, row)
        t = float(row.time)
        if math.isfinite(t):  # an inf time is quarantined; it must not wedge the lane
            self._fleet.seal(_LANE, math.nextafter(t, math.inf))
        return alarms[-1] if len(alarms) > fired else None

    def result(
        self,
        labels: np.ndarray | None = None,
        elapsed_s: float = 0.0,
    ) -> StreamResult:
        """Freeze the run into a :class:`StreamResult`."""
        lane_labels = {_LANE: labels} if labels is not None else None
        return self._fleet.result(lane_labels, elapsed_s).streams[_LANE]

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The detector's mutable run state (scores, alarms, quarantine).

        The model/threshold/method construction knobs are not captured;
        restore targets a detector built over the same trained model.
        """
        return self._fleet.snapshot()

    def restore(self, state: dict) -> None:
        """Adopt a :meth:`snapshot`, replacing all current run state.

        Restored alarms and faults do *not* re-fire the ``on_alarm`` /
        ``on_fault`` hooks — they already fired in the original run.
        Attribution state (CUSUM statistic, blame/residual history)
        restores when both sides have attribution; a snapshot from a
        plain run leaves a fresh attributor empty.
        """
        self._fleet.restore(state)
