"""Unit tests for the fleet multiplexer: buckets, watermark, quorum, API."""

import inspect

import numpy as np
import pytest

from repro.stream import (
    DEFAULT_MONITOR,
    DEFAULT_QUORUM,
    DEFAULT_WARMUP,
    FleetDetector,
    OnlineDetector,
    needed_votes,
    validate_quorum,
)
from repro.stream.extractor import WindowRow


class BatchScoreByFirstFeature:
    """Stand-in model: score = first feature; records every batch size."""

    discretizer = object()  # "fitted" marker checked by the detectors

    def __init__(self):
        self.batch_sizes = []

    def normality_score(self, X, method):
        self.batch_sizes.append(X.shape[0])
        return X[:, 0].astype(float)


def row(index, time, value):
    return WindowRow(
        index=index, time=time, monitor=0,
        features=np.array([value, 0.0]),
    )


def fleet_with(n, threshold=0.5, **kwargs):
    model = BatchScoreByFirstFeature()
    fleet = FleetDetector(model, threshold=threshold, **kwargs)
    for s in range(n):
        fleet.attach(f"n{s}")
    return fleet, model


class TestMultiplexer:
    def test_same_tick_windows_score_in_one_batch(self):
        fleet, model = fleet_with(3)
        for k in range(4):
            t = 5.0 * (k + 1)
            for s in range(3):
                fleet.ingest(f"n{s}", row(k, t, 0.9))
            fleet.seal_all(t)
        fleet.finish()
        assert model.batch_sizes == [3, 3, 3, 3]
        assert fleet.batch_sizes == [3, 3, 3, 3]
        assert fleet.windows == 12

    def test_watermark_waits_for_slowest_lane(self):
        fleet, model = fleet_with(2)
        fleet.ingest("n0", row(0, 5.0, 0.9))
        fleet.seal("n0", 10.0)  # n0 is past the tick, n1 is not
        assert model.batch_sizes == []
        fleet.ingest("n1", row(0, 5.0, 0.9))
        fleet.seal("n1", 10.0)  # now the whole fleet has moved past t=5
        assert model.batch_sizes == [2]

    def test_bucket_needs_strictly_later_watermark(self):
        fleet, model = fleet_with(1)
        fleet.ingest("n0", row(0, 5.0, 0.9))
        fleet.seal("n0", 5.0)  # exactly at the tick: not proven past it
        assert model.batch_sizes == []
        fleet.seal("n0", 5.1)
        assert model.batch_sizes == [1]

    def test_drop_unblocks_the_fleet(self):
        fleet, model = fleet_with(3)
        for s in range(2):
            fleet.ingest(f"n{s}", row(0, 5.0, 0.9))
            fleet.seal(f"n{s}", 10.0)
        assert model.batch_sizes == []  # n2 never reported, holds it back
        fleet.drop("n2")
        assert model.batch_sizes == [2]
        assert fleet._lanes["n2"].done

    def test_finish_flushes_pending_buckets(self):
        fleet, model = fleet_with(2)
        fleet.ingest("n0", row(0, 5.0, 0.9))
        fleet.ingest("n1", row(0, 5.0, 0.9))
        assert model.batch_sizes == []
        fleet.finish()
        assert model.batch_sizes == [2]

    def test_late_row_after_finalisation_raises(self):
        fleet, _ = fleet_with(2)
        fleet.ingest("n0", row(0, 5.0, 0.9))
        fleet.ingest("n1", row(0, 5.0, 0.9))
        fleet.seal_all(10.0)
        with pytest.raises(ValueError, match="finalised"):
            fleet.ingest("n0", row(1, 5.0, 0.4))

    def test_ingest_after_drop_raises(self):
        fleet, _ = fleet_with(1)
        fleet.drop("n0")
        with pytest.raises(ValueError, match="finished"):
            fleet.ingest("n0", row(0, 5.0, 0.9))

    def test_duplicate_name_raises(self):
        fleet, _ = fleet_with(1)
        with pytest.raises(ValueError, match="already registered"):
            fleet.attach("n0")

    def test_unknown_name_raises_key_error(self):
        fleet, _ = fleet_with(1)
        with pytest.raises(KeyError):
            fleet.ingest("nope", row(0, 5.0, 0.9))
        with pytest.raises(KeyError):
            fleet.seal("nope", 5.0)

    def test_requires_fitted_model(self):
        class Unfitted:
            discretizer = None

        with pytest.raises(ValueError, match="fitted"):
            FleetDetector(Unfitted(), threshold=0.5)


class TestSingleStreamEquivalence:
    def test_single_lane_fleet_matches_online_detector_bitwise(self):
        values = [0.9, 0.1, 0.8, 0.3, 0.55]
        rows = [row(i, 5.0 * (i + 1), v) for i, v in enumerate(values)]

        online = OnlineDetector(BatchScoreByFirstFeature(), threshold=0.5)
        for r in rows:
            online.consume(r)

        fleet, _ = fleet_with(1)
        for r in rows:
            fleet.ingest("n0", r)
            fleet.seal("n0", r.time + 0.1)
        fleet.finish()

        result = fleet.result()
        single = result.streams["n0"]
        assert np.array_equal(single.scores, np.asarray(online.scores))
        assert np.array_equal(single.times, np.asarray(online.times))
        assert [(a.index, a.time, a.score) for a in single.alarms] == \
               [(a.index, a.time, a.score) for a in online.alarms]
        # every alarm carries its lane name; the solo detector's is blank
        assert all(a.stream == "n0" for a in single.alarms)
        assert all(a.stream == "" for a in online.alarms)


class TestQuorum:
    def ticks(self, fleet, per_stream_values):
        """Feed one tick per entry; values[k][s] scores stream s."""
        for k, values in enumerate(per_stream_values):
            t = 5.0 * (k + 1)
            for s, v in enumerate(values):
                if v is not None:
                    fleet.ingest(f"n{s}", row(k, t, v))
            fleet.seal_all(t + 0.1)

    def test_int_quorum_is_k_of_reporting(self):
        fleet, _ = fleet_with(3, quorum=2)
        self.ticks(fleet, [
            (0.9, 0.9, 0.9),  # nobody alarms
            (0.1, 0.9, 0.9),  # one alarm < quorum
            (0.1, 0.2, 0.9),  # two alarms: fused
        ])
        assert len(fleet.fused) == 1
        fused = fleet.fused[0]
        assert fused.time == 15.0
        assert fused.streams == ("n0", "n1")
        assert fused.scores == (0.1, 0.2)
        assert fused.reporting == 3 and fused.needed == 2

    def test_int_quorum_unsatisfiable_when_too_few_report(self):
        # Both reporting streams alarm, but k=3 cannot be met by 2 votes:
        # dropped streams make the fixed-k policy more cautious, never less.
        fleet, _ = fleet_with(3, quorum=3)
        fleet.drop("n2")
        self.ticks(fleet, [(0.1, 0.1, None)])
        assert fleet.fused == []

    def test_fractional_quorum_adapts_to_reporting(self):
        # 0.5 of 3 reporting = 2 votes; after a drop, 0.5 of 2 = 1 vote.
        fleet, _ = fleet_with(3, quorum=0.5)
        self.ticks(fleet, [(0.1, 0.9, 0.9)])
        assert fleet.fused == []
        fleet.drop("n2")
        self.ticks(fleet, [(None, None, None), (0.1, 0.9, None)])
        assert len(fleet.fused) == 1
        assert fleet.fused[0].reporting == 2 and fleet.fused[0].needed == 1

    def test_disjoint_warmups_shrink_reporting(self):
        # A still-warming-up lane delivers nothing; the fraction is taken
        # over the lanes that actually reported on the tick.
        fleet, _ = fleet_with(2, quorum=1.0)  # unanimity of reporting
        fleet.ingest("n0", row(0, 5.0, 0.1))  # n1 warming up: no window yet
        fleet.seal_all(5.1)
        assert len(fleet.fused) == 1
        assert fleet.fused[0].reporting == 1 and fleet.fused[0].needed == 1

    def test_quorum_validation(self):
        for bad in (0, -1, 0.0, 1.5, True, "2"):
            with pytest.raises(ValueError):
                validate_quorum(bad)
        assert validate_quorum(1) == 1
        assert validate_quorum(0.25) == 0.25
        assert needed_votes(2, 5) == 2
        assert needed_votes(0.5, 5) == 3   # ceil
        assert needed_votes(0.1, 4) == 1   # never below one vote


class TestHooks:
    def test_on_alarm_on_fused_on_batch_fire_in_order(self):
        alarms, fused, batches = [], [], []
        fleet, _ = fleet_with(
            2, on_alarm=alarms.append, on_fused=fused.append,
            on_batch=lambda n, s: batches.append(n),
        )
        fleet.ingest("n0", row(0, 5.0, 0.1))
        fleet.ingest("n1", row(0, 5.0, 0.9))
        fleet.seal_all(5.1)
        assert [a.stream for a in alarms] == ["n0"]
        assert len(fused) == 1 and fused[0].streams == ("n0",)
        assert batches == [2]


class TestFleetResult:
    def test_result_freezes_streams_labels_and_batches(self):
        fleet, _ = fleet_with(2)
        for k in range(3):
            t = 5.0 * (k + 1)
            fleet.ingest("n0", row(k, t, 0.1 if k == 1 else 0.9))
            fleet.ingest("n1", row(k, t, 0.9))
            fleet.seal_all(t + 0.1)
        labels = {"n0": np.array([False, True, False])}
        result = fleet.result(labels=labels, elapsed_s=2.0)
        assert result.n_streams == 2 and result.windows == 6
        assert result.batches == 3 and result.mean_batch_size == 2.0
        assert result.alarms == 1 and len(result.fused) == 1
        assert np.array_equal(result.streams["n0"].labels, labels["n0"])
        assert not result.streams["n1"].labels.any()  # default: all normal
        assert result.windows_per_second == pytest.approx(3.0)
        recall, precision = result.streams["n0"].recall_precision()
        assert recall == 1.0 and precision == 1.0
        assert "2 streams" in result.summary()
        assert "1 fused alarms" in result.summary()


class TestConstructionSymmetry:
    """The shared keywords cannot drift apart across the four surfaces
    (documented once, in repro.stream.config)."""

    def params(self, fn):
        return inspect.signature(fn).parameters

    def test_threshold_defaults_to_calibrated_everywhere(self):
        from repro.runtime.session import Session

        for fn in (OnlineDetector.from_detector, FleetDetector.from_detector,
                   Session.stream_detect, Session.fleet_detect):
            assert self.params(fn)["threshold"].default is None, fn

    def test_quorum_default_is_shared(self):
        from repro.runtime.session import Session

        for fn in (FleetDetector.from_detector, Session.fleet_detect):
            assert self.params(fn)["quorum"].default == DEFAULT_QUORUM, fn

    def test_monitor_and_warmup_defaults_are_shared(self):
        from repro.runtime.session import Session

        assert self.params(OnlineDetector.from_detector)["monitor"].default \
               == DEFAULT_MONITOR
        assert self.params(FleetDetector.add_stream)["monitor"].default \
               == DEFAULT_MONITOR
        assert self.params(FleetDetector.add_stream)["warmup"].default \
               == DEFAULT_WARMUP
        # Session surfaces default both to None = "take it from the plan"
        for fn, key in ((Session.stream_detect, "monitor"),
                        (Session.stream_detect, "warmup"),
                        (Session.fleet_detect, "monitors"),
                        (Session.fleet_detect, "warmup")):
            assert self.params(fn)[key].default is None, (fn, key)

    def test_attribution_default_is_shared(self):
        from repro.runtime.session import Session
        from repro.stream.config import DEFAULT_ATTRIBUTION

        for fn in (OnlineDetector.from_detector, FleetDetector.from_detector):
            assert self.params(fn)["attribution"].default \
                   is DEFAULT_ATTRIBUTION, fn
        # The Session surfaces share the same (off-by-default) contract.
        for fn in (Session.stream_detect, Session.fleet_detect):
            assert self.params(fn)["attribution"].default is False, fn

    def test_training_knobs_match_fitted_detector(self):
        from repro.runtime.session import Session

        reference = self.params(Session.fitted_detector)
        for fn in (Session.detect, Session.stream_detect, Session.fleet_detect):
            params = self.params(fn)
            for knob in ("classifier", "method", "false_alarm_rate",
                         "max_models", "n_buckets"):
                assert params[knob].default == reference[knob].default, (fn, knob)
