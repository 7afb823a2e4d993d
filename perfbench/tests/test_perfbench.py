"""The benchmark's own tests, on a reduced scenario size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pickle

import pytest

import run as run_cli
import workloads
from ledger import LAYER_METRICS
from repro.stream.replay import ReplayCursor

SMALL = workloads.Size(n_nodes=6, duration=200.0, cold_duration=200.0, max_connections=8)


@pytest.fixture(scope="module")
def learned(tmp_path_factory):
    """A small trace store plus the pins its first runs recorded."""
    root = tmp_path_factory.mktemp("bench")
    pins = workloads.Pins(update=True)
    for name in ("online-replay", "fleet-durable"):
        outcome = workloads.run(
            name, 0, 0.0, size=SMALL, store_dir=root / "store",
            workdir=root / "out", pins=pins,
        )
        assert outcome.correct, outcome.failures
    return root, pins.table


def run_small(name, root, table, seed=0):
    pins = workloads.Pins(json.loads(json.dumps(table)))
    return workloads.run(
        name, seed, 0.0, size=SMALL, store_dir=root / "store",
        workdir=root / "out", pins=pins,
    )


def test_pinned_outputs_hold_at_other_seeds(learned):
    root, table = learned
    outcome = run_small("online-replay", root, table, seed=3)
    assert outcome.correct, outcome.failures
    assert outcome.attempted > 0 and outcome.failed == 0


def test_tampered_pinned_fingerprint_is_reported(learned):
    root, table = learned
    tampered = json.loads(json.dumps(table))
    label = sorted(tampered["store"])[0]
    tampered["store"][label] = "0" * 64
    outcome = run_small("online-replay", root, tampered)
    assert not outcome.correct
    assert any(label in failure for failure in outcome.failures)


def test_stale_store_entry_is_resimulated(learned):
    root, table = learned
    entries = sorted((root / "store").glob("*.pkl"))
    stale = pickle.loads(entries[1].read_bytes())
    entries[0].write_bytes(pickle.dumps(stale))     # a valid but wrong trace
    outcome = run_small("online-replay", root, table)
    assert outcome.correct, outcome.failures


def test_raising_lane_is_dropped_and_counted(learned, monkeypatch):
    root, table = learned
    victim = "dsr/attack[31]/n1"

    class FaultyCursor(ReplayCursor):
        def step_tick(self):
            if self.tap.name == victim and self.position > 20:
                raise RuntimeError("injected lane fault")
            return super().step_tick()

    monkeypatch.setattr(workloads, "ReplayCursor", FaultyCursor)
    pins = workloads.Pins(update=True)   # the dropped lane changes the fused set
    outcome = workloads.run(                     # own workdir: no baseline saved
        "fleet-durable", 0, 0.0, size=SMALL, store_dir=root / "store",
        workdir=root / "faulty", pins=pins,
    )
    assert outcome.correct, outcome.failures      # every surviving lane == batch
    assert outcome.failed >= 1
    assert any(victim in line and "injected" in line for line in outcome.report)


@pytest.mark.parametrize("name", ["paper-cold", "online-replay", "fleet-durable"])
def test_traced_outputs_equal_untraced(learned, name):
    root, table = learned
    pins = workloads.Pins(json.loads(json.dumps(table)), update=name == "paper-cold")
    outcome, tracer = workloads.run_traced(
        name, 1, size=SMALL, store_dir=root / "store", workdir=root / "out", pins=pins,
    )
    assert outcome.correct, outcome.failures
    assert list(outcome.metrics) == [n for n, _u, _b in LAYER_METRICS]
    assert tracer.spans and not tracer._restore     # recorded, then unpatched
    if name == "paper-cold":
        assert outcome.metrics["simulation.mobility_calls"][0] > 0
        assert outcome.metrics["simulation.run_self_s"][0] > 0
    else:
        assert outcome.metrics["stream.events"][0] > 0
        assert outcome.metrics["runtime.trace_loads"][0] > 0


def test_benchmark_json_names_every_emitted_metric(learned):
    root, table = learned
    spec = json.loads((workloads.HERE.parent / "BENCHMARK.json").read_text())
    outcome = run_small("online-replay", root, table)
    assert [m["name"] for m in spec["end_to_end"]] == list(outcome.metrics)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _u, _b in LAYER_METRICS]
    assert {w["name"] for w in spec["workloads"]} == set(run_cli.WORKLOADS)
    assert all(value > 0 for value, _unit in outcome.metrics.values())


def test_missing_program_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run_cli, "SRC", tmp_path / "src")
    code = run_cli.main(["--workload", "paper-cold", "--seed", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
