"""Durable streaming runs: checkpoint / restore with a resume contract.

A streaming run is long-lived by design — the paper's deployment story
is an IDS agent that watches a node for hours.  This module makes such
runs *kill-anywhere durable*.  Every durable run is a
:class:`~repro.stream.fleet.FleetDetector` run (watching one node is a
one-lane fleet), so there is one checkpoint kind, ``"fleet"``, and one
driver, :func:`run_durable_fleet`.  The full mutable state of the
pipeline (per-lane extractor rings and pending tick, verdicts, fault
injector, lane frontiers / tick buckets / watermark) is snapshot to disk
at deterministic instants, and a process killed at **any** point can
restore the latest snapshot and replay the remaining events to results
whose scores, alarms and fused verdicts are ``np.array_equal`` to the
uninterrupted run's (asserted by ``tests/stream/test_durability.py`` and
re-checked in-harness by ``repro bench --suite stream-chaos``).

Checkpoint file format (version |version|)::

    REPROCKPT1\\n                                   magic
    {"version": 1, "kind": "fleet", "fingerprint": "..."}\\n   header (JSON)
    <pickle bytes>                                 body

The header's ``fingerprint`` is the SHA-256 of the body bytes; any
corruption or truncation fails the restore **loudly** with a
:class:`CheckpointError` naming the fingerprint mismatch — a damaged
checkpoint must never silently restore wrong state.  ``kind`` is checked
too, so a file written by anything else is refused.  Files are written
with the cache's atomic tmp + fsync + rename helper
(:func:`~repro.runtime.cache.atomic_write_bytes`), so a crash *during* a
checkpoint write leaves the previous checkpoint intact.

Why replay positions anchor the contract: durable runs are driven over
recorded (cached, deterministic) traces via
:class:`~repro.stream.replay.ReplayCursor`, whose merged dispatch order
is total-ordered and reproducible — so "N merged items dispatched" names
the same instant in every replay of the same trace, and a checkpoint is
just (per-lane positions, state snapshot).  The driver advances every
lane one tick segment per round (with one lane, a round is one sampling
tick) and snapshots only at round boundaries, right after a dispatched
tick (the tick rides *pending* in the extractor; nothing is
half-applied).

Session knobs (``Session.stream_detect`` / ``fleet_detect``)::

    checkpoint=PATH          write snapshots to PATH during the run
    checkpoint_every=N       snapshot cadence, in lockstep rounds;
                             default DEFAULT_CHECKPOINT_EVERY
    resume_from=PATH         restore PATH before replaying the remainder
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping

from repro.runtime.cache import atomic_write_bytes
from repro.stream.config import DEFAULT_CHECKPOINT_EVERY
from repro.stream.faults import StreamFaultPlan, apply_checkpoint_fault
from repro.stream.replay import ReplayCursor

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.scenario import SimulationTrace
    from repro.stream.fleet import FleetDetector

#: First bytes of every checkpoint file.
MAGIC = b"REPROCKPT1\n"

#: Current checkpoint format version (see the module docstring).
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint file could not be trusted or understood.

    Raised on a missing / unreadable file, a foreign or truncated
    header, an unsupported format version, a kind mismatch and — the one the
    chaos suite drills — a **fingerprint mismatch**: the body bytes do
    not hash to the header's SHA-256, i.e. the file was corrupted or
    truncated after it was written.
    """


def write_checkpoint(path: str | Path, kind: str, body: dict) -> None:
    """Atomically write one fingerprinted checkpoint file.

    ``body`` is pickled; the header records the format version, the
    ``kind`` tag and the body's SHA-256.  The write goes through
    :func:`~repro.runtime.cache.atomic_write_bytes`, so an interrupted
    write can never replace a good checkpoint with a torn one.
    """
    payload = pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps(
        {
            "version": CHECKPOINT_VERSION,
            "kind": kind,
            "fingerprint": hashlib.sha256(payload).hexdigest(),
        },
        sort_keys=True,
    )
    atomic_write_bytes(path, MAGIC + header.encode() + b"\n" + payload)


def read_checkpoint(path: str | Path, kind: str) -> dict:
    """Read and verify one checkpoint file; return the pickled body.

    Every failure mode raises :class:`CheckpointError` with the cause
    named — most importantly a *fingerprint mismatch* for corrupted or
    truncated bodies.  ``kind`` must match the tag the writer recorded.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not data.startswith(MAGIC):
        raise CheckpointError(f"{path} is not a repro checkpoint (bad magic)")
    newline = data.find(b"\n", len(MAGIC))
    if newline < 0:
        raise CheckpointError(f"checkpoint {path} is truncated (no header)")
    try:
        header = json.loads(data[len(MAGIC):newline])
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path} has a corrupt header: {exc}"
        ) from exc
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    if header.get("kind") != kind:
        raise CheckpointError(
            f"checkpoint {path} holds a {header.get('kind')!r} snapshot, "
            f"not the expected {kind!r}"
        )
    payload = data[newline + 1:]
    fingerprint = hashlib.sha256(payload).hexdigest()
    if fingerprint != header.get("fingerprint"):
        raise CheckpointError(
            f"checkpoint {path} failed verification: fingerprint mismatch "
            f"(header {header.get('fingerprint')!r}, body {fingerprint!r}) — "
            f"the file was corrupted or truncated; refusing to restore"
        )
    try:
        return pickle.loads(payload)
    except Exception as exc:  # fingerprint passed but unpicklable
        raise CheckpointError(
            f"checkpoint {path} body failed to unpickle: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def save_fleet_checkpoint(
    path: str | Path,
    positions: Mapping[str, int],
    fleet: "FleetDetector",
) -> None:
    """Snapshot a fleet run: per-lane replay positions + full fleet state."""
    write_checkpoint(path, "fleet", {
        "positions": {name: int(p) for name, p in positions.items()},
        "fleet": fleet.snapshot(),
    })


def load_fleet_checkpoint(path: str | Path, fleet: "FleetDetector") -> dict[str, int]:
    """Restore a fleet snapshot; return the per-lane replay positions.

    ``fleet`` must be freshly built with the original lanes registered;
    rebuild each lane's :class:`~repro.stream.replay.ReplayCursor` with
    ``skip=positions[lane]`` to continue the run.
    """
    body = read_checkpoint(path, "fleet")
    fleet.restore(body["fleet"])
    return dict(body["positions"])


# ----------------------------------------------------------------------
# The durable run driver
# ----------------------------------------------------------------------
def run_durable_fleet(
    traces: "Mapping[str, SimulationTrace]",
    fleet: "FleetDetector",
    checkpoint: str | Path | None = None,
    checkpoint_every: int | None = None,
    resume_from: str | Path | None = None,
    faults: StreamFaultPlan | None = None,
    stop_after_rounds: int | None = None,
    on_checkpoint: Callable[[int], None] | None = None,
    on_restore: Callable[[int], None] | None = None,
) -> tuple[dict[str, int], bool]:
    """Drive one durable fleet run over recorded traces, round-robin.

    ``traces`` maps scenario group name to its recorded trace; groups
    replay sequentially (matching live ``fleet_detect``) and *within* a
    group every lane advances one tick segment per round, in taps order
    — lockstep, so the stall policy sees the same frontier gaps as a
    live run and an idle lane is never mistaken for a stalled one.

    Checkpoints land at round boundaries (every lane just past a tick);
    ``resume_from`` restores the fleet and rebuilds each lane's cursor
    at its saved position.  ``stop_after_rounds`` kills the run abruptly
    after that many rounds of *this* run (chaos harness).  Returns
    ``(per-lane positions, finished)``.
    """
    every = DEFAULT_CHECKPOINT_EVERY if checkpoint_every is None else int(checkpoint_every)
    if every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {every}")
    positions: dict[str, int] = {}
    if resume_from is not None:
        # The chaos path: a planned ckpt-* fault damages restore ordinal 0.
        spec = faults.checkpoint_fault(0) if faults is not None else None
        if spec is not None:
            apply_checkpoint_fault(resume_from, spec)
        positions = load_fleet_checkpoint(resume_from, fleet)
        if on_restore is not None:
            on_restore(max(positions.values(), default=0))

    rounds = 0
    for scenario, trace in traces.items():
        cursors = [
            (tap, ReplayCursor(trace, tap, skip=positions.get(tap.name, 0)))
            for tap in fleet.taps(scenario)
        ]
        while any(not cursor.done for _, cursor in cursors):
            for tap, cursor in cursors:
                if not cursor.done:
                    cursor.step_tick()
                    positions[tap.name] = cursor.position
            rounds += 1
            if checkpoint is not None and rounds % every == 0:
                save_fleet_checkpoint(checkpoint, positions, fleet)
                if on_checkpoint is not None:
                    on_checkpoint(rounds)
            if stop_after_rounds is not None and rounds >= stop_after_rounds:
                return positions, False
    fleet.finish()
    return positions, True
