"""Deterministic fault injection for the streaming layer.

Extends the batch runtime's fault mini-language
(:mod:`repro.runtime.faults`) to the stream/fleet layer: degraded *rows*
(dropped, duplicated, delayed/reordered, corrupted), *lane crashes*, and
checkpoint-file damage on restore — every fault keyed deterministically
by ``(lane, index)`` so a chaos run is exactly reproducible and a
resumed run re-applies the same faults at the same points.

Two kinds of objects live here:

* the *injected* faults — :class:`StreamFaultSpec` /
  :class:`StreamFaultPlan` describe what the harness breaks on purpose
  (the chaos source), applied by a :class:`RowFaultInjector`;
* the *observed* faults — :class:`StreamFault` records what a
  quarantine-mode detector actually caught (late / duplicate / NaN /
  out-of-range rows), whether injected or organic.

Mini-language (comma-separated clauses, mirroring ``--inject-faults``)::

    drop-row:s0/n1:3        # lane "s0/n1" silently loses emitted row 3
    dup-row:s0/n1:4         # row 4 is delivered twice
    delay-row:*:2           # any lane's row 2 arrives after row 3
    corrupt-row:s0/n2:5     # row 5's first feature becomes NaN
    crash-lane:s0/n2:6      # the lane goes permanently silent at tick 6
    ckpt-corrupt:0          # damage the checkpoint file at restore 0
    ckpt-truncate:1         # truncate the checkpoint file at restore 1

Row faults are keyed by the emitted :class:`WindowRow` index; lane
crashes by the lane's sampling-tick ordinal (every tick the tap sees,
warmup ticks included); checkpoint faults by the restore ordinal.  The
lane field accepts ``*`` as a wildcard; a single-stream
``Session.stream_detect`` run names its one lane ``n<monitor>``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from repro.stream.extractor import WindowRow

#: Row-level injected fault kinds.
ROW_KINDS = ("drop-row", "dup-row", "delay-row", "corrupt-row")

#: Lane-level injected fault kinds.
LANE_KINDS = ("crash-lane",)

#: Checkpoint-file injected fault kinds (applied on restore).
CKPT_KINDS = ("ckpt-corrupt", "ckpt-truncate")

#: Typed quarantine verdicts a ``row_policy="quarantine"`` detector can
#: record (plus the seal reasons ``"crashed"`` carried on lane seals).
FAULT_KINDS = ("late", "duplicate", "nan", "out_of_range")


@dataclass(frozen=True)
class StreamFault:
    """One degraded row (or lane event) a detector caught and quarantined.

    ``kind`` is one of :data:`FAULT_KINDS`; ``index``/``time`` locate the
    offending row, ``detail`` carries the human-readable reason.
    """

    stream: str
    kind: str
    index: int
    time: float
    detail: str = ""


@dataclass(frozen=True)
class StreamFaultSpec:
    """One injected stream fault: what breaks, on which lane, and when."""

    kind: str
    lane: str = "*"
    index: int = 0

    def __post_init__(self):
        if self.kind not in ROW_KINDS + LANE_KINDS + CKPT_KINDS:
            raise ValueError(f"unknown stream-fault kind {self.kind!r}")
        if not isinstance(self.index, int) or isinstance(self.index, bool) \
                or self.index < 0:
            raise ValueError(f"fault index must be an int >= 0, got {self.index!r}")
        if self.kind in CKPT_KINDS and self.lane != "*":
            raise ValueError(
                f"{self.kind} faults are keyed by restore ordinal only, "
                f"got lane {self.lane!r}"
            )

    def matches_lane(self, lane: str) -> bool:
        """Whether this spec applies to the named lane."""
        return self.lane == "*" or self.lane == lane


@dataclass(frozen=True)
class StreamFaultPlan:
    """A deterministic set of injected stream faults.

    Empty plans are falsy, so ``if plan:`` gates the injection path.
    """

    specs: tuple[StreamFaultSpec, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.specs)

    # ------------------------------------------------------------------
    def row_fault(self, lane: str, index: int) -> StreamFaultSpec | None:
        """The row fault (if any) injected at ``(lane, index)``."""
        for spec in self.specs:
            if spec.kind in ROW_KINDS and spec.index == index \
                    and spec.matches_lane(lane):
                return spec
        return None

    def lane_crash(self, lane: str, tick: int) -> bool:
        """Whether the lane has crashed by its ``tick``-th sampling tick."""
        return any(
            spec.kind == "crash-lane" and tick >= spec.index
            and spec.matches_lane(lane)
            for spec in self.specs
        )

    def checkpoint_fault(self, ordinal: int) -> StreamFaultSpec | None:
        """The checkpoint-file fault (if any) for the ``ordinal``-th restore."""
        for spec in self.specs:
            if spec.kind in CKPT_KINDS and spec.index == ordinal:
                return spec
        return None

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "StreamFaultPlan":
        """Parse the mini-language (see the module docstring)."""
        specs = []
        for clause in text.split(","):
            clause = clause.strip()
            if not clause:
                continue
            bits = clause.split(":")
            try:
                if bits[0] in CKPT_KINDS:
                    if len(bits) != 2:
                        raise ValueError(clause)
                    specs.append(StreamFaultSpec(kind=bits[0], index=int(bits[1])))
                else:
                    if len(bits) != 3:
                        raise ValueError(clause)
                    specs.append(
                        StreamFaultSpec(kind=bits[0], lane=bits[1], index=int(bits[2]))
                    )
            except (ValueError, IndexError) as exc:
                raise ValueError(
                    f"malformed stream-fault clause {clause!r} "
                    f"(expected kind:lane:index or ckpt-kind:ordinal)"
                ) from exc
        return cls(specs=tuple(specs))

    @classmethod
    def random(
        cls,
        seed: int,
        lanes: tuple[str, ...],
        n_rows: int,
        kinds: tuple[str, ...] = ROW_KINDS + LANE_KINDS,
        count: int = 4,
    ) -> "StreamFaultPlan":
        """A reproducible random plan over the given lanes and row range."""
        import random as _random

        rng = _random.Random(seed)
        specs = tuple(
            StreamFaultSpec(
                kind=rng.choice(kinds),
                lane=rng.choice(lanes),
                index=rng.randrange(max(1, n_rows)),
            )
            for _ in range(count)
        )
        return cls(specs=specs)


def corrupt_row(row: WindowRow) -> WindowRow:
    """The deterministic ``corrupt-row`` transform: feature 0 becomes NaN."""
    features = row.features.copy()
    features[0] = np.nan
    return replace(row, features=features)


def apply_checkpoint_fault(path: str | Path, spec: StreamFaultSpec) -> None:
    """Damage a checkpoint file the way ``spec`` prescribes.

    ``ckpt-corrupt`` flips the trailing body bytes (the fingerprint check
    must catch it); ``ckpt-truncate`` cuts the file in half (a torn
    write the atomic rename should normally prevent).
    """
    path = Path(path)
    data = path.read_bytes()
    if spec.kind == "ckpt-corrupt":
        tail = bytes(b ^ 0xFF for b in data[-8:])
        path.write_bytes(data[:-8] + tail)
    elif spec.kind == "ckpt-truncate":
        path.write_bytes(data[: len(data) // 2])
    else:
        raise ValueError(f"not a checkpoint fault: {spec.kind!r}")


class RowFaultInjector:
    """Applies a plan's row faults to one lane's row deliveries.

    Sits between a fleet lane's row deliveries and admission and
    transforms each emitted row per the plan (drop / duplicate / delay /
    corrupt).  Lane crashes are keyed by sampling tick and handled by
    the fleet, which stops calling a crashed lane's injector.  Stateful
    (the held delayed row), and checkpointable via :meth:`snapshot` /
    :meth:`restore` so faults replay identically across a resume.
    """

    def __init__(
        self,
        plan: StreamFaultPlan,
        lane: str,
        deliver: Callable[[WindowRow], None],
    ):
        self.plan = plan
        self.lane = lane
        self.deliver = deliver
        self._held: WindowRow | None = None

    def __call__(self, row: WindowRow) -> None:
        """Deliver one emitted row through the fault plan."""
        spec = self.plan.row_fault(self.lane, row.index)
        kind = spec.kind if spec is not None else None
        if kind == "delay-row":
            # Swap with the next delivery: this row arrives late.
            held, self._held = self._held, row
            if held is not None:
                self.deliver(held)
            return
        if kind == "corrupt-row":
            row = corrupt_row(row)
        if kind != "drop-row":
            self.deliver(row)
            if kind == "dup-row":
                self.deliver(row)
        held, self._held = self._held, None
        if held is not None:
            self.deliver(held)

    def flush(self) -> None:
        """End of stream: release a still-held delayed row."""
        held, self._held = self._held, None
        if held is not None:
            self.deliver(held)

    def snapshot(self) -> dict:
        """The injector's mutable state (for checkpoints)."""
        return {"held": self._held}

    def restore(self, state: dict) -> None:
        """Adopt a :meth:`snapshot`."""
        self._held = state["held"]
