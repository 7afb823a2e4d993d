"""Discrete-event simulation kernel.

A minimal, deterministic event scheduler: events are (time, sequence) ordered
callbacks kept in a binary heap.  Ties on time break by insertion order so a
run is fully reproducible for a fixed seed.  Cancellation is lazy — cancelled
events stay in the queue and are skipped when popped — which keeps both
``schedule`` and ``cancel`` O(log n) / O(1).

Two execution modes share that contract (see DESIGN.md §Event kernel):

* **reference** (``event_batch=False`` / ``REPRO_EVENT_BATCH=0``) — the
  pre-optimization loop: peek the heap top, pop, dispatch, one event at a
  time.  Kept verbatim as the behavioural baseline the bucketed mode is
  tested against.
* **bucketed** (the default) — a calendar-queue-style near-future lane.
  The run loop drains every heap entry within ``lane_quantum`` of the next
  event time into a sorted bucket (heap pops already yield sorted order)
  and dispatches the bucket sequentially by plain list indexing.  Events
  scheduled *into* the open bucket window are placed by binary insertion
  into the unconsumed tail, so the executed order is exactly the total
  ``(time, seq)`` order of the heap — only the data structure differs.

The kernel also exposes a transient-event fast path
(:meth:`Simulator.schedule_transient_at`) for callers that never keep the
returned handle (the wireless medium's per-delivery events): those events
are pooled and reused after dispatch, eliminating the dominant allocation
churn of broadcast fan-out.
"""

from __future__ import annotations

import gc
import heapq
import random
from bisect import insort
from typing import Any, Callable

from repro.switches import switch_on

_NO_ARGS: tuple = ()

#: Width of the near-future bucket lane in seconds.  Sized to cover the
#: medium's delivery-jitter span (2 ms) plus a typical transmission time so
#: a broadcast's fan-out and its immediate rebroadcasts land in one bucket.
DEFAULT_LANE_QUANTUM = 0.004

#: Upper bound on pooled transient events / recycled handles.
_EVENT_POOL_CAP = 512


def _default_event_batch() -> bool:
    """Batched kernel default: on, unless ``REPRO_EVENT_BATCH=0``."""
    return switch_on("REPRO_EVENT_BATCH")


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Instances are handles: hold one to :meth:`cancel` the event later.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim",
                 "_queued", "_transient")

    #: Class flag: True only for :class:`MacroEvent` (read on the hot path,
    #: so a class attribute rather than an isinstance check).
    _macro = False

    def __init__(self, time: float, seq: int, callback: Callable[..., Any],
                 args: tuple, sim: "Simulator | None" = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim = sim
        self._queued = False
        self._transient = False

    def cancel(self) -> None:
        """Mark the event so it is skipped when its time comes."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queued:
            self._queued = False
            if self._sim is not None:
                self._sim._pending -= 1

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


class MacroEvent(Event):
    """A batch of same-origin deliveries executed as one queue entry.

    ``entries`` is a sorted list of ``(time, seq, handler)`` triples whose
    seqs were reserved from the simulator's counter at fan-out time, so the
    batch occupies exactly the ``(time, seq)`` keys the equivalent
    per-receiver events would have.  ``handler(*shared_args)`` is called for
    each entry; the run loop dispatches consecutive entries inline while the
    next entry still precedes every other queued event, and otherwise parks
    the batch back in the queue at the next entry's reserved key.
    """

    __slots__ = ("entries", "cursor", "shared_args")

    _macro = True

    def __init__(self, sim: "Simulator"):
        super().__init__(0.0, 0, sim._run_macro, (), sim)
        self.args = (self,)
        self.entries: list[tuple[float, int, Callable[..., Any]]] = []
        self.cursor = 0
        self.shared_args: tuple = ()


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`.  All stochastic
        components (mobility, medium jitter, traffic, attacks) draw from this
        generator so a scenario is reproducible from its seed alone.
    event_batch:
        Use the bucketed near-future event lane.  ``None`` (default) reads
        ``$REPRO_EVENT_BATCH``; ``False`` forces the pure-heap reference
        loop.  Execution order is identical either way.
    lane_quantum:
        Width of the bucket window in seconds (bucketed mode only).
    """

    def __init__(self, seed: int = 0, event_batch: bool | None = None,
                 lane_quantum: float = DEFAULT_LANE_QUANTUM):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self.event_batch: bool = (
            _default_event_batch() if event_batch is None else bool(event_batch)
        )
        self.lane_quantum = lane_quantum
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._running = False
        self._processed = 0
        self._pending = 0
        # Bucket lane state.  The bucket list object is never rebound (only
        # mutated in place) so the medium's macro-events can cache a
        # reference to it.  Invariant while a bucket is open: every
        # unconsumed bucket entry key <= _bucket_horizon < every heap key;
        # outside run(), the bucket is empty and the horizon is -inf so
        # schedule_at always routes to the heap.
        self._bucket: list[tuple[float, int, Event]] = []
        self._bucket_pos = 0
        self._bucket_horizon = float("-inf")
        # Parked delivery batches with an in-window next entry.  A macro
        # parking into the open bucket would memmove the bucket tail on
        # every park (the dominant kernel cost at scale: most deliveries
        # park); a dedicated heap makes that O(log live-macros) instead.
        # Invariant: every entry here is <= _bucket_horizon, so the run
        # loop's two-way min (bucket head vs this heap's top) preserves
        # the exact total (time, seq) order.  Empty outside run().
        self._macro_heap: list[tuple[float, int, Event]] = []
        self._until: float | None = None
        self._event_pool: list[Event] = []
        self._macro_pool: list[MacroEvent] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args, self)
        event._queued = True
        self._pending += 1
        # Queue entries are (time, seq, event) tuples: the (time, seq) pair
        # is unique, so ordering is identical to comparing Event objects,
        # but tuple comparisons run at C speed instead of Event.__lt__.
        if time <= self._bucket_horizon:
            insort(self._bucket, (time, seq, event), lo=self._bucket_pos)
        else:
            heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_transient_at(self, time: float, callback: Callable[..., Any],
                              *args: Any) -> None:
        """Schedule a fire-and-forget callback at an absolute time.

        Contract: the caller never needs a handle (so the event cannot be
        cancelled from outside) and ``time >= now``.  The event object is
        recycled after dispatch; used by the medium's delivery fan-out.
        """
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.time = time
            event.callback = callback
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, 0, callback, args, self)
            event._transient = True
        seq = self._seq
        self._seq = seq + 1
        event.seq = seq
        event._queued = True
        self._pending += 1
        if time <= self._bucket_horizon:
            insort(self._bucket, (time, seq, event), lo=self._bucket_pos)
        else:
            heapq.heappush(self._heap, (time, seq, event))

    def schedule_transient(self, delay: float, callback: Callable[..., Any],
                           *args: Any) -> None:
        """Relative-delay form of :meth:`schedule_transient_at`."""
        self.schedule_transient_at(self.now + delay, callback, *args)

    def _requeue(self, time: float, seq: int, event: Event) -> None:
        """Re-insert a macro-event at an already-reserved ``(time, seq)`` key.

        Used by the medium's delivery batches: the batch reserved one seq
        per receiver at fan-out time, so re-queuing at the next entry's key
        lands the batch exactly where the per-receiver event would have sat.
        """
        event.time = time
        event.seq = seq
        event._queued = True
        self._pending += 1
        if time <= self._bucket_horizon:
            if event._macro:
                heapq.heappush(self._macro_heap, (time, seq, event))
            else:
                insort(self._bucket, (time, seq, event), lo=self._bucket_pos)
        else:
            heapq.heappush(self._heap, (time, seq, event))

    def alloc_macro(self) -> MacroEvent:
        """Get a pooled (or fresh) :class:`MacroEvent` for a delivery batch.

        The caller fills ``entries`` with sorted ``(time, seq, handler)``
        triples (reserving seqs from ``_seq`` itself), sets ``shared_args``
        and ``cursor = 0``, then queues the batch with :meth:`_requeue` at
        the head entry's key.
        """
        pool = self._macro_pool
        if pool:
            macro = pool.pop()
            macro.cancelled = False
            return macro
        return MacroEvent(self)

    def _run_macro(self, macro: MacroEvent) -> None:
        """Dispatch a macro-event (fallback used by the reference loop).

        The bucketed loop inlines this logic; this method keeps macro-events
        executable under any loop.  The engine has already advanced ``now``
        and ``_processed`` for the entry at ``cursor``.
        """
        entries = macro.entries
        args = macro.shared_args
        i = macro.cursor
        n = len(entries)
        until = self._until
        while True:
            entries[i][2](*args)
            i += 1
            if i == n:
                break
            me = entries[i]
            if self._running and (until is None or me[0] <= until):
                nxt = self._next_key()
                if nxt is None or me < nxt:
                    self.now = me[0]
                    self._processed += 1
                    continue
            macro.cursor = i
            self._requeue(me[0], me[1], macro)
            return
        entries.clear()
        macro.shared_args = _NO_ARGS
        if len(self._macro_pool) < _EVENT_POOL_CAP:
            self._macro_pool.append(macro)

    def _next_key(self) -> tuple[float, int, Event] | None:
        """The queue entry that would execute next.

        Minimum of the bucket head and the parked-macro heap (both within
        the open window, so both precede everything on the main heap),
        falling back to the main heap top.
        """
        pos = self._bucket_pos
        bucket = self._bucket
        nxt = bucket[pos] if pos < len(bucket) else None
        mheap = self._macro_heap
        if mheap and (nxt is None or mheap[0] < nxt):
            nxt = mheap[0]
        if nxt is not None:
            return nxt
        heap = self._heap
        if heap:
            return heap[0]
        return None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> None:
        """Process events in time order.

        Runs until the queue is empty, or until simulation time would exceed
        ``until``.  When stopped by ``until``, ``now`` is advanced to exactly
        ``until`` so periodic processes restarted afterwards stay aligned.
        """
        self._running = True
        self._until = until
        try:
            if self.event_batch:
                self._run_bucketed(until)
            else:
                self._run_reference(until)
        finally:
            # Return any unconsumed bucket tail and parked macros to the
            # heap so state is consistent after stop()/until/exceptions,
            # then close the lane.
            bucket = self._bucket
            if self._bucket_pos < len(bucket):
                heap = self._heap
                for entry in bucket[self._bucket_pos:]:
                    heapq.heappush(heap, entry)
            mheap = self._macro_heap
            if mheap:
                heap = self._heap
                for entry in mheap:
                    heapq.heappush(heap, entry)
                del mheap[:]
            del bucket[:]
            self._bucket_pos = 0
            self._bucket_horizon = float("-inf")
            self._until = None
            self._running = False
        if until is not None and until > self.now:
            self.now = until

    def _run_reference(self, until: float | None) -> None:
        """Pre-optimization loop: peek top, pop, dispatch one event at a time."""
        heap = self._heap
        pool = self._event_pool
        while self._running and heap:
            event = heap[0][2]
            if event.cancelled:
                heapq.heappop(heap)
                continue
            if until is not None and event.time > until:
                break
            heapq.heappop(heap)
            event._queued = False
            self._pending -= 1
            self.now = event.time
            self._processed += 1
            event.callback(*event.args)
            if event._transient and not event._queued:
                event.callback = None
                event.args = _NO_ARGS
                if len(pool) < _EVENT_POOL_CAP:
                    pool.append(event)

    def _run_bucketed(self, until: float | None) -> None:
        """Bucketed near-future lane; identical ``(time, seq)`` order.

        Repeatedly drains every heap entry within ``lane_quantum`` of the
        next event into a sorted list (heap pops come out sorted) and walks
        it by index.  Events scheduled into the open window during dispatch
        are insorted into the unconsumed tail, so total order is preserved.
        """
        # The bucketed kernel recycles its events and packets from pools
        # and frees everything else by refcount, so cyclic-GC generation
        # scans are pure overhead at millions of dispatches — pause the
        # collector for the duration of the run.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._run_bucketed_loop(until)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run_bucketed_loop(self, until: float | None) -> None:
        heap = self._heap
        bucket = self._bucket
        mheap = self._macro_heap
        pool = self._event_pool
        macro_pool = self._macro_pool
        quantum = self.lane_quantum
        heappop = heapq.heappop
        heappush = heapq.heappush
        heapreplace = heapq.heapreplace
        while self._running:
            pos = self._bucket_pos
            if pos < len(bucket):
                entry = bucket[pos]
                if mheap and mheap[0] < entry:
                    entry = heappop(mheap)
                else:
                    self._bucket_pos = pos + 1
            elif mheap:
                entry = heappop(mheap)
            else:
                # Refill: open a new bucket window at the next event time.
                del bucket[:]
                self._bucket_pos = 0
                if not heap:
                    self._bucket_horizon = float("-inf")
                    return
                t0 = heap[0][0]
                if until is not None and t0 > until:
                    self._bucket_horizon = float("-inf")
                    return
                horizon = t0 + quantum
                if until is not None and horizon > until:
                    horizon = until
                self._bucket_horizon = horizon
                while heap and heap[0][0] <= horizon:
                    bucket.append(heappop(heap))
                continue
            event = entry[2]
            if event.cancelled:
                continue
            event._queued = False
            self._pending -= 1
            self.now = entry[0]
            self._processed += 1
            if event._macro:
                # Inline macro dispatch: run consecutive batch entries while
                # the next one still precedes every other queued event.  When
                # another *parked macro* precedes instead, swap to it right
                # here (heapreplace keeps the total order) — delivery-heavy
                # workloads interleave many concurrent fan-outs, and the
                # macro-to-macro hop skips the generic iteration entirely
                # (the park's queued/pending updates and the adoption's
                # cancel out, so neither is touched).  Only a non-macro
                # event (or exhaustion) falls back to the outer loop.
                m_entries = event.entries
                pkt, snd = event.shared_args
                mi = event.cursor
                mn = len(m_entries)
                # Loop-invariant hoists.  _bucket_pos and _bucket_horizon
                # only change in the outer loop (in-window schedules insort
                # at lo=_bucket_pos without moving it), and every mutation
                # of the bucket or heap during dispatch comes from a
                # schedule_* call, which bumps _seq — so the boundary `nxt`
                # can be cached and revalidated against _seq alone.  (The
                # swap paths' own heap pushes reset `sv` explicitly.)
                bpos = self._bucket_pos
                bhor = self._bucket_horizon
                no_until = until is None
                nxt = None
                sv = -1
                proc = 0
                while True:
                    m_entries[mi][2](pkt, snd)
                    mi += 1
                    if mi == mn:
                        m_entries.clear()
                        event.shared_args = _NO_ARGS
                        if len(macro_pool) < _EVENT_POOL_CAP:
                            macro_pool.append(event)
                        if mheap and self._running:
                            # Adopt the earliest parked macro if it still
                            # precedes every non-macro event.
                            if self._seq != sv:
                                sv = self._seq
                                if bpos < len(bucket):
                                    nxt = bucket[bpos]
                                elif heap:
                                    nxt = heap[0]
                                else:
                                    nxt = None
                            head = mheap[0]
                            if (nxt is None or head < nxt) and (
                                no_until or head[0] <= until
                            ):
                                heappop(mheap)
                                event = head[2]
                                event._queued = False
                                self._pending -= 1
                                self.now = head[0]
                                proc += 1
                                m_entries = event.entries
                                pkt, snd = event.shared_args
                                mi = event.cursor
                                mn = len(m_entries)
                                continue
                        break
                    me = m_entries[mi]
                    if self._running and (no_until or me[0] <= until):
                        if self._seq != sv:
                            sv = self._seq
                            if bpos < len(bucket):
                                nxt = bucket[bpos]
                            elif heap:
                                nxt = heap[0]
                            else:
                                nxt = None
                        if nxt is None or me < nxt:
                            if mheap:
                                head = mheap[0]
                                if head < me:
                                    # Park here, adopt the earlier macro:
                                    # one C-level sift, no outer-loop trip.
                                    # Entries past the horizon belong on
                                    # the main heap (mheap invariant).
                                    event.cursor = mi
                                    event.time = me[0]
                                    event.seq = me[1]
                                    if me[0] <= bhor:
                                        heapreplace(mheap, (me[0], me[1], event))
                                    else:
                                        heappop(mheap)
                                        heappush(heap, (me[0], me[1], event))
                                        sv = -1
                                    event = head[2]
                                    self.now = head[0]
                                    proc += 1
                                    m_entries = event.entries
                                    pkt, snd = event.shared_args
                                    mi = event.cursor
                                    mn = len(m_entries)
                                    continue
                            self.now = me[0]
                            proc += 1
                            continue
                        if mheap and mheap[0] < nxt:
                            # A parked macro precedes the non-macro head:
                            # swap with it and keep dispatching inline.
                            head = mheap[0]
                            event.cursor = mi
                            event.time = me[0]
                            event.seq = me[1]
                            if me[0] <= bhor:
                                heapreplace(mheap, (me[0], me[1], event))
                            else:
                                heappop(mheap)
                                heappush(heap, (me[0], me[1], event))
                                sv = -1
                            event = head[2]
                            self.now = head[0]
                            proc += 1
                            m_entries = event.entries
                            pkt, snd = event.shared_args
                            mi = event.cursor
                            mn = len(m_entries)
                            continue
                    event.cursor = mi
                    event.time = me[0]
                    event.seq = me[1]
                    event._queued = True
                    self._pending += 1
                    if me[0] <= bhor:
                        heappush(mheap, (me[0], me[1], event))
                    else:
                        heappush(heap, (me[0], me[1], event))
                    break
                if proc:
                    self._processed += proc
                continue
            event.callback(*event.args)
            if event._transient and not event._queued:
                event.callback = None
                event.args = _NO_ARGS
                if len(pool) < _EVENT_POOL_CAP:
                    pool.append(event)

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._running = False

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled queue entries still pending.

        Maintained as a live counter (O(1)): incremented on schedule,
        decremented on cancel and on dispatch.  In bucketed mode a
        macro-event (one delivery batch) counts as one entry.
        """
        return self._pending

    @property
    def processed_events(self) -> int:
        """Total number of events executed so far (deliveries included)."""
        return self._processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.3f}, pending={self._pending})"
