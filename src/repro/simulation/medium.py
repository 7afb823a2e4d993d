"""Shared wireless medium: unit-disc connectivity, serialization, loss.

The model is deliberately simple — the paper's detector consumes traffic
*statistics*, not radio physics — but keeps the properties that shape those
statistics:

* **unit-disc connectivity** — nodes hear each other iff within
  ``tx_range`` metres (ns-2's default 250 m two-ray-ground range);
* **transmission serialization** — each node owns a half-duplex transmitter;
  back-to-back sends queue behind each other and overflow drops occur under
  congestion (this is what makes an update-storm attack visible);
* **per-delivery jitter** — a small random delay de-synchronizes broadcast
  storms, standing in for CSMA backoff;
* **link failure detection** — a failed unicast (receiver out of range or a
  random loss on every retry) invokes the sender's failure callback after a
  retry delay, standing in for missing 802.11 ACKs.  This is what triggers
  route maintenance in AODV and DSR;
* **promiscuous overhearing** — nodes in range of a unicast they are not
  party to can tap it, which DSR's route-cache eavesdropping (the paper's
  *route notice count* feature) relies on.

Connectivity queries normally go through a
:class:`~repro.simulation.spatial.SpatialNeighborIndex`: below its
``DENSE_SCAN_CROSSOVER`` (100 nodes) a dense pure-Python scan over the
mobility model's Python-float leg mirror (5.4 µs vs the grid's 19.4 µs
per query at 20 nodes), at and above it grid-pruned candidates with an
exact unit-disc post-filter.  The naive O(N) scan over the numpy-reading
``position()`` is kept both as the automatic fallback for
partially-attached node sets and as the reference implementation the
trace-equivalence suite compares against (``use_index=False`` /
``REPRO_SPATIAL_INDEX=0``).  Every path produces bit-identical traces —
see DESIGN.md §Performance for the invariants.

Delivery fan-out likewise has two modes (see DESIGN.md §Event kernel).  The
reference mode schedules one kernel event per receiver per broadcast.  The
batched mode (``event_batch`` / ``REPRO_EVENT_BATCH``) folds a broadcast's
whole fan-out into one kernel :class:`~repro.simulation.engine.MacroEvent`:
all loss and jitter draws happen in a single pass (same RNG order as the
per-receiver loop), one engine seq is reserved per surviving receiver (the
exact seqs the reference would have allocated), arrivals are sorted, and
each entry carries the receiver's pre-bound protocol handler so the kernel
dispatches deliveries inline for as long as the batch's next entry is
globally next in ``(time, seq)`` order — parking the batch back in the
queue whenever any other event interleaves.  Traces are bit-identical by
construction.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.simulation.engine import Simulator
from repro.simulation.mobility import RandomWaypointMobility
from repro.simulation.packet import Packet
from repro.simulation.spatial import SpatialNeighborIndex
from repro.switches import switch_on

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.node import Node

FailureCallback = Callable[[Packet, int], None]

_EMPTY_IDS = np.empty(0, dtype=np.int64)


def _default_use_index() -> bool:
    """Spatial index default: on, unless ``REPRO_SPATIAL_INDEX=0``."""
    return switch_on("REPRO_SPATIAL_INDEX")


class WirelessMedium:
    """The shared radio channel connecting all nodes.

    Parameters
    ----------
    sim, mobility:
        The event kernel and the mobility model giving node positions.
    tx_range:
        Transmission/interference radius in metres.
    bandwidth_bps:
        Link rate used to serialize transmissions (2 Mb/s, the classic
        802.11 figure used in the ns-2 MANET studies).
    mac_overhead:
        Fixed per-transmission time covering MAC framing and backoff.
    loss_rate:
        Independent per-delivery loss probability.
    max_queue_delay:
        A transmission that would have to wait longer than this in the
        interface queue is dropped (congestion drop).
    retry_delay:
        Time after which a failed unicast is reported to the sender.
    use_index:
        Route neighbor queries through the spatial index (a dense leg scan
        below its node-count crossover, the grid above it).  ``None``
        (default) reads ``$REPRO_SPATIAL_INDEX``; an explicit ``True`` /
        ``False`` forces the choice.  Traces are bit-identical either way.
    rebuild_quantum:
        Index snapshot lifetime, forwarded to
        :class:`~repro.simulation.spatial.SpatialNeighborIndex`.
    event_batch:
        Use macro-event delivery fan-out.  ``None`` (default) follows the
        simulator's ``event_batch`` resolution; an explicit ``True`` /
        ``False`` forces the choice.  Traces are bit-identical either way.
    """

    def __init__(
        self,
        sim: Simulator,
        mobility: RandomWaypointMobility,
        tx_range: float = 250.0,
        bandwidth_bps: float = 2e6,
        mac_overhead: float = 0.0008,
        loss_rate: float = 0.0,
        max_queue_delay: float = 0.5,
        retry_delay: float = 0.05,
        use_index: bool | None = None,
        rebuild_quantum: float = 0.25,
        event_batch: bool | None = None,
    ):
        self.sim = sim
        self.mobility = mobility
        self.tx_range = tx_range
        self.bandwidth_bps = bandwidth_bps
        self.mac_overhead = mac_overhead
        self.loss_rate = loss_rate
        self.max_queue_delay = max_queue_delay
        self.retry_delay = retry_delay
        self.nodes: list["Node"] = []
        self._busy_until: list[float] = []
        self._promiscuous: set[int] = set()
        self._promiscuous_list: list[int] = []
        self._promiscuous_ids = _EMPTY_IDS
        if use_index is None:
            use_index = _default_use_index()
        self.index: SpatialNeighborIndex | None = (
            SpatialNeighborIndex(mobility, tx_range, rebuild_quantum=rebuild_quantum)
            if use_index
            else None
        )
        self.event_batch: bool = (
            sim.event_batch if event_batch is None else bool(event_batch)
        )
        # Per-node dispatch tables: medium delivery jumps straight to the
        # routing protocol's handler once one is installed (see
        # Node.set_routing), skipping the on_receive trampoline.
        self._handlers: list[Callable[[Packet, int], None]] = []
        self._overhear_handlers: list[Callable[[Packet, int], None]] = []
        # Typed dispatch: per-node {ptype: flattened handler} maps published
        # by fast-path protocols (see RoutingProtocol.typed_handlers), and
        # the per-ptype rows derived from them.  A broadcast fan-out knows
        # its packet type once, so each batch entry can bind the receiver's
        # type-specific handler instead of re-dispatching per delivery.
        # With no fast handlers registered a row degenerates to _handlers'
        # contents, so the reference configuration pays one dict lookup per
        # fan-out and nothing else.
        self._typed_handlers: list[dict | None] = []
        self._typed_rows: dict[int, list[Callable[[Packet, int], None]]] = {}
        self._tx_times: dict[int, float] = {}
        # Counters for tests / diagnostics.
        self.congestion_drops = 0
        self.delivered = 0

    # ------------------------------------------------------------------
    def attach(self, node: "Node") -> None:
        """Register a node; ids must be attached in order 0..n-1."""
        if node.node_id != len(self.nodes):
            raise ValueError(
                f"nodes must be attached in id order: got {node.node_id}, "
                f"expected {len(self.nodes)}"
            )
        self.nodes.append(node)
        self._busy_until.append(0.0)
        self._handlers.append(node.on_receive)
        self._overhear_handlers.append(node.on_overhear)
        self._typed_handlers.append(None)
        self._typed_rows.clear()
        if node.promiscuous:
            self._note_promiscuous(node.node_id, True)

    def _note_promiscuous(self, node_id: int, enabled: bool) -> None:
        """Keep the promiscuous-listener registry in sync (see ``Node``)."""
        if enabled:
            self._promiscuous.add(node_id)
        else:
            self._promiscuous.discard(node_id)
        self._promiscuous_list = sorted(self._promiscuous)
        self._promiscuous_ids = np.array(self._promiscuous_list, dtype=np.int64)

    def _note_handlers(
        self,
        node_id: int,
        receive: Callable[[Packet, int], None],
        overhear: Callable[[Packet, int], None],
        typed: dict | None = None,
    ) -> None:
        """Point the dispatch tables at the node's installed protocol."""
        self._handlers[node_id] = receive
        self._overhear_handlers[node_id] = overhear
        self._typed_handlers[node_id] = typed
        self._typed_rows.clear()

    def _typed_row(self, ptype: int) -> list[Callable[[Packet, int], None]]:
        """Per-receiver handler row for one packet type (built lazily).

        Row ``i`` is node ``i``'s flattened handler for ``ptype`` when its
        protocol published one, else its generic receive handler.  Rows are
        invalidated whenever a node attaches or swaps handlers.
        """
        row = [
            typed[ptype] if typed is not None and ptype in typed else generic
            for typed, generic in zip(self._typed_handlers, self._handlers)
        ]
        self._typed_rows[ptype] = row
        return row

    def _index_usable(self) -> bool:
        """The fast paths assume the medium sees every mobility node.

        When fewer nodes are attached than the mobility model knows (some
        unit tests build partial stacks), advancing *all* mobility nodes
        would consume RNG draws the naive scan never makes — so fall back.
        """
        return self.index is not None and len(self.nodes) == self.mobility.n_nodes

    def in_range(self, a: int, b: int) -> bool:
        """Whether nodes ``a`` and ``b`` can currently hear each other."""
        if self.index is not None:
            return self.index.in_range(a, b, self.sim.now)
        return self.mobility.distance(a, b, self.sim.now) <= self.tx_range

    def neighbors(self, node_id: int) -> list[int]:
        """Ids of all nodes currently within range of ``node_id``."""
        t = self.sim.now
        if self._index_usable():
            return self.index.neighbors(node_id, t, n_nodes=len(self.nodes))
        return self._neighbors_scan(node_id, t)

    def _neighbors_scan(self, node_id: int, t: float) -> list[int]:
        """Reference O(N) scan (pre-index behaviour, bit-exact)."""
        x, y = self.mobility.position(node_id, t)
        result = []
        for other in range(len(self.nodes)):
            if other == node_id:
                continue
            ox, oy = self.mobility.position(other, t)
            if math.hypot(ox - x, oy - y) <= self.tx_range:
                result.append(other)
        return result

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _tx_time(self, packet: Packet) -> float:
        # Memoized by size: the arithmetic is deterministic, so the cached
        # float is bit-identical to recomputing it.
        tx = self._tx_times.get(packet.size)
        if tx is None:
            tx = packet.size * 8.0 / self.bandwidth_bps + self.mac_overhead
            self._tx_times[packet.size] = tx
        return tx

    def _acquire_transmitter(self, sender: int, tx_time: float) -> float | None:
        """Reserve the sender's transmitter; return the airtime start.

        Returns ``None`` (congestion drop) when the interface queue is too
        long.  ``tx_time`` is computed once per transmission by the caller
        and shared with the arrival schedule.
        """
        now = self.sim.now
        start = max(now, self._busy_until[sender])
        if start - now > self.max_queue_delay:
            self.congestion_drops += 1
            return None
        self._busy_until[sender] = start + tx_time
        return start

    def broadcast(self, sender: int, packet: Packet) -> bool:
        """Transmit to every node currently in range.

        Returns False if the transmission was dropped at the interface
        queue.  Individual receivers may still miss the packet through
        ``loss_rate``.
        """
        tx_time = self._tx_time(packet)
        start = self._acquire_transmitter(sender, tx_time)
        if start is None:
            return False
        arrival = start + tx_time
        if self.event_batch:
            self.sim.schedule_transient_at(
                arrival, self._deliver_broadcast_batched, sender, packet
            )
        else:
            self.sim.schedule_at(arrival, self._deliver_broadcast, sender, packet)
        return True

    def _deliver_broadcast(self, sender: int, packet: Packet) -> None:
        """Reference fan-out: one kernel event per surviving receiver."""
        rng = self.sim.rng
        for receiver in self.neighbors(sender):
            if self.loss_rate and rng.random() < self.loss_rate:
                continue
            jitter = rng.uniform(0.0, 0.002)
            self.sim.schedule(jitter, self._hand_to_node, receiver, packet, sender)

    def _deliver_broadcast_batched(self, sender: int, packet: Packet) -> None:
        """Macro-event fan-out: all draws in one pass, one queued event.

        Draw order matches :meth:`_deliver_broadcast` exactly: per
        receiver, an optional loss draw then a jitter draw
        (``now + 0.002 * random()`` is bit-identical to
        ``now + rng.uniform(0.0, 0.002)``).  One engine seq is reserved
        per surviving receiver — precisely the seqs the reference loop's
        ``schedule`` calls would have consumed — so the batch entries
        carry the same global ``(time, seq)`` keys either way.  Entries
        hold the receiver's pre-bound handler; the kernel dispatches them
        (see ``Simulator._run_bucketed`` / ``_run_macro``).
        """
        receivers = self.neighbors(sender)
        if not receivers:
            return
        sim = self.sim
        rng_random = sim.rng.random
        now = sim.now
        loss = self.loss_rate
        # Receiver pre-classification: the packet type is fixed for the
        # whole fan-out, so resolve each receiver's type-specific flattened
        # handler here — per batch, not per delivery.
        ptype = packet.ptype
        handlers = self._typed_rows.get(ptype)
        if handlers is None:
            handlers = self._typed_row(ptype)
        batch = sim.alloc_macro()
        entries = batch.entries
        seq = sim._seq
        if loss:
            for receiver in receivers:
                if rng_random() < loss:
                    continue
                entries.append((now + 0.002 * rng_random(), seq, handlers[receiver]))
                seq += 1
            sim._seq = seq
        else:
            # Lossless fast form: the comprehension draws one jitter per
            # receiver in the same ascending order as the loop above.
            entries += [
                (now + 0.002 * rng_random(), s, handlers[receiver])
                for s, receiver in enumerate(receivers, seq)
            ]
            sim._seq = seq + len(receivers)
        if not entries:
            sim._macro_pool.append(batch)
            return
        # Counted at fan-out (diagnostic only): every entry is a delivery.
        self.delivered += len(entries)
        entries.sort()
        batch.cursor = 0
        batch.shared_args = (packet, sender)
        head = entries[0]
        sim._requeue(head[0], head[1], batch)

    def unicast(
        self,
        sender: int,
        packet: Packet,
        next_hop: int,
        on_fail: FailureCallback | None = None,
    ) -> bool:
        """Transmit to one specific neighbor with link-failure feedback.

        If the receiver is out of range at delivery time (or the delivery
        is lost), ``on_fail(packet, next_hop)`` fires after ``retry_delay``
        — the MAC-feedback signal AODV and DSR route maintenance rely on.

        Returns False on an interface-queue drop (``on_fail`` is *not*
        invoked in that case; the caller already knows).
        """
        tx_time = self._tx_time(packet)
        start = self._acquire_transmitter(sender, tx_time)
        if start is None:
            return False
        arrival = start + tx_time
        if self.event_batch:
            self.sim.schedule_transient_at(
                arrival, self._deliver_unicast, sender, packet, next_hop, on_fail
            )
        else:
            self.sim.schedule_at(
                arrival, self._deliver_unicast, sender, packet, next_hop, on_fail
            )
        return True

    def _deliver_unicast(
        self,
        sender: int,
        packet: Packet,
        next_hop: int,
        on_fail: FailureCallback | None,
    ) -> None:
        rng = self.sim.rng
        ok = (
            0 <= next_hop < len(self.nodes)
            and self.in_range(sender, next_hop)
            and not (self.loss_rate and rng.random() < self.loss_rate)
        )
        if ok:
            if self.event_batch:
                # Bit-identical jitter: uniform(0, b) == b * random().
                self.sim.schedule_transient(
                    0.001 * rng.random(), self._hand_fast, next_hop, packet, sender
                )
            else:
                self.sim.schedule(
                    rng.uniform(0.0, 0.001), self._hand_to_node, next_hop, packet, sender
                )
            self._deliver_taps(sender, packet, next_hop, rng)
        elif on_fail is not None:
            self.sim.schedule(self.retry_delay, on_fail, packet, next_hop)

    def _deliver_taps(self, sender: int, packet: Packet, next_hop: int, rng) -> None:
        """Promiscuous taps: bystanders in range overhear the exchange.

        Fast path: when no registered node listens promiscuously (AODV
        scenarios), the geometric sweep is skipped entirely.  The naive
        sweep's side effect of lazily advancing every node's mobility —
        which consumes shared-RNG waypoint draws — is replicated by an
        explicit advance, keeping traces bit-identical.  When listeners
        exist, only *their* distances are tested (ascending id order, the
        same order the naive neighbor sweep would visit them in).
        """
        if not self._index_usable():
            # Reference path: full neighbor sweep, pre-index behaviour.
            for bystander in self.neighbors(sender):
                if bystander == next_hop:
                    continue
                node = self.nodes[bystander]
                if node.promiscuous:
                    self.sim.schedule(
                        rng.uniform(0.0, 0.001), node.on_overhear, packet, sender
                    )
            return
        t = self.sim.now
        mobility = self.mobility
        index = self.index
        # Draw-order parity with the naive sweep: sender first, then all.
        x, y = mobility.leg_position(sender, t)
        mobility.advance_all(t)
        if not self._promiscuous_list:
            return
        # Ascending order, exact unit-disc decisions — identical to the
        # naive sweep's visit order and predicate.
        if index.dense:
            bystanders = index.legs_in_range(
                [i for i in self._promiscuous_list if i != sender and i != next_hop],
                x, y, t,
            )
        else:
            # Prune listeners to the grid block around the sender (a
            # strict superset of the in-range set — DSR marks *every* node
            # promiscuous, so this is what keeps taps sub-O(N)).
            ids = self._promiscuous_ids
            block = index.candidates_near(x, y, t)
            if block.size < ids.size:
                ids = np.intersect1d(ids, block, assume_unique=True)
            ids = ids[(ids != sender) & (ids != next_hop)]
            if ids.size == 0:
                return
            bystanders = index.filter_in_range(ids, x, y, t).tolist()
        if self.event_batch:
            overhear = self._overhear_handlers
            schedule_transient = self.sim.schedule_transient
            for bystander in bystanders:
                schedule_transient(
                    0.001 * rng.random(), overhear[bystander], packet, sender
                )
        else:
            for bystander in bystanders:
                self.sim.schedule(
                    rng.uniform(0.0, 0.001),
                    self.nodes[bystander].on_overhear,
                    packet,
                    sender,
                )

    def _hand_to_node(self, receiver: int, packet: Packet, sender: int) -> None:
        """Reference hand-off: through the node's on_receive trampoline."""
        self.delivered += 1
        self.nodes[receiver].on_receive(packet, sender)

    def _hand_fast(self, receiver: int, packet: Packet, sender: int) -> None:
        """Batched hand-off: straight to the dispatch-table handler."""
        self.delivered += 1
        self._handlers[receiver](packet, sender)
