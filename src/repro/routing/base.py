"""Shared routing-protocol machinery.

:class:`RoutingProtocol` defines the contract the :class:`~repro.simulation.
node.Node` expects, plus the trace-logging helpers both AODV and DSR use so
that route-fabric events land in the stats streams consumed by Feature Set I.

:class:`PacketBuffer` is the send buffer both protocols use to hold data
packets while a route discovery for their destination is in flight.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections import OrderedDict

from repro.simulation.node import Node
from repro.simulation.packet import Direction, Packet, PacketType
from repro.simulation.stats import RouteEventKind


def _default_routing_fast() -> bool:
    """Routing fast-path default: on, unless ``REPRO_ROUTING_FAST=0``."""
    return os.environ.get("REPRO_ROUTING_FAST", "1") not in ("0", "false", "no")


class PacketBuffer:
    """Bounded per-destination buffer for packets awaiting a route.

    Overflow evicts the oldest packet for that destination (returned to the
    caller so it can be logged as dropped).
    """

    def __init__(self, max_per_dest: int = 64):
        self.max_per_dest = max_per_dest
        self._buffers: OrderedDict[int, list[Packet]] = OrderedDict()

    def add(self, dest: int, packet: Packet) -> Packet | None:
        """Buffer a packet; return the evicted packet on overflow, else None."""
        queue = self._buffers.setdefault(dest, [])
        queue.append(packet)
        if len(queue) > self.max_per_dest:
            return queue.pop(0)
        return None

    def pop_all(self, dest: int) -> list[Packet]:
        """Remove and return all packets buffered for ``dest``."""
        return self._buffers.pop(dest, [])

    def pending(self, dest: int) -> int:
        """Number of packets currently buffered for ``dest``."""
        return len(self._buffers.get(dest, []))

    def destinations(self) -> list[int]:
        """Destinations that currently have buffered packets."""
        return list(self._buffers.keys())

    def __len__(self) -> int:
        return sum(len(q) for q in self._buffers.values())


class RoutingProtocol(ABC):
    """Base class for MANET routing protocols.

    Subclasses implement :meth:`send_data` (originate or locally deliver a
    data packet) and :meth:`handle_packet` (process a packet arriving from
    the medium).  :meth:`handle_overhear` is optional and only meaningful
    for protocols that learn from promiscuous traffic (DSR).

    ``routing_fast`` selects the flattened hot-handler fast path (see
    DESIGN.md §Routing fast path).  ``None`` (default) reads
    ``$REPRO_ROUTING_FAST``; an explicit ``True``/``False`` forces the
    choice.  Either way the protocol produces bit-identical traces — the
    fast path only changes *how* hot handlers execute, never their
    decisions.  Protocols that install one publish ``typed_handlers``
    (packet type -> flattened handler) for the medium's per-type fan-out
    dispatch rows.
    """

    name: str = "base"

    #: Packet-type -> flattened handler map for the medium's typed fan-out
    #: dispatch (populated by protocols that install a fast path).
    typed_handlers: dict | None = None

    def __init__(self, node: Node, routing_fast: bool | None = None):
        self.node = node
        self.sim = node.sim
        self.stats = node.stats
        self.routing_fast: bool = (
            _default_routing_fast() if routing_fast is None else bool(routing_fast)
        )
        # Plain attributes / pre-bound methods: these sit on every
        # per-packet path, so skip the property and double lookups.
        self.node_id = node.node_id
        self._stats_log_packet = node.stats.log_packet
        self._stats_log_route_event = node.stats.log_route_event
        node.set_routing(self)

    # ------------------------------------------------------------------
    # Contract
    # ------------------------------------------------------------------
    @abstractmethod
    def send_data(self, packet: Packet) -> None:
        """Originate a data packet from this node (or deliver to self)."""

    @abstractmethod
    def handle_packet(self, packet: Packet, from_id: int) -> None:
        """Process a packet received from neighbor ``from_id``."""

    def handle_overhear(self, packet: Packet, from_id: int) -> None:
        """Process a promiscuously overheard packet (default: ignore)."""

    # ------------------------------------------------------------------
    # Duplicate-flood filter (mode-neutral interface over two stores)
    # ------------------------------------------------------------------
    # AODV and DSR both discard repeat copies of a flood via a seen set
    # keyed by (origin, flood id).  The reference store is one dict keyed
    # by the tuple; the fast-path store is a dict of per-origin dicts
    # keyed by the (small-int) flood id, so the hot membership test never
    # allocates or hashes a tuple.  Same membership answers, same purge
    # decisions — ``_seen_count`` tracks the total so the >512 purge
    # trigger matches the reference dict's ``len()``.  Each per-origin
    # dict is kept in first-seen-time order (marks happen at the
    # non-decreasing ``sim.now``, and an overwrite re-inserts its key at
    # the end), so a purge only has to delete each dict's stale prefix.
    # Protocols using this interface initialise ``_seen_rreqs``,
    # ``_seen_by_origin`` and ``_seen_count`` in ``__init__``.

    _seen_rreqs: dict  # (origin, flood id) -> first-seen time (reference)
    _seen_by_origin: dict  # origin -> {flood id: first-seen time} (fast)
    _seen_count: int

    def _seen_mark(self, origin: int, rreq_id: int, now: float) -> None:
        """Record one (origin, rreq_id) as seen in the active structure."""
        if self.routing_fast:
            d = self._seen_by_origin.get(origin)
            if d is None:
                self._seen_by_origin[origin] = {rreq_id: now}
                self._seen_count += 1
            elif rreq_id not in d:
                d[rreq_id] = now
                self._seen_count += 1
            else:
                # Move the key to the end: dicts stay in time order.
                del d[rreq_id]
                d[rreq_id] = now
        else:
            self._seen_rreqs[(origin, rreq_id)] = now

    def _seen_has(self, origin: int, rreq_id: int) -> bool:
        """Membership test against the active structure."""
        if self.routing_fast:
            d = self._seen_by_origin.get(origin)
            return d is not None and rreq_id in d
        return (origin, rreq_id) in self._seen_rreqs

    def _seen_size(self) -> int:
        """Number of remembered (origin, rreq_id) pairs."""
        if self.routing_fast:
            return self._seen_count
        return len(self._seen_rreqs)

    def _seen_prune(self, now: float) -> None:
        """The reference >512-entry purge, on whichever store is active.

        Identical forgetting decisions either way: trigger when the total
        exceeds 512, drop exactly the entries older than 30 s.  The fast
        store deletes each per-origin dict's stale prefix, so a purge
        costs O(origins + dropped) rather than a rebuild of every dict.
        """
        if self.routing_fast:
            if self._seen_count > 512:
                horizon = now - 30.0
                seen = self._seen_by_origin
                dropped = 0
                for origin, d in list(seen.items()):
                    stale = []
                    for k, t in d.items():
                        if t >= horizon:
                            break
                        stale.append(k)
                    if len(stale) == len(d):
                        del seen[origin]
                    else:
                        for k in stale:
                            del d[k]
                    dropped += len(stale)
                self._seen_count -= dropped
        elif len(self._seen_rreqs) > 512:
            horizon = now - 30.0
            self._seen_rreqs = {
                k: t for k, t in self._seen_rreqs.items() if t >= horizon
            }

    # ------------------------------------------------------------------
    # Trace-logging helpers
    # ------------------------------------------------------------------
    def log_packet(self, ptype: PacketType, direction: Direction) -> None:
        """Record a packet event in this node's trace."""
        self._stats_log_packet(self.sim.now, ptype, direction)

    def log_route_event(self, kind: RouteEventKind) -> None:
        """Record a route-fabric event in this node's trace."""
        self._stats_log_route_event(self.sim.now, kind)

    def log_route_length(self, hops: int) -> None:
        """Record the hop count of a route being used for data."""
        self.stats.log_route_length(self.sim.now, hops)

    def log_drop(self, packet: Packet) -> None:
        """Log a packet discarded at this node."""
        self._stats_log_packet(self.sim.now, packet.ptype, Direction.DROPPED)
