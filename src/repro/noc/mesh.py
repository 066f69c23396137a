"""A 4x4 mesh interconnect in the spirit of Garnet, reduced to what the
case studies need: dimension-ordered (XY) routing latency plus end-point
contention.

Each node has one injection port and one ejection port, each able to move
one message per cycle.  A message's base latency is
``hops * hop_latency + router_latency``; on top of that it queues for the
source injection port and the destination ejection port.  This reproduces
the two congestion effects the paper relies on: hot L2 banks back up under
bursty traffic (DMA, store-buffer flushes), and NUCA latency varies with
mesh distance (which is where the Table 5.1 latency *ranges* come from).

``send`` sits on the simulator's hot path (every memory request crosses it
twice), so hop distances are precomputed into a dense table at construction
and the traffic counters are plain ints surfaced as derived stats.
"""

from __future__ import annotations

from typing import Callable

from repro.core.component import Component
from repro.noc.message import Message
from repro.sim.engine import Engine


class Mesh(Component):
    """XY-routed mesh with per-endpoint serialization."""

    def __init__(
        self,
        engine: Engine,
        rows: int,
        cols: int,
        hop_latency: int = 3,
        router_latency: int = 0,
        endpoint_bw: int = 2,
    ) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("mesh must have at least one node")
        if endpoint_bw < 1:
            raise ValueError("endpoint bandwidth must be at least 1 msg/cycle")
        Component.__init__(self, "mesh")
        self.engine = engine
        self.rows = rows
        self.cols = cols
        self.num_nodes = rows * cols
        self.hop_latency = hop_latency
        self.router_latency = router_latency
        self.endpoint_bw = endpoint_bw
        #: dense Manhattan-distance table: ``_hop_table[src][dst]``
        self._hop_table: list[list[int]] = [
            [
                abs(s // cols - d // cols) + abs(s % cols - d % cols)
                for d in range(self.num_nodes)
            ]
            for s in range(self.num_nodes)
        ]
        #: uncontended route latency per (src, dst), precomputed alongside
        #: the hop table so ``send`` skips the multiply on every message
        self._base_lat: list[list[int]] = [
            [hops * hop_latency + router_latency for hops in row]
            for row in self._hop_table
        ]
        # Port reservations in 1/endpoint_bw-cycle slots; dense per-node
        # lists (indexed by node id) -- ``send`` probes them twice per
        # message, and list indexing beats dict lookups on the hot path.
        self._handlers: list[Callable[[Message], None] | None] = [
            None
        ] * self.num_nodes
        self._inject_free: list[int] = [0] * self.num_nodes
        self._eject_free: list[int] = [0] * self.num_nodes
        # statistics: plain ints (bumped per message) exposed as derived
        # stats, plus averages computed at snapshot time.
        self.messages_sent = 0
        self.total_hops = 0
        self.total_latency = 0
        self.stat_derived("messages", lambda: self.messages_sent)
        self.stat_derived("total_hops", lambda: self.total_hops)
        self.stat_derived("avg_hops", lambda: self.total_hops / max(1, self.messages_sent))
        self.stat_derived(
            "avg_latency", lambda: self.total_latency / max(1, self.messages_sent)
        )

    def on_reset_stats(self) -> None:
        self.messages_sent = 0
        self.total_hops = 0
        self.total_latency = 0

    # ------------------------------------------------------------------
    def attach(self, node: int, handler: Callable[[Message], None]) -> None:
        """Register the message handler for ``node``."""
        self._check_node(node)
        if self._handlers[node] is not None:
            raise ValueError("node %d already attached" % node)
        self._handlers[node] = handler

    def coords(self, node: int) -> tuple[int, int]:
        self._check_node(node)
        return divmod(node, self.cols)

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance under XY routing."""
        self._check_node(src)
        self._check_node(dst)
        return self._hop_table[src][dst]

    def distribute_banks(self, num_banks: int, offset: int = 0) -> list[int]:
        """Home-node table for a banked shared cache level: bank ``b`` lives
        at node ``(b + offset) % num_nodes`` (round-robin NUCA placement).

        The hierarchy fabric derives every shared level's endpoint placement
        from this one distributor; ``offset`` staggers consecutive levels
        (the L3's banks start one node over from the L2's) so stacked levels
        do not pile their hot banks onto the same routers.
        """
        if num_banks < 1:
            raise ValueError("a banked level needs at least one bank")
        n = self.num_nodes
        return [(b + offset) % n for b in range(num_banks)]

    def xy_route(self, src: int, dst: int) -> list[int]:
        """The node sequence an XY-routed packet traverses (inclusive)."""
        sr, sc = self.coords(src)
        dr, dc = self.coords(dst)
        path = [src]
        r, c = sr, sc
        while c != dc:
            c += 1 if dc > c else -1
            path.append(r * self.cols + c)
        while r != dr:
            r += 1 if dr > r else -1
            path.append(r * self.cols + c)
        return path

    # ------------------------------------------------------------------
    def send(self, msg: Message) -> int:
        """Inject ``msg``; returns the cycle it will be delivered."""
        src = msg.src
        dst = msg.dst
        if not 0 <= src < self.num_nodes or not 0 <= dst < self.num_nodes:
            self._check_node(src)
            self._check_node(dst)
        handler = self._handlers[dst]
        if handler is None:
            raise ValueError("no handler attached at node %d" % dst)
        engine = self.engine
        now = engine.now
        bw = self.endpoint_bw
        inject_free = self._inject_free
        inj_slot = now * bw
        prev = inject_free[src]
        if prev > inj_slot:
            inj_slot = prev
        inject_free[src] = inj_slot + 1
        hops = self._hop_table[src][dst]
        arrive = inj_slot // bw + self._base_lat[src][dst]
        eject_free = self._eject_free
        ej_slot = arrive * bw
        prev = eject_free[dst]
        if prev > ej_slot:
            ej_slot = prev
        eject_free[dst] = ej_slot + 1
        delivery = ej_slot // bw + 1
        self.messages_sent += 1
        self.total_hops += hops
        self.total_latency += delivery - now
        # The engine appends the bare (handler, msg) pair to the delivery
        # cycle's bucket: every message landing on one cycle drains in a
        # single batch with no per-message closure.
        engine.schedule_call(delivery - now, handler, msg)
        return delivery

    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError("node %d out of range (mesh has %d)" % (node, self.num_nodes))
