"""Core-side cache stack: private/cluster cache levels + MSHR + write-
combining store buffer.

Historically this file held the hard-wired single L1; it is now the
elaboration of the *core-side portion* of a
:class:`~repro.mem.hierarchy.HierarchySpec`: an ordered stack of
private-per-core (or cluster-shared) levels in front of one MSHR and one
store buffer.  The default spec elaborates to exactly the old machine -- a
single L1 level -- and keeps its hot paths byte-for-byte: level 0 is probed
inline, deeper levels (a private L2, a victim cache, ...) only cost a
branch when they exist.

This is the component GSI watches most closely.  Every load completion is
labelled with a :class:`ServiceLocation` (L1 / L1-coalescing / L2 /
remote-L1 / main memory) so memory *data* stalls can be sub-classified, and
every resource rejection surfaces as a :class:`MemStructCause` through the
LSU so memory *structural* stalls can be sub-classified.  Hits anywhere in
the core-side stack report ``ServiceLocation.L1`` ("serviced within the
core's private hierarchy").

Protocol-specific behaviour is delegated to a
:class:`~repro.mem.coherence.base.CoherenceProtocol` policy object; the
controller itself only knows the mechanics: look up, miss, merge, drain,
fill, spill, write back, forward.  Evicted lines spill down the stack
(victim levels fill *only* from spills) and a registered (OWNED) line only
writes back once no level of the stack holds it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.core.component import Component
from repro.core.stall_types import ServiceLocation
from repro.mem.cache import LineState, SetAssocCache
from repro.mem.coherence.base import CoherenceProtocol
from repro.mem.hierarchy import CacheLevelSpec
from repro.mem.main_memory import GlobalMemory
from repro.mem.mshr import Mshr
from repro.mem.store_buffer import SbEntry, StoreBuffer
from repro.noc.mesh import Mesh
from repro.noc.message import Message, MsgType, alloc_message, next_request_id, recycle_message
from repro.noc.message import _request_ids as _REQ_IDS  # atomic() fast lane
from repro.sim.config import SystemConfig

LoadCallback = Callable[[ServiceLocation, int], None]  # (where, req_id)


class _CoreLevel:
    """One elaborated core-side level: a tag array plus its spec knobs."""

    __slots__ = ("name", "tags", "hit_latency", "bypass", "victim")

    def __init__(self, spec: CacheLevelSpec, tags: SetAssocCache) -> None:
        self.name = spec.name
        self.tags = tags
        self.hit_latency = spec.hit_latency
        self.bypass = spec.bypass
        self.victim = spec.victim


class _StackTags:
    """Cache-like view over a whole multi-level stack.

    Handed to the coherence protocol in place of the single L1 tag array so
    ``store_completes_locally`` sees a line registered at *any* level.
    Single-level stacks (the default machine) pass the level-0 array
    directly and never build one of these.
    """

    __slots__ = ("levels",)

    def __init__(self, levels: list[_CoreLevel]) -> None:
        self.levels = [lv for lv in levels if not lv.bypass]

    def state_of(self, line: int):
        for lv in self.levels:
            state = lv.tags.state_of(line)
            if state is not None:
                return state
        return None

    def lookup(self, line: int, touch: bool = True):
        for lv in self.levels:
            state = lv.tags.lookup(line, touch)
            if state is not None:
                return state
        return None

    def contains(self, line: int) -> bool:
        return any(lv.tags.contains(line) for lv in self.levels)


class L1Controller(Component):
    """Core-side cache stack of one core (SM or CPU).

    Kept under its historical name: the component is still ``l1`` in the
    tree (``sm3.l1.mshr`` and friends), whatever levels the hierarchy spec
    stacks inside it.
    """

    def __init__(
        self,
        node: int,
        config: SystemConfig,
        mesh: Mesh,
        l2_node_of_line: Callable[[int], int],
        protocol: CoherenceProtocol,
        memory: GlobalMemory,
        levels: "list[CacheLevelSpec] | None" = None,
        shared_tags: "dict[str, SetAssocCache] | None" = None,
    ) -> None:
        Component.__init__(self, "l1")
        self.node = node
        self.config = config
        self.mesh = mesh
        self.engine = mesh.engine
        self.l2_node_of_line = l2_node_of_line
        self.protocol = protocol
        self.memory = memory
        #: hoisted constants for the per-atomic hot path
        self._line_shift = config.offset_bits
        self._keep_owned_on_acquire = protocol.keeps_owned_on_acquire()
        self._send = mesh.send
        if levels is None:
            levels = config.effective_hierarchy().core_levels
        if not levels:
            raise ValueError("core-side stack needs at least one cache level")
        #: elaborated levels, outermost (closest to the core) first.  A
        #: cluster level's tag array arrives via ``shared_tags`` and is
        #: only adopted into this component's subtree by its first sharer.
        self.levels: list[_CoreLevel] = []
        for i, spec in enumerate(levels):
            tags = (shared_tags or {}).get(spec.name)
            if tags is None:
                tags = SetAssocCache(
                    spec.size // (config.line_size * spec.assoc),
                    spec.assoc,
                    name="cache" if i == 0 else spec.name,
                )
            if tags.parent is None:
                self.add_child(tags)
            self.levels.append(_CoreLevel(spec, tags))
        l0 = self.levels[0]
        self.cache = l0.tags
        self._l0_probe = not l0.bypass
        self._l0_latency = l0.hit_latency
        #: deeper levels, or None for the (default) single-level stack --
        #: the hot load path only pays a falsy check for them.
        self._deeper = self.levels[1:] or None
        #: levels acquire-invalidation must sweep beyond level 0
        self._deeper_inval = [
            lv for lv in self.levels[1:] if not lv.bypass
        ] or None
        #: what the protocol probes for local-store/ownership decisions:
        #: the plain level-0 array when it is the whole stack (fast path),
        #: a whole-stack view otherwise.
        self._protocol_tags = (
            self.cache if self._deeper is None and self._l0_probe else _StackTags(self.levels)
        )
        self.mshr = Mshr(config.mshr_entries)
        self.add_child(self.mshr)
        self.store_buffer = StoreBuffer(
            config.store_buffer_entries,
            issue_fn=self._issue_sb_entry,
            write_combining=config.write_combining,
        )
        self.add_child(self.store_buffer)
        self._drain_scheduled = False
        #: overflow lines of an oversized store instruction (more
        #: uncombinable lines than the buffer holds), drip-fed into the
        #: buffer as slots free; flushes arriving while the queue is
        #: non-empty wait here for program order.
        self._deferred_stores: deque[int] = deque()
        self._deferred_flushes: list[Callable[[], None]] = []
        #: owned lines evicted but whose writeback ack is still in flight;
        #: forwards are serviced from here to avoid protocol races.
        self.wb_pending: set[int] = set()
        #: notified whenever an MSHR entry or store-buffer slot frees up.
        #: Resource *consumers* (the DMA engine refilling the MSHR) register
        #: ahead of the SM's wake so the issue stage observes post-refill
        #: state, as it would when ticking every cycle.
        self.resource_freed_hooks: list = []
        #: req_id -> (callback, bypass_l1) for loads in flight.
        self._load_waiters: dict[int, tuple[LoadCallback, bool]] = {}
        #: req_id -> callback for atomic responses.
        self._atomic_waiters: dict[int, Callable[[int], None]] = {}
        # statistics
        self.load_hits = self.stat_counter("load_hits")
        self.load_misses = self.stat_counter("load_misses")
        self.stores = self.stat_counter("stores")
        self.local_store_hits = self.stat_counter("local_store_hits")
        self.acquires = self.stat_counter("acquires")
        self.releases = self.stat_counter("releases")
        self.lines_self_invalidated = self.stat_counter("self_invalidated_lines")
        self.remote_serves = self.stat_counter("remote_serves")
        self.race_fallbacks = self.stat_counter("race_fallbacks")

    # ------------------------------------------------------------------
    # Load path
    # ------------------------------------------------------------------
    def load_line(
        self,
        line: int,
        on_done: LoadCallback,
        bypass_l1: bool = False,
    ) -> None:
        """Request ``line``; ``on_done(service_loc, req_id)`` fires when the
        data is available.  ``bypass_l1`` fills skip the whole stack
        (DMA/stash traffic), independent of any level's ``bypass`` spec.

        The caller (LSU / DMA engine / stash) is responsible for checking
        MSHR capacity *before* calling -- that is where the structural stall
        is classified.
        """
        if not bypass_l1:
            if self._l0_probe and self.cache.lookup(line) is not None:
                self.load_hits.value += 1
                self.engine.schedule(
                    self._l0_latency,
                    lambda: on_done(ServiceLocation.L1, -1),
                )
                return
            if self._deeper is not None and self._deeper_hit(line, on_done):
                return
        self.load_misses.value += 1
        existing = self.mshr.lookup(line)
        if existing is not None:
            # Secondary miss: satisfied by the primary's response
            # ("L1 coalescing" in the paper's taxonomy).
            self.mshr.merge(line, on_done)
            return
        req_id = next_request_id()
        entry = self.mshr.allocate(line, req_id, now=self.engine.now)
        entry.waiters.append(on_done)
        self._load_waiters[req_id] = (on_done, bypass_l1)
        self.mesh.send(
            Message(
                mtype=MsgType.GETS,
                src=self.node,
                dst=self.l2_node_of_line(line),
                line=line,
                req_id=req_id,
                bypass_l1=bypass_l1,
            )
        )

    def _deeper_hit(self, line: int, on_done: LoadCallback) -> bool:
        """Probe the stack below level 0; promote and respond on a hit."""
        for i, lv in enumerate(self.levels):
            if i == 0 or lv.bypass:
                continue
            state = lv.tags.lookup(line)
            if state is None:
                continue
            # Promote into the first non-bypass level above the hit,
            # preserving the coherence state (an OWNED line must stay
            # registered wherever it lives).  A victim level additionally
            # gives its copy up -- but only when there is somewhere above
            # to promote to, or the line would be silently discarded.
            target = next(
                (j for j in range(i) if not self.levels[j].bypass), None
            )
            if target is not None:
                if lv.victim:
                    lv.tags.invalidate(line)
                self._insert_at(target, line, state)
            self.load_hits.value += 1
            self.engine.schedule(
                lv.hit_latency, lambda: on_done(ServiceLocation.L1, -1)
            )
            return True
        return False

    def mshr_can_allocate(self, line: int) -> bool:
        """Room for a load to ``line`` (full MSHRs still accept merges)."""
        return self.mshr.lookup(line) is not None or not self.mshr.is_full()

    # ------------------------------------------------------------------
    # Store path
    # ------------------------------------------------------------------
    def can_accept_store(self, line: int) -> bool:
        if self._deferred_stores:
            # An oversized burst's overflow is still queued; younger stores
            # (even combinable or locally-completing ones) wait behind it,
            # exactly as the LSU's aggregate admission makes them.
            return False
        return self._line_fits_store_path(line)

    def _line_fits_store_path(self, line: int) -> bool:
        """Room for one store line, ignoring the deferred-overflow queue
        (internal: the queue's own drip-feed must not block on itself)."""
        if self.protocol.store_completes_locally(self._protocol_tags, line):
            return True
        return self.store_buffer.can_accept(line)

    def can_accept_stores(self, lines: list[int]) -> bool:
        """Aggregate admission check for a multi-line store instruction.

        An instruction with more uncombinable lines than the buffer holds
        can never fit at once: it is admitted against an *idle* store path
        and its overflow drip-fed as slots free (:meth:`store_lines`), so a
        fully-uncoalesced scatter serializes through the buffer instead of
        deadlocking the warp.
        """
        if self._deferred_stores:
            return False  # an earlier oversized burst is still being fed
        need = 0
        for line in lines:
            if self.protocol.store_completes_locally(self._protocol_tags, line):
                continue
            if self.store_buffer.has_combinable_entry(line):
                continue
            need += 1
        if need > self.store_buffer.capacity:
            return self.store_buffer.occupancy == 0
        return need <= self.store_buffer.capacity - self.store_buffer.occupancy

    def store_lines(self, lines: list[int]) -> None:
        """Buffer one store instruction's lines (caller checks
        :meth:`can_accept_stores`); overflow lines queue for the drip-feed."""
        for i, line in enumerate(lines):
            if not self._line_fits_store_path(line):
                self._deferred_stores.extend(lines[i:])
                return
            self.store_line(line)

    def _feed_deferred_stores(self) -> None:
        """Move queued overflow lines into freed buffer slots, then release
        any flush that was waiting on the queue (program order)."""
        while self._deferred_stores and self._line_fits_store_path(
            self._deferred_stores[0]
        ):
            self.store_line(self._deferred_stores.popleft())
        if not self._deferred_stores and self._deferred_flushes:
            flushes, self._deferred_flushes = self._deferred_flushes, []
            for on_done in flushes:
                self.store_buffer.flush(on_done)
            if self.store_buffer.has_pending():
                self._schedule_drain()

    def store_line(self, line: int, words: set[int] | None = None) -> None:
        """Buffer a store to ``line``.  Caller checks :meth:`can_accept_store`."""
        self.stores.value += 1
        if self.protocol.store_completes_locally(self._protocol_tags, line):
            # DeNovo: the line is already registered here; done.
            self.local_store_hits.value += 1
            self._protocol_tags.lookup(line)  # refresh LRU
            return
        self.store_buffer.write(line, words)
        self._schedule_drain()

    def _schedule_drain(self) -> None:
        if self._drain_scheduled:
            return
        self._drain_scheduled = True
        self.engine.schedule(self.store_buffer.drain_interval, self._drain_tick)

    def _drain_tick(self) -> None:
        self._drain_scheduled = False
        self.store_buffer.drain_one()
        if self.store_buffer.has_pending():
            self._schedule_drain()

    def _issue_sb_entry(self, entry: SbEntry) -> None:
        self.mesh.send(
            Message(
                mtype=self.protocol.drain_message_type(),
                src=self.node,
                dst=self.l2_node_of_line(entry.line),
                line=entry.line,
                meta=("sb", entry.seq),
            )
        )

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def acquire_invalidate(self) -> int:
        """Self-invalidate every level on acquire; returns *copies* dropped.

        On the paper's single-level machine copies == lines; a multi-level
        stack that holds a line at two levels (a promoted deeper hit)
        counts both copies, so ``self_invalidated_lines`` reads as
        invalidation *volume* across the stack, not distinct lines.
        """
        self.acquires.value += 1
        keep = self._keep_owned_on_acquire
        cache = self.cache
        # Empty-cache acquires are the common case in lock-heavy phases
        # (self-invalidation keeps the L1 drained); skip the call then.
        dropped = cache.invalidate_all(keep_owned=keep) if cache._occupied else 0
        if self._deeper_inval is not None:
            for lv in self._deeper_inval:
                dropped += lv.tags.invalidate_all(keep_owned=keep)
        self.lines_self_invalidated.value += dropped
        return dropped

    def flush_store_buffer(self, on_done: Callable[[], None]) -> None:
        """Release-time flush: fire ``on_done`` when all writes are visible."""
        self.releases.value += 1
        if self._deferred_stores:
            # Overflow lines of an earlier store instruction are still
            # queued; the flush covers them too, so it registers only once
            # they have entered the buffer (program order).
            self._deferred_flushes.append(on_done)
            return
        self.store_buffer.flush(on_done)
        if self.store_buffer.has_pending():
            self._schedule_drain()

    def sb_empty(self) -> bool:
        return self.store_buffer.is_empty() and not self._deferred_stores

    @property
    def atomics_outstanding(self) -> int:
        return len(self._atomic_waiters)

    # ------------------------------------------------------------------
    # Atomics (serviced at the shared directory level)
    # ------------------------------------------------------------------
    def atomic(
        self,
        word_addr: int,
        fn: Callable[[int], tuple[int, int]],
        on_done,
    ) -> int:
        """Issue an atomic RMW on ``word_addr``; ``on_done`` receives the
        old value.  ``on_done`` is either a plain ``callable(value)`` or --
        the SM's allocation-free lane -- a 5-tuple ``(fn, a, b, c, d)``
        invoked as ``fn(a, b, c, d, value)``."""
        line = word_addr >> self._line_shift
        # next_request_id(), sans the wrapper call: same shared counter.
        req_id = next(_REQ_IDS)
        self._atomic_waiters[req_id] = on_done
        # Pooled positional construction (field order: mtype, src, dst,
        # line, req_id, requester, value, service_loc, atomic_fn,
        # word_addr): this is one of the two hottest allocation sites; the
        # L2 retires the request after its RMW.
        self._send(
            alloc_message(
                MsgType.ATOMIC,
                self.node,
                self.l2_node_of_line(line),
                line,
                req_id,
                None,
                None,
                None,
                fn,
                word_addr,
            )
        )
        return req_id

    # ------------------------------------------------------------------
    # Network-facing side
    # ------------------------------------------------------------------
    def handle_message(self, msg: Message) -> None:
        if msg.mtype is MsgType.DATA:
            # Atomic responses dominate DATA traffic in the synchronization
            # workloads; complete them inline (one frame saved on the
            # hottest delivery path), fall through for load fills.
            cb = self._atomic_waiters.pop(msg.req_id, None)
            if cb is not None:
                value = msg.value
                recycle_message(msg)
                if cb.__class__ is tuple:
                    cb[0](cb[1], cb[2], cb[3], cb[4], value)
                else:
                    cb(value)
                return
            self._handle_data(msg)
        elif msg.mtype is MsgType.ACK:
            self._handle_ack(msg)
        elif msg.mtype is MsgType.FWD_GETS:
            self._handle_fwd_gets(msg)
        elif msg.mtype is MsgType.FWD_GETO:
            self._handle_fwd_geto(msg)
        else:
            raise ValueError("L1 cannot handle %s" % msg.mtype)

    def _handle_data(self, msg: Message) -> None:
        # Every DATA message retires here: nothing below stores ``msg``
        # (waiters receive scalars), so it returns to the pool on exit.
        cb = self._atomic_waiters.pop(msg.req_id, None)
        if cb is not None:
            assert msg.value is not None
            value = msg.value
            recycle_message(msg)
            if cb.__class__ is tuple:
                cb[0](cb[1], cb[2], cb[3], cb[4], value)
            else:
                cb(value)
            return
        waiter = self._load_waiters.pop(msg.req_id, None)
        if waiter is None:
            recycle_message(msg)
            return  # stale response (e.g. cancelled requester); drop
        _, bypass = waiter
        entry = self.mshr.complete(msg.line)
        if not bypass:
            self._install_fill(msg.line, self.protocol.fill_state())
        loc = msg.service_loc or ServiceLocation.L2
        req_id = msg.req_id
        recycle_message(msg)
        for hook in self.resource_freed_hooks:
            hook()  # an MSHR entry just freed
        for cb in entry.waiters:
            cb(loc, req_id)
        for cb in entry.merged_waiters:
            cb(ServiceLocation.L1_COALESCE, req_id)
        # Every waiter has been serviced: the entry goes back to the pool.
        self.mshr.recycle(entry)

    # ------------------------------------------------------------------
    # Fill / spill / writeback (one mechanism for every stack shape)
    # ------------------------------------------------------------------
    def _install_fill(self, line: int, state: LineState) -> None:
        """Install a fabric fill at the first fillable level; evictions
        spill down the stack and fall off the end into a writeback."""
        if self._l0_probe:
            self._insert_at(0, line, state)
            return
        if self._deeper is not None:
            for i, lv in enumerate(self.levels):
                if not lv.bypass and not lv.victim:
                    self._insert_at(i, line, state)
                    return
        # Fully bypassed stack (scratchpad-heavy shape): nothing is cached.

    def _insert_at(self, index: int, line: int, state: LineState) -> None:
        victim = self.levels[index].tags.insert(line, state)
        if victim is not None:
            self._spill(index, victim[0], victim[1])

    def _spill(self, from_index: int, line: int, state: LineState) -> None:
        """An eviction leaves level ``from_index``: hand it to the next
        level that holds lines (victim levels fill exactly this way), or
        write it back once it falls off the stack."""
        levels = self.levels
        for j in range(from_index + 1, len(levels)):
            if levels[j].bypass:
                continue
            self._insert_at(j, line, state)
            return
        if not self.protocol.needs_eviction_writeback(state):
            return
        # A registered line only leaves the core when *no* level holds it
        # any more (a deeper copy keeps the registration alive).
        for lv in levels:
            if not lv.bypass and lv.tags.contains(line):
                return
        self.wb_pending.add(line)
        self.mesh.send(
            Message(
                mtype=MsgType.WB_OWNED,
                src=self.node,
                dst=self.l2_node_of_line(line),
                line=line,
                meta=("wb", line),
            )
        )

    def _handle_ack(self, msg: Message) -> None:
        meta = msg.meta
        if isinstance(meta, tuple) and meta and meta[0] == "sb":
            new_state = self.protocol.state_after_store_ack()
            if new_state is not None:
                self._install_fill(msg.line, new_state)
            self.store_buffer.ack(msg.line, seq=meta[1])
            self._feed_deferred_stores()  # queued overflow lines go first
            for hook in self.resource_freed_hooks:
                hook()  # a store-buffer slot just freed
        elif isinstance(meta, tuple) and meta and meta[0] == "wb":
            self.wb_pending.discard(msg.line)
        # other acks carry no L1-side state

    def _handle_fwd_gets(self, msg: Message) -> None:
        """The directory believes we own ``msg.line``: respond to the
        requester (the line may live at any level of the stack)."""
        assert msg.requester is not None
        state = self._protocol_tags.state_of(msg.line)
        if state is not LineState.OWNED and msg.line not in self.wb_pending:
            # Raced with an eviction already acknowledged at the L2;
            # functionally harmless (GlobalMemory is authoritative).
            self.race_fallbacks.value += 1
        self.remote_serves.value += 1
        delay = self.config.remote_fwd_latency
        self.engine.schedule(
            delay,
            lambda: self.mesh.send(
                Message(
                    mtype=MsgType.DATA,
                    src=self.node,
                    dst=msg.requester,
                    line=msg.line,
                    req_id=msg.req_id,
                    service_loc=ServiceLocation.REMOTE_L1,
                    bypass_l1=msg.bypass_l1,
                    meta=msg.meta,
                )
            ),
        )

    def _handle_fwd_geto(self, msg: Message) -> None:
        """Ownership transferred away (or recalled): drop the line from
        every level of the stack."""
        self.cache.invalidate(msg.line)
        if self._deeper is not None:
            for lv in self._deeper:
                lv.tags.invalidate(msg.line)
        self.wb_pending.discard(msg.line)
