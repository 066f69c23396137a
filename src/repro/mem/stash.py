"""Stash: a scratchpad that is part of the coherent global address space.

The second innovation of the paper's second case study (Section 6.2.1,
after Komuravelli et al.).  A *stash map* records the mapping between local
stash addresses and global addresses.  The first access to a mapped address
generates a global request; the returned data bypasses the L1 and lands
directly in the stash, so subsequent accesses hit locally without
translation.  Dirty stash data is globally visible and can be written back
*lazily* -- we model laziness as a writeback queue drained through the store
buffer when a warp finishes its chunk.

Compared to scratchpad+DMA, on-demand fills mean a load blocks only the warp
that needs the data (warp granularity vs. the DMA's core granularity), which
is exactly why the paper finds stash utilizes the core better as MSHR size
grows (Section 6.2.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.component import Component
from repro.core.stall_types import ServiceLocation
from repro.mem.l1 import L1Controller
from repro.mem.scratchpad import Scratchpad
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine


#: ``(local line, global line, lane address)`` per distinct local line of
#: an access (:meth:`Stash.line_pairs`)
LinePairs = list[tuple[int, "int | None", int]]


@dataclass
class StashMapping:
    """One contiguous stash<->global mapping (a stash map entry)."""

    scratch_base: int
    global_base: int
    size: int

    def contains(self, scratch_addr: int) -> bool:
        return self.scratch_base <= scratch_addr < self.scratch_base + self.size

    def to_global(self, scratch_addr: int) -> int:
        return self.global_base + (scratch_addr - self.scratch_base)


class Stash(Component):
    """Per-SM stash: storage, map, valid/dirty tracking, lazy writeback."""

    def __init__(
        self,
        config: SystemConfig,
        engine: Engine,
        l1: L1Controller,
        storage: Scratchpad,
    ) -> None:
        Component.__init__(self, "stash")
        self.config = config
        self.engine = engine
        self.l1 = l1
        self.storage = storage
        self._shift = config.offset_bits
        #: the MSHR's entry dict, read directly by the LSU's fill count
        self._mshr_entries = l1.mshr._entries
        self._mappings: list[StashMapping] = []
        #: bumped by every change to ``_mappings``; keys the LSU's memo of
        #: an instruction's :meth:`line_pairs`
        self.map_version = 0
        #: local line index -> present
        self._valid: set[int] = set()
        self._dirty: set[int] = set()
        #: local lines with a fill in flight -> callbacks to run on arrival
        self._filling: dict[int, list[Callable[[ServiceLocation], None]]] = {}
        self._wb_queue: list[tuple[int, StashMapping]] = []
        self._wb_scheduled = False
        self._wb_outstanding = 0
        # statistics
        self.hits = self.stat_counter("hits")
        self.fills = self.stat_counter("fills")
        self.writebacks = self.stat_counter("writebacks")

    # ------------------------------------------------------------------
    def map_region(self, scratch_base: int, global_base: int, size: int) -> None:
        """Install a stash-map entry (no data movement happens here)."""
        self._mappings.append(StashMapping(scratch_base, global_base, size))
        self.map_version += 1

    def mapping_for(self, scratch_addr: int) -> StashMapping:
        mapping = self._find_mapping(scratch_addr)
        if mapping is None:
            raise KeyError("stash address %#x is not mapped" % scratch_addr)
        return mapping

    def _find_mapping(self, scratch_addr: int) -> StashMapping | None:
        """The first mapping that covers ``scratch_addr``, or ``None``."""
        for m in self._mappings:
            if m.contains(scratch_addr):
                return m
        return None

    def local_line(self, scratch_addr: int) -> int:
        return scratch_addr >> self._shift

    def is_dirty(self, scratch_addr: int) -> bool:
        return self.local_line(scratch_addr) in self._dirty

    def global_line_of(self, scratch_addr: int) -> int:
        return self.mapping_for(scratch_addr).to_global(scratch_addr) >> self._shift

    # ------------------------------------------------------------------
    def is_present(self, scratch_addr: int) -> bool:
        return self.local_line(scratch_addr) in self._valid

    def line_pairs(self, addrs: Sequence[int]) -> LinePairs:
        """``(local line, global line, lane address)`` for each distinct
        local line of ``addrs``, in first-lane order, the global line mapped
        through that first lane (``None`` while the lane is unmapped).

        Depends only on ``addrs`` and the map: the LSU memoizes it per
        instruction under :attr:`map_version`."""
        shift = self._shift
        firsts: dict[int, int] = {}
        for a in addrs:
            firsts.setdefault(a >> shift, a)
        pairs = []
        for lline, a in firsts.items():
            m = self._find_mapping(a)
            gline = None if m is None else m.to_global(a) >> shift
            pairs.append((lline, gline, a))
        return pairs

    def fills_needed(self, addrs: Sequence[int]) -> int:
        """Fresh MSHR allocations a load of ``addrs`` would trigger."""
        return self.fills_for(self.line_pairs(addrs))

    def fills_for(self, pairs: LinePairs) -> int:
        """:meth:`fills_needed` of the lanes ``pairs`` came from."""
        need = 0
        valid, filling, entries = self._valid, self._filling, self._mshr_entries
        for lline, gline, a in pairs:
            if lline in valid or lline in filling:
                continue
            if gline is None:
                gline = self.global_line_of(a)  # raises: unmapped
            if gline not in entries:
                need += 1
        return need

    def registrations(self, pairs: LinePairs) -> list[int]:
        """Global lines a store to the lanes of ``pairs`` registers: one per
        local line it dirties for the first time."""
        dirty = self._dirty
        return [
            gline if gline is not None else self.global_line_of(a)
            for lline, gline, a in pairs
            if lline not in dirty
        ]

    def access_load(
        self,
        scratch_addr: int,
        on_done: Callable[[ServiceLocation], None],
    ) -> None:
        """Load through the stash map; fills on first touch."""
        lline = self.local_line(scratch_addr)
        if lline in self._valid:
            self.hits.value += 1
            self.engine.schedule(
                self.storage.hit_latency,
                lambda: on_done(ServiceLocation.L1),
            )
            return
        if lline in self._filling:
            # Another lane/warp already generated the request; coalesce.
            self._filling[lline].append(on_done)
            return
        mapping = self.mapping_for(scratch_addr)
        gline = mapping.to_global(scratch_addr) >> self._shift
        self._filling[lline] = [on_done]
        self.l1.load_line(
            gline,
            lambda loc, rid, ll=lline, m=mapping: self._fill_done(ll, m, loc),
            bypass_l1=True,
        )

    def _fill_done(
        self, lline: int, mapping: StashMapping, loc: ServiceLocation
    ) -> None:
        # Functional copy: one line global -> stash storage.
        delta = mapping.global_base - mapping.scratch_base
        addrs = self._mapped_words(lline, mapping)
        self.storage.store_words(
            addrs, self.l1.memory.load_words([a + delta for a in addrs])
        )
        self._valid.add(lline)
        self.fills.value += 1
        for cb in self._filling.pop(lline, []):
            cb(loc)

    # ------------------------------------------------------------------
    def access_store(self, scratch_addr: int) -> None:
        """Store into the stash; data becomes dirty and lazily written back."""
        lline = self.local_line(scratch_addr)
        self._valid.add(lline)
        self._dirty.add(lline)

    def writeback_dirty_range(self, scratch_base: int, size: int) -> None:
        """Queue the dirty lines of a finished chunk for lazy writeback.

        The mapping is captured with each queued line so the region can be
        released (re-mapped by the next thread block) while the writebacks
        are still draining.
        """
        first = self.local_line(scratch_base)
        last = self.local_line(scratch_base + size - 1)
        for lline in range(first, last + 1):
            if lline in self._dirty:
                self._dirty.discard(lline)
                mapping = self._find_mapping(lline << self._shift)
                if mapping is not None:
                    self._wb_queue.append((lline, mapping))
        self._schedule_wb()

    def release_region(self, scratch_base: int, size: int) -> None:
        """End of a chunk's lifetime: lazily write back dirty lines, then
        drop the mapping and valid bits so the next thread block can reuse
        the stash space."""
        self.writeback_dirty_range(scratch_base, size)
        first = self.local_line(scratch_base)
        last = self.local_line(scratch_base + size - 1)
        for lline in range(first, last + 1):
            self._valid.discard(lline)
        self._mappings = [
            m
            for m in self._mappings
            if not (scratch_base <= m.scratch_base and m.scratch_base + m.size <= scratch_base + size)
        ]
        self.map_version += 1

    def _schedule_wb(self) -> None:
        if self._wb_scheduled or not self._wb_queue:
            return
        self._wb_scheduled = True
        self.engine.schedule(1, self._wb_tick)

    def _wb_tick(self) -> None:
        self._wb_scheduled = False
        if not self._wb_queue:
            return
        lline, mapping = self._wb_queue[0]
        gline = mapping.to_global(lline << self._shift) >> self._shift
        if not self.l1.can_accept_store(gline):
            # Store buffer full: retry; running warps see SB-full pressure.
            self._schedule_wb()
            return
        self._wb_queue.pop(0)
        # Functional copy stash -> global, then the timing write.
        delta = mapping.global_base - mapping.scratch_base
        addrs = self._mapped_words(lline, mapping)
        self.l1.memory.store_words(
            [a + delta for a in addrs], self.storage.load_words(addrs)
        )
        self.l1.store_line(gline)
        self.writebacks.value += 1
        self._schedule_wb()

    def _mapped_words(self, lline: int, mapping: StashMapping) -> list[int]:
        """Word addresses of local line ``lline`` that ``mapping`` covers."""
        base = lline << self._shift
        lo, hi = mapping.scratch_base, mapping.scratch_base + mapping.size
        return [a for a in range(base, base + self.config.line_size, 4) if lo <= a < hi]

    def writeback_idle(self) -> bool:
        return not self._wb_queue
