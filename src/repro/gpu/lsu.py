"""Load/store unit: the structural-hazard gatekeeper of an SM.

Every memory structural stall sub-class of Section 4.4 is a distinct
rejection reason returned by :meth:`Lsu.check`:

* ``BANK_CONFLICT``  -- the unit is still serializing a previous access
  whose lanes conflicted on L1/scratchpad banks (or spanned several lines);
* ``PENDING_RELEASE`` -- a release operation is flushing the store buffer
  and blocks younger memory instructions (unless the S-FIFO extension is
  enabled);
* ``MSHR_FULL``      -- no MSHR entry available (checked head-of-line: a
  full MSHR blocks the unit for every memory instruction, matching the
  paper's description of DMA-saturated MSHRs blocking scratchpad accesses);
* ``STORE_BUFFER_FULL`` -- the write-combining store buffer cannot accept
  the store's lines;
* ``PENDING_DMA``    -- the access targets scratchpad space while a DMA
  transfer into the scratchpad is incomplete (core-granularity blocking,
  the paper's approximation of D2MA).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.component import Component
from repro.core.stall_types import MemStructCause, ServiceLocation
from repro.gpu.instruction import Instruction, Op, Space
from repro.mem.l1 import L1Controller
from repro.sim.config import SystemConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.dma import DmaEngine
    from repro.mem.scratchpad import Scratchpad
    from repro.mem.stash import Stash


@dataclass(slots=True)
class AccessGroup:
    """All outstanding lines of one warp memory instruction."""

    tag: int
    remaining: int
    final_loc: ServiceLocation | None = None

    def line_done(self, loc: ServiceLocation) -> bool:
        """Record one line completion; True when the group is complete.

        The group's location is the *last* line to complete -- that is the
        line that actually bounded the dependent instruction's wait.
        """
        self.remaining -= 1
        self.final_loc = loc
        return self.remaining == 0


class Lsu(Component):
    """One SM's load/store unit."""

    def __init__(
        self,
        config: SystemConfig,
        l1: L1Controller,
        scratchpad: "Scratchpad | None" = None,
        dma: "DmaEngine | None" = None,
        stash: "Stash | None" = None,
    ) -> None:
        Component.__init__(self, "lsu")
        self.config = config
        self.l1 = l1
        self.scratchpad = scratchpad
        self.dma = dma
        self.stash = stash
        self._line_shift = config.offset_bits
        self.busy_until = 0
        self.release_active = False
        #: trace capture point at the LSU->L1 boundary: when a
        #: :class:`repro.trace.record.SmTraceSink` is installed here, the
        #: SM's issue stage reports every accepted memory instruction
        #: (coalesced lines, access-group tag, sync semantics) to it.
        self.trace_sink = None
        # statistics: per-cause rejection counts stay a plain dict on the
        # hot rejection path; the stats tree sees them as one derived map.
        self.accepted = self.stat_counter("accepted")
        self.rejections: dict[MemStructCause, int] = {c: 0 for c in MemStructCause}
        self.stat_derived(
            "rejections", lambda: {c.value: n for c, n in self.rejections.items()}
        )

    def on_reset_stats(self) -> None:
        self.rejections = {c: 0 for c in MemStructCause}

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def lines_of(self, instr: Instruction) -> list[int]:
        """Distinct cache lines touched, in first-lane order (coalescing)."""
        shift = self._line_shift
        return list(dict.fromkeys([a >> shift for a in instr.addrs]))

    def l1_bank_conflict_degree(self, lines: list[int]) -> int:
        counts: dict[int, int] = {}
        for line in lines:
            b = line % self.config.l1_banks
            counts[b] = counts.get(b, 0) + 1
        return max(counts.values()) if counts else 1

    # ------------------------------------------------------------------
    # Structural-hazard check (order defines the reported cause)
    # ------------------------------------------------------------------
    def check(self, instr: Instruction, now: int) -> MemStructCause | None:
        """Why ``instr`` cannot enter the LSU this cycle, or ``None``."""
        if now < self.busy_until:
            return self._reject(MemStructCause.BANK_CONFLICT)
        if (
            self.release_active
            and not self.config.sfifo_release
            and instr.op is not Op.ATOMIC
        ):
            return self._reject(MemStructCause.PENDING_RELEASE)
        if instr.op is Op.ATOMIC:
            return None  # atomics travel straight to the L2
        # Head-of-line: a full MSHR blocks the unit for every access.
        if instr.op is Op.LOAD and self.l1.mshr.is_full():
            if instr.space is Space.GLOBAL and all(
                self.l1.mshr_can_allocate(line) or self.l1.cache.contains(line)
                for line in self.lines_of(instr)
            ):
                pass  # all lines hit or merge: no new entry needed
            else:
                self.l1.mshr.note_rejection()
                return self._reject(MemStructCause.MSHR_FULL)
        if instr.space is Space.GLOBAL:
            return self._check_global(instr)
        if instr.space is Space.SCRATCH:
            return self._check_scratch(instr)
        if instr.space is Space.STASH:
            return self._check_stash(instr)
        raise ValueError("unknown address space %r" % (instr.space,))

    def _check_global(self, instr: Instruction) -> MemStructCause | None:
        lines = self.lines_of(instr)
        if instr.op is Op.LOAD:
            need = sum(
                1
                for line in lines
                if not self.l1.cache.contains(line) and self.l1.mshr.lookup(line) is None
            )
            free = self.l1.mshr.capacity - self.l1.mshr.occupancy
            if need > free:
                if need > self.l1.mshr.capacity and self.l1.mshr.occupancy == 0:
                    # Oversized gather: can never fit at once.  Admit it
                    # against an idle MSHR; the SM issues it in waves
                    # (see SM._issue_global_load) instead of deadlocking.
                    return None
                self.l1.mshr.note_rejection()
                return self._reject(MemStructCause.MSHR_FULL)
            return None
        # store: admission is aggregate -- a 4-line store needs up to 4 slots
        if not self.l1.can_accept_stores(lines):
            self.l1.store_buffer.full_rejections += 1
            return self._reject(MemStructCause.STORE_BUFFER_FULL)
        return None

    def _check_scratch(self, instr: Instruction) -> MemStructCause | None:
        if self.dma is not None and self.dma.load_in_progress():
            # Core-granularity blocking on a pending DMA (Section 6.2.1).
            return self._reject(MemStructCause.PENDING_DMA)
        return None

    def _check_stash(self, instr: Instruction) -> MemStructCause | None:
        stash = self.stash
        assert stash is not None, "stash instruction without a stash"
        if instr.op is Op.LOAD:
            mshr = self.l1.mshr
            if stash.fills_needed(instr.addrs) > mshr.capacity - mshr.occupancy:
                mshr.note_rejection()
                return self._reject(MemStructCause.MSHR_FULL)
            return None
        # Stash store: dirtying a clean line needs a store-buffer slot for
        # the DeNovo registration request (aggregate admission).
        glines: list[int] = []
        seen: set[int] = set()
        shift = self._line_shift
        for a in instr.addrs:
            lline = a >> shift
            if lline in seen:
                continue
            seen.add(lline)
            if not stash.is_dirty(a):
                glines.append(stash.global_line_of(a))
        if glines and not self.l1.can_accept_stores(glines):
            self.l1.store_buffer.full_rejections += 1
            return self._reject(MemStructCause.STORE_BUFFER_FULL)
        return None

    def _reject(self, cause: MemStructCause) -> MemStructCause:
        self.rejections[cause] += 1
        return cause

    # ------------------------------------------------------------------
    def occupy(self, now: int, cycles: int) -> None:
        """Reserve the unit for ``cycles`` cycles after the issue cycle
        (an instruction issued at T with 1 conflict cycle blocks T+1)."""
        if cycles > 0:
            self.busy_until = max(self.busy_until, now + 1 + cycles)
        self.accepted.value += 1

    def begin_release(self) -> None:
        self.release_active = True

    def end_release(self) -> None:
        self.release_active = False
