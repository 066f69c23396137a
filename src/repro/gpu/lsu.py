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
    from repro.mem.stash import LinePairs, Stash


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
        #: what a coalescing memo depends on besides the lane addresses
        self._memo_key = (config.offset_bits, config.l1_banks)
        #: the MSHR's entry dict, read directly by the per-cycle checks
        self._mshr_entries = l1.mshr._entries
        self._mshr_capacity = l1.mshr.capacity
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
    # Address helpers: facts of an instruction's lane addresses, computed
    # once per instruction and memoized on it (a warp re-checks a waiting
    # instruction every cycle, and none of these can change meanwhile).
    # ------------------------------------------------------------------
    def coalesced(self, instr: Instruction) -> tuple[list[int], int]:
        """``(lines, degree)``: the distinct cache lines ``instr`` touches
        and their L1 bank-conflict degree (see :meth:`lines_of`)."""
        memo = instr._coalesced
        if memo is None or memo[0] != self._memo_key:
            memo = self._coalesce(instr)
        return memo[1], memo[2]

    def lines_of(self, instr: Instruction) -> list[int]:
        """Distinct cache lines touched, in first-lane order (coalescing).

        The list is memoized on ``instr`` and shared by every call: never
        mutate it."""
        memo = instr._coalesced
        if memo is None or memo[0] != self._memo_key:
            memo = self._coalesce(instr)
        return memo[1]

    def _coalesce(self, instr: Instruction) -> tuple:
        shift = self._line_shift
        lines = list(dict.fromkeys([a >> shift for a in instr.addrs]))
        memo = instr._coalesced = (
            self._memo_key, lines, self.l1_bank_conflict_degree(lines)
        )
        return memo

    def l1_bank_conflict_degree(self, lines: list[int]) -> int:
        counts: dict[int, int] = {}
        for line in lines:
            b = line % self.config.l1_banks
            counts[b] = counts.get(b, 0) + 1
        return max(counts.values()) if counts else 1

    def stash_lines(self, instr: Instruction) -> "LinePairs":
        """:meth:`Stash.line_pairs` of ``instr``'s lanes, recomputed only
        when the stash map changes (``Stash.map_version``)."""
        stash = self.stash
        assert stash is not None, "stash instruction without a stash"
        memo = instr._stash_lines
        if memo is None or memo[0] is not stash or memo[1] != stash.map_version:
            memo = instr._stash_lines = (
                stash, stash.map_version, stash.line_pairs(instr.addrs)
            )
        return memo[2]

    # ------------------------------------------------------------------
    # Structural-hazard check (order defines the reported cause)
    # ------------------------------------------------------------------
    def check(self, instr: Instruction, now: int) -> MemStructCause | None:
        """Why ``instr`` cannot enter the LSU this cycle, or ``None``."""
        if now < self.busy_until:
            return self._reject(MemStructCause.BANK_CONFLICT)
        op = instr.op
        if op is Op.ATOMIC:
            return None  # atomics travel straight to the L2
        if self.release_active and not self.config.sfifo_release:
            return self._reject(MemStructCause.PENDING_RELEASE)
        space = instr.space
        # Head-of-line: a full MSHR blocks the unit for every access.
        entries = self._mshr_entries
        if op is Op.LOAD and len(entries) >= self._mshr_capacity:
            contains = self.l1.cache.contains
            if space is Space.GLOBAL and all(
                line in entries or contains(line) for line in self.lines_of(instr)
            ):
                pass  # all lines hit or merge: no new entry needed
            else:
                self.l1.mshr.note_rejection()
                return self._reject(MemStructCause.MSHR_FULL)
        if space is Space.GLOBAL:
            return self._check_global(instr)
        if space is Space.SCRATCH:
            return self._check_scratch(instr)
        if space is Space.STASH:
            return self._check_stash(instr)
        raise ValueError("unknown address space %r" % (space,))

    def _check_global(self, instr: Instruction) -> MemStructCause | None:
        lines = self.lines_of(instr)
        if instr.op is Op.LOAD:
            entries = self._mshr_entries
            contains = self.l1.cache.contains
            need = 0
            for line in lines:
                if line not in entries and not contains(line):
                    need += 1
            capacity = self._mshr_capacity
            if need > capacity - len(entries):
                if need > capacity and not entries:
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
        if self.dma is not None and self.dma.inbound:
            # Core-granularity blocking on a pending DMA (Section 6.2.1).
            return self._reject(MemStructCause.PENDING_DMA)
        return None

    def _check_stash(self, instr: Instruction) -> MemStructCause | None:
        stash = self.stash
        pairs = self.stash_lines(instr)
        if instr.op is Op.LOAD:
            if stash.fills_for(pairs) > self._mshr_capacity - len(self._mshr_entries):
                self.l1.mshr.note_rejection()
                return self._reject(MemStructCause.MSHR_FULL)
            return None
        # Stash store: dirtying a clean line needs a store-buffer slot for
        # the DeNovo registration request (aggregate admission).
        glines = stash.registrations(pairs)
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
