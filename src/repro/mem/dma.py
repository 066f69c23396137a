"""DMA engine for scratchpad transfers (the paper's D2MA approximation).

Section 6.2.1: the scratchpad+DMA configuration offloads the explicit
copy-in/copy-out loop to a DMA engine that transfers lines in bulk, one
request per cycle, bypassing the L1 and the register file.  Two properties
matter to the stall breakdown and are modelled faithfully:

* DMA load requests consume MSHR entries, so a burst pegs the MSHR and any
  normal memory access is rejected with a "full MSHR" structural stall;
* scratchpad accesses to a region with an incomplete DMA block at *core*
  granularity (this repo follows the paper's approximation, which blocks the
  whole core rather than individual warps) -- the "pending DMA" structural
  stall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.component import Component
from repro.mem.l1 import L1Controller
from repro.mem.scratchpad import Scratchpad
from repro.noc.message import Message, MsgType
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine


@dataclass
class DmaTransfer:
    """One bulk transfer between global memory and the scratchpad."""

    global_base: int
    scratch_base: int
    size: int
    to_scratch: bool                      # True: global -> scratchpad
    on_done: Callable[[], None] | None = None
    next_offset: int = 0
    outstanding: int = 0
    issued_all: bool = False

    def done(self) -> bool:
        return self.issued_all and self.outstanding == 0


class DmaEngine(Component):
    """Per-SM DMA engine issuing one line transfer per interval."""

    def __init__(
        self,
        config: SystemConfig,
        engine: Engine,
        l1: L1Controller,
        scratchpad: Scratchpad,
    ) -> None:
        Component.__init__(self, "dma")
        self.config = config
        self.engine = engine
        self.l1 = l1
        self.scratchpad = scratchpad
        #: directory-level access latency from the elaborated hierarchy (==
        #: ``l2_access_latency`` on the default shape; an explicit spec may
        #: retune the level and the DMA must see the same machine)
        self._l2_latency = config.effective_hierarchy().directory_level.hit_latency
        self._line_shift = config.offset_bits
        self._interval = config.dma_issue_interval
        #: the MSHR's entry dict, read directly by the throttled poll
        self._mshr_entries = l1.mshr._entries
        self._mshr_capacity = l1.mshr.capacity
        self._transfers: list[DmaTransfer] = []
        #: incomplete inbound (global -> scratch) transfers: the LSU's
        #: pending-DMA test, kept by start/_line_done
        self.inbound = 0
        self._pump_scheduled = False
        # Refill a freed MSHR entry in the same event window, before the SM
        # re-evaluates -- a per-cycle DMA engine would have claimed the slot
        # before the issue stage saw it.
        l1.resource_freed_hooks.insert(0, self._refill_hook)
        # statistics
        self.lines_loaded = self.stat_counter("lines_loaded")
        self.lines_stored = self.stat_counter("lines_stored")
        self.mshr_stall_cycles = self.stat_counter("mshr_stall_cycles")

    # ------------------------------------------------------------------
    def start(self, transfer: DmaTransfer) -> None:
        self._transfers.append(transfer)
        if transfer.to_scratch:
            self.inbound += 1
        self._schedule_pump()

    def load_in_progress(self) -> bool:
        """Any inbound (global -> scratch) transfer still incomplete?

        Scratchpad accesses block on this at core granularity (the LSU
        reads the equivalent count :attr:`inbound`).
        """
        return any(t.to_scratch and not t.done() for t in self._transfers)

    def any_in_progress(self) -> bool:
        return any(not t.done() for t in self._transfers)

    def covers(self, scratch_addr: int) -> bool:
        """Is ``scratch_addr`` inside a still-pending inbound transfer?"""
        for t in self._transfers:
            if t.to_scratch and not t.done():
                if t.scratch_base <= scratch_addr < t.scratch_base + t.size:
                    return True
        return False

    def _refill_hook(self) -> None:
        for t in self._transfers:
            if t.to_scratch and not t.issued_all:
                self._pump()
                return

    # ------------------------------------------------------------------
    def _schedule_pump(self) -> None:
        if self._pump_scheduled:
            return
        self._pump_scheduled = True
        self.engine.schedule(self._interval, self._pump)

    def _pump(self) -> None:
        # The throttled poll is the hottest event of the implicit workloads.
        # It stays one event per retry (the event count is part of every
        # result), so each call must be cheap.
        self._pump_scheduled = False
        for transfer in self._transfers:
            if not transfer.issued_all:
                break
        else:
            return
        offset = transfer.next_offset
        gline = (transfer.global_base + offset) >> self._line_shift
        entries = self._mshr_entries
        if (
            transfer.to_scratch
            and len(entries) >= self._mshr_capacity
            and gline not in entries
        ):
            # Throttled by MSHR capacity: retry next cycle.  This is the
            # mechanism that converts a small MSHR into "full MSHR" stalls
            # for the whole core under scratchpad+DMA.
            self.mshr_stall_cycles.value += 1
            self._pump_scheduled = True
            self.engine.schedule(self._interval, self._pump)
            return
        transfer.outstanding += 1
        transfer.next_offset = offset + self.config.line_size
        if transfer.next_offset >= transfer.size:
            transfer.issued_all = True
        if transfer.to_scratch:
            self.l1.load_line(
                gline,
                lambda loc, rid, t=transfer, off=offset: self._load_done(t, off),
                bypass_l1=True,
            )
        else:
            self._issue_store(transfer, offset, gline)
        if any(not t.issued_all for t in self._transfers):
            self._schedule_pump()

    def _load_done(self, transfer: DmaTransfer, offset: int) -> None:
        # Functional copy: move one line of words global -> scratchpad.
        delta = transfer.global_base - transfer.scratch_base
        base = transfer.scratch_base + offset
        addrs = range(base, base + min(self.config.line_size, transfer.size - offset), 4)
        self.scratchpad.store_words(
            addrs, self.l1.memory.load_words([a + delta for a in addrs])
        )
        self.lines_loaded.value += 1
        self._line_done(transfer)

    def _issue_store(self, transfer: DmaTransfer, offset: int, gline: int) -> None:
        # Functional copy scratch -> global at issue, then a write-through
        # message carries it to the L2 (DMA stores bypass the store buffer).
        delta = transfer.global_base - transfer.scratch_base
        base = transfer.scratch_base + offset
        addrs = range(base, base + min(self.config.line_size, transfer.size - offset), 4)
        self.l1.memory.store_words(
            [a + delta for a in addrs], self.scratchpad.load_words(addrs)
        )
        l1 = self.l1
        mesh = l1.mesh
        home = l1.home_nodes[gline % len(l1.home_nodes)]
        mesh.send(
            Message(
                MsgType.PUT_WT, l1.node, home, gline, mesh.next_request_id(),
                None, None, None, None, None, False, ("dma", id(transfer)),
            )
        )
        # The L2 acks to the L1 controller; we count completion optimistically
        # after the round trip by registering a waiter on the engine clock.
        rtt = 2 * mesh.hops(l1.node, home)
        delay = rtt * self.config.hop_latency + self._l2_latency + 2
        self.lines_stored.value += 1
        self.engine.schedule(delay, lambda t=transfer: self._line_done(t))

    def _line_done(self, transfer: DmaTransfer) -> None:
        transfer.outstanding -= 1
        if transfer.done():
            self._transfers.remove(transfer)
            if transfer.to_scratch:
                self.inbound -= 1
            if transfer.on_done is not None:
                transfer.on_done()
