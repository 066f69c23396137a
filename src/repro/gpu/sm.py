"""Streaming multiprocessor: the issue stage GSI instruments.

Each cycle the warp scheduler orders the resident warps and the issue stage
evaluates one instruction per warp, exactly as Chapter 2 describes ("the
issue stage of an SM may consider only one instruction from each warp at any
time").  The evaluation order *is* Algorithm 1 -- the first condition that
holds is the instruction's strong stall cause -- and the per-cycle cause is
chosen by Algorithm 2.

The issue stage dominates the pure-Python profile (the SM is ticked every
active cycle, and every tick walks every resident warp), so :meth:`SM.tick`
is one flattened loop:

* Algorithm 1 is inlined into the warp loop, with
  :meth:`Scoreboard.hazard` unrolled into a scan of the warp's pending
  writes, so a per-warp evaluation costs no function call;
* Algorithm 2 is a running minimum over the cycle ranks carried through
  the same loop.  :func:`repro.core.classifier.classify_cycle_with_detail`
  keeps the first strictly lower rank of its ``causes`` list, which is
  what a strict-``<`` running minimum over the same visit order computes.
  The ablation policies (``strong``/``first``) collect the per-warp causes
  and call their classifier instead;
* :meth:`SmAttribution.record` is inlined at its two call sites (the
  per-cycle record and the bulk sleep-gap record in :meth:`SM.wake`) when
  no trace tap and no timeline is installed: it is then a breakdown
  counter bump plus the pending/resolved memory-tag split.  With a tap or
  a timeline, ``record`` is called as is.

Sleep/wake: when nothing issued and every warp is blocked on a future event,
the SM deactivates and attributes the skipped cycles in bulk to the cause it
went to sleep with (the cause cannot change while no state changes).  This
keeps Python simulation time proportional to events, not cycles, without
altering the attribution.  The digest corpus in ``tests/core_digests.json``
pins the tick's behaviour scenario by scenario.
"""

from __future__ import annotations

import random
from collections import deque
from typing import TYPE_CHECKING, Callable, Iterator

from repro.core.attribution import SmAttribution
from repro.core.component import Component
from repro.core.classifier import (
    _CYCLE_RANK,
    classify_cycle_first,
    classify_cycle_strong,
)
from repro.core.stall_types import MemStructCause, ServiceLocation, StallType
from repro.gpu.compute_unit import ComputeUnits
from repro.gpu.instruction import Instruction, MapMode, Op, Space
from repro.gpu.kernel import Kernel, ThreadBlock, WarpContext
from repro.gpu.lsu import AccessGroup, Lsu
from repro.gpu.scheduler import make_scheduler
from repro.gpu.scoreboard import ProducerKind
from repro.gpu.warp import Warp
from repro.mem.l1 import L1Controller
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.dma import DmaEngine
    from repro.mem.main_memory import GlobalMemory
    from repro.mem.scratchpad import Scratchpad
    from repro.mem.stash import Stash

_CONTROL = StallType.CONTROL
_MEM_DATA = StallType.MEM_DATA
_COMP_DATA = StallType.COMP_DATA
_SYNC = StallType.SYNC
_MEM_STRUCT = StallType.MEM_STRUCT
_COMP_STRUCT = StallType.COMP_STRUCT
_NO_STALL = StallType.NO_STALL
_IDLE = StallType.IDLE
_MEMORY = ProducerKind.MEMORY
_COMPUTE = ProducerKind.COMPUTE
_SFU = Op.SFU
_LOAD = Op.LOAD
_STORE = Op.STORE
_ATOMIC = Op.ATOMIC

# The tick assigns each cause's Algorithm-2 rank as a literal at the branch
# that classified it, instead of a dict lookup per warp.  The priority
# order is a module constant of stall_types; this guard keeps a future
# reordering from silently desynchronizing the literals.
assert _CYCLE_RANK == {
    _NO_STALL: 0,
    _MEM_STRUCT: 1,
    _MEM_DATA: 2,
    _SYNC: 3,
    _COMP_STRUCT: 4,
    _COMP_DATA: 5,
    _CONTROL: 6,
    _IDLE: 7,
}

class SM(Component):
    """One streaming multiprocessor."""

    def __init__(
        self,
        sm_id: int,
        node: int,
        config: SystemConfig,
        engine: Engine,
        l1: L1Controller,
        memory: "GlobalMemory",
        attribution: SmAttribution | None,
        scratchpad: "Scratchpad | None" = None,
        dma: "DmaEngine | None" = None,
        stash: "Stash | None" = None,
        *,
        tags: Iterator[int],
    ) -> None:
        Component.__init__(self, "sm%d" % sm_id)
        #: access-group tags, from the one counter the System shares among
        #: its SMs (a fresh System starts at 1)
        self._next_tag = tags.__next__
        self.sm_id = sm_id
        self.node = node
        self.config = config
        self.engine = engine
        self.l1 = self.add_child(l1)
        self.memory = memory
        self.attr = attribution
        self.scratchpad = scratchpad
        self.dma = dma
        self.stash = stash
        if scratchpad is not None:
            self.add_child(scratchpad)
        if dma is not None:
            self.add_child(dma)
        if stash is not None:
            self.add_child(stash)
        self.cu = ComputeUnits(config)
        self.add_child(self.cu)
        self.lsu = Lsu(config, l1, scratchpad=scratchpad, dma=dma, stash=stash)
        self.add_child(self.lsu)
        # Re-evaluate whenever an MSHR entry or store-buffer slot frees:
        # a warp sleeping on a structural stall may now be issuable.
        l1.resource_freed_hooks.append(self.wake)
        #: in-flight oversized-gather waves (SM._issue_global_load); fed on
        #: every resource free so a competing consumer (the DMA refill
        #: hook runs first, at index 0) cannot strand a wave whose own
        #: completions found the MSHR stolen.
        self._gather_waves: list[Callable[[], None]] = []
        l1.resource_freed_hooks.append(self._feed_gather_waves)
        self.scheduler = make_scheduler(config.warp_scheduler)
        #: Algorithm 2 (the paper's choice) vs an ablation policy
        self._weak_policy = config.attribution_policy == "weak"
        self._issue_width = config.issue_width
        self.warps: list[Warp] = []
        #: unfinished warps in ``warps`` order, maintained incrementally so
        #: the per-cycle issue loop never rebuilds it.
        self._active_warps: list[Warp] = []
        self.kernel: Kernel | None = None
        self.on_tb_complete: Callable[["SM", int], None] | None = None
        self._barriers: dict[int, set[int]] = {}
        self._active_releases = 0
        # sleep bookkeeping
        self.tid = engine.register(self)
        self.sleeping = False
        self._sleep_cause: tuple[StallType, object] = (StallType.IDLE, None)
        self._sleep_from = 0
        # statistics: bumped every cycle, so kept as plain ints and
        # surfaced through zero-overhead derived stats.
        self.instructions_issued = 0
        self.cycles_ticked = 0
        self.stat_derived("instructions_issued", lambda: self.instructions_issued)
        self.stat_derived("cycles_ticked", lambda: self.cycles_ticked)
        #: issue dispatch by opcode; bound once so the per-issue path is a
        #: single dict lookup instead of an if/elif chain over ``Op``.
        self._issue_table: dict[Op, Callable[[Warp, Instruction, int], None]] = {
            Op.ALU: self._issue_compute,
            Op.SFU: self._issue_compute,
            Op.LOAD: self._issue_load,
            Op.STORE: self._issue_store,
            Op.ATOMIC: self._issue_atomic,
            Op.BARRIER: self._issue_barrier,
            Op.MAP: self._issue_map,
            Op.NOP: self._issue_nop,
        }

    def on_reset_stats(self) -> None:
        self.instructions_issued = 0
        self.cycles_ticked = 0

    # ==================================================================
    # Thread-block lifecycle
    # ==================================================================
    def begin_idle(self) -> None:
        """Park the SM as idle-from-now; run_kernel calls this at launch so
        SMs that never receive a thread block still attribute idle cycles."""
        self.sleeping = True
        self._sleep_cause = (StallType.IDLE, None)
        self._sleep_from = self.engine.now

    def assign_thread_block(self, tb: ThreadBlock, kernel: Kernel) -> None:
        self.kernel = kernel
        for idx, factory in enumerate(tb.programs):
            ctx = WarpContext(
                sm_id=self.sm_id,
                tb_id=tb.tb_id,
                warp_id=tb.tb_id * 1000 + idx,
                warp_index=idx,
                num_warps_in_tb=tb.num_warps,
                rng=random.Random(
                    (self.config.seed << 20) ^ (tb.tb_id << 8) ^ idx
                ),
                memory=self.memory,
            )
            warp = Warp(ctx, factory(ctx))
            warp.prime()
            self.warps.append(warp)
            if warp.finished:
                self._on_warp_finished(warp)
            else:
                self._active_warps.append(warp)
        self.wake()
        if not self.engine.is_active(self.tid):
            self.engine.activate(self.tid)

    def resident_warp_count(self) -> int:
        return len(self.warps)

    # ==================================================================
    # Per-cycle issue stage
    # ==================================================================
    def tick(self) -> None:  # noqa: C901 (deliberately flattened hot loop)
        now = self.engine.now
        self.cycles_ticked += 1
        active = self._active_warps
        issued = 0
        best_cause = None
        best_detail = None
        best_rank = 99
        # The ablation policies classify the cycle from every warp's cause;
        # Algorithm 2 needs only the running minimum below.
        causes = None if self._weak_policy else []
        if active:
            sched = self.scheduler
            # The order is a snapshot: an issue can retire warps (barrier
            # release) and mutate ``_active_warps``.  No per-tick hoisting
            # of lsu/cu/issue table: most warp evaluations stop at the
            # fetch/waiting checks, so eager hoists cost more than the
            # occasional double lookup.
            for warp in sched.order(active, now):
                # --- Algorithm 1, inlined ------------------------------
                detail = None
                if now < warp.fetch_ready_at:
                    cause = _CONTROL
                    rank = 6
                elif warp.waiting_value:
                    vp = warp.value_producer
                    if vp is None:
                        cause = _SYNC
                        rank = 3
                    elif vp[0] == "mem":
                        cause = _MEM_DATA
                        detail = vp[1]
                        rank = 2
                    elif vp[0] == "compute":
                        cause = _COMP_DATA
                        rank = 5
                    else:
                        cause = _SYNC
                        rank = 3
                elif warp.at_barrier:
                    cause = _SYNC
                    rank = 3
                else:
                    instr = warp.current
                    if instr is None:
                        cause = _CONTROL
                        rank = 6
                    else:
                        # Scoreboard.hazard, inlined: first blocking
                        # producer; memory wins and short-circuits, ready
                        # compute results retire lazily (the same mutations
                        # in the same visit order as the method).
                        hazard = None
                        pending = warp.sb_pending
                        if pending:
                            for reg in instr.srcs:
                                entry = pending.get(reg)
                                if entry is None:
                                    continue
                                if entry[0] is _COMPUTE:
                                    if entry[1] <= now:
                                        del pending[reg]
                                        continue
                                    if hazard is None:
                                        hazard = entry
                                else:
                                    hazard = entry
                                    break
                        if hazard is not None and hazard[0] is _MEMORY:
                            cause = _MEM_DATA
                            detail = hazard[1]
                            rank = 2
                        else:
                            op = instr.op
                            struct = (
                                self.lsu.check(instr, now)
                                if op is _LOAD or op is _STORE or op is _ATOMIC
                                else None
                            )
                            if struct is not None:
                                cause = _MEM_STRUCT
                                detail = struct
                                rank = 1
                            elif hazard is not None:
                                cause = _COMP_DATA
                                rank = 5
                            elif op is _SFU and now < self.cu._sfu_free_at:
                                self.cu.note_sfu_rejection()
                                cause = _COMP_STRUCT
                                rank = 4
                            else:
                                cause = _NO_STALL
                                rank = 0
                                if issued < self._issue_width:
                                    warp.fetch_ready_at = (
                                        now + 1 + instr.fetch_delay
                                    )
                                    self._issue_table[op](warp, instr, now)
                                    sched.note_issue(warp, 0, now)
                                    warp.instructions_issued += 1
                                    warp.last_issue = now
                                    self.instructions_issued += 1
                                    issued += 1
                # --- Algorithm 2 as a running first-minimum ------------
                if rank < best_rank:
                    best_rank = rank
                    best_cause = cause
                    best_detail = detail
                if causes is not None:
                    causes.append((cause, detail))
        if causes is not None:
            types = [c for c, _ in causes]
            if self.config.attribution_policy == "strong":
                best_cause = classify_cycle_strong(types)
            else:
                best_cause = classify_cycle_first(types)
            best_detail = next((d for c, d in causes if c is best_cause), None)
        elif best_cause is None:
            best_cause = _IDLE
        attr = self.attr
        if attr is not None:
            if attr.tap is None and attr.timeline is None:
                # --- SmAttribution.record(cause, detail, 1), inlined ---
                bd = attr.breakdown
                bd.counts[best_cause] += 1
                if best_cause is _MEM_DATA and best_detail is not None:
                    loc = attr._resolved.get(best_detail)
                    if loc is not None:
                        bd.mem_data[loc] += 1
                    else:
                        pm = attr._pending_mem
                        pm[best_detail] = pm.get(best_detail, 0) + 1
                elif best_cause is _MEM_STRUCT and isinstance(
                    best_detail, MemStructCause
                ):
                    bd.mem_struct[best_detail] += 1
            else:
                attr.record(best_cause, best_detail, 1, at=now)
        if issued == 0:
            # --- sleep until the earliest future wake-up ---------------
            mn = 0
            for w in active:
                fra = w.fetch_ready_at
                if now < fra and (mn == 0 or fra < mn):
                    mn = fra
                if w.waiting_value:
                    vp = w.value_producer
                    if vp is not None and vp[0] == "compute":
                        t = int(vp[1])
                        if mn == 0 or t < mn:
                            mn = t
                # Scoreboard.next_compute_ready, unrolled (the pending
                # dict is empty for most warps most of the time).
                pending = w.sb_pending
                if pending:
                    for kind, d in pending.values():
                        if kind is _COMPUTE and d > now and (mn == 0 or d < mn):
                            mn = d
            t = self.lsu.busy_until
            if t > now and (mn == 0 or t < mn):
                mn = t
            t = self.cu._sfu_free_at
            if t > now and (mn == 0 or t < mn):
                mn = t
            self.sleeping = True
            self._sleep_cause = (best_cause, best_detail)
            self._sleep_from = now + 1
            engine = self.engine
            engine.deactivate(self.tid)
            if mn:
                delay = mn - now
                engine.schedule(delay if delay > 0 else 1, self.wake)

    def _release_complete(self) -> None:
        self._active_releases -= 1
        if self._active_releases <= 0:
            self._active_releases = 0
            self.lsu.end_release()
        if self.sleeping:
            self.wake()

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------
    def _issue_nop(self, warp: Warp, instr: Instruction, now: int) -> None:
        self._advance(warp, None)

    def _issue_compute(self, warp: Warp, instr: Instruction, now: int) -> None:
        if instr.op is Op.SFU:
            ready = self.cu.issue_sfu(now)
        else:
            ready = self.cu.issue_alu(now, instr.latency)
        if instr.returns_value:
            warp.waiting_value = True
            warp.value_producer = ("compute", ready)
            self.engine.schedule(ready - now, lambda: self._compute_value_done(warp))
            return
        if instr.dst is not None:
            warp.scoreboard.set_compute(instr.dst, ready)
        self._advance(warp, None)

    def _compute_value_done(self, warp: Warp) -> None:
        if self.sleeping:
            self.wake()
        self._advance(warp, 0)

    # -- loads -------------------------------------------------------------
    def _issue_load(self, warp: Warp, instr: Instruction, now: int) -> None:
        if instr.space is Space.GLOBAL:
            self._issue_global_load(warp, instr, now)
        elif instr.space is Space.SCRATCH:
            assert self.scratchpad is not None, "scratch load without a scratchpad"
            self._issue_local_load(warp, instr, now, self.scratchpad)
        else:
            self._issue_stash_load(warp, instr, now)

    def _issue_global_load(self, warp: Warp, instr: Instruction, now: int) -> None:
        lines, degree = self.lsu.coalesced(instr)
        self.lsu.occupy(now, degree - 1)
        group = AccessGroup(tag=self._next_tag(), remaining=len(lines))
        sink = self.lsu.trace_sink
        if sink is not None:
            sink.load(now, warp.ctx.warp_id, group.tag, lines)
        self._await_memory(warp, instr, group.tag)
        if len(lines) <= self.l1.mshr.capacity:
            for line in lines:
                self.l1.load_line(
                    line,
                    lambda loc, _rid, g=group, w=warp, i=instr: self._group_line_done(
                        w, i, g, loc
                    ),
                )
            return
        # Oversized gather: more distinct lines than the MSHR holds (the
        # LSU admitted it against an idle MSHR).  Issue in waves -- each
        # completion frees our own entry, so the next pending line usually
        # goes out inside that completion event.  The wave also registers
        # with the resource-freed feeder: the DMA refill hook (hooked in at
        # index 0) may steal the freed slot, and without the feeder a wave
        # whose last in-flight line completed that way would never restart.
        pending = deque(lines)

        def issue_wave() -> None:
            while pending and (
                self.l1.cache.contains(pending[0])
                or self.l1.mshr_can_allocate(pending[0])
            ):
                self.l1.load_line(pending.popleft(), on_line)
            if not pending and issue_wave in self._gather_waves:
                self._gather_waves.remove(issue_wave)

        def on_line(loc, _rid, g=group, w=warp, i=instr) -> None:
            issue_wave()
            self._group_line_done(w, i, g, loc)

        self._gather_waves.append(issue_wave)
        issue_wave()

    def _feed_gather_waves(self) -> None:
        """Resource-freed hook: push any stranded oversized-gather waves
        forward (each wave unregisters itself once fully issued)."""
        for wave in self._gather_waves[:]:
            wave()

    def _group_line_done(
        self, warp: Warp, instr: Instruction, group: AccessGroup, loc: ServiceLocation
    ) -> None:
        if not group.line_done(loc):
            return
        sink = self.lsu.trace_sink
        if sink is not None:
            # Scope everything this completion triggers (dependence front,
            # possibly the end-of-kernel teardown) to the group's tag.
            sink.enter_completion(group.tag, warp.ctx.warp_id)
        if self.sleeping:
            self.wake()
        final = group.final_loc or loc
        if self.attr is not None:
            self.attr.resolve_mem(group.tag, final)
        warp.scoreboard.clear_memory_tag(group.tag)
        if (
            warp.waiting_value
            and warp.value_producer is not None
            and warp.value_producer == ("mem", group.tag)
        ):
            value = self._read_value(instr)
            self._advance(warp, value)
        if sink is not None:
            sink.exit_completion()

    def _read_value(self, instr: Instruction) -> int:
        addr = instr.value_addr if instr.value_addr is not None else instr.addrs[0]
        if instr.space is Space.GLOBAL:
            return self.memory.load_word(addr)
        if instr.space is Space.SCRATCH:
            assert self.scratchpad is not None
            return self.scratchpad.load_word(addr)
        assert self.stash is not None
        return self.stash.storage.load_word(addr)

    def _issue_local_load(
        self, warp: Warp, instr: Instruction, now: int, storage: "Scratchpad"
    ) -> None:
        """A load ``storage`` serves after its bank-conflict serialization."""
        cycles = storage.access_cycles(instr.addrs)
        self.lsu.occupy(now, cycles - 1)
        tag = self._next_tag()
        self._await_memory(warp, instr, tag)
        self.engine.schedule(cycles, lambda: self._local_load_done(warp, instr, tag))

    def _await_memory(self, warp: Warp, instr: Instruction, tag: int) -> None:
        """Make ``instr``'s register and value wait on memory tag ``tag``."""
        if instr.dst is not None:
            warp.scoreboard.set_memory(instr.dst, tag)
        if instr.returns_value:
            warp.waiting_value = True
            warp.value_producer = ("mem", tag)
        else:
            self._advance(warp, None)

    def _local_load_done(self, warp: Warp, instr: Instruction, tag: int) -> None:
        self.wake()
        if self.attr is not None:
            # Serviced locally: lands in the L1 bucket of the sub-taxonomy.
            self.attr.resolve_mem(tag, ServiceLocation.L1)
        warp.scoreboard.clear_memory_tag(tag)
        if warp.waiting_value and warp.value_producer == ("mem", tag):
            self._advance(warp, self._read_value(instr))

    def _issue_stash_load(self, warp: Warp, instr: Instruction, now: int) -> None:
        stash = self.stash
        assert stash is not None, "stash load without a stash"
        pairs = self.lsu.stash_lines(instr)
        if all(stash.is_present(a) for _, _, a in pairs):
            self._issue_local_load(warp, instr, now, stash.storage)
            return
        group = AccessGroup(tag=self._next_tag(), remaining=len(pairs))
        self._await_memory(warp, instr, group.tag)
        for _, _, addr in pairs:
            stash.access_load(
                addr,
                lambda loc, g=group, w=warp, i=instr: self._group_line_done(w, i, g, loc),
            )

    # -- stores ------------------------------------------------------------
    def _issue_store(self, warp: Warp, instr: Instruction, now: int) -> None:
        value = instr.store_value()
        if instr.space is Space.GLOBAL:
            if value is not None:
                self.memory.store_word(instr.addrs[0], value)
            lines, degree = self.lsu.coalesced(instr)
            self.lsu.occupy(now, degree - 1)
            sink = self.lsu.trace_sink
            if sink is not None:
                sink.store(now, warp.ctx.warp_id, lines)
            self.l1.store_lines(lines)
        elif instr.space is Space.SCRATCH:
            assert self.scratchpad is not None
            if value is not None:
                self.scratchpad.store_word(instr.addrs[0], value)
            cycles = self.scratchpad.access_cycles(instr.addrs)
            self.lsu.occupy(now, cycles - 1)
        else:
            self._issue_stash_store(warp, instr, now, value)
        self._advance(warp, None)

    def _issue_stash_store(
        self, warp: Warp, instr: Instruction, now: int, value: int | None
    ) -> None:
        stash = self.stash
        assert stash is not None
        if value is not None:
            stash.storage.store_word(instr.addrs[0], value)
        cycles = stash.storage.access_cycles(instr.addrs)
        self.lsu.occupy(now, cycles - 1)
        pairs = self.lsu.stash_lines(instr)
        # First dirtying of a line: DeNovo registration through the store
        # buffer (this is the stash's SB pressure).
        registrations = stash.registrations(pairs)
        for _, _, a in pairs:
            stash.access_store(a)
        for gline in registrations:
            self.l1.store_line(gline)

    # -- atomics -------------------------------------------------------------
    def _issue_atomic(self, warp: Warp, instr: Instruction, now: int) -> None:
        assert instr.atomic_fn is not None
        tag = self._next_tag()
        kind = "sync" if (instr.acquire or instr.release) else "mem"
        sink = self.lsu.trace_sink
        if sink is not None:
            sink.atomic(
                now, warp.ctx.warp_id, tag, instr.addrs[0],
                instr.acquire, instr.release,
            )
        if instr.returns_value:
            warp.waiting_value = True
            warp.value_producer = (kind, tag)

        # The L1's tuple lane: no per-atomic closure, _atomic_done is
        # called as on_done[0](warp, instr, tag, kind, value).
        on_done = (self._atomic_done, warp, instr, tag, kind)

        if instr.release:
            # Release ordering: prior buffered stores must be visible before
            # the release write performs.  The LSU blocks younger memory
            # instructions (PENDING_RELEASE) until all prior stores are
            # flushed (Section 4.4); the release write itself then departs.
            # DeNovo flushes are cheap -- stores to owned lines never entered
            # the buffer -- which is exactly its release advantage.
            self._active_releases += 1
            self.lsu.begin_release()

            def flush_done() -> None:
                self._release_complete()
                self.l1.atomic(instr.addrs[0], instr.atomic_fn, on_done)

            self.l1.flush_store_buffer(flush_done)
        else:
            self.l1.atomic(instr.addrs[0], instr.atomic_fn, on_done)
        if not instr.returns_value:
            self._advance(warp, None)

    def _atomic_done(
        self, warp: Warp, instr: Instruction, tag: int, kind: str, value: int
    ) -> None:
        sink = self.lsu.trace_sink
        if sink is not None:
            sink.enter_completion(tag, warp.ctx.warp_id)
        if self.sleeping:  # wake() guard, hoisted: most completions find
            self.wake()  # the SM already awake
        if kind == "mem" and self.attr is not None:
            self.attr.resolve_mem(tag, ServiceLocation.L2)
        if instr.acquire:
            self.l1.acquire_invalidate()
        if instr.returns_value:
            self._advance(warp, value)
        if sink is not None:
            sink.exit_completion()

    # -- barriers -------------------------------------------------------------
    def _issue_barrier(self, warp: Warp, instr: Instruction, now: int) -> None:
        warp.at_barrier = True
        tb = warp.ctx.tb_id
        arrived = self._barriers.setdefault(tb, set())
        arrived.add(warp.ctx.warp_id)
        self._check_barrier(tb)

    def _check_barrier(self, tb: int) -> None:
        arrived = self._barriers.get(tb)
        if arrived is None:
            return
        expected = {
            w.ctx.warp_id for w in self.warps if w.ctx.tb_id == tb and not w.finished
        }
        if expected and expected <= arrived:
            self._barriers[tb] = set()
            self.engine.schedule(1, lambda: self._release_barrier(tb))

    def _release_barrier(self, tb: int) -> None:
        self.wake()
        for w in list(self.warps):
            if w.ctx.tb_id == tb and w.at_barrier and not w.finished:
                w.at_barrier = False
                self._advance(w, None)

    # -- local-memory map / DMA ------------------------------------------------
    def _issue_map(self, warp: Warp, instr: Instruction, now: int) -> None:
        mode = instr.map_mode
        if mode is MapMode.STASH_MAP:
            assert self.stash is not None, "stash_map without a stash"
            self.stash.map_region(
                instr.map_scratch_base, instr.map_global_base, instr.map_size
            )
        elif mode is MapMode.DMA_TO_SCRATCH:
            assert self.dma is not None, "DMA map without a DMA engine"
            from repro.mem.dma import DmaTransfer

            self.dma.start(
                DmaTransfer(
                    global_base=instr.map_global_base,
                    scratch_base=instr.map_scratch_base,
                    size=instr.map_size,
                    to_scratch=True,
                    on_done=self.wake,
                )
            )
        elif mode is MapMode.DMA_TO_GLOBAL:
            assert self.dma is not None, "DMA map without a DMA engine"
            from repro.mem.dma import DmaTransfer

            self.dma.start(
                DmaTransfer(
                    global_base=instr.map_global_base,
                    scratch_base=instr.map_scratch_base,
                    size=instr.map_size,
                    to_scratch=False,
                    on_done=self.wake,
                )
            )
        else:  # pragma: no cover - exhaustive
            raise ValueError("MAP instruction without a mode")
        self._advance(warp, None)

    # ==================================================================
    # Program advancement & completion
    # ==================================================================
    def _advance(self, warp: Warp, value: int | None) -> None:
        # Warp.advance + Warp._advance_program, inlined: every issued
        # instruction resumes its program through here, and the two extra
        # call frames are pure overhead.  The Warp methods remain the
        # canonical implementation for direct callers.
        warp.waiting_value = False
        warp.value_producer = None
        try:
            warp.current = warp.program.send(value)
        except StopIteration:
            warp.current = None
            warp.finished = True
            self._on_warp_finished(warp)

    def _on_warp_finished(self, warp: Warp) -> None:
        try:
            self._active_warps.remove(warp)
        except ValueError:
            pass  # finished during priming, before it ever became active
        if self.kernel is not None and self.kernel.on_warp_finish is not None:
            self.kernel.on_warp_finish(self, warp.ctx)
        tb = warp.ctx.tb_id
        self._check_barrier(tb)
        mates = [w for w in self.warps if w.ctx.tb_id == tb]
        if all(w.finished for w in mates):
            self.warps = [w for w in self.warps if w.ctx.tb_id != tb]
            self._barriers.pop(tb, None)
            if self.on_tb_complete is not None:
                self.on_tb_complete(self, tb)

    # ==================================================================
    # Sleep / wake
    # ==================================================================
    def wake(self) -> None:
        """Reactivate; bulk-attribute the slept cycles to the sleep cause."""
        if not self.sleeping:
            return
        engine = self.engine
        gap = engine.now - self._sleep_from
        if gap > 0:
            attr = self.attr
            if attr is not None:
                cause, detail = self._sleep_cause
                if attr.tap is None and attr.timeline is None:
                    # SmAttribution.record(cause, detail, gap), inlined.
                    bd = attr.breakdown
                    bd.counts[cause] += gap
                    if cause is _MEM_DATA and detail is not None:
                        loc = attr._resolved.get(detail)
                        if loc is not None:
                            bd.mem_data[loc] += gap
                        else:
                            pm = attr._pending_mem
                            pm[detail] = pm.get(detail, 0) + gap
                    elif cause is _MEM_STRUCT and isinstance(
                        detail, MemStructCause
                    ):
                        bd.mem_struct[detail] += gap
                else:
                    attr.record(cause, detail, gap, at=self._sleep_from)
        self.sleeping = False
        engine.activate(self.tid)

    def finalize(self, end_cycle: int) -> None:
        """Account for a sleep period still open when the run ended."""
        if self.sleeping:
            gap = end_cycle - self._sleep_from
            if gap > 0 and self.attr is not None:
                cause, detail = self._sleep_cause
                self.attr.record(cause, detail, gap, at=self._sleep_from)
            self.sleeping = False
