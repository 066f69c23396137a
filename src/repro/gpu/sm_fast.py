"""Fast-core SM front end.

The per-cycle issue stage dominates the pure-Python profile (the SM is
ticked every active cycle, and every tick walks every resident warp), so
the fast core replaces :meth:`SM.tick` with a flattened equivalent:

* the loose-round-robin rotation is inlined (one slice-concat snapshot
  instead of a scheduler call), and ``note_issue`` becomes a bare
  ``_start += 1``;
* Algorithm 1 (:meth:`SM._evaluate`) is inlined into the warp loop, so
  the per-warp evaluation costs no function call and builds no tuples
  for the common cases;
* Algorithm 2 (:func:`classify_cycle_with_detail`) becomes a running
  minimum over ``_CYCLE_RANK`` carried through the same loop -- the
  oracle scans its ``causes`` list front-to-back and keeps the first
  strictly-lower rank, which is exactly what a running strict-``<`` min
  over the same visit order computes;
* :meth:`SmAttribution.record` is inlined at its two call sites (the
  per-cycle record and the bulk sleep-gap record in :meth:`wake`): with
  no trace tap and no timeline installed, ``record`` reduces to a
  breakdown-counter bump plus the pending/resolved memory-tag split,
  all plain dict updates replicated here statement for statement;
* :meth:`SM._consider_sleep` is inlined, with
  :meth:`Scoreboard.next_compute_ready` unrolled into a direct scan of
  the pending-writes dict (empty for most warps most of the time).

None of this changes any observable ordering: the same warps are
evaluated in the same order with the same side effects (scoreboard lazy
retirement, LSU/SFU rejection counters), the same events are scheduled
in the same order, and the attribution sinks receive
the same totals.  When a trace tap or a timeline *is* installed,
``record`` calls are semantically visible per cycle (the trace stream
stores the spans themselves), so those paths call ``record`` exactly as
the oracle does; and when the attribution policy or warp scheduler is
anything but the paper default (weak policy + loose round-robin), the
whole tick delegates to the oracle implementation.
"""

from __future__ import annotations

from repro.core.classifier import _CYCLE_RANK
from repro.core.stall_types import MemStructCause, StallType
from repro.gpu.instruction import Op
from repro.gpu.scheduler import LooseRoundRobin
from repro.gpu.scoreboard import ProducerKind
from repro.gpu.sm import SM

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

# The flattened tick assigns each cause's Algorithm-2 rank as a literal at
# the branch that classified it, instead of a dict lookup per warp.  The
# priority order is a module constant of stall_types; this guard keeps a
# future reordering from silently desynchronizing the literals.
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


class FastSM(SM):
    """SM with a flattened issue stage and inlined attribution."""

    def __init__(self, *args, **kwargs) -> None:
        SM.__init__(self, *args, **kwargs)
        #: the inlined tick hard-codes Algorithm 2 and loose round-robin;
        #: any other configuration runs the oracle tick unchanged.
        self._fallback = (
            self.config.attribution_policy != "weak"
            or type(self.scheduler) is not LooseRoundRobin
        )

    # ------------------------------------------------------------------
    def tick(self) -> None:  # noqa: C901 (deliberately flattened hot loop)
        if self._fallback:
            SM.tick(self)
            return
        now = self.engine.now
        self.cycles_ticked += 1
        active = self._active_warps
        issued = 0
        best_cause = None
        best_detail = None
        best_rank = 99
        if active:
            sched = self.scheduler
            n = len(active)
            s = sched._start % n
            # Snapshot the rotation before issuing anything: an issue can
            # retire warps (barrier release) and mutate ``_active_warps``.
            order = active[s:] + active[:s] if s else active[:]
            # No per-tick hoisting of lsu/cu/issue table: most warp
            # evaluations stop at the fetch/waiting checks, so eager
            # hoists cost more than the occasional double lookup.
            for warp in order:
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
                        # compute results retire lazily (same mutations in
                        # the same visit order as the oracle method).
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
                                    # SM._issue, inlined (same dispatch
                                    # table, one attribute hop fewer).
                                    warp.fetch_ready_at = (
                                        now + 1 + instr.fetch_delay
                                    )
                                    self._issue_table[op](warp, instr, now)
                                    sched._start += 1  # LRR note_issue
                                    warp.instructions_issued += 1
                                    warp.last_issue = now
                                    self.instructions_issued += 1
                                    issued += 1
                # --- Algorithm 2 as a running first-minimum ------------
                if rank < best_rank:
                    best_rank = rank
                    best_cause = cause
                    best_detail = detail
        if best_cause is None:
            best_cause = _IDLE
            best_detail = None
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
            # --- SM._consider_sleep, inlined ---------------------------
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

    # ------------------------------------------------------------------
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
