"""Trace replay: re-inject a recorded memory reference stream into the full
memory hierarchy without running the GPU compute frontend.

The replayer builds the same :class:`~repro.system.System` (mesh, banked
L2, DRAM, per-SM L1/MSHR/store buffer, coherence protocol) and replaces the
issue stages with one :class:`_SmInjector` per SM -- a tickable that sleeps
between events and injects each recorded operation **at its recorded cycle,
in the tick phase, in SM order**, which is exactly where the execution-driven
issue stage made the same calls.  Completion-side effects that execution
performed inside memory-event callbacks (the release-flush -> atomic send
chain, acquire self-invalidation on atomic completion, the end-of-kernel
teardown trigger) are reproduced through the same callbacks, so the global
event order -- and with it every mesh/L2/DRAM arbitration decision -- is
identical under the recorded configuration.  That is what makes replayed
memory-side statistics *exactly* equal to the execution-driven run's.

Replay is fabric-agnostic: the system is elaborated from whatever
memory-hierarchy spec the (possibly overridden) configuration carries, and
each SM stream is injected at the *first level of that fabric* -- the same
``load_line``/``store_line``/``atomic`` boundary the LSU uses -- so a
recorded trace can be replayed onto a shared-L3, private-L2 or L1-bypass
machine (``hierarchy`` is just another override).

Under a perturbed configuration (an MSHR/store-buffer/protocol/mesh/
hierarchy sweep over one trace) the injectors become elastic: each stream stays in issue
order, an operation never injects before its recorded cycle, structural
back-pressure (MSHR/store-buffer full, matching the LSU's admission rules)
delays it past that cycle, release semantics gate younger operations on the
flush, and the recorded per-warp dependence tags gate operations on the
completion of the group the warp last waited for.  Timing is then an
approximation (the trace's issue cycles embed the recorded configuration's
latencies), which is the standard trace-driven trade-off; the memory-system
behaviour itself (hits, misses, merges, occupancy, contention) is simulated
for real.

Memory stall attribution on replay: the trace carries the per-SM MEM_DATA /
MEM_STRUCT spans, with MEM_DATA spans referencing the blocking access
group's tag.  Service locations are *not* copied from the recording -- each
tag is resolved to wherever the replayed hierarchy actually serviced it, so
the mem-data sub-taxonomy (L1 / coalescing / L2 / remote-L1 / memory)
remains live.
"""

from __future__ import annotations

from collections import deque

from repro.core.breakdown import StallBreakdown
from repro.core.stall_types import MEM_STRUCT_ORDER, ServiceLocation, StallType
from repro.gpu.lsu import AccessGroup
from repro.sim.config import LocalMemory, SystemConfig
from repro.trace.format import (
    FLAG_ACQUIRE,
    FLAG_RELEASE,
    KIND_ATOMIC,
    KIND_LOAD,
    PHASE_TICK,
    SPAN_MEM_DATA,
    Trace,
)


#: ``TraceReplayer.resolved`` stores a service location as its index in
#: ``_LOCS``: a dict of ints is invisible to the garbage collector, which
#: would otherwise walk every resolved tag of the run on each collection.
_LOCS = tuple(ServiceLocation)
_LOC_INDEX = {loc: i for i, loc in enumerate(_LOCS)}
_L2 = _LOC_INDEX[ServiceLocation.L2]


def _noop_rmw(value: int) -> "tuple[int, int]":
    """Timing-neutral atomic function: values never influence memory-system
    timing, so replayed atomics read-modify-write the old value back."""
    return value, value


def _fast_atomic_done(rep, l1, tag: int, acquire: int, _value: int) -> None:
    """Completion of a plain (non-release) replayed atomic, called through
    the L1's tuple lane.  Mirrors SM._atomic_done order: resolve, acquire
    self-invalidation, then completion triggers."""
    rep.resolved[tag] = _L2
    dep_waiters = rep.dep_waiters
    if dep_waiters:
        waiters = dep_waiters.pop(tag, None)
        if waiters:
            for inj in waiters:
                inj.wake()
    if acquire:
        l1.acquire_invalidate()
    if tag == rep.teardown_trigger:
        rep.teardown_trigger = None
        rep.request_teardown()


class _SmInjector:
    """Replay frontend for one SM: a tickable that walks the recorded flat
    event stream and feeds it into the SM's L1 controller."""

    __slots__ = (
        "rep", "engine", "index", "sm", "l1", "events", "p", "line_i", "group",
        "tid", "done", "drained", "release_pending", "teardown_cycle",
        "blocked_cycles", "injected",
    )

    def __init__(self, rep: "TraceReplayer", index: int, events: list) -> None:
        self.rep = rep
        self.engine = rep.engine
        self.index = index
        self.sm = rep.system.sms[index]
        self.l1 = self.sm.l1
        #: flat event stream (see repro.trace.format); ``p`` is the walk
        #: position, always at an event boundary.
        self.events = events
        self.p = 0
        self.line_i = 0
        self.group: AccessGroup | None = None
        self.tid = rep.engine.register(self)
        self.done = False
        self.drained = False
        self.release_pending = False
        #: recorded teardown cycle when this injector owns the tick-phase
        #: teardown (always the last injector); None otherwise.
        self.teardown_cycle: int | None = None
        self.blocked_cycles = {"mshr_full": 0, "store_buffer_full": 0}
        self.injected = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.events:
            self.rep.engine.schedule_at(self.events[0], self.wake)
        elif self.teardown_cycle is not None:
            self._mark_drained()
            self.rep.engine.schedule_at(self.teardown_cycle, self.wake)
        else:
            self._mark_drained()
            self.done = True

    def wake(self) -> None:
        if not self.done:
            self.engine.activate(self.tid)

    def _sleep(self) -> None:
        self.engine.deactivate(self.tid)

    # ------------------------------------------------------------------
    def tick(self) -> None:
        rep = self.rep
        engine = self.engine
        now = engine.now
        flat = self.events
        resolved = rep.resolved
        n = len(flat)
        p = self.p
        while p < n:
            cycle = flat[p]
            if cycle > now:
                self.p = p
                # A one-cycle gap ticks through; longer gaps sleep (the
                # wake round trip costs about one tick).
                if cycle - now > 1:
                    engine.deactivate(self.tid)
                    engine.schedule(cycle - now, self.wake)
                return
            kind = flat[p + 2]
            if kind == KIND_ATOMIC:
                # Hottest path (lock-based workloads are atomic-dominated);
                # atomics are exempt from the release gate (Lsu.check).
                dep = flat[p + 4]
                if dep and dep not in resolved:
                    self.p = p
                    rep.dep_waiters.setdefault(dep, []).append(self)
                    self._sleep()
                    return
                flags = flat[p + 6]
                if flags & FLAG_RELEASE:
                    self._issue_release_atomic(flat[p + 3], flat[p + 5], flags)
                else:
                    # Plain RMWs and acquire-CAS lock spins: the dominant
                    # event of lock-based workloads, so they ride the L1's
                    # allocation-free tuple lane, with no closure per atomic.
                    l1 = self.l1
                    l1.atomic(
                        flat[p + 5], _noop_rmw,
                        (_fast_atomic_done, rep, l1, flat[p + 3], flags & FLAG_ACQUIRE),
                    )
                p += 7
            else:
                # Release semantics: a pending release flush blocks younger
                # memory operations, unless the S-FIFO extension is enabled
                # -- mirrors Lsu.check.
                if self.release_pending and not rep.config.sfifo_release:
                    self.p = p
                    self._sleep()  # the flush-completion callback wakes us
                    return
                if kind == KIND_LOAD:
                    dep = flat[p + 4]
                    if dep and dep not in resolved:
                        self.p = p
                        rep.dep_waiters.setdefault(dep, []).append(self)
                        self._sleep()
                        return
                    nlines = flat[p + 5]
                    if not self._issue_load(flat[p + 3], p + 6, nlines):
                        self.p = p
                        return  # structurally blocked: retry next cycle
                    p += 6 + nlines
                else:
                    nlines = flat[p + 3]
                    if not self._issue_store(p + 4, nlines):
                        self.p = p
                        return  # structurally blocked: retry next cycle
                    p += 4 + nlines
            self.injected += 1
        self.p = p
        # stream drained
        self._mark_drained()
        if self.teardown_cycle is not None:
            if now < self.teardown_cycle:
                self._sleep()
                engine.schedule(self.teardown_cycle - now, self.wake)
                return
            if not self.rep.all_drained():
                return  # perturbed timing: wait for the other streams
            self.teardown_cycle = None
            self.done = True
            self._sleep()
            self.rep.fire_teardown()
            return
        self.done = True
        self._sleep()

    def _mark_drained(self) -> None:
        if not self.drained:
            self.drained = True
            self.rep.on_injector_drained()

    # ------------------------------------------------------------------
    def _issue_load(self, tag: int, base: int, nlines: int) -> bool:
        l1 = self.l1
        cache = l1.cache
        mshr = l1.mshr
        flat = self.events
        group = self.group
        if group is None:
            group = self.group = AccessGroup(tag=tag, remaining=nlines)
        rep = self.rep

        def on_line(loc, _rid, g=group, t=tag):
            if g.line_done(loc):
                rep.resolve(t, g.final_loc or loc)

        li = self.line_i
        if li == 0 and nlines > mshr.capacity:
            # Oversized gather: execution admits it against an *idle* MSHR
            # and issues in waves, feeding the next line inside each
            # completion event (SM._issue_global_load); mirror both the
            # admission and the wave pacing or the replay drifts.
            need = sum(
                1
                for i in range(nlines)
                if not cache.contains(flat[base + i])
                and mshr.lookup(flat[base + i]) is None
            )
            if need > mshr.capacity:
                if mshr.occupancy > 0:
                    self.blocked_cycles["mshr_full"] += 1
                    return False
                pending = deque(flat[base + i] for i in range(nlines))

                def issue_wave() -> None:
                    while pending and (
                        cache.contains(pending[0])
                        or l1.mshr_can_allocate(pending[0])
                    ):
                        l1.load_line(pending.popleft(), on_wave_line)

                def on_wave_line(loc, _rid) -> None:
                    issue_wave()
                    on_line(loc, _rid)

                issue_wave()
                self.group = None
                return True
        while li < nlines:
            line = flat[base + li]
            if (
                mshr.lookup(line) is None
                and not cache.contains(line)
                and mshr.is_full()
            ):
                self.line_i = li
                self.blocked_cycles["mshr_full"] += 1
                return False
            li += 1
            l1.load_line(line, on_line)
        self.line_i = 0
        self.group = None
        return True

    def _issue_store(self, base: int, nlines: int) -> bool:
        l1 = self.l1
        flat = self.events
        li = self.line_i
        if li == 0 and nlines > l1.store_buffer.capacity:
            # Oversized burst: execution admits it whole against an idle
            # store path and drip-feeds the overflow on acks
            # (L1Controller.store_lines); mirror that admission exactly or
            # the replayed pacing drifts from the recording.
            lines = [flat[base + i] for i in range(nlines)]
            if not l1.can_accept_stores(lines):
                self.blocked_cycles["store_buffer_full"] += 1
                return False
            l1.store_lines(lines)
            return True
        while li < nlines:
            line = flat[base + li]
            if not l1.can_accept_store(line):
                self.line_i = li
                self.blocked_cycles["store_buffer_full"] += 1
                return False
            li += 1
            l1.store_line(line)
        self.line_i = 0
        return True

    def _issue_release_atomic(self, tag: int, word_addr: int, flags: int) -> None:
        rep = self.rep
        l1 = self.l1
        acquire = bool(flags & FLAG_ACQUIRE)

        def on_done(_value, t=tag, acq=acquire):
            # Mirrors SM._atomic_done: resolve, then the acquire
            # self-invalidation, then anything the completion triggers
            # (possibly the end-of-kernel teardown).
            rep.resolved[t] = _L2
            rep.wake_dep_waiters(t)
            if acq:
                l1.acquire_invalidate()
            rep.note_completion(t)

        # Mirrors SM._issue_atomic: the release write performs only after
        # every prior buffered store is visible; younger memory operations
        # of this stream are gated on the flush.
        self.release_pending = True

        def flush_done():
            self.release_pending = False
            self.wake()
            l1.atomic(word_addr, _noop_rmw, on_done)

        l1.flush_store_buffer(flush_done)


class TraceReplayer:
    """Replay ``trace`` on a fresh system; :meth:`run` returns a
    :class:`~repro.system.SimResult` whose memory-side statistics are
    exactly the execution-driven run's under the recorded configuration."""

    def __init__(
        self,
        trace: Trace,
        config: SystemConfig | None = None,
        overrides: dict | None = None,
    ) -> None:
        from repro.system import System  # deferred: system imports workloads

        self.trace = trace
        cfg = config if config is not None else trace.base_config()
        if overrides:
            try:
                cfg = cfg.scaled(**overrides)
            except TypeError as exc:
                raise ValueError("bad replay override: %s" % exc) from None
        if cfg.num_sms != trace.num_sms:
            raise ValueError(
                "trace has %d SM streams but the replay configuration has "
                "%d SMs; num_sms cannot be swept under replay"
                % (trace.num_sms, cfg.num_sms)
            )
        if cfg.local_memory is not LocalMemory.NONE:
            raise ValueError(
                "traces carry the global memory reference stream; replaying "
                "onto a local-memory configuration is not supported"
            )
        self.config = cfg
        self.system = System(cfg)
        self.engine = self.system.engine
        #: access-group tag -> where the replayed hierarchy serviced it
        #: (the location's index in ``_LOCS``)
        self.resolved: dict[int, int] = {}
        self.dep_waiters: dict[int, list] = {}
        self.teardown_trigger: int | None = None
        self._teardown_requested = False
        self._drained = 0
        self.teardown_approximated = False
        self.injectors: list[_SmInjector] = []

    # ------------------------------------------------------------------
    def run(self) -> "object":
        from repro.system import SimResult

        system = self.system
        trace = self.trace
        # Pre-run machine state, exactly as the execution-driven run saw it:
        # the workload's functional setup warmed the L2, and kernel launch
        # acted as an acquire on every GPU L1.
        if trace.warm_lines:
            system.l2.warm_lines(trace.warm_lines)
        for sm in system.sms:
            sm.l1.acquire_invalidate()

        # Injectors register after the SMs, so they tick in SM order.
        self.injectors = [
            _SmInjector(self, i, stream.events)
            for i, stream in enumerate(trace.sms)
        ]
        self._plan_teardown()
        for inj in self.injectors:
            inj.start()

        cycles = self.engine.run(self.config.max_cycles)

        stalled = [i for i, inj in enumerate(self.injectors) if not inj.drained]
        if stalled or not system._teardown_started:
            raise RuntimeError(
                "trace replay stalled: events ran out with SM stream(s) %s "
                "unfinished (teardown %s) -- corrupt trace or a replay "
                "configuration the stream cannot make progress under"
                % (stalled, "started" if system._teardown_started else "never started")
            )

        per_sm = self._build_breakdowns()
        breakdown = StallBreakdown.merged(per_sm)
        stats = system.collect_stats()
        stats["replay"] = self._replay_stats()
        return SimResult(
            workload=trace.workload,
            config=self.config,
            cycles=cycles,
            breakdown=breakdown,
            per_sm=per_sm,
            instructions=trace.instructions,
            stats=stats,
            stats_tree=system.stats(),
        )

    # ------------------------------------------------------------------
    def _plan_teardown(self) -> None:
        td = self.trace.teardown
        if td is None:
            # Degenerate trace: flush when every stream has drained.
            self._teardown_requested = True
            self.teardown_approximated = True
            return
        if td.get("phase") == PHASE_TICK:
            # Reproduced from the last injector's tick at the recorded
            # cycle: every recorded event (all of them at cycles <= the
            # teardown cycle) has been re-injected by then.
            self.injectors[-1].teardown_cycle = td["cycle"]
        elif td.get("trigger"):
            # The completion callback of this access group started the
            # teardown; fire from the same callback.
            self.teardown_trigger = td["trigger"]
        else:
            # Frontend-event trigger (no memory completion to anchor to):
            # fire at the head of the recorded cycle's event window.
            self.teardown_approximated = True
            self.engine.schedule_at(td["cycle"], self.request_teardown)

    def all_drained(self) -> bool:
        return self._drained == len(self.injectors)

    def on_injector_drained(self) -> None:
        self._drained += 1
        if self._teardown_requested and self.all_drained():
            self.fire_teardown()

    def request_teardown(self) -> None:
        if self.all_drained():
            self.fire_teardown()
        else:
            self._teardown_requested = True

    def fire_teardown(self) -> None:
        self.system._begin_teardown()

    # ------------------------------------------------------------------
    def resolve(self, tag: int, loc: ServiceLocation) -> None:
        """An access group completed; mirror of SM._group_line_done."""
        self.resolved[tag] = _LOC_INDEX[loc]
        self.wake_dep_waiters(tag)
        self.note_completion(tag)

    def wake_dep_waiters(self, tag: int) -> None:
        waiters = self.dep_waiters.pop(tag, None)
        if waiters:
            for inj in waiters:
                inj.wake()

    def note_completion(self, tag: int) -> None:
        if tag == self.teardown_trigger:
            self.teardown_trigger = None
            self.request_teardown()

    # ------------------------------------------------------------------
    def _build_breakdowns(self) -> list:
        """Per-SM breakdowns from the recorded memory stall spans, with
        MEM_DATA tags resolved against *this replay's* service locations.
        Tags that never resolved drain to main memory, exactly like the
        execution-side ``SmAttribution.finalize``."""
        resolved = self.resolved
        out = []
        for stream in self.trace.sms:
            bd = StallBreakdown()
            for n, code, detail in stream.spans:
                if code == SPAN_MEM_DATA:
                    bd.add(StallType.MEM_DATA, n)
                    if detail:
                        loc = resolved.get(detail)
                        bd.add_mem_data(
                            ServiceLocation.MEMORY if loc is None else _LOCS[loc], n
                        )
                else:
                    bd.add(StallType.MEM_STRUCT, n)
                    if 0 <= detail < len(MEM_STRUCT_ORDER):
                        bd.add_mem_struct(MEM_STRUCT_ORDER[detail], n)
            out.append(bd)
        return out

    def _replay_stats(self) -> dict:
        blocked: dict[str, int] = {"mshr_full": 0, "store_buffer_full": 0}
        for inj in self.injectors:
            for k, v in inj.blocked_cycles.items():
                blocked[k] += v
        return {
            "source_sha256": self.trace.sha256,
            "source_workload": self.trace.workload,
            "source_cycles": self.trace.cycles,
            "events_injected": sum(inj.injected for inj in self.injectors),
            "blocked_cycles": blocked,
            "teardown_approximated": self.teardown_approximated,
        }


def replay_trace(
    trace: Trace,
    config: SystemConfig | None = None,
    overrides: dict | None = None,
    telemetry=None,
):
    """One-call replay; see :class:`TraceReplayer`.

    ``telemetry`` optionally attaches a :class:`repro.obs.TelemetrySession`
    around the replay (stat sampling and heartbeats work as in live runs;
    stall-interval tracks stay empty because replay rebuilds breakdowns
    from the recorded spans rather than feeding the inspector).
    """
    replayer = TraceReplayer(trace, config=config, overrides=overrides)
    if telemetry is None:
        return replayer.run()
    from repro.obs import TelemetrySession

    if telemetry.label is None:
        telemetry.label = trace.workload
    session = TelemetrySession(telemetry, replayer.system)
    session.start()
    result = None
    try:
        result = replayer.run()
    finally:
        session.finalize(result)
    return result
