"""Trace capture: hook the LSU->L1 boundary of every SM and write down the
memory reference stream.

The recorder attaches to a freshly built :class:`~repro.system.System`
*before* the kernel runs:

* each SM's :class:`~repro.gpu.lsu.Lsu` gets a per-SM sink
  (:class:`SmTraceSink`) that the issue stage notifies once per memory
  instruction (coalesced lines, access-group tag, acquire/release
  semantics) -- one predictable branch per *issued memory instruction*, so
  a non-recording run pays a single ``is None`` check;
* each SM's :class:`~repro.core.attribution.SmAttribution` gets a tap that
  copies the memory-side stall spans (MEM_DATA with the blocking group's
  tag, MEM_STRUCT with the LSU rejection cause) into the trace, which is
  what keeps the taxonomy attributable on replay;
* the L2's ``warm_tap`` captures pre-run ``warm_lines`` calls made by the
  workload's functional setup;
* ``System._begin_teardown`` reports the end-of-kernel flush point (cycle,
  engine phase, and -- when the trigger was a memory completion -- the
  access group whose completion callback started it), so the replayer can
  reproduce the teardown at the same position in the event order.

Scope (v1): the *global* memory reference stream.  Configurations using a
scratchpad/DMA/stash local memory interleave L1 traffic from engines the
replayer does not re-run, so recording them is refused loudly rather than
replayed approximately.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.stall_types import MEM_STRUCT_ORDER, MemStructCause, StallType
from repro.sim.config import LocalMemory
from repro.trace.format import (
    FLAG_ACQUIRE,
    FLAG_RELEASE,
    KIND_ATOMIC,
    KIND_LOAD,
    KIND_STORE,
    PHASE_EVENT,
    PHASE_TICK,
    SPAN_MEM_DATA,
    SPAN_MEM_STRUCT,
    SmStream,
    Trace,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import SimResult, System

_MEM_STRUCT_INDEX = {cause: i for i, cause in enumerate(MEM_STRUCT_ORDER)}

#: stats groups a replayed run reproduces (and the recorder snapshots for
#: ``repro trace replay --verify``); ``engine`` is excluded on purpose --
#: replay skips the compute frontend, so frontend event counts differ.
MEMORY_STAT_GROUPS = ("mesh", "l2", "dram", "l1", "scratchpad")


class SmTraceSink:
    """Per-SM capture point, installed as ``lsu.trace_sink``."""

    __slots__ = ("_recorder", "sm_id", "events", "spans", "_warp_dep")

    def __init__(self, recorder: "TraceRecorder", sm_id: int) -> None:
        self._recorder = recorder
        self.sm_id = sm_id
        self.events: list = []
        self.spans: list = []
        #: warp id -> tag of its most recently completed access group
        self._warp_dep: dict = {}

    # -- issue-side hooks (called from repro.gpu.sm at issue time) -------
    def load(self, cycle: int, warp_id: int, tag: int, lines: list) -> None:
        self.events.append(
            [cycle, warp_id, KIND_LOAD, tag, list(lines),
             self._warp_dep.get(warp_id, 0)]
        )

    def store(self, cycle: int, warp_id: int, lines: list) -> None:
        self.events.append([cycle, warp_id, KIND_STORE, list(lines)])

    def atomic(
        self,
        cycle: int,
        warp_id: int,
        tag: int,
        word_addr: int,
        acquire: bool,
        release: bool,
    ) -> None:
        flags = (FLAG_ACQUIRE if acquire else 0) | (FLAG_RELEASE if release else 0)
        self.events.append(
            [cycle, warp_id, KIND_ATOMIC, tag, word_addr, flags,
             self._warp_dep.get(warp_id, 0)]
        )

    # -- completion-side hooks ------------------------------------------
    def enter_completion(self, tag: int, warp_id: int) -> None:
        """A memory completion callback for ``tag`` is about to run.  Marks
        the warp's dependence front and scopes the teardown trigger."""
        self._warp_dep[warp_id] = tag
        self._recorder._completion_context = tag

    def exit_completion(self) -> None:
        self._recorder._completion_context = None

    # -- attribution tap (installed on SmAttribution.tap) ----------------
    def span(self, stall: StallType, detail, n: int, _at) -> None:
        if stall is StallType.MEM_DATA:
            # tag 0 = "no blocking group known": counted as a memory-data
            # stall but never sub-classified, matching the execution side.
            self.spans.append(
                (n, SPAN_MEM_DATA, int(detail) if detail is not None else 0)
            )
        elif stall is StallType.MEM_STRUCT:
            self.spans.append(
                (n, SPAN_MEM_STRUCT,
                 _MEM_STRUCT_INDEX[detail] if isinstance(detail, MemStructCause)
                 else -1)
            )


class TraceRecorder:
    """Record one run of ``system`` into a :class:`Trace`.

    Attach before running::

        system = System(config)
        recorder = TraceRecorder(system, workload_name="uts")
        result = system.run(workload)
        trace = recorder.finish(result)
    """

    def __init__(
        self,
        system: "System",
        workload_name: str = "unknown",
        workload_args: dict | None = None,
    ) -> None:
        config = system.config
        if config.local_memory is not LocalMemory.NONE:
            raise ValueError(
                "trace recording (v1) captures the global memory reference "
                "stream; local-memory configurations (%s) interleave DMA/stash "
                "traffic the replayer does not re-run -- record a "
                "local_memory='none' configuration instead"
                % config.local_memory.value
            )
        if system.recorder is not None:
            raise ValueError("system already has a recorder attached")
        self.system = system
        self.workload_name = workload_name
        self.workload_args = dict(workload_args or {})
        self.sinks = [SmTraceSink(self, sm.sm_id) for sm in system.sms]
        self.warm_lines: list = []
        self.teardown: dict | None = None
        self._completion_context: int | None = None
        # install the hooks
        system.recorder = self
        for sm, sink in zip(system.sms, self.sinks):
            sm.lsu.trace_sink = sink
            system.inspector.sm(sm.sm_id).tap = sink.span
        system.l2.warm_tap = self._on_warm

    # ------------------------------------------------------------------
    def _on_warm(self, lines) -> None:
        self.warm_lines.extend(lines)

    def on_teardown(self, cycle: int, in_event_phase: bool) -> None:
        """Called (once) by ``System._begin_teardown``."""
        trigger = self._completion_context if in_event_phase else None
        self.teardown = {
            "cycle": cycle,
            "phase": PHASE_EVENT if in_event_phase else PHASE_TICK,
            "trigger": trigger,
        }

    # ------------------------------------------------------------------
    def finish(self, result: "SimResult") -> Trace:
        """Detach and assemble the trace.

        Two normalizations happen here, both deterministic in
        (SM, issue-order) order:

        * access-group tags come from one counter the System shares among
          its SMs, numbered in the order the SMs issue; they are renumbered
          to a dense per-trace namespace (1, 2, ...) in (SM, issue) order,
          which is the numbering the trace bytes are defined by;
        * per-SM events are flattened into the file format's flat integer
          streams, and stall spans are aggregated into per-(kind, detail)
          totals.
        """
        system = self.system
        system.recorder = None
        system.l2.warm_tap = None
        for sm in system.sms:
            sm.lsu.trace_sink = None
            system.inspector.sm(sm.sm_id).tap = None

        mapping: dict = {}

        def norm(tag: int) -> int:
            mapped = mapping.get(tag)
            if mapped is None:
                mapped = mapping[tag] = len(mapping) + 1
            return mapped

        streams = []
        for sink in self.sinks:
            flat: list = []
            extend = flat.extend
            for ev in sink.events:
                kind = ev[2]
                if kind == KIND_LOAD:
                    # sink row: [cycle, warp, kind, tag, lines, dep]
                    lines = ev[4]
                    dep = ev[5]
                    extend((ev[0], ev[1], kind, norm(ev[3]),
                            norm(dep) if dep else 0, len(lines)))
                    extend(lines)
                elif kind == KIND_ATOMIC:
                    # sink row: [cycle, warp, kind, tag, word_addr, flags, dep]
                    dep = ev[6]
                    extend((ev[0], ev[1], kind, norm(ev[3]),
                            norm(dep) if dep else 0, ev[4], ev[5]))
                else:
                    # sink row: [cycle, warp, kind, lines]
                    lines = ev[3]
                    extend((ev[0], ev[1], kind, len(lines)))
                    extend(lines)
            streams.append(SmStream(events=flat, spans=[]))
        # spans second: their tags always reference previously issued
        # groups, so the mapping is (in healthy runs) already populated.
        for sink, stream in zip(self.sinks, streams):
            totals: dict = {}
            for n, code, detail in sink.spans:
                key = (code,
                       norm(detail) if code == SPAN_MEM_DATA and detail
                       else detail)
                totals[key] = totals.get(key, 0) + n
            stream.spans = [
                [n, code, detail] for (code, detail), n in totals.items()
            ]
        teardown = self.teardown
        if teardown is not None and teardown["trigger"] is not None:
            teardown = dict(teardown)
            teardown["trigger"] = mapping.get(teardown["trigger"])
            if teardown["trigger"] is None:
                # trigger tag never appeared in the stream (frontend-only
                # completion): fall back to the schedule-at reproduction.
                teardown["phase"] = PHASE_EVENT

        return Trace(
            workload=self.workload_name,
            workload_args=self.workload_args,
            config=system.config.to_dict(),
            cycles=result.cycles,
            instructions=result.instructions,
            warm_lines=self.warm_lines,
            teardown=teardown,
            sms=streams,
            recorded_stats=memory_side_stats(result.stats),
            recorded_breakdown=memory_breakdown_view(result.breakdown),
        )


# ---------------------------------------------------------------------------
# comparison helpers (shared by --verify, tests, and the CI smoke job)
# ---------------------------------------------------------------------------

def memory_side_stats(stats: dict) -> dict:
    """The memory-side projection of a ``SimResult.stats`` dict."""
    return {k: stats[k] for k in MEMORY_STAT_GROUPS if k in stats}


def memory_breakdown_view(breakdown) -> dict:
    """The memory-attributable rows of a breakdown (what replay reproduces)."""
    d = breakdown.to_dict()
    return {
        "counts": {
            StallType.MEM_DATA.value: d["counts"][StallType.MEM_DATA.value],
            StallType.MEM_STRUCT.value: d["counts"][StallType.MEM_STRUCT.value],
        },
        "mem_data": d["mem_data"],
        "mem_struct": d["mem_struct"],
    }


def compare_memory_stats(expected_stats: dict, actual_stats: dict) -> list:
    """Human-readable mismatches between two memory-side stat dicts."""
    out: list = []
    exp = memory_side_stats(expected_stats)
    act = memory_side_stats(actual_stats)
    for group in sorted(set(exp) | set(act)):
        if group not in exp or group not in act:
            out.append("stats group %r present on one side only" % group)
            continue
        _diff_dict(out, "stats.%s" % group, exp[group], act[group])
    return out


def compare_recorded_breakdown(trace, result) -> list:
    """Mismatches between a trace's recorded memory stall attribution and a
    replayed result's (the ``--verify`` attribution check)."""
    out: list = []
    _diff_dict(
        out,
        "breakdown",
        trace.recorded_breakdown,
        memory_breakdown_view(result.breakdown),
    )
    return out


def compare_replay(exec_result, replay_result) -> list:
    """Mismatches between an execution-driven run and its replay: cycles,
    memory-side stats, memory stall attribution (aggregate and per-SM)."""
    out: list = []
    if exec_result.cycles != replay_result.cycles:
        out.append(
            "cycles: execution %d != replay %d"
            % (exec_result.cycles, replay_result.cycles)
        )
    out.extend(compare_memory_stats(exec_result.stats, replay_result.stats))
    _diff_dict(
        out,
        "breakdown",
        memory_breakdown_view(exec_result.breakdown),
        memory_breakdown_view(replay_result.breakdown),
    )
    if len(exec_result.per_sm) != len(replay_result.per_sm):
        out.append("per-SM breakdown count differs")
    else:
        for i, (e, r) in enumerate(zip(exec_result.per_sm, replay_result.per_sm)):
            _diff_dict(
                out,
                "per_sm[%d]" % i,
                memory_breakdown_view(e),
                memory_breakdown_view(r),
            )
    return out


def _diff_dict(out: list, prefix: str, exp, act) -> None:
    if isinstance(exp, dict) and isinstance(act, dict):
        for key in sorted(set(exp) | set(act)):
            _diff_dict(
                out,
                "%s.%s" % (prefix, key),
                exp.get(key, "<absent>"),
                act.get(key, "<absent>"),
            )
        return
    if exp != act:
        out.append("%s: execution %r != replay %r" % (prefix, exp, act))
