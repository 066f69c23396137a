"""Per-layer host-time accounting, measured from outside the simulator.

:class:`Tracer` wraps the simulator's layer entry points with spans while it
is installed and folds them, in memory, into one ``(calls, self seconds)``
account per layer.  A span's self time is its duration minus the durations
of the spans it contains, so the layers' self times add up to the root span
(one benchmark rep) exactly.  Nothing under ``src/`` is edited: the wrappers
are class and module attributes that :meth:`Tracer.install` sets and
:meth:`Tracer.uninstall` restores.

Three kinds of span exist:

* **entry points** -- the public calls one layer makes into another
  (:data:`ENTRY_POINTS`), e.g. ``Mesh.send`` or ``L1Controller.load_line``;
* **events** -- every callback handed to the engine's ``schedule``,
  ``schedule_at`` or ``schedule_call`` runs inside a span labelled with the
  layer of the module that owns the callback.  Callbacks the mesh schedules
  are message deliveries and count as mesh time whoever handles them;
* **ticks** -- the ``tick`` of every class the engine registers.

An entry point that no longer exists is skipped and listed in
:attr:`Tracer.unresolved`, so the benchmark keeps running across refactors
and says which boundaries it lost.
"""

from __future__ import annotations

import functools
import importlib
import time

#: the layers, in report order; ``experiments`` is the root span of a rep
LAYERS = (
    "sim.engine",
    "gpu.sm",
    "gpu.lsu",
    "core.attribution",
    "mem.l1",
    "mem.l2",
    "mem.dram",
    "mem.local",
    "noc.mesh",
    "trace.replay",
    "trace.record",
    "system",
    "experiments",
)

#: module prefix -> layer; the longest matching prefix wins and modules no
#: prefix matches (workloads, the CPU core, the stats tree) count as system
MODULE_LAYERS = {
    "repro.sim": "sim.engine",
    "repro.gpu": "gpu.sm",
    "repro.gpu.lsu": "gpu.lsu",
    "repro.core.attribution": "core.attribution",
    "repro.core.breakdown": "core.attribution",
    "repro.core.classifier": "core.attribution",
    "repro.mem.l1": "mem.l1",
    "repro.mem.cache": "mem.l1",
    "repro.mem.mshr": "mem.l1",
    "repro.mem.store_buffer": "mem.l1",
    "repro.mem.l2": "mem.l2",
    "repro.mem.hierarchy": "mem.l2",
    "repro.mem.coherence": "mem.l2",
    "repro.mem.main_memory": "mem.dram",
    "repro.mem.scratchpad": "mem.local",
    "repro.mem.dma": "mem.local",
    "repro.mem.stash": "mem.local",
    "repro.noc": "noc.mesh",
    "repro.trace": "trace.replay",
    "repro.trace.record": "trace.record",
    "repro.experiments": "experiments",
}

#: layer -> ``module:attribute`` entry points wrapped as spans of that
#: layer.  ``Class.method`` patches the class; a bare name patches the
#: module global the callers resolve at call time (the classifier as the
#: SM calls it, ``run_workload`` as the executor calls it, and the trace
#: helpers the planner imports when it records).
ENGINE_RUNS = (
    "repro.sim.engine:Engine.run",
    "repro.sim.engine_fast:CalendarEngine.run",
)

ENTRY_POINTS = {
    "sim.engine": ENGINE_RUNS,
    "gpu.sm": (
        "repro.gpu.sm:SM.assign_thread_block",
        "repro.gpu.sm:SM.finalize",
        "repro.gpu.tb_scheduler:ThreadBlockScheduler.launch",
    ),
    "gpu.lsu": (
        "repro.gpu.lsu:Lsu.check",
        "repro.gpu.lsu:Lsu.occupy",
    ),
    "core.attribution": (
        "repro.core.attribution:SmAttribution.record",
        "repro.core.attribution:SmAttribution.resolve_mem",
        "repro.core.attribution:SmAttribution.finalize",
        "repro.core.attribution:Inspector.aggregate",
        "repro.core.attribution:Inspector.per_sm_breakdowns",
        "repro.gpu.sm:classify_cycle_with_detail",
        "repro.gpu.sm:classify_cycle_strong",
        "repro.gpu.sm:classify_cycle_first",
    ),
    "mem.l1": tuple(
        "repro.mem.l1:L1Controller." + name
        for name in (
            "load_line",
            "store_line",
            "store_lines",
            "atomic",
            "handle_message",
            "acquire_invalidate",
            "flush_store_buffer",
            "mshr_can_allocate",
            "can_accept_store",
            "can_accept_stores",
        )
    ),
    "mem.l2": (
        "repro.mem.l2:L2Cache.handle_message",
        "repro.mem.hierarchy:SharedCacheLevel.probe",
    ),
    "mem.dram": ("repro.mem.main_memory:Dram.access_done",),
    "mem.local": (
        "repro.mem.scratchpad:Scratchpad.access_cycles",
        "repro.mem.scratchpad:Scratchpad.load_word",
        "repro.mem.scratchpad:Scratchpad.store_word",
        "repro.mem.dma:DmaEngine.start",
        "repro.mem.dma:DmaEngine.covers",
        "repro.mem.dma:DmaEngine.load_in_progress",
        "repro.mem.stash:Stash.access_load",
        "repro.mem.stash:Stash.access_store",
        "repro.mem.stash:Stash.fills_needed",
        "repro.mem.stash:Stash.map_region",
        "repro.mem.stash:Stash.writeback_dirty_range",
        "repro.mem.stash:Stash.release_region",
    ),
    "noc.mesh": ("repro.noc.mesh:Mesh.send",),
    "trace.replay": (
        "repro.trace.replay:TraceReplayer.__init__",
        "repro.trace.replay:TraceReplayer.run",
        "repro.trace.workload:TraceReplayWorkload.configure",
        "repro.trace.workload:TraceReplayWorkload.replay_run",
    ),
    "trace.record": (
        "repro.trace.record:TraceRecorder.__init__",
        "repro.trace.record:TraceRecorder.finish",
        "repro.trace.record:TraceRecorder.on_teardown",
        "repro.trace.record:SmTraceSink.load",
        "repro.trace.record:SmTraceSink.store",
        "repro.trace.record:SmTraceSink.atomic",
        "repro.trace.record:SmTraceSink.span",
        "repro.trace.record:SmTraceSink.enter_completion",
        "repro.trace.record:SmTraceSink.exit_completion",
        "repro.trace:record_workload",
        "repro.trace:save_trace",
    ),
    "system": (
        "repro.system:System.__init__",
        "repro.system:System.run",
        "repro.system:System.collect_stats",
        "repro.experiments.executor:run_workload",
    ),
}

#: engine methods whose callback argument becomes an event span
_SCHEDULERS = ("schedule", "schedule_at", "schedule_call")
_ENGINES = ("repro.sim.engine:Engine", "repro.sim.engine_fast:CalendarEngine")


@functools.lru_cache(maxsize=None)
def layer_of_module(module: str) -> str:
    best = ""
    for prefix in MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return MODULE_LAYERS[best] if best else "system"


def layer_of_callable(fn) -> str:
    """Layer of the module that defines ``fn`` (a function, bound method or
    ``functools.partial``)."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    return layer_of_module(getattr(fn, "__module__", None) or "")


def _resolve(target: str):
    """``module:Class.attr`` -> (owner object, attribute name), or None."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class _Patches:
    """Attribute replacements, restored in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class EngineClock:
    """Host time spent inside the engines' ``run`` loops: the one patch the
    untraced benchmark makes, one call per simulated cell.  ``runs`` holds
    each call's ``(start, end)`` on the ``time.perf_counter`` clock."""

    def __init__(self) -> None:
        self.runs: list[tuple[float, float]] = []
        self._patches = _Patches()

    def install(self) -> None:
        for target in ENGINE_RUNS:
            found = _resolve(target)
            if found is not None:
                owner, attr = found
                self._patches.set(owner, attr, self._timed(vars(owner)[attr]))

    def uninstall(self) -> None:
        self._patches.restore()

    def _timed(self, run):
        clock = time.perf_counter
        runs = self.runs

        def timed(*args, **kwargs):
            start = clock()
            try:
                return run(*args, **kwargs)
            finally:
                runs.append((start, clock()))

        return timed


class Tracer:
    """Span accounting for one traced phase; see the module docstring."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        #: open spans, innermost last: ``[layer, child seconds]``
        self._stack: list[list] = []
        self._patches = _Patches()
        self._ticks: set = set()
        self.unresolved: list[str] = []

    def reset(self) -> None:
        """Zero the accounts (between reps); patches stay installed."""
        for layer in LAYERS:
            self.calls[layer] = 0
            self.self_s[layer] = 0.0

    # ------------------------------------------------------------------
    def wrap(self, fn, layer: str):
        """``fn`` running inside a span of ``layer``."""
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed

        return span

    def run(self, fn, layer: str = "experiments"):
        """Call ``fn()`` as a root span of ``layer``."""
        return self.wrap(fn, layer)()

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point, scheduler and registered tick."""
        for layer, targets in ENTRY_POINTS.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    self.unresolved.append(target)
                    continue
                owner, attr = found
                self._patches.set(owner, attr, self.wrap(vars(owner)[attr], layer))
        for target in _ENGINES:
            found = _resolve(target + ".schedule")
            if found is None:
                continue
            engine_cls = found[0]
            for name in _SCHEDULERS:
                if name in vars(engine_cls):
                    self._patches.set(
                        engine_cls, name, self._scheduler(vars(engine_cls)[name])
                    )
            if "register" in vars(engine_cls):
                self._patches.set(
                    engine_cls, "register", self._register(vars(engine_cls)["register"])
                )

    def uninstall(self) -> None:
        self._patches.restore()
        self._ticks.clear()

    def _scheduler(self, schedule):
        """``schedule*(delay_or_time, callback, ...)``: the push is engine
        time and the callback runs later as an event span."""
        stack = self._stack
        push = self.wrap(schedule, "sim.engine")
        wrap = self.wrap

        def scheduler(engine, when, callback, *rest):
            layer = layer_of_callable(callback)
            if stack and stack[-1][0] == "noc.mesh":
                layer = "noc.mesh"
            return push(engine, when, wrap(callback, layer), *rest)

        return scheduler

    def _register(self, register):
        """Wrap the ``tick`` of each class the engine registers, once."""

        def registering(engine, tickable):
            for cls in type(tickable).__mro__:
                if "tick" in vars(cls):
                    if cls not in self._ticks:
                        self._ticks.add(cls)
                        tick = vars(cls)["tick"]
                        self._patches.set(
                            cls, "tick", self.wrap(tick, layer_of_callable(tick))
                        )
                    break
            return register(engine, tickable)

        return registering
