"""System assembly: the integrated, tightly coupled CPU-GPU simulator.

Mirrors the methodology of Chapter 5: 1 CPU core and up to 15 GPU SMs
uniformly distributed on a 4x4 mesh, a data-race-free consistency model
expressed through acquire/release operations, and a memory hierarchy
elaborated from the config's :class:`~repro.mem.hierarchy.HierarchySpec`
-- by default the paper's shape: a private L1 per core and a banked NUCA
L2 shared by everyone (one bank per mesh node), atomics serviced at the
L2.  Non-default specs stack private/cluster levels inside each core and
chain deeper shared levels (an L3, ...) behind the directory.  GSI hangs
off the SMs' issue stages through
:class:`repro.core.attribution.Inspector`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.attribution import Inspector
from repro.core.breakdown import StallBreakdown
from repro.core.component import Component, StatsSnapshot
from repro.cpu.core import CpuCore
from repro.fastcore import resolve_core
from repro.gpu.kernel import Kernel
from repro.gpu.sm import SM
from repro.gpu.sm_fast import FastSM
from repro.gpu.tb_scheduler import ThreadBlockScheduler
from repro.mem.cache import SetAssocCache
from repro.mem.coherence import make_protocol
from repro.mem.coherence.denovo import DeNovoCoherence
from repro.mem.dma import DmaEngine
from repro.mem.hierarchy import SharedCacheLevel, Sharing
from repro.mem.l1 import L1Controller
from repro.mem.l2 import L2Cache
from repro.mem.main_memory import Dram, GlobalMemory
from repro.mem.scratchpad import Scratchpad
from repro.mem.stash import Stash
from repro.noc.mesh import Mesh
from repro.noc.message import Message, MsgType
from repro.sim.config import LocalMemory, SystemConfig
from repro.sim.engine import Engine

_L2_REQUESTS = frozenset(
    {MsgType.GETS, MsgType.PUT_WT, MsgType.GETO, MsgType.ATOMIC, MsgType.WB_OWNED}
)


@dataclass
class SimResult:
    """Outcome of one kernel simulation."""

    workload: str
    config: SystemConfig
    cycles: int
    breakdown: StallBreakdown
    per_sm: list[StallBreakdown]
    instructions: int
    stats: dict[str, dict] = field(default_factory=dict)
    #: windowed stall timeline (None unless config.timeline_window is set)
    timeline: object = None
    #: full hierarchical StatsSnapshot of the component tree.  In-process
    #: profiling aid like ``timeline``: not serialized into artifacts.
    stats_tree: object = None

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def summary(self) -> str:
        from repro.core.report import summarize

        return summarize(self.workload, self.breakdown)

    # --- serialization (executor cache, worker-process boundary) -------
    def to_dict(self) -> dict:
        """JSON-ready dict.  The timeline is dropped (it is an in-memory
        profiling aid, not part of the machine-readable artifact)."""
        return {
            "workload": self.workload,
            "config": self.config.to_dict(),
            "cycles": self.cycles,
            "breakdown": self.breakdown.to_dict(),
            "per_sm": [bd.to_dict() for bd in self.per_sm],
            "instructions": self.instructions,
            "stats": self.stats,
        }

    @staticmethod
    def from_dict(data: dict) -> "SimResult":
        return SimResult(
            workload=data["workload"],
            config=SystemConfig.from_dict(data["config"]),
            cycles=int(data["cycles"]),
            breakdown=StallBreakdown.from_dict(data["breakdown"]),
            per_sm=[StallBreakdown.from_dict(d) for d in data["per_sm"]],
            instructions=int(data["instructions"]),
            stats=data.get("stats", {}),
        )


class System(Component):
    """A fully built simulated system ready to run one kernel.

    Also the root of the component tree: ``system.stats()`` snapshots every
    statistic in the machine (``system.sm3.l1.mshr.merges`` and friends),
    and :meth:`collect_stats` derives the frozen artifact schema carried by
    :class:`SimResult` from that same tree.
    """

    def __init__(self, config: SystemConfig) -> None:
        Component.__init__(self, "system")
        self.config = config
        #: resolved core ("python" or "fast"); see repro.fastcore.  The
        #: two cores differ only in the SM frontend (``SM`` vs the inlined
        #: ``FastSM``) and are byte-identical by contract.
        self.core = resolve_core(config.core)
        self.engine = Engine()
        self.add_child(self.engine)
        self.mesh = Mesh(
            self.engine,
            config.mesh_rows,
            config.mesh_cols,
            hop_latency=config.hop_latency,
            router_latency=config.router_latency,
            endpoint_bw=config.mesh_endpoint_bw,
        )
        self.add_child(self.mesh)
        self.memory = GlobalMemory()
        self.dram = Dram(latency=config.dram_latency, channels=config.dram_channels)
        self.add_child(self.dram)

        # --- hierarchy fabric elaboration ------------------------------
        # The spec (explicit, or Table 5.1 derived from the flat fields)
        # splits into core-side levels -- stacked inside each core's
        # L1Controller below -- and global levels: the first global level
        # is the directory/coherence point (kept on the historical
        # ``self.l2`` attribute whatever the spec names it), deeper global
        # levels chain behind its backside down to DRAM.
        self.hierarchy = config.effective_hierarchy()
        self.hierarchy.validate(
            line_size=config.line_size, num_sms=config.num_sms
        )
        core_specs = self.hierarchy.core_levels
        shared_specs = self.hierarchy.shared_levels
        self.shared_levels: list[SharedCacheLevel] = [
            SharedCacheLevel(spec, config.line_size, self.mesh, depth=i + 1)
            for i, spec in enumerate(shared_specs[1:])
        ]
        for level in self.shared_levels:
            self.add_child(level)
        self.l2 = L2Cache(
            config,
            self.mesh,
            self.memory,
            self.dram,
            spec=shared_specs[0],
            next_levels=self.shared_levels,
        )
        self.add_child(self.l2)
        self.inspector = Inspector(
            config.num_sms,
            enabled=config.gsi_enabled,
            timeline_window=config.timeline_window,
        )
        gpu_protocol = make_protocol(config.protocol)
        cpu_protocol = DeNovoCoherence()  # the CPU cache always uses DeNovo

        # Node placement: SMs at nodes 0..num_sms-1, CPUs from the top end
        # (computed -- and overlap-checked -- by the config itself).
        self.sm_nodes = config.sm_nodes
        self.cpu_nodes = config.cpu_nodes

        # Cluster-shared tag arrays: one instance per (level, cluster of
        # cluster_size adjacent SMs), handed to every member's stack.
        cluster_tags: dict[tuple[str, int], object] = {}

        def _cluster_tags_for(sm_id: int) -> dict:
            shared = {}
            for spec in core_specs:
                if spec.sharing is not Sharing.CLUSTER:
                    continue
                key = (spec.name, sm_id // spec.cluster_size)
                tags = cluster_tags.get(key)
                if tags is None:
                    tags = cluster_tags[key] = SetAssocCache(
                        spec.size // (config.line_size * spec.assoc),
                        spec.assoc,
                        name=spec.name,
                    )
                shared[spec.name] = tags
            return shared

        #: CPU cores elaborate every core-side level privately (a CPU is
        #: not part of the SM cluster grid).
        cpu_specs = [
            replace(spec, sharing=Sharing.PRIVATE, cluster_size=0)
            if spec.sharing is Sharing.CLUSTER
            else spec
            for spec in core_specs
        ]

        self._l1_by_node: dict[int, L1Controller] = {}
        self.sms: list[SM] = []
        for sm_id, node in enumerate(self.sm_nodes):
            l1 = L1Controller(
                node,
                config,
                self.mesh,
                self.l2.node_of_line,
                gpu_protocol,
                self.memory,
                levels=core_specs,
                shared_tags=_cluster_tags_for(sm_id),
            )
            self._l1_by_node[node] = l1
            scratchpad = dma = stash = None
            if config.local_memory is not LocalMemory.NONE:
                scratchpad = Scratchpad(
                    config.scratchpad_size,
                    config.scratchpad_banks,
                    config.scratchpad_hit_latency,
                )
            if config.local_memory is LocalMemory.SCRATCHPAD_DMA:
                dma = DmaEngine(config, self.engine, l1, scratchpad)
            if config.local_memory is LocalMemory.STASH:
                stash = Stash(config, self.engine, l1, scratchpad)
            attribution = (
                self.inspector.sm(sm_id) if config.gsi_enabled else None
            )
            sm = (FastSM if self.core == "fast" else SM)(
                sm_id,
                node,
                config,
                self.engine,
                l1,
                self.memory,
                attribution,
                scratchpad=scratchpad,
                dma=dma,
                stash=stash,
            )
            self.sms.append(sm)
            self.add_child(sm)

        self.cpus: list[CpuCore] = []
        for cpu_id, node in enumerate(self.cpu_nodes):
            l1 = L1Controller(
                node,
                config,
                self.mesh,
                self.l2.node_of_line,
                cpu_protocol,
                self.memory,
                levels=cpu_specs,
            )
            self._l1_by_node[node] = l1
            cpu = CpuCore(cpu_id, node, l1)
            self.cpus.append(cpu)
            self.add_child(cpu)

        for node in range(config.num_nodes):
            self.mesh.attach(node, self._make_dispatcher(node))

        self._teardown_started = False
        self._teardown_flushes = 0
        #: trace capture (record mode): a
        #: :class:`repro.trace.record.TraceRecorder` installs itself here
        #: and into each SM's LSU; replay mode instead drives this system
        #: through :class:`repro.trace.replay.TraceReplayer` injectors.
        self.recorder = None

    # ------------------------------------------------------------------
    def _make_dispatcher(self, node: int):
        # Every endpoint is known by the time dispatchers are attached, so
        # the handlers bind once here instead of being re-resolved on each
        # of the millions of delivered messages.
        l2_requests = _L2_REQUESTS
        l2_handle = self.l2.handle_message
        l1 = self._l1_by_node.get(node)
        l1_handle = None if l1 is None else l1.handle_message

        def dispatch(msg: Message) -> None:
            if msg.mtype in l2_requests:
                l2_handle(msg)
            elif l1_handle is not None:
                l1_handle(msg)
            else:
                raise RuntimeError(
                    "response %r delivered to core-less node %d" % (msg, node)
                )

        return dispatch

    def sm_l1(self, sm_id: int) -> L1Controller:
        return self.sms[sm_id].l1

    # ------------------------------------------------------------------
    def run(self, workload) -> SimResult:
        """Build the workload's kernel, run it to completion, return GSI's
        verdict.  ``workload`` follows :class:`repro.workloads.base.Workload`."""
        kernel = workload.build(self)
        return self.run_kernel(kernel, name=getattr(workload, "name", kernel.name))

    def run_kernel(self, kernel: Kernel, name: str | None = None) -> SimResult:
        limit = kernel.warps_per_sm_limit or self.config.max_warps_per_sm
        scheduler = ThreadBlockScheduler(self.sms, kernel, limit)
        scheduler.on_kernel_complete = self._begin_teardown
        # Exposed for observers only (telemetry ETA); the simulation never
        # reads these back.
        self.tb_scheduler = scheduler
        self.total_thread_blocks = kernel.num_thread_blocks
        # Kernel launch is an acquire: GPU L1s self-invalidate.
        for sm in self.sms:
            sm.l1.acquire_invalidate()
            sm.begin_idle()
        scheduler.launch()
        cycles = self.engine.run(self.config.max_cycles)
        if scheduler.blocks_remaining or not self._teardown_started:
            raise RuntimeError(
                "simulation ran out of events with %d thread blocks "
                "unfinished -- lost wake-up (simulator bug)"
                % scheduler.blocks_remaining
            )
        for sm in self.sms:
            sm.finalize(cycles)
        self.inspector.finalize()
        per_sm = self.inspector.per_sm_breakdowns()
        breakdown = self.inspector.aggregate()
        return SimResult(
            workload=name or kernel.name,
            config=self.config,
            cycles=cycles,
            breakdown=breakdown,
            per_sm=per_sm,
            instructions=sum(sm.instructions_issued for sm in self.sms),
            stats=self.collect_stats(),
            timeline=self.inspector.aggregate_timeline(),
            stats_tree=self.stats(),
        )

    # ------------------------------------------------------------------
    def _begin_teardown(self) -> None:
        """All thread blocks finished: flush store buffers (the paper's
        end-of-kernel flush), drain DMA/stash, then stop the clock."""
        if self._teardown_started:
            return
        if self.recorder is not None:
            self.recorder.on_teardown(self.engine.now, self.engine.in_event_phase)
        self._teardown_started = True
        self._teardown_flushes = len(self.sms)
        for sm in self.sms:
            sm.l1.flush_store_buffer(self._teardown_flush_done)
        self._poll_quiesce()

    def _teardown_flush_done(self) -> None:
        self._teardown_flushes -= 1

    def _quiesced(self) -> bool:
        if self._teardown_flushes > 0:
            return False
        for sm in self.sms:
            if not sm.l1.sb_empty():
                return False
            if sm.l1.atomics_outstanding:
                return False
            if sm.dma is not None and sm.dma.any_in_progress():
                return False
            if sm.stash is not None and not sm.stash.writeback_idle():
                return False
        return True

    def _poll_quiesce(self) -> None:
        if self._quiesced():
            self.engine.stop()
        else:
            self.engine.schedule(5, self._poll_quiesce)

    # ------------------------------------------------------------------
    def collect_stats(self) -> dict[str, dict]:
        """Legacy artifact schema, derived from the generic stats tree.

        :class:`SimResult` carries (and serializes) this flat shape, which
        is frozen so cached/regenerated artifacts stay byte-identical; the
        full hierarchical snapshot is available via ``System.stats()`` and
        rides along on in-process results as ``SimResult.stats_tree``.
        """
        snap = self.stats()
        return legacy_stats_view(
            snap, [sm.name for sm in self.sms], directory=self.l2.name
        )


def legacy_stats_view(
    snap: StatsSnapshot,
    sm_names: "list[str] | None" = None,
    directory: str = "l2",
) -> dict[str, dict]:
    """Project a ``system`` stats snapshot onto the flat legacy schema.

    ``directory`` names the shared directory-level component; the flat
    schema always reports it under the frozen ``"l2"`` key, whatever the
    hierarchy spec called the level.
    """
    if sm_names is None:
        sm_names = sorted(
            (n for n in snap.children if n.startswith("sm")),
            key=lambda n: int(n[2:]),
        )
    mesh = snap["mesh"]
    l2 = snap[directory]
    stats: dict[str, dict] = {
        "mesh": {k: mesh[k] for k in ("messages", "avg_hops", "avg_latency")},
        "l2": {
            k: l2[k]
            for k in (
                "loads",
                "stores",
                "atomics",
                "remote_forwards",
                "ownership_grants",
                "ownership_recalls",
                "dram_fills",
            )
        },
        "dram": {"accesses": snap["dram.accesses"]},
        "l1": {},
        "engine": {"events": snap["engine.events"]},
    }
    scratch: dict[str, dict] = {}
    for name in sm_names:
        l1 = snap["%s.l1" % name]
        stats["l1"][name] = {
            "load_hits": l1["load_hits"],
            "load_misses": l1["load_misses"],
            "stores": l1["stores"],
            "local_store_hits": l1["local_store_hits"],
            "acquires": l1["acquires"],
            "releases": l1["releases"],
            "self_invalidated_lines": l1["self_invalidated_lines"],
            "remote_serves": l1["remote_serves"],
            "mshr_merges": l1["mshr.merges"],
            "sb_combines": l1["store_buffer.combines"],
        }
        pad = snap[name].children.get("scratchpad")
        if pad is not None:
            scratch[name] = {
                "accesses": pad["accesses"],
                "conflict_cycles": pad["conflict_cycles"],
            }
    if scratch:
        stats["scratchpad"] = scratch
    return stats


def run_workload(config: SystemConfig, workload, telemetry=None) -> SimResult:
    """One-call convenience: configure, build, run.

    Workloads that carry their own runner (trace replays, which re-inject a
    recorded stream instead of building a kernel) are dispatched to it; the
    scenario executor and the CLI stay agnostic either way.

    ``telemetry`` is an optional :class:`repro.obs.TelemetryConfig`; when
    given, a session is attached around the run (and torn down on any
    exit).  It observes through the engine's observer-event lane, so the
    result is byte-identical either way.
    """
    config = workload.configure(config) if hasattr(workload, "configure") else config
    runner = getattr(workload, "replay_run", None)
    if runner is not None:
        if telemetry is not None:
            return runner(config, telemetry=telemetry)
        return runner(config)
    system = System(config)
    if telemetry is None:
        return system.run(workload)
    from repro.obs import TelemetrySession

    if telemetry.label is None:
        telemetry.label = getattr(workload, "name", None)
    session = TelemetrySession(telemetry, system)
    session.start()
    result = None
    try:
        result = system.run(workload)
    finally:
        session.finalize(result)
    return result
