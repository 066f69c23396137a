"""Tests for the declarative memory-hierarchy fabric.

Covers the spec types (validation with actionable messages), elaboration
(default spec == flat-field machine), the non-default shapes (shared L3,
private L2, L1 bypass, cluster sharing, victim level) end-to-end, the
eviction/writeback edge cases at both private and shared levels, and the
scenario cache-key treatment of hierarchy shapes.
"""

import pytest

from repro.core.stall_types import ServiceLocation
from repro.experiments.spec import Scenario, Sweep
from repro.mem.cache import LineState
from repro.mem.coherence.denovo import DeNovoCoherence
from repro.mem.coherence.gpu_coherence import GpuCoherence
from repro.mem.hierarchy import CacheLevelSpec, HierarchySpec, SharedCacheLevel
from repro.mem.l1 import L1Controller
from repro.mem.l2 import L2Cache
from repro.mem.main_memory import Dram, GlobalMemory
from repro.noc.mesh import Mesh
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.system import System, run_workload
from repro.workloads import make_workload

# ---------------------------------------------------------------------------
# Shape specs used across the tests (and mirrored by examples/ and CI)
# ---------------------------------------------------------------------------

L1 = {"name": "l1", "sharing": "private", "size": 32 * 1024, "assoc": 8,
      "banks": 8, "hit_latency": 1}
L2 = {"name": "l2", "sharing": "global", "size": 4 * 1024 * 1024, "assoc": 16,
      "banks": 16, "hit_latency": 23, "dir_latency": 8}

SHARED_L3 = {"label": "shared-l3", "levels": [
    dict(L1), dict(L2),
    {"name": "l3", "sharing": "global", "size": 8 * 1024 * 1024, "assoc": 16,
     "banks": 16, "hit_latency": 37, "dir_latency": 12},
]}
PRIVATE_L2 = {"label": "private-l2", "levels": [
    dict(L1),
    {"name": "l2p", "sharing": "private", "size": 256 * 1024, "assoc": 8,
     "hit_latency": 8},
    dict(L2, name="l3"),
]}
L1_BYPASS = {"label": "l1-bypass", "levels": [dict(L1, bypass=True), dict(L2)]}
CLUSTER_L2 = {"label": "cluster-l2", "levels": [
    dict(L1),
    {"name": "l2c", "sharing": "cluster", "cluster_size": 2,
     "size": 256 * 1024, "assoc": 8, "hit_latency": 10},
    dict(L2, name="l3"),
]}
VICTIM = {"label": "victim", "levels": [
    dict(L1, size=4096, assoc=2),
    {"name": "lv", "sharing": "private", "size": 8192, "assoc": 8,
     "hit_latency": 4, "victim": True},
    dict(L2),
]}

SHAPES = {
    "shared-l3": SHARED_L3,
    "private-l2": PRIVATE_L2,
    "l1-bypass": L1_BYPASS,
    "cluster-l2": CLUSTER_L2,
    "victim": VICTIM,
}


def _small_run(hierarchy=None, protocol="gpu", workload="streaming", **wargs):
    overrides = {"protocol": protocol}
    if hierarchy is not None:
        overrides["hierarchy"] = hierarchy
    cfg = SystemConfig(num_sms=2).scaled(**overrides)
    if workload == "streaming":
        wargs.setdefault("num_tbs", 2)
        wargs.setdefault("warps_per_tb", 1)
    return run_workload(cfg, make_workload(workload, **wargs))


# ---------------------------------------------------------------------------
# Spec validation: one test per rejection, each with an actionable message
# ---------------------------------------------------------------------------

class TestSpecValidation:
    def _spec(self, **overrides):
        data = dict(SHARED_L3)
        data.update(overrides)
        return HierarchySpec.from_dict(data)

    def test_needs_levels(self):
        with pytest.raises(ValueError, match="non-empty 'levels'"):
            HierarchySpec.from_dict({"levels": []})

    def test_needs_global_level(self):
        spec = HierarchySpec.from_dict({"levels": [dict(L1)]})
        with pytest.raises(ValueError, match="no global level"):
            spec.validate(64)

    def test_core_levels_must_precede_shared(self):
        spec = HierarchySpec.from_dict(
            {"levels": [dict(L2), dict(L1)]}
        )
        with pytest.raises(ValueError, match="must all precede"):
            spec.validate(64)

    def test_duplicate_names_rejected(self):
        spec = HierarchySpec.from_dict(
            {"levels": [dict(L1), dict(L2, name="l1")]}
        )
        with pytest.raises(ValueError, match="duplicate hierarchy level name"):
            spec.validate(64)

    def test_banks_power_of_two(self):
        spec = self._spec()
        spec.levels[1].banks = 12
        with pytest.raises(ValueError, match="banks 12 must be a power of two"):
            spec.validate(64)

    def test_assoc_power_of_two(self):
        spec = self._spec()
        spec.levels[0].assoc = 6
        with pytest.raises(ValueError, match="assoc 6 must be a power of two"):
            spec.validate(64)

    def test_geometry_must_divide(self):
        spec = self._spec()
        spec.levels[1].size = 1000
        with pytest.raises(ValueError, match="does not divide"):
            spec.validate(64)

    def test_global_level_cannot_bypass(self):
        spec = self._spec()
        spec.levels[1].bypass = True
        with pytest.raises(ValueError, match="core-side options"):
            spec.validate(64)

    def test_cluster_needs_size(self):
        with pytest.raises(ValueError, match="cluster_size >= 2"):
            CacheLevelSpec(name="lc", sharing="cluster").validate(64)

    def test_cluster_size_only_for_clusters(self):
        with pytest.raises(ValueError, match="only meaningful"):
            CacheLevelSpec(name="lp", cluster_size=4).validate(64)

    def test_cluster_must_divide_sms(self):
        spec = HierarchySpec.from_dict(CLUSTER_L2)
        with pytest.raises(ValueError, match="does not divide num_sms"):
            spec.validate(64, num_sms=3)

    def test_needs_core_side_level(self):
        spec = HierarchySpec.from_dict({"levels": [dict(L2)]})
        with pytest.raises(ValueError, match="at least one core-side"):
            spec.validate(64)

    def test_reserved_component_names_rejected(self):
        for bad in ("mshr", "cache", "dram", "bank0", "sm1"):
            spec = HierarchySpec.from_dict(
                {"levels": [dict(L1), dict(L1, name=bad), dict(L2)]}
            )
            with pytest.raises(ValueError, match="collides with a fixed"):
                spec.validate(64)

    def test_cpu_only_config_accepts_cluster_levels(self):
        # No SMs: cluster levels elaborate privately on the CPU and the
        # divisibility rule is vacuous (regression: used to re-validate
        # against a fabricated num_sms=1 and reject).
        cfg = SystemConfig(num_sms=0).scaled(hierarchy=CLUSTER_L2)
        system = System(cfg)
        assert system.sms == []
        assert system.cpus[0].l1.levels[1].name == "l2c"

    def test_first_level_cannot_be_victim(self):
        spec = HierarchySpec.from_dict(
            {"levels": [dict(L1, victim=True), dict(L2)]}
        )
        with pytest.raises(ValueError, match="first core-side level"):
            spec.validate(64)

    def test_unknown_level_field(self):
        with pytest.raises(ValueError, match="unknown cache level field"):
            CacheLevelSpec.from_dict({"name": "l1", "sise": 1024})

    def test_unknown_hierarchy_field(self):
        with pytest.raises(ValueError, match="unknown hierarchy field"):
            HierarchySpec.from_dict({"levels": [dict(L1)], "lable": "x"})

    def test_config_validates_hierarchy_at_construction(self):
        with pytest.raises(ValueError, match="no global level"):
            SystemConfig(hierarchy={"levels": [dict(L1)]})

    def test_round_trip_is_canonical(self):
        once = HierarchySpec.from_dict(SHARED_L3).to_dict()
        twice = HierarchySpec.from_dict(once).to_dict()
        assert once == twice
        assert all(set(lv) == {f for f in lv} for lv in once["levels"])


class TestConfigPlacement:
    def test_node_placement_from_config(self):
        cfg = SystemConfig(num_sms=3, num_cpus=2)
        assert cfg.sm_nodes == [0, 1, 2]
        assert cfg.cpu_nodes == [15, 14]
        assert not set(cfg.sm_nodes) & set(cfg.cpu_nodes)

    def test_capacity_message_is_actionable(self):
        with pytest.raises(ValueError, match="grow mesh_rows/mesh_cols"):
            SystemConfig(num_sms=20)

    def test_system_uses_config_placement(self):
        system = System(SystemConfig(num_sms=2))
        assert system.sm_nodes == [0, 1]
        assert system.cpu_nodes == [15]


# ---------------------------------------------------------------------------
# Elaboration: the default spec is the flat-field machine
# ---------------------------------------------------------------------------

class TestDefaultEquivalence:
    def test_explicit_default_spec_matches_flat_fields(self):
        flat = _small_run()
        spec = HierarchySpec.from_config(SystemConfig()).to_dict()
        explicit = _small_run(hierarchy=spec)
        assert explicit.cycles == flat.cycles
        assert explicit.stats == flat.stats
        assert explicit.breakdown.to_dict() == flat.breakdown.to_dict()

    def test_default_config_serialization_unchanged(self):
        data = SystemConfig().to_dict()
        assert "hierarchy" not in data
        assert SystemConfig.from_dict(data) == SystemConfig()

    def test_hierarchy_survives_round_trip(self):
        cfg = SystemConfig(hierarchy=SHARED_L3)
        again = SystemConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert [lv.name for lv in again.effective_hierarchy().levels] == [
            "l1", "l2", "l3"
        ]

    def test_component_tree_names_unchanged(self):
        system = System(SystemConfig(num_sms=2))
        snap = system.stats()
        assert "bank0" in snap["l2"].children
        assert "cache" in snap["sm0.l1"].children
        assert "mshr" in snap["sm0.l1"].children


# ---------------------------------------------------------------------------
# Non-default shapes, end-to-end
# ---------------------------------------------------------------------------

class TestShapes:
    @pytest.mark.parametrize("name", sorted(SHAPES))
    @pytest.mark.parametrize("protocol", ["gpu", "denovo"])
    def test_shape_runs_end_to_end(self, name, protocol):
        result = _small_run(hierarchy=SHAPES[name], protocol=protocol)
        assert result.cycles > 0
        assert result.instructions == 256  # streaming is deterministic

    def test_bypass_forfeits_l1_hits(self):
        base = _small_run(workload="stencil_global", warps_per_tb=2)
        byp = _small_run(
            hierarchy=L1_BYPASS, workload="stencil_global", warps_per_tb=2
        )
        hits = lambda r: sum(v["load_hits"] for v in r.stats["l1"].values())
        assert hits(base) > 0
        assert hits(byp) == 0
        assert byp.cycles >= base.cycles

    def test_shared_l3_appears_in_stats_tree(self):
        cfg = SystemConfig(num_sms=2).scaled(hierarchy=SHARED_L3)
        result = run_workload(
            cfg, make_workload("streaming", num_tbs=2, warps_per_tb=1)
        )
        snap = result.stats_tree
        assert "l3" in snap.children
        assert snap["l3.level_hits"] + snap["l3.level_misses"] >= 0

    def test_private_l2_keeps_denovo_lines_across_l1_capacity(self):
        # A tiny L1 backed by a big private L2: under DeNovo the private L2
        # keeps registered lines close, so the directory forwards less.
        tiny = {"label": "tiny-l1", "levels": [
            dict(L1, size=4096, assoc=2), dict(L2)]}
        tiny_pl2 = {"label": "tiny-l1+pl2", "levels": [
            dict(L1, size=4096, assoc=2),
            {"name": "l2p", "sharing": "private", "size": 256 * 1024,
             "assoc": 8, "hit_latency": 8},
            dict(L2, name="l3")]}
        base = _small_run(hierarchy=tiny, protocol="denovo",
                          workload="stencil_global", warps_per_tb=2)
        pl2 = _small_run(hierarchy=tiny_pl2, protocol="denovo",
                         workload="stencil_global", warps_per_tb=2)
        hits = lambda r: sum(v["load_hits"] for v in r.stats["l1"].values())
        assert hits(base) > 0
        assert hits(pl2) >= hits(base)

    def test_cluster_level_is_shared_between_members(self):
        cfg = SystemConfig(num_sms=2).scaled(hierarchy=CLUSTER_L2)
        system = System(cfg)
        tags0 = system.sms[0].l1.levels[1].tags
        tags1 = system.sms[1].l1.levels[1].tags
        assert tags0 is tags1
        # the shared array is adopted by exactly one stack's subtree
        assert tags0.parent is system.sms[0].l1

    def test_cpu_gets_private_copy_of_cluster_level(self):
        cfg = SystemConfig(num_sms=2).scaled(hierarchy=CLUSTER_L2)
        system = System(cfg)
        cpu_tags = system.cpus[0].l1.levels[1].tags
        assert cpu_tags is not system.sms[0].l1.levels[1].tags


# ---------------------------------------------------------------------------
# A two-core fabric harness for edge-case unit tests
# ---------------------------------------------------------------------------

class FabricHarness:
    """Two core stacks sharing a directory level (plus optional deeper
    shared levels) over the mesh -- MiniSystem, hierarchy-aware."""

    def __init__(self, protocol_cls, config=None):
        self.config = config or SystemConfig()
        hier = self.config.effective_hierarchy()
        self.engine = Engine()
        self.mesh = Mesh(
            self.engine,
            self.config.mesh_rows,
            self.config.mesh_cols,
            hop_latency=self.config.hop_latency,
            endpoint_bw=self.config.mesh_endpoint_bw,
        )
        self.memory = GlobalMemory()
        self.dram = Dram(self.config.dram_latency, self.config.dram_channels)
        shared = hier.shared_levels
        self.next_levels = [
            SharedCacheLevel(spec, self.config.line_size, self.mesh, depth=i + 1)
            for i, spec in enumerate(shared[1:])
        ]
        self.l2 = L2Cache(
            self.config, self.mesh, self.memory, self.dram,
            spec=shared[0], next_levels=self.next_levels,
        )
        self.l1s = {}
        for node in (0, 5):
            self.l1s[node] = L1Controller(
                node, self.config, self.mesh, self.l2.bank_nodes,
                protocol_cls(), self.memory, levels=hier.core_levels,
            )
            self.mesh.attach(node, self.l1s[node].handle_message)
        self.mesh.attach_directory(self.l2.handle_message)

    def load(self, node, line, run=True):
        out = {}

        def done(loc, _rid):
            out["loc"] = loc

        self.l1s[node].load_line(line, done)
        if run:
            self.engine.run()
        return out

    def store(self, node, line):
        self.l1s[node].store_line(line)
        self.engine.run()


class TestEvictionWritebackEdgeCases:
    """The satellite cases: dirty-evict under a full MSHR and
    invalidate-during-pending-fill, at a private and a shared level."""

    def _tiny_denovo(self, mshr=2):
        cfg = SystemConfig(
            l1_size=2 * 64, l1_assoc=1, l1_banks=1, mshr_entries=mshr
        )
        return FabricHarness(DeNovoCoherence, cfg)

    def test_dirty_evict_under_full_mshr_private(self):
        sys = self._tiny_denovo(mshr=2)
        l1 = sys.l1s[0]
        sys.store(0, 0x0)  # set 0, OWNED
        # Fill the MSHR with two outstanding primary misses (no run).
        l1.load_line(0x101, lambda loc, rid: None)
        l1.load_line(0x103, lambda loc, rid: None)
        assert l1.mshr.is_full()
        # A store to the conflicting line evicts the OWNED line while the
        # MSHR is full: the writeback must not need (or take) an MSHR slot.
        assert l1.cache.state_of(0x0) is LineState.OWNED
        l1.store_line(0x2)  # set 0 again
        sys.engine.run()
        assert sys.l2.owner.get(0x0) is None  # WB_OWNED cleared the registry
        assert sys.l2.owner.get(0x2) == 0
        assert not l1.wb_pending

    def test_invalidate_during_pending_fill_private(self):
        sys = self._tiny_denovo()
        l1_a, l1_b = sys.l1s[0], sys.l1s[5]
        sys.store(0, 0x10)  # core A owns the line
        # Core B starts a load of the same line; while its fill is pending
        # (forwarded through A), core B itself gets a recall for another
        # race -- simulate by injecting the recall before running.
        out = sys.load(5, 0x10, run=False)
        assert l1_b.mshr.lookup(0x10) is not None
        l1_b._handle_fwd_geto(type("M", (), {"line": 0x10})())
        sys.engine.run()
        # The pending fill still completes and re-installs the line.
        assert out["loc"] is ServiceLocation.REMOTE_L1
        assert l1_b.cache.contains(0x10)
        assert l1_b.mshr.lookup(0x10) is None

    def test_acquire_invalidate_during_pending_fill(self):
        sys = self._tiny_denovo()
        l1 = sys.l1s[0]
        out = sys.load(0, 0x20, run=False)
        l1.acquire_invalidate()  # kernel-launch acquire mid-flight
        sys.engine.run()
        assert out["loc"] is ServiceLocation.MEMORY
        assert l1.cache.contains(0x20)

    def test_l1_eviction_spills_into_private_l2_and_hits_there(self):
        # Deterministic spill + deep-hit: a 2-line direct-mapped L1 backed
        # by a private L2.  A conflict eviction must land in the private L2
        # and the re-reference must be served by the stack (no second
        # directory load), not by the network.
        shape = {"levels": [
            dict(L1, size=2 * 64, assoc=1, banks=1),
            {"name": "l2p", "sharing": "private", "size": 64 * 1024,
             "assoc": 8, "hit_latency": 8},
            dict(L2),
        ]}
        cfg = SystemConfig(hierarchy=shape)
        sys = FabricHarness(GpuCoherence, cfg)
        l1 = sys.l1s[0]
        assert sys.load(0, 0x100)["loc"] is ServiceLocation.MEMORY
        sys.load(0, 0x102)  # same L1 set: evicts 0x100 into the private L2
        assert not l1.cache.contains(0x100)
        assert l1.levels[1].tags.contains(0x100)
        loads_before = int(sys.l2.loads)
        out = sys.load(0, 0x100)
        assert out["loc"] is ServiceLocation.L1  # served within the stack
        assert int(sys.l2.loads) == loads_before  # no directory traffic
        assert l1.cache.contains(0x100)  # promoted back up

    def test_victim_hit_behind_bypassed_l0_keeps_the_line(self):
        # [l1 bypass, l2p, vic victim, l2 global]: a victim hit must promote
        # into l2p (the first non-bypass level), never discard the line.
        shape = {"levels": [
            dict(L1, bypass=True),
            {"name": "l2p", "sharing": "private", "size": 2 * 64, "assoc": 1,
             "hit_latency": 4},
            {"name": "vic", "sharing": "private", "size": 64 * 1024,
             "assoc": 8, "hit_latency": 6, "victim": True},
            dict(L2),
        ]}
        cfg = SystemConfig(hierarchy=shape)
        sys = FabricHarness(GpuCoherence, cfg)
        l1 = sys.l1s[0]
        sys.load(0, 0x100)
        sys.load(0, 0x102)  # conflict: 0x100 spills into the victim level
        assert l1.levels[2].tags.contains(0x100)
        out = sys.load(0, 0x100)  # victim hit: promote back into l2p
        assert out["loc"] is ServiceLocation.L1
        assert l1.levels[1].tags.contains(0x100)
        assert not l1.levels[2].tags.contains(0x100)
        # and the line is still somewhere in the stack for the next access
        loads_before = int(sys.l2.loads)
        assert sys.load(0, 0x100)["loc"] is ServiceLocation.L1
        assert int(sys.l2.loads) == loads_before

    def test_shared_level_eviction_is_silent_and_counted(self):
        # A one-set directory level: every other fill evicts.  The tags are
        # authoritative only for presence (GlobalMemory holds data), so the
        # eviction must not lose coherence state.
        shape = {"levels": [
            dict(L1),
            {"name": "l2", "sharing": "global", "size": 2 * 64, "assoc": 1,
             "banks": 2, "hit_latency": 23, "dir_latency": 8},
        ]}
        cfg = SystemConfig(hierarchy=shape)
        sys = FabricHarness(GpuCoherence, cfg)
        assert sys.load(0, 0x100)["loc"] is ServiceLocation.MEMORY
        assert sys.load(0, 0x102)["loc"] is ServiceLocation.MEMORY  # evicts 0x100
        bank0 = sys.l2.tags.banks[0]
        assert bank0.evictions >= 1
        # the evicted line simply refetches from below
        sys.l1s[0].acquire_invalidate()
        assert sys.load(0, 0x100)["loc"] is ServiceLocation.MEMORY

    def test_shared_l3_hit_after_l2_eviction(self):
        # Directory level of one set per bank, L3 big: an L2-evicted line
        # must be served by the L3 (ServiceLocation.L2, not MEMORY).
        shape = {"levels": [
            dict(L1),
            {"name": "l2", "sharing": "global", "size": 2 * 64, "assoc": 1,
             "banks": 2, "hit_latency": 23, "dir_latency": 8},
            {"name": "l3", "sharing": "global", "size": 1024 * 1024,
             "assoc": 16, "banks": 4, "hit_latency": 37, "dir_latency": 12},
        ]}
        cfg = SystemConfig(hierarchy=shape)
        sys = FabricHarness(GpuCoherence, cfg)
        l3 = sys.next_levels[0]
        assert sys.load(0, 0x100)["loc"] is ServiceLocation.MEMORY
        assert l3.misses == 1
        sys.load(0, 0x102)  # evicts 0x100 from the tiny L2
        sys.l1s[0].acquire_invalidate()
        out = sys.load(0, 0x100)
        assert out["loc"] is ServiceLocation.L2  # L3 caught it
        assert l3.hits == 1
        assert sys.l2.dram_fills == 2  # only the two cold misses hit DRAM


# ---------------------------------------------------------------------------
# Scenario cache keys and sweep axes
# ---------------------------------------------------------------------------

class TestHierarchyCacheKeys:
    def _scenario(self, hierarchy):
        return Scenario(
            "s", "streaming", {"num_tbs": 1, "warps_per_tb": 1},
            {"hierarchy": hierarchy},
        )

    def test_two_shapes_never_share_a_cache_entry(self):
        keys = {
            name: self._scenario(shape).key() for name, shape in SHAPES.items()
        }
        assert len(set(keys.values())) == len(keys)
        base = Scenario("s", "streaming", {"num_tbs": 1, "warps_per_tb": 1})
        assert base.key() not in set(keys.values())

    def test_equivalent_spellings_share_a_key(self):
        verbose = HierarchySpec.from_dict(SHARED_L3).to_dict()
        assert self._scenario(SHARED_L3).key() == self._scenario(verbose).key()

    def test_label_does_not_change_the_key(self):
        relabelled = dict(SHARED_L3, label="something-else")
        assert self._scenario(SHARED_L3).key() == self._scenario(relabelled).key()

    def test_sweep_axis_uses_shape_labels(self):
        base = Scenario("shapes", "streaming", {"num_tbs": 1, "warps_per_tb": 1})
        grid = Sweep(base, {"hierarchy": [SHARED_L3, PRIVATE_L2]}).expand()
        assert [s.name for s in grid] == [
            "shapes/hierarchy=shared-l3", "shapes/hierarchy=private-l2"
        ]
        assert grid[0].key() != grid[1].key()


# ---------------------------------------------------------------------------
# Replay over the fabric
# ---------------------------------------------------------------------------

class TestReplayOverFabric:
    def _record(self, tmp_path):
        from repro.trace import record_workload, save_trace

        cfg = SystemConfig(num_sms=2)
        result, trace = record_workload(
            cfg, make_workload("streaming", num_tbs=2, warps_per_tb=1),
            name="streaming",
        )
        path = str(tmp_path / "s.gsitrace")
        save_trace(trace, path)
        return result, trace

    def test_replay_exact_on_default_fabric(self, tmp_path):
        from repro.trace import replay_trace

        result, trace = self._record(tmp_path)
        replayed = replay_trace(trace)
        assert replayed.cycles == result.cycles

    @pytest.mark.parametrize("shape", ["shared-l3", "private-l2", "l1-bypass"])
    def test_replay_under_swept_hierarchy(self, tmp_path, shape):
        from repro.trace import replay_trace

        _, trace = self._record(tmp_path)
        replayed = replay_trace(trace, overrides={"hierarchy": SHAPES[shape]})
        assert replayed.cycles > 0
        assert replayed.stats["replay"]["events_injected"] == trace.num_events
