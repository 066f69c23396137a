"""End-to-end stall classification: run small kernels and assert the
dominant stall type matches the engineered bottleneck.

These are the system-level contract tests for GSI: each synthetic workload
is built to make one stall class dominate, so a classification regression
shows up as the wrong dominant cause.
"""

import json

import pytest

from repro.core.stall_types import MemStructCause, ServiceLocation, StallType
from repro.gpu.instruction import Instruction
from repro.gpu.kernel import uniform_grid
from repro.sim.config import SystemConfig
from repro.system import System, run_workload
from repro.workloads import make_workload
from repro.workloads.synthetic import (
    BurstStoreWorkload,
    ComputeHeavyWorkload,
    IdleTailWorkload,
    LockContentionWorkload,
    PointerChaseWorkload,
    StreamingWorkload,
)


def dominant_stall(breakdown):
    return max(StallType, key=lambda s: breakdown.counts[s])


def dominant_non_issue(breakdown):
    stalls = {s: n for s, n in breakdown.counts.items() if s is not StallType.NO_STALL}
    return max(stalls, key=stalls.get)


class TestDominantCauses:
    def test_pointer_chase_is_memory_data_bound(self):
        r = run_workload(SystemConfig(num_sms=2), PointerChaseWorkload())
        assert dominant_stall(r.breakdown) is StallType.MEM_DATA
        # Chain lines are distinct: serviced at L2 or memory, never remote.
        assert r.breakdown.mem_data[ServiceLocation.REMOTE_L1] == 0

    def test_lock_contention_is_sync_bound(self):
        r = run_workload(SystemConfig(num_sms=4), LockContentionWorkload())
        assert dominant_non_issue(r.breakdown) is StallType.SYNC

    def test_compute_heavy_has_compute_stalls_only(self):
        r = run_workload(SystemConfig(num_sms=2), ComputeHeavyWorkload())
        bd = r.breakdown
        assert bd.counts[StallType.MEM_DATA] == 0
        assert bd.counts[StallType.MEM_STRUCT] == 0
        assert bd.counts[StallType.COMP_DATA] > 0

    def test_burst_store_hits_store_buffer_limit(self):
        r = run_workload(
            SystemConfig(num_sms=1, store_buffer_entries=4), BurstStoreWorkload()
        )
        assert r.breakdown.mem_struct[MemStructCause.STORE_BUFFER_FULL] > 0

    def test_idle_tail_shows_idle_stalls(self):
        r = run_workload(SystemConfig(num_sms=4), IdleTailWorkload())
        assert r.breakdown.counts[StallType.IDLE] > 0

    def test_streaming_total_is_execution_time_times_sms(self):
        cfg = SystemConfig(num_sms=2)
        r = run_workload(cfg, StreamingWorkload(num_tbs=2))
        assert r.breakdown.total_cycles == cfg.num_sms * r.cycles


class TestBreakdownInvariants:
    @pytest.fixture(scope="class")
    def result(self):
        return run_workload(SystemConfig(num_sms=2), StreamingWorkload())

    def test_per_sm_sums_to_aggregate(self, result):
        from repro.core.breakdown import StallBreakdown

        merged = StallBreakdown.merged(result.per_sm)
        assert merged.counts == result.breakdown.counts

    def test_every_cycle_is_attributed(self, result):
        for sm_bd in result.per_sm:
            assert sm_bd.total_cycles == result.cycles

    def test_subtaxonomies_consistent(self, result):
        result.breakdown.validate()

    def test_instructions_issued_match_no_stall_floor(self, result):
        # With issue_width=1, issued instructions == no-stall cycles.
        assert result.instructions == result.breakdown.counts[StallType.NO_STALL]


class TestControlStalls:
    def test_fetch_delay_produces_control_stalls(self):
        def factory(tb, w):
            def program(ctx):
                for _ in range(20):
                    yield Instruction.nop(fetch_delay=5)

            return program

        kernel = uniform_grid("control", 1, 1, factory)
        system = System(SystemConfig(num_sms=1))
        r = system.run_kernel(kernel)
        assert r.breakdown.counts[StallType.CONTROL] > 50


class TestMshrPressure:
    def test_small_mshr_creates_structural_stalls(self):
        small = run_workload(
            SystemConfig(num_sms=1, mshr_entries=2),
            StreamingWorkload(num_tbs=1, warps_per_tb=4),
        )
        big = run_workload(
            SystemConfig(num_sms=1, mshr_entries=64),
            StreamingWorkload(num_tbs=1, warps_per_tb=4),
        )
        assert (
            small.breakdown.mem_struct[MemStructCause.MSHR_FULL]
            > big.breakdown.mem_struct[MemStructCause.MSHR_FULL]
        )
        assert small.cycles >= big.cycles


class TestL1Coalescing:
    def test_concurrent_warps_same_line_coalesce(self):
        """Two warps load the same cold line: warp 0 fire-and-forget (the
        primary miss), warp 1 dependent (the secondary miss).  Warp 1 is the
        only stalled warp, so the cycle detail is its access group, which
        resolves to L1_COALESCE when the primary's response services it."""

        def factory(tb, w):
            def program(ctx):
                if w == 0:
                    yield Instruction.load([0x5_0000])
                else:
                    yield Instruction.load(
                        [0x5_0000], dst=1, returns_value=True, value_addr=0x5_0000
                    )

            return program

        kernel = uniform_grid("coalesce", 1, 2, factory)
        system = System(SystemConfig(num_sms=1))
        r = system.run_kernel(kernel)
        assert r.breakdown.mem_data[ServiceLocation.L1_COALESCE] > 0
        assert r.stats["l1"]["sm0"]["mshr_merges"] == 1


class TestGsiDisabled:
    def test_disabled_inspector_records_nothing(self):
        r = run_workload(
            SystemConfig(num_sms=2, gsi_enabled=False), StreamingWorkload()
        )
        assert r.breakdown.total_cycles == 0
        assert r.cycles > 0  # the simulation itself still ran

    def test_disabled_matches_enabled_timing(self):
        """GSI is observational: turning it off must not change timing."""
        on = run_workload(SystemConfig(num_sms=2), StreamingWorkload())
        off = run_workload(
            SystemConfig(num_sms=2, gsi_enabled=False), StreamingWorkload()
        )
        assert on.cycles == off.cycles

    @pytest.mark.parametrize(
        "workload, args",
        [
            ("uts", {"total_nodes": 20}),
            ("implicit_dma", {"num_tbs": 2, "warps_per_tb": 4}),
            ("lock_contention", {}),
        ],
        ids=["uts", "implicit_dma", "lock_contention"],
    )
    def test_disabled_leaves_every_stat_identical(self, workload, args):
        """GSI is observational on every path -- UTS queues, the scratchpad
        and DMA engine, lock atomics: turning it off leaves the cycle count
        and every statistic of the machine byte-identical."""
        runs = [
            run_workload(
                SystemConfig(num_sms=4, gsi_enabled=enabled),
                make_workload(workload, **args),
            )
            for enabled in (True, False)
        ]
        on, off = runs
        assert off.cycles == on.cycles
        assert json.dumps(off.stats, sort_keys=True) == json.dumps(on.stats, sort_keys=True)
        assert off.stats_tree.flatten() == on.stats_tree.flatten()
