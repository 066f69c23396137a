"""Tests for system assembly, thread-block scheduling, and the CPU core."""

import pytest

from repro.core.stall_types import ServiceLocation
from repro.gpu.instruction import Instruction
from repro.gpu.kernel import Kernel, ThreadBlock, uniform_grid
from repro.sim.config import LocalMemory, SystemConfig
from repro.system import System, run_workload
from repro.workloads.synthetic import StreamingWorkload


def alu_kernel(num_tbs, warps_per_tb, iters=8, **kwargs):
    def factory(tb, w):
        def program(ctx):
            for _ in range(iters):
                yield Instruction.alu(dst=1, srcs=(1,))

        return program

    return uniform_grid("alu", num_tbs, warps_per_tb, factory, **kwargs)


class TestSystemAssembly:
    def test_node_placement_distinct(self):
        system = System(SystemConfig())
        assert len(system.sm_nodes) == 15
        assert system.cpu_nodes == [15]
        assert set(system.sm_nodes).isdisjoint(system.cpu_nodes)

    def test_every_node_has_dispatcher(self):
        system = System(SystemConfig())
        assert len(system.mesh._handlers) == 16

    def test_local_memory_wiring(self):
        for lm, has_dma, has_stash in [
            (LocalMemory.NONE, False, False),
            (LocalMemory.SCRATCHPAD, False, False),
            (LocalMemory.SCRATCHPAD_DMA, True, False),
            (LocalMemory.STASH, False, True),
        ]:
            system = System(SystemConfig(num_sms=1, local_memory=lm))
            sm = system.sms[0]
            assert (sm.dma is not None) == has_dma
            assert (sm.stash is not None) == has_stash
            assert (sm.scratchpad is not None) == (lm is not LocalMemory.NONE)

    def test_too_many_cores_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(num_sms=16, num_cpus=1)

    def test_stats_collection(self):
        system = System(SystemConfig(num_sms=2))
        r = system.run_kernel(alu_kernel(1, 1))
        assert "mesh" in r.stats and "l2" in r.stats and "engine" in r.stats
        assert "sm0" in r.stats["l1"]


class TestThreadBlockScheduling:
    def test_all_blocks_complete(self):
        system = System(SystemConfig(num_sms=2))
        r = system.run_kernel(alu_kernel(8, 2))
        assert r.cycles > 0

    def test_occupancy_limit_respected(self):
        """With a warp limit of 2 and 2-warp TBs, each SM runs one TB at
        a time; more TBs than SMs means refills happen."""
        system = System(SystemConfig(num_sms=2))
        kernel = alu_kernel(6, 2, warps_per_sm_limit=2)
        r = system.run_kernel(kernel)
        assert r.cycles > 0

    def test_oversized_tb_rejected(self):
        system = System(SystemConfig(num_sms=1, max_warps_per_sm=2))
        with pytest.raises(ValueError):
            system.run_kernel(alu_kernel(1, 4))

    def test_empty_kernel_rejected(self):
        system = System(SystemConfig(num_sms=1))
        with pytest.raises(ValueError):
            system.run_kernel(Kernel(name="empty", thread_blocks=[]))

    def test_empty_tb_rejected(self):
        system = System(SystemConfig(num_sms=1))
        with pytest.raises(ValueError):
            system.run_kernel(
                Kernel(name="bad", thread_blocks=[ThreadBlock(0, [])])
            )

    def test_uneven_blocks_idle_some_sms(self):
        """More SMs than blocks leaves SMs idle for the whole run."""
        from repro.core.stall_types import StallType

        system = System(SystemConfig(num_sms=4))
        r = system.run_kernel(alu_kernel(1, 1, iters=64))
        idle_sms = [
            bd for bd in r.per_sm if bd.counts[StallType.IDLE] == r.cycles
        ]
        assert len(idle_sms) == 3


class TestRunWorkloadHelper:
    def test_applies_workload_config(self):
        from repro.workloads.implicit import ImplicitScratchpad

        r = run_workload(SystemConfig(), ImplicitScratchpad(num_tbs=1, warps_per_tb=4))
        assert r.config.num_sms == 1
        assert r.config.local_memory is LocalMemory.SCRATCHPAD

    def test_result_metadata(self):
        r = run_workload(SystemConfig(num_sms=2), StreamingWorkload(num_tbs=1))
        assert r.workload == "streaming"
        assert r.ipc > 0
        assert "streaming" in r.summary()


class TestCpuCore:
    def test_cpu_participates_in_coherence(self):
        """CPU stores are visible to GPU loads through the shared L2."""
        system = System(SystemConfig(num_sms=1))
        cpu = system.cpus[0]
        cpu.store(0x9000, 1234)
        out = {}
        system.engine.run()

        def done(loc, _rid):
            out["loc"] = loc

        system.sms[0].l1.load_line(system.config.line_of(0x9000), done)
        system.engine.run()
        assert system.memory.load_word(0x9000) == 1234
        # CPU uses DeNovo: the line is owned at the CPU's L1, so the GPU's
        # load was serviced by a remote-L1 forward.
        assert out["loc"] is ServiceLocation.REMOTE_L1

    def test_cpu_load(self):
        system = System(SystemConfig(num_sms=1))
        cpu = system.cpus[0]
        system.memory.store_word(0xA000, 77)
        got = []
        cpu.load(0xA000, lambda value, loc: got.append((value, loc)))
        system.engine.run()
        assert got[0][0] == 77
        assert cpu.loads_done == 1

    def test_kernel_launch_sync_flushes(self):
        system = System(SystemConfig(num_sms=1))
        cpu = system.cpus[0]
        cpu.store(0xB000, 5)
        cpu.launch_kernel_sync()
        system.engine.run()
        assert cpu.l1.sb_empty()


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        a = run_workload(SystemConfig(num_sms=3), StreamingWorkload())
        b = run_workload(SystemConfig(num_sms=3), StreamingWorkload())
        assert a.cycles == b.cycles
        assert a.breakdown.counts == b.breakdown.counts
        assert a.breakdown.mem_data == b.breakdown.mem_data
        assert a.breakdown.mem_struct == b.breakdown.mem_struct

    def test_access_group_tags_are_per_system(self):
        """Every System numbers its access groups from 1 with one counter
        its SMs share, and a run leaves no state behind in the SM module."""
        import repro.gpu.sm as sm_module

        first, second = System(SystemConfig(num_sms=2)), System(SystemConfig(num_sms=2))
        assert first.sms[0]._next_tag() == 1
        assert first.sms[1]._next_tag() == 2  # shared by the SMs
        assert second.sms[1]._next_tag() == 1

        before = {name: repr(value) for name, value in vars(sm_module).items()}
        run_workload(SystemConfig(num_sms=2), StreamingWorkload(num_tbs=2))
        assert {name: repr(value) for name, value in vars(sm_module).items()} == before
