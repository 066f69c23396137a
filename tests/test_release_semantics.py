"""Integration tests for release/acquire ordering semantics.

The consistency contract the workloads rely on (data-race-free, Chapter 5):
a release write becomes visible only after all prior stores of its warp are
flushed, and an acquire self-invalidates so subsequent reads see released
data.  These tests watch the actual message order at the L2.
"""

import pytest

from repro.core.stall_types import MemStructCause, StallType
from repro.gpu.instruction import Instruction
from repro.gpu.kernel import uniform_grid
from repro.noc.message import MsgType
from repro.sim.config import Protocol, SystemConfig
from repro.system import System


def run_kernel(system, kernel):
    return system.run_kernel(kernel)


class TestReleaseOrdering:
    def test_release_write_performs_after_prior_stores(self):
        """The release EXCH must reach the L2 after the flushed PUT_WTs."""
        system = System(SystemConfig(num_sms=1))
        order = []
        table = system.l2._service_table

        def spy(service):
            # Recorded at service time, when the bank pipeline runs it.
            def spied(msg):
                order.append(msg.mtype)
                return service(msg)

            return spied

        for mtype in (MsgType.PUT_WT, MsgType.ATOMIC):
            table[mtype] = spy(table[mtype])

        def factory(tb, w):
            def program(ctx):
                yield Instruction.store([0x10_0000], value=1)
                yield Instruction.store([0x10_0040], value=2)
                yield Instruction.atomic_exch(0x20_0000, 0, release=True)

            return program

        run_kernel(system, uniform_grid("rel", 1, 1, factory))
        atomic_at = order.index(MsgType.ATOMIC)
        assert order[:atomic_at].count(MsgType.PUT_WT) == 2

    def test_releasing_warp_continues_past_the_unlock(self):
        """Fire-and-forget release: the warp issues younger non-memory work
        while its release is still in flight."""
        system = System(SystemConfig(num_sms=1))
        issue_cycles = []

        def factory(tb, w):
            def program(ctx):
                yield Instruction.store([0x10_0000], value=1)
                yield Instruction.atomic_exch(0x20_0000, 0, release=True)
                yield Instruction.alu(dst=1, tag="after")
                issue_cycles.append(system.engine.now)

            return program

        result = run_kernel(system, uniform_grid("rel", 1, 1, factory))
        # The ALU retired well before the release round trip (~40 cycles)
        # could have completed.
        assert issue_cycles[0] < 40
        assert result.cycles > issue_cycles[0]

    def test_pending_release_blocks_other_warps_memory_ops(self):
        """A second warp's load is rejected with PENDING_RELEASE while the
        first warp's release flush is in flight."""
        system = System(SystemConfig(num_sms=1))

        def factory(tb, w):
            def program(ctx):
                if w == 0:
                    for i in range(4):
                        yield Instruction.store([0x10_0000 + i * 64], value=i)
                    yield Instruction.atomic_exch(0x20_0000, 0, release=True)
                else:
                    yield Instruction.alu(dst=1)
                    for i in range(8):
                        yield Instruction.load([0x30_0000 + i * 64], dst=2)

            return program

        result = run_kernel(system, uniform_grid("rel", 1, 2, factory))
        assert result.breakdown.mem_struct[MemStructCause.PENDING_RELEASE] > 0

    def test_sfifo_lets_other_warps_through(self):
        system = System(SystemConfig(num_sms=1, sfifo_release=True))

        def factory(tb, w):
            def program(ctx):
                if w == 0:
                    for i in range(4):
                        yield Instruction.store([0x10_0000 + i * 64], value=i)
                    yield Instruction.atomic_exch(0x20_0000, 0, release=True)
                else:
                    yield Instruction.alu(dst=1)
                    for i in range(8):
                        yield Instruction.load([0x30_0000 + i * 64], dst=2)

            return program

        result = run_kernel(system, uniform_grid("rel", 1, 2, factory))
        assert result.breakdown.mem_struct[MemStructCause.PENDING_RELEASE] == 0


class TestAcquireSemantics:
    @pytest.mark.parametrize(
        "proto,survives",
        [(Protocol.GPU_COHERENCE, 0), (Protocol.DENOVO, 1)],
    )
    def test_acquire_invalidation_scope(self, proto, survives):
        """GPU coherence drops everything on acquire; DeNovo keeps owned
        lines.  Observed through the L1 occupancy after a CAS-acquire."""
        system = System(SystemConfig(num_sms=1, protocol=proto))
        occupancy = []

        def factory(tb, w):
            def program(ctx):
                yield Instruction.load([0x10_0000], dst=1)   # VALID line
                yield Instruction.store([0x10_0040], value=1)  # OWNED (DeNovo)
                old = yield Instruction.atomic_cas(0x20_0000, 0, 1, acquire=True)
                occupancy.append(len(system.sms[0].l1.cache.owned_lines()))

            return program

        run_kernel(system, uniform_grid("acq", 1, 1, factory))
        assert occupancy[0] == survives

    def test_acquire_waits_classified_sync(self):
        system = System(SystemConfig(num_sms=1))

        def factory(tb, w):
            def program(ctx):
                for _ in range(4):
                    yield Instruction.atomic_cas(0x20_0000, 1, 2, acquire=True)

            return program

        result = run_kernel(system, uniform_grid("acq", 1, 1, factory))
        assert result.breakdown.counts[StallType.SYNC] > 0
        # The acquire round trips dominate this kernel.
        assert result.breakdown.fraction(StallType.SYNC) > 0.5
