"""Unit tests for the load/store unit's structural-hazard checks.

Every rejection reason maps to one of Section 4.4's memory structural
stall sub-classes; these tests pin the mapping and the check order.
"""

from repro.core.stall_types import MemStructCause
from repro.gpu.instruction import Instruction, Space
from repro.gpu.lsu import AccessGroup, Lsu
from repro.mem.coherence.gpu_coherence import GpuCoherence
from repro.mem.dma import DmaEngine, DmaTransfer
from repro.mem.scratchpad import Scratchpad
from repro.sim.config import SystemConfig

from tests.test_memory_system import MiniSystem


def make_lsu(config=None, with_dma=False):
    sys = MiniSystem(GpuCoherence, config)
    cfg = sys.config
    pad = Scratchpad(cfg.scratchpad_size, cfg.scratchpad_banks)
    dma = DmaEngine(cfg, sys.engine, sys.l1s[0], pad) if with_dma else None
    lsu = Lsu(cfg, sys.l1s[0], scratchpad=pad, dma=dma)
    return sys, lsu


def warp_load(base, lanes=32, stride=4, **kw):
    return Instruction.load([base + i * stride for i in range(lanes)], dst=1, **kw)


class TestAddressHelpers:
    def test_lines_are_deduplicated_in_order(self):
        _, lsu = make_lsu()
        instr = Instruction.load([0x100, 0x104, 0x140, 0x108])
        assert lsu.lines_of(instr) == [0x100 >> 6, 0x140 >> 6]
        # first-lane order, not sorted order; repeats after a gap collapse
        instr = Instruction.load([0x1C0, 0x100, 0x1C4, 0x140, 0x104, 0x1C8])
        assert lsu.lines_of(instr) == [0x1C0 >> 6, 0x100 >> 6, 0x140 >> 6]

    def test_bank_conflict_degree(self):
        _, lsu = make_lsu()
        # 8 L1 banks: lines 0 and 8 collide.
        assert lsu.l1_bank_conflict_degree([0, 8]) == 2
        assert lsu.l1_bank_conflict_degree([0, 1, 2, 3]) == 1
        assert lsu.l1_bank_conflict_degree([]) == 1


class TestOccupancy:
    def test_occupy_blocks_following_cycles(self):
        _, lsu = make_lsu()
        lsu.occupy(now=10, cycles=2)
        instr = warp_load(0x1000)
        assert lsu.check(instr, now=11) is MemStructCause.BANK_CONFLICT
        assert lsu.check(instr, now=12) is MemStructCause.BANK_CONFLICT
        assert lsu.check(instr, now=13) is None

    def test_zero_occupancy_does_not_block(self):
        _, lsu = make_lsu()
        lsu.occupy(now=10, cycles=0)
        assert lsu.check(warp_load(0x1000), now=11) is None


class TestMshrAdmission:
    def test_load_rejected_when_mshr_lacks_room(self):
        cfg = SystemConfig(mshr_entries=2)
        sys, lsu = make_lsu(cfg)
        # a 32-lane, 4B-stride load covers 2 lines: fits exactly
        assert lsu.check(warp_load(0x1000), now=0) is None
        # 8B stride covers 4 lines: more than the whole MSHR -- admitted
        # only against an *idle* MSHR (issued in waves), rejected while
        # anything is in flight.
        wide = warp_load(0x2000, stride=8)
        assert lsu.check(wide, now=0) is None
        sys.l1s[0].load_line(0x999, lambda loc, rid: None)
        assert lsu.check(wide, now=0) is MemStructCause.MSHR_FULL

    def test_full_mshr_blocks_head_of_line(self):
        cfg = SystemConfig(mshr_entries=1)
        sys, lsu = make_lsu(cfg)
        sys.l1s[0].load_line(0x999, lambda loc, rid: None)
        assert sys.l1s[0].mshr.is_full()
        # even a would-be L1 hit load is blocked while the MSHR is full
        assert lsu.check(warp_load(0x1000, lanes=1), now=0) is MemStructCause.MSHR_FULL

    def test_merging_load_passes_despite_full_mshr(self):
        cfg = SystemConfig(mshr_entries=1)
        sys, lsu = make_lsu(cfg)
        sys.l1s[0].load_line(0x40, lambda loc, rid: None)  # line 0x40 in flight
        merging = warp_load(0x40 << 6, lanes=1)             # same line by address
        assert lsu.check(merging, now=0) is None

    def test_atomics_bypass_mshr_check(self):
        cfg = SystemConfig(mshr_entries=1)
        sys, lsu = make_lsu(cfg)
        sys.l1s[0].load_line(0x999, lambda loc, rid: None)
        atomic = Instruction.atomic_add(0x4000, 1)
        assert lsu.check(atomic, now=0) is None


class TestStoreAdmission:
    def test_store_rejected_when_sb_lacks_room(self):
        cfg = SystemConfig(store_buffer_entries=2)
        sys, lsu = make_lsu(cfg)
        # 4 lines > the whole buffer: admitted only against an *idle*
        # store path (overflow drip-fed), rejected once anything occupies
        # the buffer.
        store = Instruction.store([0x1000 + i * 64 for i in range(4)])
        assert lsu.check(store, now=0) is None
        sys.l1s[0].store_line(0x40)
        assert lsu.check(store, now=0) is MemStructCause.STORE_BUFFER_FULL
        narrow = Instruction.store([0x2000, 0x2040])
        assert lsu.check(narrow, now=0) is MemStructCause.STORE_BUFFER_FULL

    def test_store_accepted_when_room_exists(self):
        cfg = SystemConfig(store_buffer_entries=2)
        sys, lsu = make_lsu(cfg)
        narrow = Instruction.store([0x1000, 0x1040])
        assert lsu.check(narrow, now=0) is None

    def test_combinable_store_accepted_when_full(self):
        cfg = SystemConfig(store_buffer_entries=1)
        sys, lsu = make_lsu(cfg)
        sys.l1s[0].store_line(0x40)
        same_line = Instruction.store([0x40 << 6])
        assert lsu.check(same_line, now=0) is None


class TestReleaseWindow:
    def test_release_blocks_memory_instructions(self):
        _, lsu = make_lsu()
        lsu.begin_release()
        assert lsu.check(warp_load(0x1000), now=0) is MemStructCause.PENDING_RELEASE
        store = Instruction.store([0x2000])
        assert lsu.check(store, now=0) is MemStructCause.PENDING_RELEASE
        lsu.end_release()
        assert lsu.check(warp_load(0x1000), now=0) is None

    def test_atomics_pass_during_release(self):
        _, lsu = make_lsu()
        lsu.begin_release()
        assert lsu.check(Instruction.atomic_add(0x40, 1), now=0) is None

    def test_sfifo_disables_release_blocking(self):
        cfg = SystemConfig(sfifo_release=True)
        _, lsu = make_lsu(cfg)
        lsu.begin_release()
        assert lsu.check(warp_load(0x1000), now=0) is None


class TestPendingDma:
    def test_scratch_access_blocked_during_inbound_dma(self):
        sys, lsu = make_lsu(with_dma=True)
        lsu.dma.start(
            DmaTransfer(global_base=0x1000, scratch_base=0, size=512, to_scratch=True)
        )
        scratch = Instruction.load([0], space=Space.SCRATCH)
        assert lsu.check(scratch, now=0) is MemStructCause.PENDING_DMA
        sys.engine.run()
        assert lsu.check(scratch, now=sys.engine.now) is None

    def test_global_access_not_blocked_by_dma(self):
        sys, lsu = make_lsu(with_dma=True)
        lsu.dma.start(
            DmaTransfer(global_base=0x1000, scratch_base=0, size=128, to_scratch=True)
        )
        # global loads are throttled only by the MSHR, not by pending DMA
        cause = lsu.check(warp_load(0x8000), now=0)
        assert cause in (None, MemStructCause.MSHR_FULL)


class TestAccessGroup:
    def test_final_location_is_last_completion(self):
        from repro.core.stall_types import ServiceLocation

        group = AccessGroup(tag=1, remaining=3)
        assert not group.line_done(ServiceLocation.L1)
        assert not group.line_done(ServiceLocation.L2)
        assert group.line_done(ServiceLocation.MEMORY)
        assert group.final_loc is ServiceLocation.MEMORY

    def test_rejection_statistics(self):
        _, lsu = make_lsu()
        lsu.begin_release()
        lsu.check(warp_load(0x1000), now=0)
        assert lsu.rejections[MemStructCause.PENDING_RELEASE] == 1
