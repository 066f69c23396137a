"""Unit tests for the local-memory structures: scratchpad, DMA engine, stash."""

from collections import Counter

import pytest

from repro.core.stall_types import ServiceLocation
from repro.mem.coherence.denovo import DeNovoCoherence
from repro.mem.dma import DmaEngine, DmaTransfer
from repro.mem.scratchpad import Scratchpad
from repro.mem.stash import Stash
from repro.sim.config import SystemConfig

from tests.test_memory_system import MiniSystem


class TestScratchpad:
    def test_storage_roundtrip(self):
        pad = Scratchpad(size=1024, banks=32)
        pad.store_word(0x10, 42)
        assert pad.load_word(0x10) == 42
        assert pad.load_word(0x14) == 0

    def test_out_of_range_rejected(self):
        pad = Scratchpad(size=1024, banks=32)
        with pytest.raises(ValueError):
            pad.load_word(1024)
        with pytest.raises(ValueError):
            pad.store_word(-4, 1)

    def test_bank_mapping_is_word_interleaved(self):
        pad = Scratchpad(size=1024, banks=32)
        assert pad.bank_of(0) == 0
        assert pad.bank_of(4) == 1
        assert pad.bank_of(4 * 32) == 0

    def test_conflict_free_access_is_one_cycle(self):
        pad = Scratchpad(size=4096, banks=32, hit_latency=1)
        addrs = [i * 4 for i in range(32)]  # one word per bank
        assert pad.conflict_degree(addrs) == 1
        assert pad.access_cycles(addrs) == 1
        assert pad.conflict_cycles == 0

    def test_stride_two_gives_two_way_conflict(self):
        pad = Scratchpad(size=4096, banks=32, hit_latency=1)
        addrs = [i * 8 for i in range(32)]  # every other bank, twice each
        assert pad.conflict_degree(addrs) == 2
        assert pad.access_cycles(addrs) == 2
        assert pad.conflict_cycles == 1

    def test_same_word_broadcast_counts_as_conflict(self):
        # We model same-address lanes conservatively as serialized.
        pad = Scratchpad(size=4096, banks=32)
        assert pad.conflict_degree([0, 0, 0]) == 3

    def test_size_must_divide_banks(self):
        with pytest.raises(ValueError):
            Scratchpad(size=1000, banks=32)


def make_local_setup(config=None):
    sys = MiniSystem(DeNovoCoherence, config)
    cfg = sys.config
    pad = Scratchpad(cfg.scratchpad_size, cfg.scratchpad_banks)
    return sys, pad


class TestDmaEngine:
    def test_inbound_transfer_copies_data(self):
        sys, pad = make_local_setup()
        for off in range(0, 256, 4):
            sys.memory.store_word(0x1000 + off, off)
        dma = DmaEngine(sys.config, sys.engine, sys.l1s[0], pad)
        done = []
        dma.start(
            DmaTransfer(
                global_base=0x1000,
                scratch_base=0,
                size=256,
                to_scratch=True,
                on_done=lambda: done.append(sys.engine.now),
            )
        )
        assert dma.load_in_progress()
        assert dma.inbound == 1
        sys.engine.run()
        assert done
        assert not dma.load_in_progress()
        assert dma.inbound == 0
        assert pad.load_word(0x10) == 0x10
        assert dma.lines_loaded == 4

    def test_inbound_throttled_by_mshr(self):
        cfg = SystemConfig(mshr_entries=2)
        sys, pad = make_local_setup(cfg)
        dma = DmaEngine(cfg, sys.engine, sys.l1s[0], pad)
        dma.start(
            DmaTransfer(global_base=0x1000, scratch_base=0, size=1024, to_scratch=True)
        )
        sys.engine.run()
        assert dma.mshr_stall_cycles > 0
        assert dma.lines_loaded == 16

    @pytest.mark.xfail(
        strict=True,
        reason="each MSHR refill starts one more throttled polling chain, "
        "so mshr_stall_cycles counts polls, not cycles",
    )
    def test_throttled_dma_polls_once_per_cycle(self):
        cfg = SystemConfig(mshr_entries=2)
        sys, pad = make_local_setup(cfg)
        dma = DmaEngine(cfg, sys.engine, sys.l1s[0], pad)
        pump, pumps = dma._pump, Counter()

        def counted_pump():
            pumps[sys.engine.now] += 1
            pump()

        dma._pump = counted_pump
        dma.start(
            DmaTransfer(global_base=0x1000, scratch_base=0, size=1024, to_scratch=True)
        )
        sys.engine.run()
        assert dma.mshr_stall_cycles <= sys.engine.now
        assert max(pumps.values()) == 1

    @pytest.mark.parametrize("to_scratch", [True, False], ids=["inbound", "outbound"])
    def test_copy_past_the_scratchpad_end_is_rejected(self, to_scratch):
        sys, pad = make_local_setup()
        dma = DmaEngine(sys.config, sys.engine, sys.l1s[0], pad)
        # the first line copy straddles the end: its first word is in range
        dma.start(
            DmaTransfer(global_base=0x1000, scratch_base=pad.size - 32, size=128,
                        to_scratch=to_scratch)
        )
        with pytest.raises(ValueError, match="out of range"):
            sys.engine.run()
        assert dma.lines_loaded == dma.lines_stored == 0  # refused at the first line

    def test_outbound_transfer_writes_global(self):
        sys, pad = make_local_setup()
        for off in range(0, 128, 4):
            pad.store_word(off, off + 1)
        dma = DmaEngine(sys.config, sys.engine, sys.l1s[0], pad)
        dma.start(
            DmaTransfer(global_base=0x2000, scratch_base=0, size=128, to_scratch=False)
        )
        sys.engine.run()
        assert sys.memory.load_word(0x2000) == 1
        assert sys.memory.load_word(0x2000 + 124) == 125
        assert dma.lines_stored == 2

    def test_covers_reports_pending_region(self):
        sys, pad = make_local_setup()
        dma = DmaEngine(sys.config, sys.engine, sys.l1s[0], pad)
        dma.start(
            DmaTransfer(global_base=0x1000, scratch_base=512, size=256, to_scratch=True)
        )
        assert dma.covers(512)
        assert dma.covers(700)
        assert not dma.covers(0)
        sys.engine.run()
        assert not dma.covers(512)

    def test_outbound_does_not_block_scratch_loads(self):
        sys, pad = make_local_setup()
        dma = DmaEngine(sys.config, sys.engine, sys.l1s[0], pad)
        dma.start(
            DmaTransfer(global_base=0x2000, scratch_base=0, size=128, to_scratch=False)
        )
        assert not dma.load_in_progress()
        assert dma.inbound == 0
        assert dma.any_in_progress()


class TestStash:
    def make_stash(self, config=None):
        sys, pad = make_local_setup(config)
        stash = Stash(sys.config, sys.engine, sys.l1s[0], pad)
        return sys, stash

    def test_unmapped_access_rejected(self):
        _, stash = self.make_stash()
        with pytest.raises(KeyError):
            stash.mapping_for(0x100)
        stash.map_region(0, 0x5000, 256)
        with pytest.raises(KeyError):
            stash.mapping_for(256)

    def test_mapping_for_returns_the_first_match(self):
        _, stash = self.make_stash()
        stash.map_region(0, 0x5000, 1024)
        stash.map_region(512, 0x9000, 1024)  # overlaps the first
        assert stash.mapping_for(600).global_base == 0x5000
        assert stash.mapping_for(1023).global_base == 0x5000
        assert stash.mapping_for(1024).global_base == 0x9000

    def test_first_load_fills_from_global(self):
        sys, stash = self.make_stash()
        sys.memory.store_word(0x5000, 77)
        stash.map_region(0, 0x5000, 1024)
        locs = []
        stash.access_load(0, locs.append)
        sys.engine.run()
        assert locs == [ServiceLocation.MEMORY]  # cold: DRAM
        assert stash.is_present(0)
        assert stash.storage.load_word(0) == 77

    def test_second_load_hits_locally(self):
        sys, stash = self.make_stash()
        stash.map_region(0, 0x5000, 1024)
        locs = []
        stash.access_load(0, locs.append)
        sys.engine.run()
        stash.access_load(4, locs.append)  # same line
        sys.engine.run()
        assert locs[1] is ServiceLocation.L1
        assert stash.hits == 1

    def test_concurrent_loads_coalesce_on_fill(self):
        sys, stash = self.make_stash()
        stash.map_region(0, 0x5000, 1024)
        locs = []
        stash.access_load(0, locs.append)
        stash.access_load(4, locs.append)  # same local line, fill in flight
        sys.engine.run()
        assert len(locs) == 2
        assert stash.fills == 1

    def test_store_marks_dirty_and_writeback_drains(self):
        sys, stash = self.make_stash()
        stash.map_region(0, 0x5000, 1024)
        stash.storage.store_word(64, 123)
        stash.access_store(64)
        assert stash.is_dirty(64)
        stash.writeback_dirty_range(0, 1024)
        sys.engine.run()
        assert stash.writeback_idle()
        assert sys.memory.load_word(0x5000 + 64) == 123
        assert stash.writebacks == 1

    def test_release_region_unmaps_but_still_writes_back(self):
        sys, stash = self.make_stash()
        stash.map_region(0, 0x5000, 1024)
        stash.storage.store_word(0, 9)
        stash.access_store(0)
        stash.release_region(0, 1024)
        with pytest.raises(KeyError):
            stash.mapping_for(0)
        sys.engine.run()
        assert sys.memory.load_word(0x5000) == 9

    def test_remap_after_release_reads_new_region(self):
        sys, stash = self.make_stash()
        sys.memory.store_word(0x5000, 1)
        sys.memory.store_word(0x9000, 2)
        stash.map_region(0, 0x5000, 1024)
        got = []
        stash.access_load(0, got.append)
        sys.engine.run()
        assert stash.storage.load_word(0) == 1
        stash.release_region(0, 1024)
        stash.map_region(0, 0x9000, 1024)
        assert not stash.is_present(0)
        stash.access_load(0, got.append)
        sys.engine.run()
        assert stash.storage.load_word(0) == 2

    def test_fills_needed_counts_distinct_missing_lines(self):
        sys, stash = self.make_stash()
        stash.map_region(0, 0x5000, 1024)
        addrs = [0, 4, 64, 128]
        assert stash.fills_needed(addrs) == 3
        got = []
        stash.access_load(0, got.append)
        assert stash.fills_needed(addrs) == 2  # line 0 now filling

    def test_fills_needed_skips_valid_filling_and_merging_lines(self):
        sys, stash = self.make_stash()
        stash.map_region(0, 0x5000, 1024)
        stash.access_load(0, lambda loc: None)
        sys.engine.run()  # local line 0 valid
        stash.access_load(64, lambda loc: None)  # local line 1 filling
        # local line 2's global line is already in flight in the L1's MSHR
        sys.l1s[0].load_line(stash.global_line_of(128), lambda loc, rid: None)
        assert stash.fills_needed([0, 4, 64, 68, 128, 132]) == 0
        assert stash.fills_needed([192, 0, 196, 64, 128, 256]) == 2
        # remapped while filling: the line still waits on its old fill
        stash.release_region(0, 1024)
        stash.map_region(0, 0x9000, 1024)
        assert stash.fills_needed([64]) == 0

    def test_fill_past_the_scratchpad_end_is_rejected(self):
        sys, stash = self.make_stash()
        end = stash.storage.size
        stash.map_region(end - 64, 0x5000, 128)
        stash.access_load(end, lambda loc: None)
        with pytest.raises(ValueError, match="out of range"):
            sys.engine.run()

    def test_global_line_of_translates(self):
        sys, stash = self.make_stash()
        stash.map_region(0, 0x5000, 1024)
        assert stash.global_line_of(64) == (0x5000 + 64) >> 6
