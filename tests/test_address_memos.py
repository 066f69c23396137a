"""The LSU's per-instruction address memos agree with a fresh computation.

A waiting memory instruction is re-checked every cycle, so the LSU
memoizes its address-static facts on the instruction: the coalesced lines
and their L1 bank-conflict degree (keyed by the line shift and the L1 bank
count) and the stash's local->global line pairs (keyed by the stash and its
map version).  Each property here draws random lane addresses and machine
shapes and compares every memoized helper, before and after it is cached,
with the plain computation the memo replaced.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.instruction import Instruction, Space
from repro.gpu.lsu import Lsu
from repro.mem.coherence.denovo import DeNovoCoherence
from repro.mem.scratchpad import Scratchpad
from repro.mem.stash import Stash
from repro.sim.config import SystemConfig

from tests.test_memory_system import MiniSystem

line_sizes = st.sampled_from([32, 64, 128])
l1_bank_counts = st.sampled_from([1, 2, 4, 8, 16])
lanes = st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=40)


def fresh_lines(addrs, line_size):
    shift = line_size.bit_length() - 1
    return list(dict.fromkeys(a >> shift for a in addrs))


def fresh_degree(lines, banks):
    return max(Counter(line % banks for line in lines).values())


def make_lsu(line_size, l1_banks, stash=False):
    sys = MiniSystem(DeNovoCoherence, SystemConfig(line_size=line_size, l1_banks=l1_banks))
    cfg = sys.config
    pad = Scratchpad(cfg.scratchpad_size, cfg.scratchpad_banks)
    st_ = Stash(cfg, sys.engine, sys.l1s[0], pad) if stash else None
    return sys, Lsu(cfg, sys.l1s[0], scratchpad=pad, stash=st_)


# ---------------------------------------------------------------------------
# coalescing: lines and the L1 bank-conflict degree
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(lanes, line_sizes, l1_bank_counts)
def test_coalesced_matches_fresh(addrs, line_size, banks):
    _, lsu = make_lsu(line_size, banks)
    instr = Instruction.load(addrs)
    lines = fresh_lines(addrs, line_size)
    for _ in range(2):  # computed, then read from the memo
        assert lsu.lines_of(instr) == lines
        assert lsu.coalesced(instr) == (lines, fresh_degree(lines, banks))
        assert lsu.l1_bank_conflict_degree(lines) == fresh_degree(lines, banks)


@settings(max_examples=40, deadline=None)
@given(lanes, st.lists(st.tuples(line_sizes, l1_bank_counts), min_size=2, max_size=4))
def test_one_instruction_under_several_configs(addrs, shapes):
    """An instruction outlives the System that first checked it: each
    config must see its own lines, never another config's memo."""
    instr = Instruction.store(addrs)
    for line_size, banks in shapes + shapes[:1]:
        _, lsu = make_lsu(line_size, banks)
        lines = fresh_lines(addrs, line_size)
        assert lsu.coalesced(instr) == (lines, fresh_degree(lines, banks))


def test_line_size_change_recomputes():
    instr = Instruction.load([0, 40, 80, 120])
    _, small = make_lsu(32, 8)
    _, large = make_lsu(128, 8)
    assert small.lines_of(instr) == [0, 1, 2, 3]
    assert large.lines_of(instr) == [0]
    assert small.lines_of(instr) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# scratchpad bank conflicts
# ---------------------------------------------------------------------------
strided_lanes = st.builds(
    lambda base, stride, n: [base + stride * i for i in range(n)],
    st.integers(min_value=0, max_value=4096),
    st.sampled_from([0, 4, 8, 12, 16, 64, 128, 132]),
    st.integers(min_value=1, max_value=40),
)


@settings(max_examples=120, deadline=None)
@given(st.one_of(lanes, strided_lanes), st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
def test_scratchpad_conflict_degree_matches_fresh(addrs, banks):
    pad = Scratchpad(16 * 1024, banks)
    assert pad.conflict_degree(addrs) == max(Counter((a // 4) % banks for a in addrs).values())


def test_scratchpad_consecutive_words_are_conflict_free():
    pad = Scratchpad(16 * 1024, 32)
    assert pad.conflict_degree([0x200 + 4 * i for i in range(32)]) == 1
    assert pad.conflict_degree([0x200 + 8 * i for i in range(32)]) == 2
    assert pad.conflict_degree([0x200] * 3) == 3


# ---------------------------------------------------------------------------
# stash line pairs
# ---------------------------------------------------------------------------
def fresh_pairs(stash, addrs, shift):
    """(local line, global line) per distinct local line, first-lane order."""
    firsts = {}
    for a in addrs:
        firsts.setdefault(a >> shift, a)
    return [(lline, stash.global_line_of(a)) for lline, a in firsts.items()]


def fresh_fills(stash, mshr, addrs, shift):
    seen = set()
    need = 0
    for a in addrs:
        lline = a >> shift
        if lline in seen or stash.is_present(a) or lline in stash._filling:
            continue
        seen.add(lline)
        if mshr.lookup(stash.global_line_of(a)) is None:
            need += 1
    return need


def fresh_registrations(stash, addrs, shift):
    pairs = fresh_pairs(stash, addrs, shift)
    return [g for lline, g in pairs if not stash.is_dirty(lline << shift)]


def assert_stash_memo_fresh(sys, lsu, load, store, shift):
    stash, mshr = lsu.stash, sys.l1s[0].mshr
    for _ in range(2):
        pairs = lsu.stash_lines(load)
        assert [(lline, g) for lline, g, _ in pairs] == fresh_pairs(stash, load.addrs, shift)
        assert stash.fills_for(pairs) == fresh_fills(stash, mshr, load.addrs, shift)
        assert stash.fills_needed(load.addrs) == fresh_fills(stash, mshr, load.addrs, shift)
        assert stash.registrations(lsu.stash_lines(store)) == fresh_registrations(
            stash, store.addrs, shift
        )


stash_lanes = st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=40)


@settings(max_examples=40, deadline=None)
@given(
    stash_lanes,
    stash_lanes,
    line_sizes,
    st.sets(st.integers(min_value=0, max_value=4095), max_size=6),
    st.sets(st.integers(min_value=0, max_value=4095), max_size=6),
    st.sets(st.integers(min_value=0, max_value=63), max_size=8),
)
def test_stash_pairs_match_fresh_across_a_remap(
    load_addrs, store_addrs, line_size, valid, dirty, in_flight
):
    sys, lsu = make_lsu(line_size, 8, stash=True)
    stash = lsu.stash
    shift = line_size.bit_length() - 1
    stash.map_region(0, 0x40000, 4096)
    # some lines present, some dirty, some global lines of both the first
    # and the later mapping already in flight
    for a in valid:
        stash._valid.add(a >> shift)
    for a in dirty:
        stash.access_store(a)
    for off in in_flight:
        for base in (0x40000, 0x90000):
            sys.l1s[0].load_line((base >> shift) + off, lambda loc, rid: None)
    load = Instruction.load(load_addrs, space=Space.STASH)
    store = Instruction.store(store_addrs, space=Space.STASH)
    assert_stash_memo_fresh(sys, lsu, load, store, shift)
    # the same instructions after their space is remapped to other data
    stash.release_region(0, 4096)
    stash.map_region(0, 0x90000, 2048)
    stash.map_region(2048, 0x60000, 2048)
    assert_stash_memo_fresh(sys, lsu, load, store, shift)


def test_remap_changes_the_checked_global_lines():
    """A stash load checked before and after its space is remapped: the
    first check's memo must not answer the second."""
    sys, lsu = make_lsu(64, 8, stash=True)
    stash = lsu.stash
    stash.map_region(0, 0x5000, 1024)
    load = Instruction.load([0, 4, 64], space=Space.STASH)
    assert [g for _, g, _ in lsu.stash_lines(load)] == [0x5000 >> 6, 0x5040 >> 6]
    # put the old global lines in flight: no fresh MSHR entry needed
    for g in (0x5000 >> 6, 0x5040 >> 6):
        sys.l1s[0].load_line(g, lambda loc, rid: None)
    assert stash.fills_for(lsu.stash_lines(load)) == 0
    stash.release_region(0, 1024)
    assert [g for _, g, _ in lsu.stash_lines(load)] == [None, None]
    stash.map_region(0, 0x9000, 1024)
    assert [g for _, g, _ in lsu.stash_lines(load)] == [0x9000 >> 6, 0x9040 >> 6]
    assert stash.fills_for(lsu.stash_lines(load)) == 2
    assert lsu.check(load, now=0) is None


def test_unmapped_lane_raises_only_when_its_line_is_needed():
    sys, lsu = make_lsu(64, 8, stash=True)
    stash = lsu.stash
    stash.map_region(0, 0x5000, 32)  # half of local line 0
    load = Instruction.load([0, 40], space=Space.STASH)
    assert lsu.stash_lines(load) == [(0, 0x5000 >> 6, 0)]
    unmapped = Instruction.load([40], space=Space.STASH)
    assert lsu.stash_lines(unmapped) == [(0, None, 40)]
    with pytest.raises(KeyError, match="0x28 is not mapped"):
        lsu.check(unmapped, now=0)
    stash._valid.add(0)  # present lines need no translation
    assert lsu.check(unmapped, now=0) is None
    assert lsu.check(load, now=0) is None


def test_one_stash_instruction_under_two_stashes():
    """Two stashes at the same map version must not share a memo."""
    load = Instruction.load([0, 64], space=Space.STASH)
    for global_base in (0x5000, 0x9000, 0x5000):
        _, lsu = make_lsu(64, 8, stash=True)
        lsu.stash.map_region(0, global_base, 1024)
        assert [g for _, g, _ in lsu.stash_lines(load)] == [
            global_base >> 6, (global_base >> 6) + 1
        ]
