"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.breakdown import StallBreakdown
from repro.core.classifier import (
    InstructionSnapshot,
    classify_cycle,
    classify_instruction,
)
from repro.core.stall_types import (
    CYCLE_PRIORITY,
    StallType,
)
from repro.mem.cache import LineState, SetAssocCache
from repro.mem.main_memory import GlobalMemory
from repro.mem.mshr import Mshr
from repro.mem.scratchpad import Scratchpad
from repro.mem.store_buffer import StoreBuffer
from repro.noc.mesh import Mesh
from repro.sim.engine import Engine
from repro.workloads.uts import generate_tree

# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
def test_engine_events_fire_in_time_order(delays):
    engine = Engine()
    fired = []
    for d in delays:
        engine.schedule(d, lambda d=d: fired.append(engine.now))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert engine.now == max(delays)


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------

stall_lists = st.lists(st.sampled_from(list(StallType)), min_size=1, max_size=12)


@given(stall_lists)
def test_cycle_cause_is_among_inputs(causes):
    assert classify_cycle(causes) in causes


@given(stall_lists)
def test_cycle_cause_is_weakest_present(causes):
    result = classify_cycle(causes)
    rank = {s: i for i, s in enumerate(CYCLE_PRIORITY)}
    assert rank[result] == min(rank[c] for c in causes)


@given(stall_lists)
def test_cycle_classification_permutation_invariant(causes):
    assert classify_cycle(causes) == classify_cycle(list(reversed(causes)))


@given(stall_lists)
def test_any_issue_wins(causes):
    assert classify_cycle(causes + [StallType.NO_STALL]) is StallType.NO_STALL


snapshot_strategy = st.builds(
    InstructionSnapshot,
    no_active_warp=st.booleans(),
    next_instruction_unavailable=st.booleans(),
    blocked_for_synchronization=st.booleans(),
    data_hazard_on_load=st.booleans(),
    structural_hazard_on_lsu=st.booleans(),
    data_hazard_on_compute=st.booleans(),
    structural_hazard_on_compute_unit=st.booleans(),
    can_issue=st.just(True),
)


@given(snapshot_strategy)
def test_instruction_classification_matches_priority_table(snap):
    """Algorithm 1 == first-true-condition over the documented priority."""
    conditions = [
        (snap.no_active_warp, StallType.IDLE),
        (snap.next_instruction_unavailable, StallType.CONTROL),
        (snap.blocked_for_synchronization, StallType.SYNC),
        (snap.data_hazard_on_load, StallType.MEM_DATA),
        (snap.structural_hazard_on_lsu, StallType.MEM_STRUCT),
        (snap.data_hazard_on_compute, StallType.COMP_DATA),
        (snap.structural_hazard_on_compute_unit, StallType.COMP_STRUCT),
    ]
    expected = next((s for cond, s in conditions if cond), StallType.NO_STALL)
    assert classify_instruction(snap) is expected


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "lookup", "invalidate", "acquire"]),
        st.integers(min_value=0, max_value=63),
        st.sampled_from(list(LineState)),
    ),
    max_size=80,
)


@given(cache_ops)
def test_cache_occupancy_bounded_and_consistent(ops):
    cache = SetAssocCache(num_sets=4, assoc=2)
    shadow: dict[int, LineState] = {}
    for op, line, state in ops:
        if op == "insert":
            victim = cache.insert(line, state)
            shadow[line] = state
            if victim is not None:
                assert shadow.pop(victim[0]) == victim[1]
        elif op == "lookup":
            assert (cache.lookup(line) is not None) == (line in shadow)
        elif op == "invalidate":
            assert (cache.invalidate(line) is not None) == (line in shadow)
            shadow.pop(line, None)
        else:  # acquire
            cache.invalidate_all(keep_owned=True)
            shadow = {l: s for l, s in shadow.items() if s is LineState.OWNED}
        assert cache.occupancy() == len(shadow)
        assert cache.occupancy() <= 4 * 2
    assert sorted(cache.lines()) == sorted(shadow.items())


# ---------------------------------------------------------------------------
# MSHR
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.sampled_from(["alloc", "merge", "complete"]),
                  st.integers(min_value=0, max_value=7)),
        max_size=60,
    )
)
def test_mshr_tracks_distinct_outstanding_lines(ops):
    mshr = Mshr(capacity=4)
    outstanding = set()
    for op, line in ops:
        if op == "alloc" and line not in outstanding and len(outstanding) < 4:
            mshr.allocate(line, req_id=line)
            outstanding.add(line)
        elif op == "merge" and line in outstanding:
            mshr.merge(line, object())
        elif op == "complete" and line in outstanding:
            mshr.complete(line)
            outstanding.remove(line)
    assert mshr.occupancy == len(outstanding)
    assert set(mshr.outstanding_lines()) == outstanding
    assert mshr.is_full() == (len(outstanding) == 4)


# ---------------------------------------------------------------------------
# Store buffer
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.sampled_from(["write", "drain", "ack"]),
                  st.integers(min_value=0, max_value=5)),
        max_size=60,
    )
)
def test_store_buffer_occupancy_and_ack_discipline(ops):
    # Acked entries are pooled and re-armed by later stores, so the issue
    # order is recorded by sequence number at issue time, not by reference.
    issued = []
    sb = StoreBuffer(capacity=4, issue_fn=lambda e: issued.append(e.seq))
    in_flight = []
    for op, line in ops:
        if op == "write" and sb.can_accept(line):
            sb.write(line)
        elif op == "drain":
            entry = sb.drain_one()
            if entry is not None:
                in_flight.append(entry)
        elif op == "ack" and in_flight:
            entry = in_flight.pop(0)
            sb.ack(entry.line, seq=entry.seq)
        assert sb.occupancy <= 4
    # Everything issued was issued exactly once, in seq order.
    assert issued == sorted(set(issued))


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=20))
def test_store_buffer_flush_fires_after_draining(lines):
    issued = []
    sb = StoreBuffer(capacity=64, issue_fn=issued.append)
    for line in lines:
        sb.write(line)
    fired = []
    sb.flush(lambda: fired.append(True))
    while sb.has_pending():
        sb.drain_one()
    for entry in list(issued):
        sb.ack(entry.line, seq=entry.seq)
    assert fired == [True]
    assert sb.is_empty()


# ---------------------------------------------------------------------------
# Mesh
# ---------------------------------------------------------------------------

nodes = st.integers(min_value=0, max_value=15)


@given(nodes, nodes)
def test_mesh_hops_symmetric(a, b):
    mesh = Mesh(Engine(), 4, 4)
    assert mesh.hops(a, b) == mesh.hops(b, a)
    assert mesh.hops(a, a) == 0


@given(nodes, nodes, nodes)
def test_mesh_triangle_inequality(a, b, c):
    mesh = Mesh(Engine(), 4, 4)
    assert mesh.hops(a, c) <= mesh.hops(a, b) + mesh.hops(b, c)


@given(nodes, nodes)
def test_mesh_route_steps_are_adjacent(a, b):
    mesh = Mesh(Engine(), 4, 4)
    path = mesh.xy_route(a, b)
    assert path[0] == a and path[-1] == b
    for u, v in zip(path, path[1:]):
        assert mesh.hops(u, v) == 1


# ---------------------------------------------------------------------------
# Breakdown algebra
# ---------------------------------------------------------------------------

breakdowns = st.builds(
    lambda counts: _build_breakdown(counts),
    st.lists(st.integers(min_value=0, max_value=100), min_size=8, max_size=8),
)


def _build_breakdown(counts):
    bd = StallBreakdown()
    for stall, n in zip(StallType, counts):
        bd.add(stall, n)
    return bd


@given(breakdowns, breakdowns)
def test_merge_commutative(a, b):
    assert a.merge(b).counts == b.merge(a).counts


@given(breakdowns, breakdowns, breakdowns)
def test_merge_associative(a, b, c):
    assert a.merge(b).merge(c).counts == a.merge(b.merge(c)).counts


@given(breakdowns)
def test_dict_roundtrip(bd):
    assert StallBreakdown.from_dict(bd.to_dict()).counts == bd.counts


@given(breakdowns)
def test_fractions_sum_to_one(bd):
    if bd.total_cycles:
        assert abs(sum(bd.fraction(s) for s in StallType) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# Functional memory
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=30),
                  st.integers(min_value=-5, max_value=5)),
        max_size=40,
    )
)
def test_atomic_add_sequence_matches_fold(ops):
    mem = GlobalMemory()
    shadow: dict[int, int] = {}
    for slot, delta in ops:
        addr = slot * 4
        old, result = mem.atomic_rmw(addr, lambda v, d=delta: (v + d, v))
        assert old == result == shadow.get(addr, 0)
        shadow[addr] = shadow.get(addr, 0) + delta
    for addr, value in shadow.items():
        assert mem.load_word(addr) == value


# ---------------------------------------------------------------------------
# Scratchpad bank conflicts
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=1020), min_size=1, max_size=32))
def test_conflict_degree_bounds(addrs):
    pad = Scratchpad(size=1024, banks=32)
    degree = pad.conflict_degree(addrs)
    assert 1 <= degree <= len(addrs)
    # degree equals the true max bucket count
    buckets: dict[int, int] = {}
    for a in addrs:
        buckets[pad.bank_of(a)] = buckets.get(pad.bank_of(a), 0) + 1
    assert degree == max(buckets.values())


# ---------------------------------------------------------------------------
# UTS tree generator
# ---------------------------------------------------------------------------


@settings(max_examples=25)
@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=2**16),
)
def test_generated_tree_is_a_tree(n, seed):
    children = generate_tree(n, seed)
    assert len(children) == n
    parents = [0] * n
    for kids in children:
        for k in kids:
            parents[k] += 1
    assert parents[0] == 0
    assert all(p == 1 for p in parents[1:])
    # Reachability: BFS from the root covers every node.
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for k in children[node]:
            assert k not in seen
            seen.add(k)
            frontier.append(k)
    assert len(seen) == n
