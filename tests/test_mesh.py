"""Unit tests for the XY-routed mesh interconnect."""

import pytest

import repro.noc.mesh
import repro.noc.message
from repro.noc.mesh import Mesh
from repro.noc.message import REQUEST_TYPES, Message, MsgType
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.system import System, run_workload
from repro.workloads import make_workload


def make_mesh(rows=4, cols=4, hop=3, bw=2):
    engine = Engine()
    mesh = Mesh(engine, rows, cols, hop_latency=hop, endpoint_bw=bw)
    return engine, mesh


def msg(src, dst, line=0x40, mtype=MsgType.DATA):
    return Message(mtype, src, dst, line, 0)


class TestTopology:
    def test_coords_roundtrip(self):
        _, mesh = make_mesh()
        assert mesh.coords(0) == (0, 0)
        assert mesh.coords(5) == (1, 1)
        assert mesh.coords(15) == (3, 3)

    def test_hops_is_manhattan_distance(self):
        _, mesh = make_mesh()
        assert mesh.hops(0, 0) == 0
        assert mesh.hops(0, 3) == 3
        assert mesh.hops(0, 15) == 6
        assert mesh.hops(5, 10) == 2

    def test_xy_route_goes_x_first(self):
        _, mesh = make_mesh()
        path = mesh.xy_route(0, 15)
        assert path == [0, 1, 2, 3, 7, 11, 15]

    def test_xy_route_westward(self):
        _, mesh = make_mesh()
        assert mesh.xy_route(3, 0) == [3, 2, 1, 0]

    def test_route_length_matches_hops(self):
        _, mesh = make_mesh()
        for src in range(16):
            for dst in range(16):
                assert len(mesh.xy_route(src, dst)) == mesh.hops(src, dst) + 1

    def test_bad_node_rejected(self):
        _, mesh = make_mesh()
        with pytest.raises(ValueError):
            mesh.coords(16)
        with pytest.raises(ValueError):
            Mesh(Engine(), 0, 4)


class TestDelivery:
    def test_message_delivered_after_hop_latency(self):
        engine, mesh = make_mesh(hop=3)
        got = []
        mesh.attach(15, got.append)
        delivery = mesh.send(msg(0, 15))
        assert delivery >= 6 * 3  # 6 hops at 3 cycles each
        engine.run()
        assert len(got) == 1
        assert engine.now == delivery

    def test_send_requires_attached_handler(self):
        _, mesh = make_mesh()
        with pytest.raises(ValueError):
            mesh.send(msg(0, 15))

    def test_double_attach_rejected(self):
        _, mesh = make_mesh()
        mesh.attach(0, lambda m: None)
        with pytest.raises(ValueError):
            mesh.attach(0, lambda m: None)

    def test_same_node_delivery_is_fast(self):
        engine, mesh = make_mesh()
        got = []
        mesh.attach(3, got.append)
        delivery = mesh.send(msg(3, 3))
        assert delivery <= 2
        engine.run()
        assert got


class TestLanes:
    def test_request_types_reach_the_directory(self):
        engine, mesh = make_mesh()
        directory, core = [], []
        mesh.attach_directory(directory.append)
        mesh.attach(7, core.append)
        for mtype in REQUEST_TYPES:
            mesh.send(msg(0, 7, mtype=mtype))
        engine.run()
        assert {m.mtype for m in directory} == set(REQUEST_TYPES)
        assert core == []

    def test_responses_reach_the_destination_core(self):
        engine, mesh = make_mesh()
        directory, core7, core9 = [], [], []
        mesh.attach_directory(directory.append)
        mesh.attach(7, core7.append)
        mesh.attach(9, core9.append)
        responses = [t for t in MsgType if t not in REQUEST_TYPES]
        for mtype in responses:
            mesh.send(msg(0, 7, mtype=mtype))
        engine.run()
        assert [m.mtype for m in core7] == responses
        assert directory == [] and core9 == []

    def test_response_to_coreless_node_names_the_node(self):
        _, mesh = make_mesh()
        mesh.attach_directory(lambda m: None)
        mesh.attach(7, lambda m: None)
        with pytest.raises(ValueError, match="node 12"):
            mesh.send(msg(0, 12))

    def test_request_without_directory_raises(self):
        _, mesh = make_mesh()
        mesh.attach(7, lambda m: None)
        with pytest.raises(ValueError, match="no directory"):
            mesh.send(msg(0, 7, mtype=MsgType.GETS))

    def test_double_directory_attach_rejected(self):
        _, mesh = make_mesh()
        mesh.attach_directory(lambda m: None)
        with pytest.raises(ValueError):
            mesh.attach_directory(lambda m: None)


class TestContention:
    def test_injection_port_serializes(self):
        """N messages from one node depart at endpoint_bw per cycle."""
        engine, mesh = make_mesh(bw=1)
        got = []
        mesh.attach(1, got.append)
        times = [mesh.send(msg(0, 1)) for _ in range(8)]
        assert sorted(times) == times
        # one per cycle: deliveries are strictly increasing
        assert len(set(times)) == 8
        engine.run()
        assert len(got) == 8

    def test_ejection_port_serializes_across_senders(self):
        engine, mesh = make_mesh(bw=1)
        got = []
        mesh.attach(5, got.append)
        t1 = mesh.send(msg(4, 5))
        t2 = mesh.send(msg(6, 5))
        assert t2 != t1
        engine.run()
        assert len(got) == 2

    def test_higher_endpoint_bw_reduces_queueing(self):
        def last_delivery(bw):
            engine, mesh = make_mesh(bw=bw)
            mesh.attach(1, lambda m: None)
            return max(mesh.send(msg(0, 1)) for _ in range(16))

        assert last_delivery(4) < last_delivery(1)

    def test_stats_accumulate(self):
        engine, mesh = make_mesh()
        mesh.attach(15, lambda m: None)
        mesh.send(msg(0, 15))
        engine.run()
        stats = mesh.stats()
        assert stats["messages"] == 1
        assert stats["avg_hops"] == 6
        assert stats["avg_latency"] >= 18


def _module_state(module):
    return {
        name: value
        for name, value in vars(module).items()
        if not name.startswith("__")
    }


class TestMessagePool:
    def test_pool_stays_capped_across_runs(self):
        # Every run retires more messages into its system's pool than it
        # takes out; no pool may grow past the cap, and no two systems'
        # meshes share one.
        pools = []
        for _ in range(4):
            system = System(SystemConfig())
            system.run(make_workload("uts", total_nodes=20))
            pool = system.mesh._msg_pool
            assert 0 < len(pool) <= Mesh.MSG_POOL_CAP
            assert all(pool is not other for other in pools)
            pools.append(pool)

    def test_request_ids_are_per_mesh(self):
        _, first = make_mesh()
        _, second = make_mesh()
        assert [first.next_request_id() for _ in range(3)] == [0, 1, 2]
        assert second.next_request_id() == 0

    def test_recycle_respects_the_cap(self):
        _, mesh = make_mesh()
        for _ in range(Mesh.MSG_POOL_CAP + 5):
            mesh.recycle_message(msg(0, 1))
        assert len(mesh._msg_pool) == Mesh.MSG_POOL_CAP
        reused = mesh._msg_pool[-1]
        m = mesh.alloc_message(MsgType.ACK, 2, 3, 0x80, 9, None, None, None, None, None)
        assert m is reused and (m.mtype, m.src, m.dst, m.req_id) == (MsgType.ACK, 2, 3, 9)

    def test_run_leaves_noc_module_state_unchanged(self):
        modules = (repro.noc, repro.noc.mesh, repro.noc.message)
        before = [_module_state(m) for m in modules]
        run_workload(SystemConfig(), make_workload("uts", total_nodes=20))
        after = [_module_state(m) for m in modules]
        for old, new in zip(before, after):
            assert old.keys() == new.keys()
            for name, value in old.items():
                assert new[name] is value, name
        # and none of it is a mutable container a run could fill
        for state in after:
            for name, value in state.items():
                assert not isinstance(value, (list, dict, set)), name
