"""Unit tests for the XY-routed mesh interconnect."""

import pytest

from repro.noc import message
from repro.noc.mesh import Mesh
from repro.noc.message import Message, MsgType
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.system import run_workload
from repro.workloads import make_workload


def make_mesh(rows=4, cols=4, hop=3, bw=2):
    engine = Engine()
    mesh = Mesh(engine, rows, cols, hop_latency=hop, endpoint_bw=bw)
    return engine, mesh


def msg(src, dst, line=0x40):
    return Message(mtype=MsgType.GETS, src=src, dst=dst, line=line)


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


class TestMessagePool:
    def test_pool_stays_capped_across_runs(self):
        # Every run retires more messages into the pool than it takes out;
        # four runs in one process must not grow it past the cap.
        for _ in range(4):
            run_workload(SystemConfig(), make_workload("uts", total_nodes=20))
            assert 0 < len(message._msg_pool) <= message.MSG_POOL_CAP
