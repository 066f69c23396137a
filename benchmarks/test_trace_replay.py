"""Trace replay: record fig 6.1's UTS run once, replay it.

The replay must reproduce the execution-driven run's memory-side statistics
*exactly* (it skips the GPU compute frontend and simulates only the memory
hierarchy).  The execution-driven run is the fig 6.1 GPU-coherence cell,
served from the session cache when the fig 6.1 test has run.
"""

from repro.experiments.executor import execute
from repro.experiments.spec import Scenario
from repro.trace import compare_replay, record_workload, save_trace
from repro.workloads import make_workload

from benchmarks.conftest import UTS_NODES

#: the exact fig 6.1 GPU-coherence scenario (same key as test_fig61_uts's
#: grid point)
_EXEC_SCENARIO = Scenario(
    "gpu-coh",
    "uts",
    {"total_nodes": UTS_NODES, "warps_per_tb": 4},
    {"protocol": "gpu"},
)


def test_trace_replay_exactness(show, tmp_path, sim_cache):
    trace_path = str(tmp_path / "fig61-uts.gsitrace")
    exec_record = execute([_EXEC_SCENARIO], cache_dir=sim_cache)[0]
    recorded_result, trace = record_workload(
        _EXEC_SCENARIO.build_config(),
        make_workload("uts", total_nodes=UTS_NODES, warps_per_tb=4),
        name="uts",
    )
    save_trace(trace, trace_path)
    replay_record = execute(
        [Scenario("fig6.1-uts-replay", "trace", {"path": trace_path})]
    )[0]

    mismatches = compare_replay(recorded_result, replay_record.result)
    assert not mismatches, "replay diverged from execution:\n" + "\n".join(
        mismatches
    )
    assert replay_record.result.cycles == exec_record.result.cycles
    show(
        "fig6.1 UTS (%d nodes) replayed exactly (trace: %d events)"
        % (UTS_NODES, replay_record.result.stats["replay"]["events_injected"])
    )
