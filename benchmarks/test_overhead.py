"""GSI overhead: the paper reports ~5% added simulation time.

The same representative workload runs with the inspector on and off:
attribution must record every cycle when on and nothing when off, and
the overhead experiment prints GSI's measured cost.  (Our Python
attribution costs more than the paper's C++ counters; the printed
percentage is the measured value.)
"""

from repro.sim.config import SystemConfig
from repro.system import run_workload
from repro.workloads.synthetic import StreamingWorkload


def _workload():
    return StreamingWorkload(num_tbs=8, warps_per_tb=4, elements_per_warp=64)


def test_simulation_with_gsi():
    result = run_workload(SystemConfig(num_sms=8, gsi_enabled=True), _workload())
    assert result.breakdown.total_cycles > 0


def test_simulation_without_gsi():
    result = run_workload(SystemConfig(num_sms=8, gsi_enabled=False), _workload())
    assert result.breakdown.total_cycles == 0  # nothing recorded


def test_overhead_summary():
    from repro.experiments.figures import overhead_experiment

    stats = overhead_experiment(repeats=2)
    print(
        "\nGSI overhead: %.1f%% (paper: ~5%%; with=%.3fs, without=%.3fs)"
        % (stats["overhead_pct"], stats["with_gsi_s"], stats["without_gsi_s"])
    )
    # GSI must not change simulated behaviour, only wall time; sanity-bound
    # the overhead so a pathological regression (e.g. quadratic attribution)
    # is caught.
    assert stats["overhead_pct"] < 100.0
