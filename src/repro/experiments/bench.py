"""The benchmark scenario catalog behind ``repro bench``.

One place defines *what* the perf trajectory measures: the named groups
below run the exact experiment entry points the ``benchmarks/`` pytest
suite times, at the same problem sizes (the size constants live here and
``benchmarks/conftest.py`` imports them, so the CLI and the suite cannot
drift apart).  Rows are keyed by :meth:`Scenario.key` -- the stable hash
of the simulation inputs -- which is how they match up with the committed
``BENCH_engine.json`` trajectory (its ``scenarios`` section).
"""

from __future__ import annotations

import time
from typing import Callable

from repro.experiments import executor

#: benchmark problem sizes, scaled so the whole suite runs in minutes.
UTS_NODES = 120
IMPLICIT_TBS = 4
IMPLICIT_WARPS = 8


def _fig61() -> None:
    from repro.experiments.figures import fig61

    fig61(total_nodes=UTS_NODES)


def _fig62() -> None:
    from repro.experiments.figures import fig62

    fig62(total_nodes=UTS_NODES, include_uts_reference=True)


def _fig63() -> None:
    from repro.experiments.figures import fig63

    fig63(num_tbs=IMPLICIT_TBS, warps_per_tb=IMPLICIT_WARPS)


def _fig64() -> None:
    from repro.experiments.figures import fig64

    fig64(
        mshr_sizes=(32, 64, 128, 256),
        num_tbs=IMPLICIT_TBS,
        warps_per_tb=IMPLICIT_WARPS,
    )


def _hierarchy() -> None:
    from repro.experiments.figures import fig_hierarchy

    fig_hierarchy(total_nodes=UTS_NODES)


def _campaign() -> None:
    from repro.experiments.campaign import default_campaign, run_campaign

    run_campaign(default_campaign(fast=False))


#: repo-relative home of the fig6.1 UTS trace the replay group replays
#: (the same path ``benchmarks/test_trace_replay.py`` records to: the
#: scenario cache key embeds the path string, so CLI and suite rows share
#: one ``fig6.1-uts-replay`` key when run from the repo root)
REPLAY_TRACE_PATH = "benchmarks/artifacts/fig61-uts.gsitrace"

#: set once `_replay` has recorded the trace this process; re-records are
#: byte-identical by the trace-format contract, so later rounds of a
#: best-of-N measurement reuse the file instead of paying ~an execution
#: run per round
_replay_trace_ready = False


def _replay() -> None:
    import os

    from repro.experiments.spec import Scenario
    from repro.trace import record_workload, save_trace
    from repro.workloads import make_workload

    global _replay_trace_ready
    if not (_replay_trace_ready and os.path.exists(REPLAY_TRACE_PATH)):
        _, trace = record_workload(
            Scenario(
                "gpu-coh",
                "uts",
                {"total_nodes": UTS_NODES, "warps_per_tb": 4},
                {"protocol": "gpu"},
            ).build_config(),
            make_workload("uts", total_nodes=UTS_NODES, warps_per_tb=4),
            name="uts",
        )
        os.makedirs(os.path.dirname(REPLAY_TRACE_PATH), exist_ok=True)
        save_trace(trace, REPLAY_TRACE_PATH)
        _replay_trace_ready = True
    executor.execute(
        [Scenario("fig6.1-uts-replay", "trace", {"path": REPLAY_TRACE_PATH})]
    )


#: group name -> the experiment entry point the benchmark suite times.
GROUPS: dict[str, Callable[[], None]] = {
    "fig6.1": _fig61,
    "fig6.2": _fig62,
    "fig6.3": _fig63,
    "fig6.4": _fig64,
    "hierarchy": _hierarchy,
    "campaign": _campaign,
    "replay": _replay,
}


def _measure_once(groups: list[str]) -> list[dict]:
    """One measurement round: run the named groups uncached, one row per
    scenario key (first measurement of a key wins within the round)."""
    timings: list[dict] = []

    def record(rec) -> None:
        if rec.cached:
            return
        timings.append(
            {
                "scenario": rec.scenario.name,
                "key": rec.scenario.key(),
                "workload": rec.scenario.workload,
                "cycles": rec.result.cycles,
                "engine_events": rec.result.stats.get("engine", {}).get("events"),
                "elapsed_s": round(rec.elapsed_s, 6),
            }
        )

    previous = executor.record_hook
    executor.record_hook = record
    try:
        for name in groups:
            start = time.perf_counter()
            GROUPS[name]()
            print(
                "  %-10s done in %.1fs (%d scenario rows so far)"
                % (name, time.perf_counter() - start, len(timings))
            )
    finally:
        executor.record_hook = previous

    rows: dict[str, dict] = {}
    for t in timings:
        rows.setdefault(
            t["key"],
            {
                "scenario": t["scenario"],
                "key": t["key"],
                "workload": t["workload"],
                "cycles": t["cycles"],
                "engine_events": t["engine_events"],
                "wall_clock_s": t["elapsed_s"],
                "cycles_per_sec": (
                    round(t["cycles"] / t["elapsed_s"], 1) if t["elapsed_s"] else None
                ),
            },
        )
    return list(rows.values())


def measure(groups: list[str], rounds: int = 1) -> list[dict]:
    """Run the named groups uncached and return one row per scenario key.

    Taps the executor's ``record_hook`` exactly like the benchmark
    conftest: per-scenario wall clock comes from the executor itself, so
    a row covers the simulation alone (not rendering or claim checking).
    Several groups re-run the same configuration (fig6.2 includes the
    fig6.1 reference points); the first measurement of a key wins.

    With ``rounds > 1`` every group is measured that many times and, per
    scenario key, the round with the best ``cycles_per_sec`` wins.  The
    simulation itself is deterministic (``cycles`` and ``engine_events``
    are identical every round), so the spread across rounds is pure host
    jitter -- best-of-N filters out the transient stalls (scheduler
    preemption, page-cache pressure) that would otherwise land a one-off
    depressed row in the committed perf-gate baseline.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1, got %r" % (rounds,))
    best: dict[str, dict] = {}
    for rnd in range(rounds):
        if rounds > 1:
            print("round %d/%d:" % (rnd + 1, rounds))
        for row in _measure_once(groups):
            cur = best.get(row["key"])
            if cur is None or (row["cycles_per_sec"] or 0) > (
                cur["cycles_per_sec"] or 0
            ):
                best[row["key"]] = row
    return list(best.values())


# The artifact read/merge half of `repro bench` lives in
# repro.results.bench_io, shared with the CI perf gate and the benchmark
# conftest; these aliases keep the historical import surface working.
from repro.results.bench_io import load_section, merge_rows  # noqa: E402,F401
