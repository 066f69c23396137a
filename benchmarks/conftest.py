"""Shared benchmark configuration.

Every benchmark runs the full simulator, so each measurement is seconds
long: we use pedantic single-round timing (the simulator is deterministic,
so repeated rounds only measure Python jitter) and print the regenerated
paper artifact so ``pytest benchmarks/ --benchmark-only -s`` doubles as the
figure generator.

The figure functions now run through the scenario executor
(:mod:`repro.experiments.executor`), so this conftest also taps the
executor's ``record_hook`` to collect **per-scenario wall-clock** for every
simulation any benchmark triggers, and writes it to a JSON artifact
(``benchmarks/artifacts/scenario_timings.json`` by default; override with
``REPRO_TIMINGS``) for perf-trajectory tracking across commits.

Recording is gated to tests that live under ``benchmarks/`` (see
``_scenario_recording_window``): unit tests also drive the executor, and a
whole-repo pytest run must not rewrite the tracked artifacts with
throwaway unit-test scenarios.  The session *flush* is gated too (see
``_flush_intended``): a mixed whole-repo run leaves the tracked
trajectory untouched -- only a benchmarks-only session, or one whose
destination was explicitly redirected via ``REPRO_BENCH_ENGINE``,
rewrites it.
"""

import json
import os

import pytest

from repro.experiments import executor
from repro.results import bench_io

# Benchmark problem sizes live in the bench catalog (repro.experiments
# .bench) so `repro bench` and this suite measure identical scenarios;
# re-exported here because every benchmark file imports them from us.
from repro.experiments.bench import (  # noqa: F401  (re-export)
    IMPLICIT_TBS,
    IMPLICIT_WARPS,
    UTS_NODES,
)

#: per-scenario timings harvested from the executor during this session
_TIMINGS: list[dict] = []

#: True only while a test from benchmarks/ is running; the executor hook
#: stays installed for the session but must not record scenarios triggered
#: by unit tests (tests/ also exercises the executor in whole-repo runs,
#: and its throwaway scenarios would pollute the tracked artifact).
_RECORDING = False

#: extra named sections for BENCH_engine.json, registered by benchmark
#: tests via :func:`add_bench_section` and merged in at session flush
#: (e.g. ``campaign_cells``, the replay-first campaign throughput row)
_EXTRA_SECTIONS: dict[str, dict] = {}

#: True when the session collected tests from outside benchmarks/ (a
#: whole-repo ``pytest`` run); see :func:`_flush_intended`
_MIXED_SESSION = False


def pytest_collection_modifyitems(session, config, items):
    global _MIXED_SESSION
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    _MIXED_SESSION = any(
        not str(item.fspath).startswith(bench_dir + os.sep) for item in items
    )


def _flush_intended(mixed_session: bool) -> bool:
    """Whether this session may write the trajectory artifacts.

    The tracked ``BENCH_engine.json`` is the CI perf-gate baseline, so
    only a session that *deliberately* measured it gets to rewrite it: a
    benchmarks-only run (``pytest benchmarks/ --benchmark-only``), or any
    run whose destination was explicitly redirected via
    ``REPRO_BENCH_ENGINE`` (CI's bench-smoke job).  A mixed whole-repo
    ``pytest`` run also executes every benchmark, but interleaved with
    ~900 unit tests -- its single-shot timings are load-depressed, and
    silently committing them as the baseline is exactly how a transient
    stall ends up gating future PRs.
    """
    return not mixed_session or "REPRO_BENCH_ENGINE" in os.environ


def add_bench_section(name: str, payload: dict) -> None:
    """Attach a named section to ``BENCH_engine.json`` at session flush.

    Per-scenario cycles/sec rows flow through the record hook; benchmarks
    that measure something coarser (campaign throughput, end-to-end
    pipelines) publish a whole section here instead.  Last writer per
    name wins within a session; sections absent from this session are
    carried through from the committed artifact untouched.

    Tests must reach this through the ``bench_section`` fixture: pytest
    imports this conftest under its own module name, so a plain
    ``from benchmarks.conftest import add_bench_section`` can bind a
    *second* module instance whose section dict the session flush never
    reads.
    """
    _EXTRA_SECTIONS[name] = payload


@pytest.fixture
def bench_section():
    """The session's :func:`add_bench_section` (see its docstring)."""
    return add_bench_section


def _timings_path() -> str:
    return os.environ.get(
        "REPRO_TIMINGS",
        os.path.join(os.path.dirname(__file__), "artifacts", "scenario_timings.json"),
    )


def _bench_engine_path() -> str:
    return os.environ.get(
        "REPRO_BENCH_ENGINE",
        os.path.join(os.path.dirname(__file__), "artifacts", "BENCH_engine.json"),
    )


def _record(record) -> None:
    if not _RECORDING:  # scenario came from a non-benchmark test
        return
    if record.cached:  # cache hits carry the original run's time, not ours
        return
    _TIMINGS.append(
        {
            "scenario": record.scenario.name,
            "key": record.scenario.key(),
            "workload": record.scenario.workload,
            "cycles": record.result.cycles,
            "engine_events": record.result.stats.get("engine", {}).get("events"),
            "elapsed_s": round(record.elapsed_s, 6),
        }
    )


@pytest.fixture(scope="session", autouse=True)
def scenario_timing_artifact():
    """Tap the executor for the whole session; flush the JSON artifacts.

    Two files land in ``benchmarks/artifacts/``:

    * ``scenario_timings.json`` -- raw per-scenario wall-clock (legacy
      artifact; entries now also carry ``engine_events``);
    * ``BENCH_engine.json`` -- the engine perf trajectory: cycles/sec and
      wall-clock per fig-6.x scenario, the number the hot-loop work is
      benchmarked against across commits.
    """
    previous = executor.record_hook
    executor.record_hook = _record
    yield
    executor.record_hook = previous
    if not _TIMINGS and not _EXTRA_SECTIONS:
        return
    if not _flush_intended(_MIXED_SESSION):
        print(
            "\n[benchmarks/conftest] mixed session (tests outside "
            "benchmarks/ ran): trajectory artifacts NOT rewritten; run "
            "'pytest benchmarks/ --benchmark-only' or set "
            "REPRO_BENCH_ENGINE to measure deliberately"
        )
        return
    if _TIMINGS:
        path = _timings_path()
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"scenarios": _TIMINGS}, fh, indent=2, sort_keys=True)
    # One entry per scenario *key* (workload + args + config overrides):
    # several benchmarks re-run the same configuration under different
    # display names, and cross-commit comparison needs an unambiguous row
    # per configuration.  First (uncached) run wins.
    deduped: dict[str, dict] = {}
    for t in _TIMINGS:
        deduped.setdefault(
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
    # The merge itself (pair rows by key, evict stale rows sharing a
    # display identity with a re-measured one, carry untouched sections
    # verbatim, overwrite extra named sections) is the shared
    # bench_io.merge_rows contract -- the same one `repro bench --update`
    # uses, so a partial session (CI's bench-smoke runs only the fig6.3
    # grid; developers run single files) refreshes the rows it
    # re-measured and never silently loses the rest.
    bench_io.merge_rows(
        _bench_engine_path(),
        "scenarios",
        list(deduped.values()),
        extra_sections=_EXTRA_SECTIONS,
    )


@pytest.fixture(autouse=True)
def _scenario_recording_window():
    """Record executor scenarios only while a *benchmark* test runs.

    This conftest only applies to tests under ``benchmarks/``, so this
    function-scoped autouse fixture is the scoping mechanism: in a
    whole-repo pytest run the session hook sees every executor call, but
    only the ones made inside a benchmark test land in the artifacts.
    """
    global _RECORDING
    _RECORDING = True
    yield
    _RECORDING = False


@pytest.fixture
def pause_scenario_recording():
    """Suppress per-scenario BENCH rows for one benchmark test.

    Campaign-throughput benchmarks run the same cells as the matrix
    benchmark but measure a different thing (replay-first scheduling, so
    half the cells are trace replays); letting their records into the
    per-scenario trajectory would mix replay wall-clock into execution
    rows.  Such tests publish a section via :func:`add_bench_section`
    instead.
    """
    global _RECORDING
    _RECORDING = False
    yield


def run_once(benchmark, fn):
    """Time one deterministic simulation run and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture
def show():
    """Print a rendered artifact beneath the benchmark output."""

    def _show(text):
        print()
        print(text)

    return _show
