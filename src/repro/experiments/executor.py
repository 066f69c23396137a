"""Scenario executor: one task loop over a plan, with an on-disk result cache.

``execute()`` takes a list of :class:`~repro.experiments.spec.Scenario`
(or a replay-first :class:`~repro.experiments.plan.Plan`) and returns one
:class:`ScenarioRecord` per cell **in input order**, regardless of driver,
job count or completion order -- figure rendering and the byte-identity
guarantee (``--jobs 4`` == ``--jobs 1`` == ``--workers 2``) depend on that.

The loop owns progress, record building, the telemetry index and results
ingest; a driver only resolves tasks to payloads.  There are two: the
in-process / ``multiprocessing`` pool behind ``--jobs``, and the
filesystem queue behind ``--workers``/``--queue``
(:mod:`repro.experiments.dispatch`).  Both run each task through
:func:`_run_task`, so every fresh result crosses the same JSON round trip
and produces bit-identical rehydrated results on every path, cache hits
included.  The cache key is the scenario hash (:meth:`Scenario.key`):
workload + args + config overrides, nothing else.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.experiments.plan import Plan, PlannedCell, build_plan
from repro.experiments.spec import Scenario
from repro.system import SimResult, run_workload

#: cache format version; bump when the result payload shape changes
CACHE_VERSION = 1

#: observer called with each ScenarioRecord as it is produced (the
#: end-to-end benchmark's driver hooks it to time each cell)
record_hook: Callable[["ScenarioRecord"], None] | None = None


@dataclass
class ScenarioRecord:
    """One executed (or cache-served) scenario."""

    scenario: Scenario
    result: SimResult
    elapsed_s: float
    cached: bool
    violations: list[str] = field(default_factory=list)
    #: wall-clock span of the fresh simulation (``perf_counter`` domain,
    #: comparable across worker processes on Linux) -- ``None`` when the
    #: record was served from cache.  Feeds the campaign cells timeline;
    #: deliberately NOT part of :meth:`to_dict`, which is byte-stable.
    t_start_s: float | None = None
    t_end_s: float | None = None
    worker_pid: int | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def replayed(self) -> bool:
        """Served by a trace replay: no issue stage ran, so the result
        carries no GSI attribution of its own."""
        return self.scenario.workload == "trace"

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "key": self.scenario.key(),
            "result": self.result.to_dict(),
            "elapsed_s": self.elapsed_s,
            "cached": self.cached,
            "violations": list(self.violations),
        }


def simulate_scenario(
    spec_dict: dict, telemetry: dict | None = None, record_to: str | None = None
) -> dict:
    """Worker entry point: simulate one scenario from its plain-dict form.

    Top-level (picklable) and dict-in/dict-out so it crosses the
    ``multiprocessing`` boundary under both fork and spawn start methods.

    ``telemetry`` (plain dict: ``out_dir`` plus optional ``sample_every``
    / ``stats_patterns``) attaches a per-cell telemetry session writing
    ``<out_dir>/<key>.jsonl`` -- keyed by the scenario hash, like the
    result cache, so re-labelled scenarios overwrite the same series.

    ``record_to`` names a planner trace file: when it does not exist yet
    the run also captures a ``.gsitrace`` there, published atomically
    (pid-suffixed temp file, then ``os.replace``).  Recording is inert on
    the result, so the payload -- and the cache entry -- is byte-identical
    to a plain execution of the same scenario.

    The payload carries wall-clock fields (``t_start``/``t_end``/``pid``)
    for live progress and the cells timeline; they are advisory extras --
    the cache tolerates their absence in pre-existing entries.
    """
    scenario = Scenario.from_dict(spec_dict)
    key = scenario.key()
    tel_cfg = None
    if telemetry is not None:
        from repro.obs import TelemetryConfig

        tel_cfg = TelemetryConfig(
            out=os.path.join(telemetry["out_dir"], "%s.jsonl" % key),
            sample_every=int(telemetry.get("sample_every", 5000)),
            stats_patterns=tuple(telemetry.get("stats_patterns", ())),
            heartbeat=False,
            run_id=key,
            label=scenario.name,
        )
    if record_to is not None and os.path.exists(record_to):
        record_to = None
    if record_to is not None:
        from repro.trace import record_workload, save_trace
    t0 = time.perf_counter()
    if record_to is None:
        result = run_workload(scenario.build_config(), scenario.build_workload(), telemetry=tel_cfg)
    else:
        result, trace = record_workload(
            scenario.build_config(),
            scenario.build_workload(),
            name=scenario.workload,
            workload_args=scenario.workload_args,
            telemetry=tel_cfg,
        )
    t1 = time.perf_counter()
    if record_to is not None:
        os.makedirs(os.path.dirname(record_to) or ".", exist_ok=True)
        tmp = "%s.tmp.%d" % (record_to, os.getpid())
        save_trace(trace, tmp)
        # Concurrent recorders of the same group write identical bytes, so
        # a lost race is harmless: last rename wins with the same content.
        os.replace(tmp, record_to)
    return {
        "version": CACHE_VERSION,
        "key": key,
        "result": result.to_dict(),
        "elapsed_s": t1 - t0,
        "t_start": t0,
        "t_end": t1,
        "pid": os.getpid(),
    }


def _run_task(job: tuple[dict, str | None], telemetry: dict | None = None) -> dict:
    """Run one planned task on any driver: simulate it, normalise the
    payload through JSON, and store it in the cache.

    ``job`` is ``(task, cache_dir)`` with ``task`` from
    :meth:`PlannedCell.task`; ``cache_dir=None`` discards the payload (a
    cached record cell re-run only to restore its lost trace).  The JSON
    round trip makes in-process, pooled (pickled) and cached (file)
    payloads bit-identical.
    """
    task, cache_dir = job
    # extras only when set, so a one-argument stand-in entry point fits
    kwargs = {} if telemetry is None else {"telemetry": telemetry}
    if task.get("record_to"):
        kwargs["record_to"] = task["record_to"]
    payload = json.loads(json.dumps(simulate_scenario(task["scenario"], **kwargs), sort_keys=True))
    _cache_store(cache_dir, payload["key"], payload)
    return payload


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def _cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, "%s.json" % key)


def _cache_load(cache_dir: str | None, key: str) -> dict | None:
    if cache_dir is None:
        return None
    path = _cache_path(cache_dir, key)
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError:
        return None
    except ValueError:
        # Corrupt/truncated entry (killed writer, disk full): quarantine it
        # so the miss is visible (`repro cache verify` reports *.bad files)
        # instead of silently re-simulating against it forever.
        _quarantine(path)
        return None
    if not isinstance(payload, dict):
        _quarantine(path)
        return None
    if payload.get("version") != CACHE_VERSION or payload.get("key") != key:
        return None
    return payload


def _quarantine(path: str) -> None:
    try:
        os.replace(path, path + ".bad")
    except OSError:  # pragma: no cover - lost race with another process
        pass


def _cache_store(cache_dir: str | None, key: str, payload: dict) -> None:
    if cache_dir is None:
        return
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, key)
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# execution: one task loop, two drivers
# ---------------------------------------------------------------------------

def execute(
    scenarios: Sequence[Scenario] | Plan,
    jobs: int = 1,
    cache_dir: str | None = None,
    progress: Callable[[str, float, bool, int, int], None] | None = None,
    telemetry: dict | None = None,
    results_db: str | None = None,
    queue: Callable | None = None,
) -> list[ScenarioRecord]:
    """Run every cell of a batch; records come back in input order.

    ``scenarios`` is a list of scenarios (every cell executes) or a
    :class:`~repro.experiments.plan.Plan` (record cells also capture a
    trace; replay cells run once their trace exists).  Cells sharing a
    hash (identical simulation inputs under different names) are
    simulated once and served to every holder.

    The driver runs the tasks: by default a ``multiprocessing`` pool of
    ``jobs`` workers (in-process when ``jobs`` is 1); ``queue`` (a
    :class:`repro.experiments.dispatch.QueueDriver`) shards them over the
    filesystem queue instead, and ``jobs`` is then unused.

    ``progress`` is called once per resolved task --
    ``progress(name, elapsed_s, cached, done, total)`` -- in the order the
    driver resolves them (the pool: each wave's cache hits, then its fresh
    runs).  ``telemetry`` (see :func:`simulate_scenario`) attaches a
    per-cell telemetry session in each worker and writes an
    ``index.json`` name -> ``{key, cached, kind}`` map next to the
    per-cell series.  ``record_hook`` sees every record once, in input
    order.

    ``results_db`` names a SQLite results database
    (:class:`repro.results.db.ResultsDB`) to ingest the completed records
    into -- every run, breakdown row and stat leaf becomes queryable via
    ``repro report query`` (the ``sweep --db`` path).
    """
    plan = scenarios if isinstance(scenarios, Plan) else build_plan(scenarios, None)
    seen: set[str] = set()
    for cell in plan.cells:
        if cell.kind != "replay":
            cell.scenario.validate()
        if cell.name in seen:
            raise ValueError(
                "duplicate scenario name %r: reports key results by name, so "
                "one of the two would silently vanish" % cell.name
            )
        seen.add(cell.name)
    if telemetry is not None:
        os.makedirs(telemetry["out_dir"], exist_ok=True)

    driver = queue if queue is not None else functools.partial(_pool_driver, jobs)
    total, resolutions = driver(plan, cache_dir, telemetry)
    resolved: dict[str, tuple[dict, bool]] = {}
    done = 0
    for cell, payload, cached in resolutions:
        resolved.setdefault(cell.run_key(), (payload, cached))
        done += 1
        if progress is not None:
            progress(cell.name, float(payload["elapsed_s"]), cached, done, total)

    records = []
    for cell in plan.cells:
        payload, is_cached = resolved[cell.run_key()]
        result = SimResult.from_dict(payload["result"])
        record = ScenarioRecord(
            scenario=cell.run,
            result=result,
            elapsed_s=float(payload["elapsed_s"]),
            cached=is_cached,
            violations=cell.run.check(result),
            t_start_s=None if is_cached else payload.get("t_start"),
            t_end_s=None if is_cached else payload.get("t_end"),
            worker_pid=None if is_cached else payload.get("pid"),
        )
        if record_hook is not None:
            record_hook(record)
        records.append(record)

    if telemetry is not None:
        _write_telemetry_index(telemetry, plan, records)
    if results_db is not None:
        from repro.results.db import ResultsDB

        with ResultsDB(results_db) as db:
            db.ingest_records(records, source="executor")
    return records


def _pool_driver(jobs: int, plan: Plan, cache_dir: str | None, telemetry: dict | None):
    """The in-process / ``multiprocessing`` driver: ``(total, resolutions)``.

    Tasks run in two waves -- records and executions, then replays, whose
    traces (and so cache keys) exist only after the first wave.  Each
    wave yields its cache hits, then its fresh runs as they complete.
    """
    unique: dict[str, PlannedCell] = {}
    for cell in plan.cells:
        # A replay's own key needs its trace; equal cell inputs replay alike.
        unique.setdefault(cell.scenario.key() if cell.kind == "replay" else cell.run_key(), cell)
    waves = (
        [c for c in unique.values() if c.kind != "replay"],
        [c for c in unique.values() if c.kind == "replay"],
    )
    return len(unique), _pool_resolutions(jobs, waves, cache_dir, telemetry)


def _pool_resolutions(jobs, waves, cache_dir, telemetry):
    for wave in waves:
        work: list[tuple[dict, str | None]] = []
        fresh: list[PlannedCell | None] = []
        for cell in wave:
            hit = _cache_load(cache_dir, cell.run_key())
            if hit is not None:
                yield cell, hit, True
                # a cached record cell re-runs only to restore a lost trace
                if cell.kind != "record" or os.path.exists(cell.trace_path):
                    continue
            work.append((cell.task(), None if hit else cache_dir))
            fresh.append(None if hit else cell)
        if not work:
            continue
        run = functools.partial(_run_task, telemetry=telemetry)
        pool = multiprocessing.Pool(min(jobs, len(work))) if jobs > 1 and len(work) > 1 else None
        with pool or contextlib.nullcontext():
            # imap (not map) so completions stream back for progress
            # reporting; input order is preserved either way.
            payloads = pool.imap(run, work) if pool else map(run, work)
            for cell, payload in zip(fresh, payloads):
                if cell is not None:
                    yield cell, payload, False


def _write_telemetry_index(telemetry: dict, plan: Plan, records) -> None:
    """``index.json``: each cell's name -> its series key, whether it was
    cache-served, and its planned kind (execute/record/replay)."""
    index = {
        "cells": {
            cell.name: {"key": cell.run_key(), "cached": record.cached, "kind": cell.kind}
            for cell, record in zip(plan.cells, records)
        },
        "sample_every": int(telemetry.get("sample_every", 5000)),
    }
    path = os.path.join(telemetry["out_dir"], "index.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(index, fh, sort_keys=True, indent=2)


def results_by_name(records: Sequence[ScenarioRecord]) -> dict[str, SimResult]:
    """Name -> result map (insertion-ordered) for figure rendering."""
    return {r.scenario.name: r.result for r in records}
