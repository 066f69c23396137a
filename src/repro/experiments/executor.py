"""Scenario executor: serial or multiprocess, with an on-disk result cache.

``execute()`` takes a list of :class:`~repro.experiments.spec.Scenario` and
returns one :class:`ScenarioRecord` per scenario **in input order**,
regardless of job count or completion order -- figure rendering and the
byte-identity guarantee (``--jobs 4`` == ``--jobs 1``) depend on that.

Every result crosses a JSON round-trip (even in-process serial runs) so the
three paths -- serial, worker pool, cache hit -- produce bit-identical
rehydrated results.  The cache key is the scenario hash
(:meth:`Scenario.key`): workload + args + config overrides, nothing else.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

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

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "key": self.scenario.key(),
            "result": self.result.to_dict(),
            "elapsed_s": self.elapsed_s,
            "cached": self.cached,
            "violations": list(self.violations),
        }


def simulate_scenario(spec_dict: dict, telemetry: dict | None = None) -> dict:
    """Worker entry point: simulate one scenario from its plain-dict form.

    Top-level (picklable) and dict-in/dict-out so it crosses the
    ``multiprocessing`` boundary under both fork and spawn start methods.

    ``telemetry`` (plain dict: ``out_dir`` plus optional ``sample_every``
    / ``stats_patterns``) attaches a per-cell telemetry session writing
    ``<out_dir>/<key>.jsonl`` -- keyed by the scenario hash, like the
    result cache, so re-labelled scenarios overwrite the same series.

    The payload carries wall-clock fields (``t_start``/``t_end``/``pid``)
    for live progress and the cells timeline; they are advisory extras --
    the cache tolerates their absence in pre-existing entries.
    """
    scenario = Scenario.from_dict(spec_dict)
    key = scenario.key()
    tel_cfg = cell_telemetry_config(telemetry, key, scenario.name)
    t0 = time.perf_counter()
    result = run_workload(scenario.build_config(), scenario.build_workload(), telemetry=tel_cfg)
    t1 = time.perf_counter()
    return {
        "version": CACHE_VERSION,
        "key": key,
        "result": result.to_dict(),
        "elapsed_s": t1 - t0,
        "t_start": t0,
        "t_end": t1,
        "pid": os.getpid(),
    }


def cell_telemetry_config(telemetry: dict | None, key: str, name: str):
    """Build the per-cell :class:`repro.obs.TelemetryConfig` from the plain
    batch-telemetry dict (``out_dir`` + optional ``sample_every`` /
    ``stats_patterns``), or ``None`` when telemetry is off.  Shared by every
    worker entry point (pool, planner, queue) so per-cell series are keyed
    and shaped identically no matter which lane simulated the cell."""
    if telemetry is None:
        return None
    from repro.obs import TelemetryConfig

    return TelemetryConfig(
        out=os.path.join(telemetry["out_dir"], "%s.jsonl" % key),
        sample_every=int(telemetry.get("sample_every", 5000)),
        stats_patterns=tuple(telemetry.get("stats_patterns", ())),
        heartbeat=False,
        run_id=key,
        label=name,
    )


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
# execution
# ---------------------------------------------------------------------------

def execute(
    scenarios: Sequence[Scenario],
    jobs: int = 1,
    cache_dir: str | None = None,
    progress: Callable[[str, float, bool, int, int], None] | None = None,
    telemetry: dict | None = None,
    results_db: str | None = None,
) -> list[ScenarioRecord]:
    """Run every scenario; results come back in input order.

    ``jobs > 1`` fans uncached scenarios out to a ``multiprocessing`` pool.
    Scenarios sharing a hash (identical simulation inputs under different
    names) are simulated once and served to every holder.

    ``progress`` is called once per unique cell as it resolves --
    ``progress(name, elapsed_s, cached, done, total)`` -- cache hits first,
    then fresh runs as they complete (streamed from the pool, in input
    order).  ``telemetry`` (see :func:`simulate_scenario`) attaches a
    per-cell telemetry session in each worker and writes an
    ``index.json`` name->key map next to the per-cell series.

    ``results_db`` names a SQLite results database
    (:class:`repro.results.db.ResultsDB`) to ingest the completed records
    into -- every run, breakdown row and stat leaf becomes queryable via
    ``repro report query`` (the ``sweep --db`` path).
    """
    scenarios = list(scenarios)
    seen: set[str] = set()
    for scenario in scenarios:
        scenario.validate()
        if scenario.name in seen:
            raise ValueError(
                "duplicate scenario name %r: reports key results by name, so "
                "one of the two would silently vanish" % scenario.name
            )
        seen.add(scenario.name)
    keys = [s.key() for s in scenarios]

    # Resolve cache hits and the unique set of misses.
    payloads: dict[str, dict] = {}
    cached: dict[str, bool] = {}
    cell_name: dict[str, str] = {}
    todo: list[tuple[str, Scenario]] = []
    pending: set[str] = set()
    for scenario, key in zip(scenarios, keys):
        cell_name.setdefault(key, scenario.name)
        if key in payloads or key in pending:
            continue
        hit = _cache_load(cache_dir, key)
        if hit is not None:
            payloads[key] = hit
            cached[key] = True
        else:
            todo.append((key, scenario))
            pending.add(key)

    total = len(payloads) + len(todo)
    done = 0
    if progress is not None:
        for key in payloads:
            done += 1
            progress(cell_name[key], float(payloads[key]["elapsed_s"]), True, done, total)

    if todo:
        worker = simulate_scenario
        if telemetry is not None:
            os.makedirs(telemetry["out_dir"], exist_ok=True)
            worker = functools.partial(simulate_scenario, telemetry=telemetry)
        spec_dicts = [s.to_dict() for _, s in todo]
        if jobs > 1 and len(todo) > 1:
            with multiprocessing.Pool(min(jobs, len(todo))) as pool:
                # imap (not map) so completions stream back for progress
                # reporting; input order is preserved either way.
                fresh = zip(todo, pool.imap(worker, spec_dicts))
                done = _consume_fresh(fresh, payloads, cached, cache_dir,
                                      progress, cell_name, done, total)
        else:
            fresh = ((item, worker(d)) for item, d in zip(todo, spec_dicts))
            done = _consume_fresh(fresh, payloads, cached, cache_dir,
                                  progress, cell_name, done, total)

    if telemetry is not None:
        _write_telemetry_index(telemetry, scenarios, keys, cached)

    records = []
    for scenario, key in zip(scenarios, keys):
        payload = payloads[key]
        result = SimResult.from_dict(payload["result"])
        is_cached = cached[key]
        record = ScenarioRecord(
            scenario=scenario,
            result=result,
            elapsed_s=float(payload["elapsed_s"]),
            cached=is_cached,
            violations=scenario.check(result),
            t_start_s=None if is_cached else payload.get("t_start"),
            t_end_s=None if is_cached else payload.get("t_end"),
            worker_pid=None if is_cached else payload.get("pid"),
        )
        if record_hook is not None:
            record_hook(record)
        records.append(record)
    if results_db is not None:
        from repro.results.db import ResultsDB

        with ResultsDB(results_db) as db:
            db.ingest_records(records, source="executor")
    return records


def _consume_fresh(
    fresh,
    payloads: dict,
    cached: dict,
    cache_dir: str | None,
    progress,
    cell_name: dict,
    done: int,
    total: int,
) -> int:
    """Fold freshly simulated payloads in as they arrive."""
    for (key, _), payload in fresh:
        # Normalize through JSON so serial in-process results are
        # bit-identical to pooled (pickled) and cached (file) ones.
        payload = json.loads(json.dumps(payload, sort_keys=True))
        _cache_store(cache_dir, key, payload)
        payloads[key] = payload
        cached[key] = False
        done += 1
        if progress is not None:
            progress(cell_name[key], float(payload["elapsed_s"]), False, done, total)
    return done


def _write_telemetry_index(telemetry: dict, scenarios, keys, cached: dict) -> None:
    """``index.json``: which scenario name maps to which per-cell series."""
    index = {
        "cells": {
            s.name: {"key": key, "cached": cached[key]}
            for s, key in zip(scenarios, keys)
        },
        "sample_every": int(telemetry.get("sample_every", 5000)),
    }
    path = os.path.join(telemetry["out_dir"], "index.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(index, fh, sort_keys=True, indent=2)


def results_by_name(records: Sequence[ScenarioRecord]) -> dict[str, SimResult]:
    """Name -> result map (insertion-ordered) for figure rendering."""
    return {r.scenario.name: r.result for r in records}
