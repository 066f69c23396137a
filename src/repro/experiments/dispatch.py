"""Filesystem-backed distributed campaign queue.

One campaign, N workers, any mix of processes and machines sharing a
filesystem view.  The coordinator writes one task file per planned cell
(:mod:`repro.experiments.plan`) into a queue directory and reads
finished cells back out of the shared content-addressed result cache;
workers -- spawned locally by
``repro campaign --workers N`` or attached from anywhere with
``repro worker --queue DIR`` -- drain the queue until the campaign is
complete.  Every coordination step is an atomic filesystem operation, so
the queue needs no server and survives arbitrary kill/restart:

``<queue>/manifest.json``
    campaign name, plan identity hash, cell list, result/trace store
    locations.  Attaching with a different plan is refused.
``<queue>/todo/<id>.json``
    one claimable task per planned cell (kind, run scenario, record
    target, record-task dependency).
``<queue>/claimed/<id>.json``
    a lease: claiming is ``os.rename(todo/x, claimed/x)`` -- atomic, so
    exactly one worker wins.  The holder touches the file's mtime from a
    heartbeat thread; a lease whose mtime goes stale past the expiry is
    reclaimed by ``os.rename`` back into ``todo/`` (same atomicity, so a
    dead worker's cell is re-issued exactly once).
``<queue>/done/<id>.json`` / ``failed/<id>.json``
    completion markers (result provenance / error text).  Results
    themselves live in the content-addressed cache keyed by
    ``Scenario.key()``, never in the queue.

Replay tasks become claimable only once their group's trace file exists,
so record cells naturally run first; if a record task fails, its
dependents fail fast instead of waiting forever.

This module is transport only.  The coordinator, :class:`QueueDriver`,
is one of the two drivers of the executor's task loop
(:func:`repro.experiments.executor.execute`), which builds the records,
progress, telemetry index and database ingest exactly as for the
in-process pool.  Workers run each task through the pool's own
:func:`~repro.experiments.executor._run_task`, so any worker count,
interleaving, or kill/resume history produces results bit-identical to
``--jobs 1``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import dataclass

from repro.experiments.executor import _cache_load, _cache_store, _run_task
from repro.experiments.plan import Plan
from repro.experiments.spec import Scenario

QUEUE_VERSION = 1
DEFAULT_LEASE_EXPIRY_S = 300.0
DEFAULT_POLL_S = 0.2
DEFAULT_HEARTBEAT_S = 15.0

_STATE_DIRS = ("todo", "claimed", "done", "failed")


class QueueError(RuntimeError):
    """A queue directory is unusable (missing, foreign plan, lost results)."""


# ---------------------------------------------------------------------------
# small atomic-file helpers
# ---------------------------------------------------------------------------

def _read_json(path: str) -> dict | None:
    """Tolerant read: concurrent movers/writers make missing or momentarily
    unparsable files an expected, retryable condition."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _state_path(queue_dir: str, state: str, task_id: str) -> str:
    return os.path.join(queue_dir, state, "%s.json" % task_id)


def _ids_in(queue_dir: str, state: str) -> list[str]:
    try:
        names = os.listdir(os.path.join(queue_dir, state))
    except OSError:
        return []
    return sorted(n[:-5] for n in names if n.endswith(".json"))


# ---------------------------------------------------------------------------
# queue setup
# ---------------------------------------------------------------------------

def manifest_path(queue_dir: str) -> str:
    return os.path.join(queue_dir, "manifest.json")


def load_manifest(queue_dir: str) -> dict:
    manifest = _read_json(manifest_path(queue_dir))
    if manifest is None:
        raise QueueError(
            "%s is not a campaign queue (no readable manifest.json); start "
            "one with `repro campaign --workers N --queue DIR`" % queue_dir
        )
    if manifest.get("version") != QUEUE_VERSION:
        raise QueueError(
            "queue %s has version %r; this build speaks version %d"
            % (queue_dir, manifest.get("version"), QUEUE_VERSION)
        )
    return manifest


def create_or_attach_queue(
    queue_dir: str,
    plan: Plan,
    name: str,
    results_dir: str,
    telemetry: dict | None = None,
) -> dict:
    """Initialize ``queue_dir`` for ``plan``, or attach to an existing one.

    Attach requires the existing manifest's plan identity to match -- a
    queue directory belongs to exactly one plan; reusing it for a
    different campaign raises instead of silently mixing cells.  Tasks
    already claimed/done/failed are not re-enqueued, so attaching resumes
    an interrupted campaign wherever it stopped.
    """
    for state in _STATE_DIRS:
        os.makedirs(os.path.join(queue_dir, state), exist_ok=True)
    manifest = _read_json(manifest_path(queue_dir))
    wanted = {
        "version": QUEUE_VERSION,
        "name": name,
        "plan_id": plan.identity(),
        "total": len(plan.cells),
        "results_dir": os.path.abspath(results_dir),
        "telemetry": telemetry,
        "cells": [
            {"id": "%04d" % cell.index, "name": cell.name, "kind": cell.kind}
            for cell in plan.cells
        ],
    }
    if manifest is None:
        _cache_store(queue_dir, "manifest", wanted)
        manifest = wanted
    elif manifest.get("plan_id") != wanted["plan_id"]:
        raise QueueError(
            "queue %s belongs to plan %s (campaign %r); refusing to enqueue "
            "plan %s -- use a fresh --queue directory"
            % (queue_dir, manifest.get("plan_id"), manifest.get("name"),
               wanted["plan_id"])
        )
    settled = set(_ids_in(queue_dir, "done")) | set(_ids_in(queue_dir, "failed"))
    settled |= set(_ids_in(queue_dir, "claimed"))
    for cell in plan.cells:
        task = cell.task()
        if task["id"] in settled:
            continue
        path = _state_path(queue_dir, "todo", task["id"])
        if os.path.exists(path):
            continue
        if cell.kind == "replay":
            # the record task a replay waits on: its group leader
            for other in plan.cells:
                if other.kind == "record" and other.group == cell.group:
                    task["after"] = "%04d" % other.index
                    break
        _cache_store(os.path.join(queue_dir, "todo"), task["id"], task)
    return manifest


# ---------------------------------------------------------------------------
# leases
# ---------------------------------------------------------------------------

class _Heartbeat(threading.Thread):
    """Touches a claimed task file's mtime so the lease stays fresh while
    the (possibly hours-long) simulation runs."""

    def __init__(self, path: str, every_s: float) -> None:
        super().__init__(daemon=True)
        self.path = path
        self.every_s = every_s
        self._stop = threading.Event()

    def run(self) -> None:  # pragma: no cover - timing-dependent
        while not self._stop.wait(self.every_s):
            try:
                os.utime(self.path)
            except OSError:
                return

    def stop(self) -> None:
        self._stop.set()


def reclaim_expired(queue_dir: str, max_age_s: float) -> list[str]:
    """Move leases older than ``max_age_s`` back into ``todo/``.

    Returns the reclaimed task ids.  Renaming is atomic, so with any
    number of concurrent reclaimers each expired lease is re-issued
    exactly once.  A lease whose task already completed (marker present)
    is dropped instead of re-issued.
    """
    reclaimed: list[str] = []
    now = time.time()
    for task_id in _ids_in(queue_dir, "claimed"):
        path = _state_path(queue_dir, "claimed", task_id)
        try:
            age = now - os.stat(path).st_mtime
        except OSError:
            continue
        if age < max_age_s:
            continue
        if os.path.exists(_state_path(queue_dir, "done", task_id)) or os.path.exists(
            _state_path(queue_dir, "failed", task_id)
        ):
            try:
                os.remove(path)
            except OSError:
                pass
            continue
        try:
            os.rename(path, _state_path(queue_dir, "todo", task_id))
        except OSError:
            continue  # lost the race to another reclaimer (or the holder)
        reclaimed.append(task_id)
    return reclaimed


# ---------------------------------------------------------------------------
# worker
# ---------------------------------------------------------------------------

def _claim_next(queue_dir: str) -> dict | None:
    """Claim the lowest-id ready task, or ``None`` if nothing is claimable.

    Replay tasks are ready once their trace file exists; a replay whose
    record task failed is claimed anyway and failed fast (dependency
    error) so the queue always settles.
    """
    for task_id in _ids_in(queue_dir, "todo"):
        path = _state_path(queue_dir, "todo", task_id)
        task = _read_json(path)
        if task is None:
            continue  # vanished or mid-write; next poll sees it
        task.setdefault("id", task_id)
        if task["kind"] == "replay" and not os.path.exists(
            task["scenario"]["workload_args"]["path"]
        ):
            after = task.get("after")
            dep_failed = after is not None and os.path.exists(
                _state_path(queue_dir, "failed", after)
            )
            if not dep_failed:
                continue  # trace still being recorded
            task["dependency_failed"] = after
        try:
            os.rename(path, _state_path(queue_dir, "claimed", task_id))
        except OSError:
            continue  # another worker won the claim
        return task
    return None


def _process_task(
    queue_dir: str,
    task: dict,
    results_dir: str,
    telemetry: dict | None,
    heartbeat_s: float,
    worker_id: str,
) -> str:
    """Run one claimed task to a done/failed marker; returns the outcome
    (``"executed"`` / ``"cached"`` / ``"failed"``)."""
    task_id = task["id"]
    claimed = _state_path(queue_dir, "claimed", task_id)
    heartbeat = _Heartbeat(claimed, heartbeat_s)
    heartbeat.start()
    outcome = "failed"
    try:
        dep = task.get("dependency_failed")
        if dep is not None:
            raise QueueError("record task %s failed; replay cannot run" % dep)
        scenario = Scenario.from_dict(task["scenario"])
        key = scenario.key()
        payload = _cache_load(results_dir, key)
        cached = payload is not None
        record_to = task.get("record_to")
        if not cached or (record_to and not os.path.exists(record_to)):
            # a cached record task re-runs only to restore its lost trace
            fresh = _run_task((task, None if cached else results_dir), telemetry)
            if not cached:
                payload = fresh
        marker = {
            "id": task_id,
            "name": scenario.name,
            "kind": task["kind"],
            "key": key,
            "cached": cached,
            "elapsed_s": payload["elapsed_s"],
            "t_start": None if cached else payload.get("t_start"),
            "t_end": None if cached else payload.get("t_end"),
            "pid": None if cached else payload.get("pid"),
            "worker": worker_id,
        }
        _cache_store(os.path.join(queue_dir, "done"), task_id, marker)
        outcome = "cached" if cached else "executed"
    except Exception as exc:
        _cache_store(
            os.path.join(queue_dir, "failed"),
            task_id,
            {
                "id": task_id,
                "name": task.get("scenario", {}).get("name", task_id),
                "error": "%s: %s" % (type(exc).__name__, exc),
                "traceback": traceback.format_exc(),
                "worker": worker_id,
            },
        )
    finally:
        heartbeat.stop()
        try:
            os.remove(claimed)
        except OSError:
            pass
    return outcome


def run_worker(
    queue_dir: str,
    poll_s: float = DEFAULT_POLL_S,
    lease_expiry_s: float = DEFAULT_LEASE_EXPIRY_S,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    max_tasks: int | None = None,
    worker_id: str | None = None,
) -> dict:
    """Drain a campaign queue until it settles (or ``max_tasks`` is hit).

    The loop claims ready tasks in id order; when nothing is claimable it
    reclaims expired leases and polls until every cell has a done/failed
    marker.  Returns ``{"claimed", "executed", "cached", "failed",
    "reclaimed"}`` counts for this worker.
    """
    manifest = load_manifest(queue_dir)
    results_dir = manifest["results_dir"]
    telemetry = manifest.get("telemetry")
    total = int(manifest["total"])
    if worker_id is None:
        worker_id = "pid-%d" % os.getpid()
    stats = {"claimed": 0, "executed": 0, "cached": 0, "failed": 0, "reclaimed": 0}
    while True:
        task = _claim_next(queue_dir)
        if task is None:
            settled = len(_ids_in(queue_dir, "done")) + len(_ids_in(queue_dir, "failed"))
            if settled >= total:
                return stats
            stats["reclaimed"] += len(reclaim_expired(queue_dir, lease_expiry_s))
            time.sleep(poll_s)
            continue
        stats["claimed"] += 1
        outcome = _process_task(
            queue_dir, task, results_dir, telemetry, heartbeat_s, worker_id
        )
        stats[outcome] += 1
        if max_tasks is not None and stats["claimed"] >= max_tasks:
            return stats


def _worker_entry(queue_dir: str, index: int, lease_expiry_s: float, poll_s: float) -> None:
    """Top-level target for coordinator-spawned worker processes."""
    run_worker(
        queue_dir,
        poll_s=poll_s,
        lease_expiry_s=lease_expiry_s,
        worker_id="local-%d/pid-%d" % (index, os.getpid()),
    )


# ---------------------------------------------------------------------------
# coordinator
# ---------------------------------------------------------------------------

@dataclass
class QueueDriver:
    """The filesystem-queue driver of the executor's task loop.

    Pass it as ``execute(plan, queue=...)`` (or ``run_campaign(...,
    queue=...)``).  It enqueues the plan into ``queue_dir`` (attaching to
    an existing queue of the same plan), spawns ``workers`` local worker
    processes -- with ``workers=0`` it only coordinates, and external
    ``repro worker --queue`` processes must drain the queue -- and yields
    each cell as its done marker appears, with its payload read from the
    shared result cache.  Cells already settled when attaching (an earlier
    interrupted or completed run) are reported as cached, exactly like
    the pool's cache hits.  ``name`` labels the queue's manifest.
    """

    queue_dir: str
    workers: int = 2
    lease_expiry_s: float = DEFAULT_LEASE_EXPIRY_S
    poll_s: float = DEFAULT_POLL_S
    name: str = "campaign"

    def __call__(self, plan: Plan, cache_dir: str | None, telemetry: dict | None):
        if cache_dir is None:
            raise ValueError("the queue driver needs a cache_dir: workers "
                             "hand their results back through it")
        manifest = create_or_attach_queue(
            self.queue_dir, plan, self.name, cache_dir, telemetry=telemetry
        )
        return len(plan.cells), self._settle(plan, manifest["results_dir"])

    def _settle(self, plan: Plan, results_dir: str):
        queue_dir, total = self.queue_dir, len(plan.cells)
        preexisting = set(_ids_in(queue_dir, "done"))
        procs: list[multiprocessing.Process] = []
        if self.workers > 0 and len(preexisting) + len(_ids_in(queue_dir, "failed")) < total:
            for index in range(self.workers):
                proc = multiprocessing.Process(
                    target=_worker_entry,
                    args=(queue_dir, index, self.lease_expiry_s, self.poll_s),
                    daemon=True,
                )
                proc.start()
                procs.append(proc)

        seen: set[str] = set()
        try:
            while True:
                for task_id in _ids_in(queue_dir, "done"):
                    if task_id in seen:
                        continue
                    seen.add(task_id)
                    cell = plan.cells[int(task_id)]
                    payload = _cache_load(results_dir, cell.run_key())
                    if payload is None:
                        raise QueueError(
                            "cell %s (%s) is marked done but its result %s.json is "
                            "missing from %s -- the cache was pruned under a live "
                            "queue; delete %s and re-run"
                            % (task_id, cell.name, cell.run_key(), results_dir, queue_dir)
                        )
                    marker = _read_json(_state_path(queue_dir, "done", task_id)) or {}
                    yield cell, payload, task_id in preexisting or bool(marker.get("cached"))
                failures = _ids_in(queue_dir, "failed")
                if failures:
                    marker = _read_json(_state_path(queue_dir, "failed", failures[0])) or {}
                    raise QueueError(
                        "campaign cell %s (%s) failed on worker %s: %s"
                        % (failures[0], marker.get("name", "?"),
                           marker.get("worker", "?"), marker.get("error", "unknown"))
                    )
                if len(seen) >= total:
                    return
                if procs and all(not p.is_alive() for p in procs):
                    raise QueueError(
                        "all %d local workers exited with %d/%d cells settled "
                        "(worker exit codes: %s)"
                        % (len(procs), len(seen), total, [p.exitcode for p in procs])
                    )
                reclaim_expired(queue_dir, self.lease_expiry_s)
                time.sleep(self.poll_s)
        finally:
            for proc in procs:
                proc.join(timeout=10.0)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()
                    proc.join(timeout=5.0)
