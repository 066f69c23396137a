"""Replay-first campaign planning.

A sweep that crosses one workload with H hierarchies and P protocols runs
the GPU *frontend* H*P times even though the frontend's behaviour -- the
instruction stream reaching the LSU/L1 boundary -- is identical in every
cell: only the memory system downstream differs.  PR 3's trace layer
already exploits that asymmetry one cell at a time (record once, replay
memory-side sweeps 3.1-3.4x faster); this module schedules it.

:func:`build_plan` groups cells by **frontend identity** -- same workload,
same workload args, same *frontend-affecting* config -- and rewrites each
group as one ``record`` cell (full execution that also captures a
``.gsitrace``) plus dependent ``replay`` cells (the remaining grid points,
replayed through their own memory-side overrides).  Config axes that only
shape the memory system (:data:`REPLAY_SAFE_FIELDS`: hierarchy, protocol,
cache geometry, MSHR/store-buffer sizing, DRAM, mesh timing) are replay
-safe per :mod:`repro.trace.replay`; everything else -- workload scaling,
warp scheduling, attribution policy, scratchpad staging -- changes the
recorded stream itself, so cells differing there land in different groups.
An H*P sweep therefore costs 1 execution + (H*P - 1) replays.

Trace files are content-addressed by the *group identity hash* (the inputs
that determine the recorded bytes -- recording is deterministic, so equal
inputs produce equal traces), and replay-cell cache keys fold in the
recorded file's content fingerprint rather than its path
(:meth:`TraceReplayWorkload.cache_key_inputs`), so plans are stable across
machines and trace-store locations.

A plan is the one representation of a batch: an unplanned sweep is
``build_plan(scenarios, None)``, every cell an ``execute`` with no replay
edges.  This module only plans; :func:`repro.experiments.executor.execute`
runs every plan through one task loop, with the in-process pool or the
filesystem queue (:mod:`repro.experiments.dispatch`) as its driver.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Sequence

from repro.experiments.spec import Scenario
from repro.sim.config import LocalMemory, SystemConfig

#: config fields a recorded trace may be replayed under with different
#: values (memory-side axes; see ``trace/replay.py``).  Deliberately
#: conservative: anything that can change the frontend's reference stream
#: (workload scaling, warp count/scheduling, line size, scratchpad
#: staging, attribution policy, seeds) is treated as frontend-affecting.
REPLAY_SAFE_FIELDS = frozenset({
    "protocol",
    "hierarchy",
    "mshr_entries",
    "store_buffer_entries",
    "l1_size",
    "l1_assoc",
    "l1_banks",
    "l1_hit_latency",
    "l2_size",
    "l2_assoc",
    "l2_banks",
    "l2_access_latency",
    "l2_dir_latency",
    "remote_fwd_latency",
    "dram_latency",
    "dram_channels",
    "mesh_rows",
    "mesh_cols",
    "hop_latency",
    "router_latency",
    "mesh_endpoint_bw",
})


@dataclass
class PlannedCell:
    """One campaign cell with its scheduled execution mode."""

    index: int
    kind: str  # "execute" | "record" | "replay"
    scenario: Scenario  # the cell as specified
    run: Scenario  # what actually simulates (a trace replay for "replay")
    group: str | None = None  # frontend-identity hash, when grouped
    trace_path: str | None = None  # record target / replay source
    key: str | None = None  # run-scenario cache key (filled lazily)

    @property
    def name(self) -> str:
        return self.scenario.name

    def run_key(self) -> str:
        """Cache key of the run scenario (replay keys need the trace file
        to exist, so this is evaluated lazily and memoized)."""
        if self.key is None:
            self.key = self.run.key()
        return self.key

    def task(self) -> dict:
        """Plain-dict form for worker entry points and queue files."""
        return {
            "id": "%04d" % self.index,
            "kind": self.kind,
            "scenario": self.run.to_dict(),
            "record_to": self.trace_path if self.kind == "record" else None,
            "group": self.group,
        }


@dataclass
class Plan:
    """An ordered list of :class:`PlannedCell` plus its trace store."""

    cells: list[PlannedCell] = field(default_factory=list)
    trace_dir: str | None = None

    def counts(self) -> dict:
        out = {"execute": 0, "record": 0, "replay": 0}
        for cell in self.cells:
            out[cell.kind] += 1
        return out

    @property
    def predicted_executions(self) -> int:
        """Full (frontend) executions this plan needs at most: the number
        of distinct non-replay cells.  The CI distributed-smoke job asserts
        the realized execution count never exceeds this."""
        seen = set()
        for cell in self.cells:
            if cell.kind != "replay":
                seen.add(cell.scenario.key())
        return len(seen)

    def identity(self) -> str:
        """Stable hash of the plan's inputs; queue manifests pin it so a
        queue directory can only be resumed by the same plan."""
        payload = json.dumps(
            [
                [
                    cell.kind,
                    cell.scenario.to_dict(),
                    os.path.basename(cell.trace_path) if cell.trace_path else None,
                ]
                for cell in self.cells
            ],
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------

def recordable(scenario: Scenario) -> bool:
    """Can this cell's reference stream be captured as a trace?

    Trace workloads are replays already; scratchpad/stash configurations
    are refused by the recorder (local-memory traffic bypasses the LSU->L1
    boundary the trace captures).  Anything that fails to build is left to
    the executor's ordinary validation to report.
    """
    try:
        workload = scenario.build_workload()
        if getattr(workload, "replay_run", None) is not None:
            return False
        config = scenario.build_config()
        if hasattr(workload, "configure"):
            config = workload.configure(config)
    except Exception:
        return False
    return config.local_memory is LocalMemory.NONE


def frontend_identity(scenario: Scenario) -> str:
    """Hash of everything that shapes the recorded reference stream:
    workload + args + content fingerprint + frontend-affecting config."""
    from repro.workloads import workload_fingerprint

    config = {
        k: v for k, v in scenario.config.items() if k not in REPLAY_SAFE_FIELDS
    }
    inputs = {
        "workload": scenario.workload,
        "workload_args": scenario.workload_args,
        "config": config,
    }
    fingerprint = workload_fingerprint(scenario.workload, scenario.workload_args)
    if fingerprint is not None:
        inputs["fingerprint"] = fingerprint
    payload = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def _config_default(name: str):
    """JSON-able default value of a SystemConfig field (enums -> value)."""
    for f in dataclasses.fields(SystemConfig):
        if f.name == name:
            if f.default is not dataclasses.MISSING:
                value = f.default
            else:  # pragma: no cover - no factory fields are replay-safe today
                value = f.default_factory()
            return value.value if isinstance(value, enum.Enum) else value
    raise KeyError(name)


def _replay_scenario(cell: Scenario, lead: Scenario, trace_path: str) -> Scenario:
    """The trace-replay equivalent of ``cell`` against ``lead``'s trace.

    The replay workload anchors to the *recorded* configuration, so every
    replay-safe field the record cell set but this cell did not must be
    explicitly reset to the library default -- otherwise the lead's value
    would leak into this cell.  (Frontend fields are identical across the
    group by construction, so only replay-safe fields can differ.)
    """
    overrides = dict(cell.config)
    for key in lead.config:
        if key not in overrides:
            overrides[key] = _config_default(key)
    return Scenario(
        name=cell.name,
        workload="trace",
        workload_args={"path": trace_path},
        config=overrides,
        expect=dict(cell.expect),
    )


def build_plan(scenarios: Sequence[Scenario], trace_dir: str | None) -> Plan:
    """Group cells by frontend identity and emit a record/replay plan.

    Within each multi-cell group the first cell (input order) records; the
    rest become replays -- except exact duplicates of the record cell's
    simulation inputs, which the executor's key-dedup serves for free.
    Ungroupable or solitary cells stay plain executions.  Input order is
    preserved; the plan never reorders results.

    ``trace_dir=None`` plans no replay edges: every cell is an
    ``execute``, and nothing is built or fingerprinted to group them.
    """
    cells = [
        PlannedCell(index=i, kind="execute", scenario=s, run=s)
        for i, s in enumerate(scenarios)
    ]
    if trace_dir is None:
        return Plan(cells=cells)
    groups: dict[str, list[PlannedCell]] = {}
    for cell in cells:
        if not recordable(cell.scenario):
            continue
        groups.setdefault(frontend_identity(cell.scenario), []).append(cell)

    from repro.trace import TRACE_SUFFIX

    for gid, members in groups.items():
        if len(members) < 2:
            continue
        lead = members[0]
        trace_path = os.path.join(trace_dir, "%s%s" % (gid, TRACE_SUFFIX))
        lead_key = lead.scenario.key()
        got_replay = False
        for cell in members[1:]:
            cell.group = gid
            if cell.scenario.key() == lead_key:
                continue  # identical inputs; phase-1 dedup serves it
            cell.kind = "replay"
            cell.trace_path = trace_path
            cell.run = _replay_scenario(cell.scenario, lead.scenario, trace_path)
            got_replay = True
        if got_replay:
            lead.kind = "record"
            lead.group = gid
            lead.trace_path = trace_path
    return Plan(cells=cells, trace_dir=trace_dir)
