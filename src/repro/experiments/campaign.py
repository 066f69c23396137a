"""Stall-characterization campaigns: workloads x hierarchies x protocols.

A campaign is the paper's whole experimental posture as one declarative
object: a fleet of workloads crossed with memory-hierarchy shapes and
coherence protocols, executed as one batch through the cached parallel
executor (:mod:`repro.experiments.executor`).  Because every cell is an
ordinary :class:`~repro.experiments.spec.Scenario`, a campaign inherits
everything scenarios already have -- ``--jobs`` fan-out, the on-disk
result cache (an interrupted campaign resumes from what already ran; a
repeated one is served entirely from cache), and byte-identical results
regardless of either.

The product is the paper-style **stall-attribution matrix**: one row per
cell with its MEM_DATA / MEM_STRUCT / compute split, rendered as text
(:func:`repro.core.report.format_campaign_matrix`), JSON and CSV.

Run it via ``python -m repro campaign`` or the ``campaign`` experiment of
``python -m repro.experiments``.
"""

from __future__ import annotations

import difflib
import json
import os
from dataclasses import dataclass, field

from repro.core.report import format_campaign_matrix, matrix_attribution
from repro.experiments.executor import ScenarioRecord, execute
from repro.experiments.spec import Scenario, load_json_or_yaml

#: protocol axis values accepted by SystemConfig.scaled(protocol=...)
PROTOCOLS = ("gpu", "denovo")

#: the default fleet: five memory-behavior archetypes (display name,
#: registry workload, kwargs at full / fast sizes, per-workload config).
#: Each machine is sized to its workload's grid -- idle SMs would otherwise
#: drown the attribution the campaign exists to surface.
DEFAULT_FLEET: tuple[tuple[str, str, dict, dict, dict], ...] = (
    ("spmv", "spmv",
     {"num_rows": 96}, {"num_rows": 48}, {"num_sms": 2}),
    ("histogram", "histogram",
     {"elements_per_warp": 48}, {"elements_per_warp": 16}, {"num_sms": 2}),
    ("pointer_chase", "pointer_chase",
     {"chain_length": 48}, {"chain_length": 16}, {"num_sms": 2}),
    ("matmul_tiled", "matmul_tiled",
     {"n": 24, "tile": 8}, {"n": 16, "tile": 8}, {"num_sms": 4}),
    ("bfs", "bfs",
     {"num_vertices": 96}, {"num_vertices": 48}, {"num_sms": 1}),
)


@dataclass
class CampaignSpec:
    """A declarative cross-product of workloads, hierarchies and protocols.

    ``workloads`` entries are plain scenario-style dicts (``name`` display
    label, ``workload`` registry name, ``workload_args``, and optionally a
    per-workload ``config`` -- the paper sizes the machine per benchmark);
    ``hierarchies`` maps a display label to a hierarchy-spec dict, or
    ``None`` for the Table 5.1 default; ``protocols`` is a subset of
    :data:`PROTOCOLS`.  ``config`` holds base
    :class:`~repro.sim.config.SystemConfig` overrides applied to every
    cell, beneath any per-workload overrides.
    """

    workloads: list[dict]
    hierarchies: dict[str, "dict | None"]
    protocols: list[str] = field(default_factory=lambda: list(PROTOCOLS))
    config: dict = field(default_factory=dict)
    name: str = "campaign"

    def validate(self) -> None:
        if not self.workloads:
            raise ValueError("campaign %r has no workloads" % self.name)
        if not self.hierarchies:
            raise ValueError("campaign %r has no hierarchies" % self.name)
        if not self.protocols:
            raise ValueError("campaign %r has no protocols" % self.name)
        bad = sorted(set(self.protocols) - set(PROTOCOLS))
        if bad:
            raise ValueError(
                "campaign %r: unknown protocol(s) %s; valid: %s"
                % (self.name, ", ".join(bad), ", ".join(PROTOCOLS))
            )
        for entry in self.workloads:
            if "workload" not in entry:
                raise ValueError(
                    "campaign %r: workload entry %r needs a 'workload' "
                    "(registry name)" % (self.name, entry)
                )
        labels = [self.workload_label(e) for e in self.workloads]
        dup = sorted({l for l in labels if labels.count(l) > 1})
        if dup:
            raise ValueError(
                "campaign %r: duplicate workload label(s) %s"
                % (self.name, ", ".join(dup))
            )
        # Cell names are 'workload/hierarchy/protocol'; a '/' inside a
        # display label would silently scramble the decoded coordinates.
        for label in labels + list(self.hierarchies):
            if "/" in label:
                raise ValueError(
                    "campaign %r: label %r must not contain '/'"
                    % (self.name, label)
                )

    @staticmethod
    def workload_label(entry: dict) -> str:
        return entry.get("name", entry["workload"])

    # --- the cross product ---------------------------------------------
    def scenarios(self) -> list[Scenario]:
        """Expand to one scenario per cell, workload-major, named
        ``workload/hierarchy/protocol`` (the cell coordinates)."""
        self.validate()
        out: list[Scenario] = []
        for entry in self.workloads:
            for hier_label, hier in self.hierarchies.items():
                for proto in self.protocols:
                    config = dict(self.config)
                    config.update(entry.get("config", {}))
                    config["protocol"] = proto
                    if hier is not None:
                        config["hierarchy"] = hier
                    out.append(
                        Scenario(
                            name="%s/%s/%s"
                            % (self.workload_label(entry), hier_label, proto),
                            workload=entry["workload"],
                            workload_args=dict(entry.get("workload_args", {})),
                            config=config,
                            expect=dict(entry.get("expect", {})),
                        )
                    )
        return out

    def shape(self) -> tuple[int, int, int]:
        return (len(self.workloads), len(self.hierarchies), len(self.protocols))

    # --- subset filters (CLI --workloads/--hierarchies/--protocols) ----
    def subset(
        self,
        workloads: "list[str] | None" = None,
        hierarchies: "list[str] | None" = None,
        protocols: "list[str] | None" = None,
    ) -> "CampaignSpec":
        """A campaign restricted to the named axis points; unknown names
        raise with close-match suggestions."""

        def pick(wanted, available, axis):
            unknown = [n for n in wanted if n not in available]
            if unknown:
                hints = []
                for n in unknown:
                    close = difflib.get_close_matches(n, available, n=2)
                    if close:
                        hints.append("did you mean %s?" % " or ".join(close))
                raise ValueError(
                    "unknown %s %s; available: %s%s"
                    % (axis, unknown, ", ".join(available),
                       (" -- " + " ".join(hints)) if hints else "")
                )
            return wanted

        spec = CampaignSpec(
            workloads=list(self.workloads),
            hierarchies=dict(self.hierarchies),
            protocols=list(self.protocols),
            config=dict(self.config),
            name=self.name,
        )
        if workloads is not None:
            labels = [self.workload_label(e) for e in self.workloads]
            keep = set(pick(workloads, labels, "workload(s)"))
            spec.workloads = [
                e for e in self.workloads if self.workload_label(e) in keep
            ]
        if hierarchies is not None:
            keep = set(pick(hierarchies, list(self.hierarchies), "hierarchy(ies)"))
            spec.hierarchies = {
                k: v for k, v in self.hierarchies.items() if k in keep
            }
        if protocols is not None:
            keep = set(pick(protocols, list(self.protocols), "protocol(s)"))
            spec.protocols = [p for p in self.protocols if p in keep]
        return spec

    # --- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "workloads": [dict(e) for e in self.workloads],
            "hierarchies": dict(self.hierarchies),
            "protocols": list(self.protocols),
            "config": dict(self.config),
        }

    @staticmethod
    def from_dict(data: dict) -> "CampaignSpec":
        known = {"name", "workloads", "hierarchies", "protocols", "config"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError("unknown campaign field(s): %s" % ", ".join(unknown))
        spec = CampaignSpec(
            workloads=[dict(e) for e in data.get("workloads", [])],
            hierarchies=dict(data.get("hierarchies", {"default": None})),
            protocols=list(data.get("protocols", PROTOCOLS)),
            config=dict(data.get("config", {})),
            name=data.get("name", "campaign"),
        )
        spec.validate()
        return spec


def load_campaign(path: str) -> CampaignSpec:
    """Load a user-written campaign spec (JSON, or YAML with PyYAML)."""
    data = load_json_or_yaml(path)
    if not isinstance(data, dict):
        raise ValueError("%s: expected a campaign spec object" % path)
    return CampaignSpec.from_dict(data)


def default_campaign(fast: bool = False) -> CampaignSpec:
    """The stock fleet campaign: five memory-behavior archetypes x
    (Table 5.1 default + shared-L3) x both coherence protocols."""
    from repro.mem.hierarchy import example_shapes

    workloads = [
        {"name": label, "workload": workload,
         "workload_args": dict(fast_args if fast else full_args),
         "config": dict(config)}
        for label, workload, full_args, fast_args, config in DEFAULT_FLEET
    ]
    hierarchies: dict[str, dict | None] = {
        "default": None,
        "shared-l3": example_shapes()["shared-l3"],
    }
    return CampaignSpec(
        workloads=workloads,
        hierarchies=hierarchies,
        protocols=list(PROTOCOLS),
        name="fleet-fast" if fast else "fleet",
    )


@dataclass
class CampaignResult:
    """One executed campaign: the records plus matrix/report exports."""

    spec: CampaignSpec
    records: list[ScenarioRecord]

    @property
    def cached_count(self) -> int:
        return sum(1 for r in self.records if r.cached)

    @property
    def executed_count(self) -> int:
        return sum(1 for r in self.records if not r.cached)

    @property
    def fully_cached(self) -> bool:
        return all(r.cached for r in self.records)

    @property
    def replayed_count(self) -> int:
        """Cells served by a trace replay instead of a full execution
        (the replay-first planner rewrites memory-side sweep cells so)."""
        return sum(1 for r in self.records if r.scenario.workload == "trace")

    def matrix_rows(self) -> list[dict]:
        """One row per cell: display coordinates, cycles, breakdown."""
        out = []
        for record in self.records:
            workload, hierarchy, protocol = record.scenario.name.rsplit("/", 2)
            out.append(
                {
                    "workload": workload,
                    "hierarchy": hierarchy,
                    "protocol": protocol,
                    "cycles": record.result.cycles,
                    "breakdown": record.result.breakdown,
                    "record": record,
                }
            )
        return out

    def render(self) -> str:
        w, h, p = self.spec.shape()
        rows = self.matrix_rows()
        lines = [
            "=== campaign %s: %d workloads x %d hierarchies x %d protocols "
            "= %d cells (%d cached, %d executed) ==="
            % (self.spec.name, w, h, p, len(self.records),
               self.cached_count, self.executed_count),
            "",
            format_campaign_matrix(rows),
        ]
        if self.replayed_count:
            lines.append(
                "replay-first: %d of %d cells served by trace replay "
                "(%d full executions)"
                % (
                    self.replayed_count,
                    len(self.records),
                    sum(
                        1 for r in self.records
                        if not r.cached and r.scenario.workload != "trace"
                    ),
                )
            )
        slowest = max(self.records, key=lambda r: r.elapsed_s)
        lines.append(
            "wall clock: %.2fs simulated this run, slowest cell %s (%.2fs)"
            % (
                sum(r.elapsed_s for r in self.records if not r.cached),
                slowest.scenario.name,
                slowest.elapsed_s,
            )
        )
        violations = [r for r in self.records if not r.ok]
        if violations:
            lines.append("expected-shape violations:")
            lines += [
                "  %s: %s" % (r.scenario.name, "; ".join(r.violations))
                for r in violations
            ]
        return "\n".join(lines)

    # --- machine-readable exports --------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready form: spec + one entry per cell with the attribution
        split, full breakdown rows, and execution provenance."""
        cells = {}
        for row in self.matrix_rows():
            record = row["record"]
            cells[record.scenario.name] = {
                "workload": row["workload"],
                "hierarchy": row["hierarchy"],
                "protocol": row["protocol"],
                "cycles": row["cycles"],
                "attribution": matrix_attribution(row["breakdown"]),
                "breakdown": dict(row["breakdown"].rows()),
                "cached": record.cached,
                "replayed": record.scenario.workload == "trace",
                "elapsed_s": record.elapsed_s,
                "key": record.scenario.key(),
            }
        return {"campaign": self.spec.to_dict(), "cells": cells}

    def to_csv(self) -> str:
        """One row per (cell, breakdown category)."""
        lines = ["campaign,workload,hierarchy,protocol,category,cycles"]
        for row in self.matrix_rows():
            for label, cycles in row["breakdown"].rows():
                lines.append(
                    "%s,%s,%s,%s,%s,%d"
                    % (
                        self.spec.name,
                        row["workload"],
                        row["hierarchy"],
                        row["protocol"],
                        label,
                        cycles,
                    )
                )
        return "\n".join(lines) + "\n"


def default_trace_dir(cache_dir: "str | None") -> str:
    """Where planner-recorded traces live by default: next to the result
    cache they feed (``<cache>/traces``), or a local ``.gsi-traces``."""
    return os.path.join(cache_dir, "traces") if cache_dir else ".gsi-traces"


def run_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    cache_dir: "str | None" = None,
    progress=None,
    telemetry: "dict | None" = None,
    plan: bool = False,
    trace_dir: "str | None" = None,
    results_db: "str | None" = None,
) -> CampaignResult:
    """Execute every cell (fanned out / cache-served) and wrap the matrix.

    ``progress`` and ``telemetry`` pass straight through to
    :func:`repro.experiments.executor.execute` (live per-cell lines and
    per-cell telemetry series keyed by scenario hash).

    ``plan=True`` routes the cells through the replay-first planner
    (:mod:`repro.experiments.plan`): each frontend-identity group records
    one trace into ``trace_dir`` and serves its memory-side sweep cells as
    replays, 1.66-2.47x faster per cell than full execution on fig 6.1's
    120-node UTS cell (three runs, 2-vCPU host).

    ``results_db`` names a SQLite results database
    (:class:`repro.results.db.ResultsDB`) to ingest the finished campaign
    into on completion: the stall-attribution matrix cells plus every
    cell's run/breakdown/stats rows (the ``campaign --db`` path).
    """
    scenarios = spec.scenarios()
    if plan:
        from repro.experiments.plan import build_plan, execute_plan

        built = build_plan(scenarios, trace_dir or default_trace_dir(cache_dir))
        records = execute_plan(
            built, jobs=jobs, cache_dir=cache_dir,
            progress=progress, telemetry=telemetry,
        )
    else:
        records = execute(
            scenarios, jobs=jobs, cache_dir=cache_dir,
            progress=progress, telemetry=telemetry,
        )
    result = CampaignResult(spec=spec, records=records)
    if results_db is not None:
        from repro.results.db import ResultsDB

        with ResultsDB(results_db) as db:
            db.ingest_campaign(result)
    return result


def write_artifacts(result: CampaignResult, out_dir: str) -> list[str]:
    """Write ``<name>.txt`` / ``.json`` / ``.csv`` into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, result.spec.name)
    paths = []
    for ext, payload in (
        ("txt", result.render() + "\n"),
        ("json", json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"),
        ("csv", result.to_csv()),
    ):
        path = "%s.%s" % (base, ext)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
        paths.append(path)
    return paths
