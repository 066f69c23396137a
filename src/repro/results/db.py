"""One queryable SQLite database over every artifact the repo produces.

Every number this repository emits -- fig6.x breakdowns, campaign stall
matrices, end-to-end benchmark records, telemetry series, golden
outputs, raw ``.sim-cache`` entries -- lives in a flat JSON/CSV/JSONL
file somewhere.  :class:`ResultsDB` ingests all of them into one SQLite
file with a stable relational schema, so "what did fig6.2 measure for
DeNovo", "which campaign cells are MEM_DATA-dominated" or "what wall
time does the benchmark baseline give uts-exec" become one ``SELECT``
instead of a directory crawl, and the report generator
(:mod:`repro.results.report_gen`) can regenerate the whole paper from a
single source.

Schema (``SCHEMA_VERSION`` 3) -- see ``docs/ARTIFACTS.md`` for the
source formats each table is fed from:

* ``ingests`` -- provenance, one row per ingestion call: source kind and
  path, git SHA, python version.
* ``experiments`` / ``claims`` -- one row per regenerated paper artifact
  (``fig6.1-uts`` ...) and its checked shape claims.
* ``runs`` -- one simulation result: scenario key (the stable hash of
  the simulation inputs), display name, workload + canonical JSON args /
  config overrides, cycles, instructions, cache provenance, and the
  SHA-256 of the canonical result payload.
* ``breakdown`` -- the GSI stall attribution per run, one row per
  category (the exact ``StallBreakdown.rows()`` labels).
* ``stats`` -- the flattened per-component stats projection per run
  (``l1.sm0.load_hits`` style dotted paths).
* ``campaign_cells`` -- the stall-attribution matrix, one row per
  workload x hierarchy x protocol cell.
* ``e2e_metrics`` -- end-to-end benchmark run records
  (``benchmarks/e2e/run.py --out`` / ``collect.py`` files), one row per
  record x end-to-end metric.
* ``telemetry_series`` / ``telemetry_samples`` -- sampled stat
  time-series (one row per series; one row per sample x column).
* ``artifacts`` -- content hashes of byte-exact source files (goldens,
  campaign text/CSV artifacts, trace files): the reproducibility ledger.

Writes are idempotent per identity (re-ingesting an experiment, cell,
benchmark file or series replaces the previous rows), so the database
can be rebuilt from scratch or refreshed incrementally with the same
result.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import subprocess
import sys

SCHEMA_VERSION = 3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT
);
CREATE TABLE IF NOT EXISTS ingests (
    id INTEGER PRIMARY KEY,
    kind TEXT NOT NULL,
    source TEXT,
    git_sha TEXT,
    python_version TEXT
);
CREATE TABLE IF NOT EXISTS experiments (
    name TEXT PRIMARY KEY,
    baseline TEXT,
    ingest_id INTEGER
);
CREATE TABLE IF NOT EXISTS claims (
    experiment TEXT NOT NULL,
    idx INTEGER NOT NULL,
    text TEXT,
    paper TEXT,
    measured TEXT,
    holds INTEGER,
    PRIMARY KEY (experiment, idx)
);
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY,
    key TEXT,
    name TEXT,
    experiment TEXT,
    source TEXT NOT NULL,
    workload TEXT,
    workload_args TEXT,
    config TEXT,
    cycles INTEGER,
    instructions INTEGER,
    cached INTEGER,
    elapsed_s REAL,
    result_sha256 TEXT,
    ingest_id INTEGER
);
CREATE UNIQUE INDEX IF NOT EXISTS runs_identity
    ON runs (source, IFNULL(experiment, ''), IFNULL(name, ''), IFNULL(key, ''));
CREATE TABLE IF NOT EXISTS breakdown (
    run_id INTEGER NOT NULL,
    category TEXT NOT NULL,
    cycles INTEGER,
    PRIMARY KEY (run_id, category)
);
CREATE TABLE IF NOT EXISTS stats (
    run_id INTEGER NOT NULL,
    path TEXT NOT NULL,
    value REAL,
    text TEXT,
    PRIMARY KEY (run_id, path)
);
CREATE TABLE IF NOT EXISTS campaign_cells (
    campaign TEXT NOT NULL,
    cell TEXT NOT NULL,
    workload TEXT,
    hierarchy TEXT,
    protocol TEXT,
    cycles INTEGER,
    key TEXT,
    cached INTEGER,
    replayed INTEGER,
    no_stall REAL,
    mem_data REAL,
    mem_struct REAL,
    sync REAL,
    compute REAL,
    other REAL,
    ingest_id INTEGER,
    PRIMARY KEY (campaign, cell)
);
CREATE TABLE IF NOT EXISTS e2e_metrics (
    source TEXT NOT NULL,
    record INTEGER NOT NULL,
    workload TEXT,
    seed INTEGER,
    correct INTEGER,
    metric TEXT NOT NULL,
    unit TEXT,
    value REAL,
    ingest_id INTEGER,
    PRIMARY KEY (source, record, metric)
);
CREATE TABLE IF NOT EXISTS telemetry_series (
    id INTEGER PRIMARY KEY,
    path TEXT,
    run_key TEXT,
    label TEXT,
    core TEXT,
    sample_count INTEGER,
    first_cycle INTEGER,
    last_cycle INTEGER,
    columns TEXT,
    ingest_id INTEGER
);
CREATE UNIQUE INDEX IF NOT EXISTS telemetry_series_path
    ON telemetry_series (path);
CREATE TABLE IF NOT EXISTS telemetry_samples (
    series_id INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    cycle INTEGER,
    column TEXT NOT NULL,
    value REAL,
    PRIMARY KEY (series_id, seq, column)
);
CREATE TABLE IF NOT EXISTS artifacts (
    path TEXT PRIMARY KEY,
    kind TEXT,
    sha256 TEXT,
    bytes INTEGER,
    ingest_id INTEGER
);
"""


def file_sha256(path: str) -> str:
    """Streamed SHA-256 of a file's bytes (the manifest/ledger hash)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _flatten(prefix: str, node, out: dict) -> None:
    """Flatten a nested stats mapping into dotted leaf paths."""
    if isinstance(node, dict):
        for name, child in node.items():
            _flatten("%s.%s" % (prefix, name) if prefix else str(name), child, out)
    else:
        out[prefix] = node


class ResultsDB:
    """The results database: ingestion + query over one SQLite file.

    Usable as a context manager; ``path`` may be ``":memory:"`` for
    tests.  All ingest methods commit before returning.
    """

    def __init__(self, path: str = "results.db") -> None:
        self.path = path
        parent = os.path.dirname(path)
        if parent and path != ":memory:":
            os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(path)
        self._conn.executescript(_SCHEMA)
        self._conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            ("schema_version", str(SCHEMA_VERSION)),
        )
        self._conn.commit()

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultsDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- provenance -----------------------------------------------------
    def _begin_ingest(self, kind: str, source: str | None) -> int:
        cur = self._conn.execute(
            "INSERT INTO ingests (kind, source, git_sha, python_version)"
            " VALUES (?, ?, ?, ?)",
            (kind, source, _git_sha(), "%d.%d.%d" % sys.version_info[:3]),
        )
        return cur.lastrowid

    # -- live-object ingestion -----------------------------------------
    def ingest_records(
        self,
        records,
        source: str = "executor",
        experiment: str | None = None,
        ingest_id: int | None = None,
    ) -> int:
        """Ingest executor :class:`ScenarioRecord` objects (a sweep, a
        figure grid, campaign cells).  Returns the number of runs stored.
        Re-ingesting the same (source, experiment, name, key) identity
        replaces the previous run and its breakdown/stats rows."""
        if ingest_id is None:
            ingest_id = self._begin_ingest(source, experiment)
        for record in records:
            scenario = record.scenario
            result = record.result
            payload = json.dumps(result.to_dict(), sort_keys=True,
                                 separators=(",", ":"))
            self._put_run(
                key=scenario.key(),
                name=scenario.name,
                experiment=experiment,
                source=source,
                workload=scenario.workload,
                workload_args=scenario.workload_args,
                config=scenario.config,
                cycles=result.cycles,
                instructions=result.instructions,
                cached=record.cached,
                elapsed_s=record.elapsed_s,
                result_sha256=hashlib.sha256(payload.encode()).hexdigest(),
                breakdown_rows=result.breakdown.rows(),
                stats=result.stats,
                ingest_id=ingest_id,
            )
        self._conn.commit()
        return len(list(records))

    def ingest_experiment(self, result, ingest_id: int | None = None) -> None:
        """Ingest one :class:`~repro.experiments.figures.ExperimentResult`:
        its records as runs plus the experiment row and shape claims."""
        if ingest_id is None:
            ingest_id = self._begin_ingest("experiment", result.experiment)
        self._conn.execute(
            "INSERT OR REPLACE INTO experiments (name, baseline, ingest_id)"
            " VALUES (?, ?, ?)",
            (result.experiment, result.baseline, ingest_id),
        )
        self._conn.execute(
            "DELETE FROM claims WHERE experiment = ?", (result.experiment,)
        )
        for idx, claim in enumerate(result.claims):
            self._conn.execute(
                "INSERT INTO claims (experiment, idx, text, paper, measured,"
                " holds) VALUES (?, ?, ?, ?, ?, ?)",
                (result.experiment, idx, claim.text, claim.paper,
                 claim.measured, int(claim.holds)),
            )
        self.ingest_records(
            result.records, source="experiment",
            experiment=result.experiment, ingest_id=ingest_id,
        )

    def ingest_campaign(self, result, ingest_id: int | None = None) -> None:
        """Ingest a :class:`~repro.experiments.campaign.CampaignResult`:
        the stall-attribution matrix cells plus their runs."""
        from repro.core.report import matrix_attribution

        campaign = result.spec.name
        if ingest_id is None:
            ingest_id = self._begin_ingest("campaign", campaign)
        self._conn.execute(
            "DELETE FROM campaign_cells WHERE campaign = ?", (campaign,)
        )
        for row in result.matrix_rows():
            record = row["record"]
            frac = matrix_attribution(row["breakdown"])
            self._conn.execute(
                "INSERT INTO campaign_cells (campaign, cell, workload,"
                " hierarchy, protocol, cycles, key, cached, replayed,"
                " no_stall, mem_data, mem_struct, sync, compute, other,"
                " ingest_id)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign, record.scenario.name, row["workload"],
                    row["hierarchy"], row["protocol"], row["cycles"],
                    record.scenario.key(), int(record.cached),
                    int(record.scenario.workload == "trace"),
                    frac["no_stall"], frac["mem_data"], frac["mem_struct"],
                    frac["sync"], frac["compute"], frac["other"], ingest_id,
                ),
            )
        self.ingest_records(
            result.records, source="campaign", experiment=campaign,
            ingest_id=ingest_id,
        )

    # -- file ingestion -------------------------------------------------
    def ingest_cache_dir(self, cache_dir: str) -> int:
        """Ingest every valid ``.sim-cache`` entry (see the entry schema
        in ``docs/ARTIFACTS.md``).  Returns the number ingested."""
        from repro.experiments.executor import CACHE_VERSION

        ingest_id = self._begin_ingest("cache", cache_dir)
        count = 0
        try:
            names = sorted(os.listdir(cache_dir))
        except OSError:
            raise ValueError("cache directory not found: %s" % cache_dir) from None
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(cache_dir, name)
            try:
                with open(path, encoding="utf-8") as fh:
                    payload = json.load(fh)
            except (OSError, ValueError):
                continue
            if not isinstance(payload, dict):
                continue
            if payload.get("version") != CACHE_VERSION:
                continue
            result = payload.get("result") or {}
            canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
            breakdown = result.get("breakdown") or {}
            self._put_run(
                key=payload.get("key"),
                name=None,
                experiment=None,
                source="cache",
                workload=result.get("workload"),
                workload_args=None,
                config=result.get("config"),
                cycles=result.get("cycles"),
                instructions=result.get("instructions"),
                cached=True,
                elapsed_s=payload.get("elapsed_s"),
                result_sha256=hashlib.sha256(canonical.encode()).hexdigest(),
                breakdown_rows=list(breakdown.items())
                if all(not isinstance(v, dict) for v in breakdown.values())
                else _breakdown_rows_from_dict(breakdown),
                stats=result.get("stats") or {},
                ingest_id=ingest_id,
            )
            count += 1
        self._conn.commit()
        return count

    def ingest_e2e(self, path: str) -> int:
        """Ingest a file of end-to-end benchmark run records (one record
        or a list, as ``benchmarks/e2e/compare.py`` reads them): one row
        per record and metric.  Returns the number of records."""
        ingest_id = self._begin_ingest("e2e", path)
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        records = payload if isinstance(payload, list) else [payload]
        self._conn.execute("DELETE FROM e2e_metrics WHERE source = ?", (path,))
        for idx, record in enumerate(records):
            for metric, reading in sorted(record.get("metrics", {}).items()):
                self._conn.execute(
                    "INSERT INTO e2e_metrics (source, record, workload, seed,"
                    " correct, metric, unit, value, ingest_id)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        path, idx, record.get("workload"), record.get("seed"),
                        int(bool(record.get("correct"))), metric,
                        reading.get("unit"), reading.get("value"), ingest_id,
                    ),
                )
        self._record_artifact(path, "e2e", ingest_id)
        self._conn.commit()
        return len(records)

    def ingest_telemetry(self, path: str) -> int:
        """Ingest telemetry JSONL series: one file, or every ``*.jsonl``
        in a directory (the sweep/campaign ``--telemetry DIR`` layout).
        Returns the number of series ingested."""
        paths = [path]
        if os.path.isdir(path):
            paths = [
                os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if name.endswith(".jsonl")
            ]
        count = 0
        ingest_id = self._begin_ingest("telemetry", path)
        for series_path in paths:
            if self._ingest_series(series_path, ingest_id):
                count += 1
        self._conn.commit()
        return count

    def _ingest_series(self, path: str, ingest_id: int) -> bool:
        from repro.obs import read_series

        try:
            series = read_series(path)
        except (OSError, ValueError):
            return False
        header = series.get("header") or {}
        samples = series.get("samples") or []
        cycles = [s.get("cycle") for s in samples]
        self._conn.execute(
            "DELETE FROM telemetry_samples WHERE series_id IN"
            " (SELECT id FROM telemetry_series WHERE path = ?)", (path,)
        )
        cur = self._conn.execute(
            "INSERT OR REPLACE INTO telemetry_series (path, run_key, label,"
            " core, sample_count, first_cycle, last_cycle, columns, ingest_id)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                path, header.get("run"), header.get("label"),
                header.get("core"), len(samples),
                min(cycles) if cycles else None,
                max(cycles) if cycles else None,
                json.dumps(header.get("columns", [])), ingest_id,
            ),
        )
        series_id = cur.lastrowid
        for sample in samples:
            for column, value in (sample.get("values") or {}).items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    self._conn.execute(
                        "INSERT OR REPLACE INTO telemetry_samples (series_id,"
                        " seq, cycle, column, value) VALUES (?, ?, ?, ?, ?)",
                        (series_id, sample.get("seq"), sample.get("cycle"),
                         column, value),
                    )
        self._record_artifact(path, "telemetry", ingest_id)
        return True

    def ingest_artifact_files(self, paths, kind: str) -> int:
        """Record byte-exact source files (goldens, campaign text/CSV
        artifacts, traces) in the content-hash ledger.  ``paths`` may mix
        files and directories (directories are scanned non-recursively).
        Returns the number of files recorded."""
        if isinstance(paths, str):
            paths = [paths]
        files: list[str] = []
        for path in paths:
            if os.path.isdir(path):
                files += [
                    os.path.join(path, name)
                    for name in sorted(os.listdir(path))
                    if os.path.isfile(os.path.join(path, name))
                ]
            elif os.path.isfile(path):
                files.append(path)
        ingest_id = self._begin_ingest(kind, ",".join(paths))
        for path in files:
            self._record_artifact(path, kind, ingest_id)
        self._conn.commit()
        return len(files)

    def ingest_campaign_artifact(self, path: str) -> int:
        """Ingest a campaign ``<name>.json`` artifact written by
        :func:`repro.experiments.campaign.write_artifacts` (the offline
        twin of :meth:`ingest_campaign`).  Returns the cell count."""
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        cells = payload.get("cells")
        spec = payload.get("campaign") or {}
        if not isinstance(cells, dict):
            raise ValueError("%s: not a campaign JSON artifact" % path)
        campaign = spec.get("name", "campaign")
        ingest_id = self._begin_ingest("campaign-artifact", path)
        self._conn.execute(
            "DELETE FROM campaign_cells WHERE campaign = ?", (campaign,)
        )
        for cell_name, cell in sorted(cells.items()):
            frac = cell.get("attribution") or {}
            self._conn.execute(
                "INSERT INTO campaign_cells (campaign, cell, workload,"
                " hierarchy, protocol, cycles, key, cached, replayed,"
                " no_stall, mem_data, mem_struct, sync, compute, other,"
                " ingest_id)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign, cell_name, cell.get("workload"),
                    cell.get("hierarchy"), cell.get("protocol"),
                    cell.get("cycles"), cell.get("key"),
                    int(bool(cell.get("cached"))),
                    int(bool(cell.get("replayed"))),
                    frac.get("no_stall"), frac.get("mem_data"),
                    frac.get("mem_struct"), frac.get("sync"),
                    frac.get("compute"), frac.get("other"), ingest_id,
                ),
            )
            breakdown = cell.get("breakdown") or {}
            self._put_run(
                key=cell.get("key"), name=cell_name, experiment=campaign,
                source="campaign-artifact", workload=cell.get("workload"),
                workload_args=None, config=None, cycles=cell.get("cycles"),
                instructions=None, cached=bool(cell.get("cached")),
                elapsed_s=cell.get("elapsed_s"), result_sha256=None,
                breakdown_rows=sorted(breakdown.items()), stats={},
                ingest_id=ingest_id,
            )
        self._record_artifact(path, "campaign-artifact", ingest_id)
        self._conn.commit()
        return len(cells)

    # -- internals ------------------------------------------------------
    def _record_artifact(self, path: str, kind: str, ingest_id: int) -> None:
        try:
            sha = file_sha256(path)
            size = os.stat(path).st_size
        except OSError:
            return
        self._conn.execute(
            "INSERT OR REPLACE INTO artifacts (path, kind, sha256, bytes,"
            " ingest_id) VALUES (?, ?, ?, ?, ?)",
            (path, kind, sha, size, ingest_id),
        )

    def _put_run(
        self, key, name, experiment, source, workload, workload_args, config,
        cycles, instructions, cached, elapsed_s, result_sha256,
        breakdown_rows, stats, ingest_id,
    ) -> int:
        old = self._conn.execute(
            "SELECT id FROM runs WHERE source = ? AND IFNULL(experiment, '')"
            " = ? AND IFNULL(name, '') = ? AND IFNULL(key, '') = ?",
            (source, experiment or "", name or "", key or ""),
        ).fetchone()
        if old is not None:
            self._conn.execute("DELETE FROM runs WHERE id = ?", (old[0],))
            self._conn.execute("DELETE FROM breakdown WHERE run_id = ?", (old[0],))
            self._conn.execute("DELETE FROM stats WHERE run_id = ?", (old[0],))
        cur = self._conn.execute(
            "INSERT INTO runs (key, name, experiment, source, workload,"
            " workload_args, config, cycles, instructions, cached, elapsed_s,"
            " result_sha256, ingest_id)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                key, name, experiment, source, workload,
                json.dumps(workload_args, sort_keys=True)
                if workload_args is not None else None,
                json.dumps(config, sort_keys=True) if config is not None else None,
                cycles, instructions,
                int(cached) if cached is not None else None,
                elapsed_s, result_sha256, ingest_id,
            ),
        )
        run_id = cur.lastrowid
        for category, value in breakdown_rows or []:
            self._conn.execute(
                "INSERT OR REPLACE INTO breakdown (run_id, category, cycles)"
                " VALUES (?, ?, ?)", (run_id, str(category), value),
            )
        flat: dict = {}
        _flatten("", stats or {}, flat)
        for path, value in flat.items():
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, (int, float)):
                self._conn.execute(
                    "INSERT OR REPLACE INTO stats (run_id, path, value, text)"
                    " VALUES (?, ?, ?, NULL)", (run_id, path, value),
                )
            else:
                self._conn.execute(
                    "INSERT OR REPLACE INTO stats (run_id, path, value, text)"
                    " VALUES (?, ?, NULL, ?)", (run_id, path, str(value)),
                )
        return run_id

    # -- query ----------------------------------------------------------
    def query(self, sql: str, params=()) -> tuple[list[str], list[tuple]]:
        """Run one read query; returns (column names, rows)."""
        cur = self._conn.execute(sql, params)
        columns = [d[0] for d in cur.description] if cur.description else []
        return columns, cur.fetchall()

    def tables(self) -> list[str]:
        _, rows = self.query(
            "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
        )
        return [r[0] for r in rows]

    def summary(self) -> dict:
        """Row counts per table (the ``repro report query --tables`` view)."""
        return {
            table: self.query("SELECT COUNT(*) FROM %s" % table)[1][0][0]
            for table in self.tables()
        }


def _breakdown_rows_from_dict(breakdown: dict) -> list[tuple[str, int]]:
    """Reconstruct ``StallBreakdown.rows()`` labels from a serialized
    breakdown dict (cache entries store the raw to_dict form)."""
    from repro.core.breakdown import StallBreakdown

    try:
        return StallBreakdown.from_dict(breakdown).rows()
    except (KeyError, TypeError, ValueError):
        return []
