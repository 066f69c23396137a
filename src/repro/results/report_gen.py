"""One versioned, byte-diffable report over everything the repo measures.

:func:`build` regenerates the scenario-backed experiment set at the
canonical sizes (via :func:`repro.experiments.runner.experiment_results`,
so the fast/full size policy cannot drift from ``python -m
repro.experiments``), ingests every result into a
:class:`~repro.results.db.ResultsDB`, and renders **from the database**
-- not from the in-memory objects -- one report in three shapes:

* ``report.md`` -- human-readable Markdown (tables + claim checklists);
* ``report.tex`` -- a compilable LaTeX article of the same content;
* ``report.json`` -- the machine-readable document model.

plus ``MANIFEST.sha256`` -- sha256sum-compatible content hashes of the
three files.  Every value that reaches a report file is deterministic:
simulation outputs are byte-identical by engine contract, the perf
section reads the end-to-end benchmark's *committed* baseline records
(``benchmarks/e2e/baseline/run-1.json``), and all
volatile provenance (wall clocks, cache hits, git SHA, timestamps)
stays in the database only.  Building twice therefore yields identical
bytes, and CI can ``cmp`` a fresh manifest against the committed
``docs/report/MANIFEST.sha256``.

CLI surface: ``repro report build|query|diff|manifest``.
"""

from __future__ import annotations

import json
import os
import statistics

from repro.results.db import ResultsDB, file_sha256

#: bumped whenever the rendered document layout changes
REPORT_VERSION = 1

#: the experiments a report covers, in presentation order (overhead is
#: excluded on purpose: it measures host wall-clock, which can never be
#: byte-reproducible)
REPORT_EXPERIMENTS = (
    "fig6.1", "fig6.2", "fig6.3", "fig6.4", "hierarchy", "campaign",
)

#: the files a report consists of (manifest-covered, sorted)
REPORT_FILES = ("report.json", "report.md", "report.tex")

MANIFEST_NAME = "MANIFEST.sha256"

#: campaign attribution columns, presentation order (matches
#: repro.core.report.MATRIX_COLUMNS)
_ATTR_COLUMNS = ("no_stall", "mem_data", "mem_struct", "sync", "compute", "other")

#: the checkout this module runs from (src/repro/results/ -> root): the
#: committed inputs below are read relative to it, whatever the working
#: directory, and rendered by their repo-relative paths
REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, os.pardir)
)
DEFAULT_BASELINE = os.path.join("benchmarks", "e2e", "baseline", "run-1.json")
DEFAULT_GOLDENS = os.path.join("benchmarks", "artifacts", "goldens")


# ---------------------------------------------------------------------------
# build: run -> ingest -> render -> manifest
# ---------------------------------------------------------------------------

def build(
    out_dir: str,
    db: ResultsDB,
    fast: bool = True,
    jobs: int = 1,
    cache_dir: str | None = None,
    experiments: "list[str] | None" = None,
    baseline_path: str = DEFAULT_BASELINE,
    goldens_dir: str = DEFAULT_GOLDENS,
) -> dict:
    """Regenerate, ingest and render the full report into ``out_dir``.

    Returns ``{"files": [...], "manifest": path, "experiments": [...],
    "missing": [...]}``.  ``experiments`` restricts the set (names from
    :data:`REPORT_EXPERIMENTS`); the committed benchmark baseline and
    golden outputs are ingested by :func:`ingest_inputs` when present,
    and ``missing`` names those that are not (the report then leaves out
    their sections).
    """
    from repro.experiments import runner

    chosen = list(experiments or REPORT_EXPERIMENTS)
    unknown = [n for n in chosen if n not in REPORT_EXPERIMENTS]
    if unknown:
        raise ValueError(
            "unknown report experiment(s) %s; available: %s"
            % (unknown, ", ".join(REPORT_EXPERIMENTS))
        )
    names = [n for n in REPORT_EXPERIMENTS if n in chosen]

    db_names: list[str] = []
    campaign_name: str | None = None
    for name in names:
        result = runner.experiment_results(
            name, fast=fast, jobs=jobs, cache_dir=cache_dir
        )
        if name == "campaign":
            db.ingest_campaign(result)
            campaign_name = result.spec.name
        elif isinstance(result, dict):
            for size in sorted(result):
                db.ingest_experiment(result[size])
                db_names.append(result[size].experiment)
        else:
            db.ingest_experiment(result)
            db_names.append(result.experiment)

    baseline, missing = ingest_inputs(db, baseline_path, goldens_dir)
    doc = collect(db, db_names, campaign_name, fast, baseline)
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for filename, payload in (
        ("report.json", json.dumps(doc, indent=2, sort_keys=True) + "\n"),
        ("report.md", render_markdown(doc)),
        ("report.tex", render_latex(doc)),
    ):
        path = os.path.join(out_dir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
        files.append(path)
    manifest = write_manifest(out_dir)
    return {"files": files, "manifest": manifest, "experiments": db_names,
            "missing": missing}


def ingest_inputs(
    db: ResultsDB,
    baseline_path: str = DEFAULT_BASELINE,
    goldens_dir: str = DEFAULT_GOLDENS,
) -> tuple:
    """Ingest the committed benchmark baseline and golden outputs, each
    read relative to :data:`REPO_ROOT` and recorded under its given path.

    Returns ``(baseline, missing)``: the baseline path the perf section
    reads (``None`` when absent) and the given paths that are absent.
    """
    baseline, missing = None, []
    if os.path.exists(os.path.join(REPO_ROOT, baseline_path)):
        db.ingest_e2e(baseline_path, root=REPO_ROOT)
        baseline = baseline_path
    else:
        missing.append(baseline_path)
    if os.path.isdir(os.path.join(REPO_ROOT, goldens_dir)):
        db.ingest_artifact_files(goldens_dir, "golden", root=REPO_ROOT)
    else:
        missing.append(goldens_dir)
    return baseline, missing


# ---------------------------------------------------------------------------
# collect: the document model, queried back out of the database
# ---------------------------------------------------------------------------

def collect(
    db: ResultsDB,
    db_names: list[str],
    campaign_name: str | None,
    fast: bool,
    baseline: str | None,
) -> dict:
    """Assemble the JSON document model from database queries only --
    the round-trip that proves every reported number is recoverable."""
    doc: dict = {
        "title": "GSI: GPU Stall Inspector -- results report",
        "report_version": REPORT_VERSION,
        "mode": "fast" if fast else "full",
        "experiments": [_collect_experiment(db, name) for name in db_names],
        "campaign": _collect_campaign(db, campaign_name)
        if campaign_name else None,
        "bench": _collect_perf(db, baseline) if baseline else None,
        "goldens": [
            {"path": path, "sha256": sha, "bytes": size}
            for path, sha, size in db.query(
                "SELECT path, sha256, bytes FROM artifacts"
                " WHERE kind = 'golden' ORDER BY path"
            )[1]
        ],
    }
    return doc


def _collect_experiment(db: ResultsDB, name: str) -> dict:
    _, exp = db.query(
        "SELECT baseline FROM experiments WHERE name = ?", (name,)
    )
    baseline = exp[0][0] if exp else None
    runs = []
    for run_id, cfg, cycles, instructions in db.query(
        "SELECT id, name, cycles, instructions FROM runs"
        " WHERE source = 'experiment' AND experiment = ? ORDER BY id",
        (name,),
    )[1]:
        _, bd = db.query(
            "SELECT category, cycles FROM breakdown WHERE run_id = ?"
            " ORDER BY rowid", (run_id,)
        )
        runs.append({
            "config": cfg,
            "cycles": cycles,
            "instructions": instructions,
            "ipc": round(instructions / cycles, 4) if cycles else 0.0,
            "breakdown": [
                {"category": cat, "cycles": cyc} for cat, cyc in bd
            ],
        })
    claims = [
        {"text": text, "paper": paper, "measured": measured,
         "holds": bool(holds)}
        for text, paper, measured, holds in db.query(
            "SELECT text, paper, measured, holds FROM claims"
            " WHERE experiment = ? ORDER BY idx", (name,)
        )[1]
    ]
    return {"name": name, "baseline": baseline, "runs": runs, "claims": claims}


def _collect_campaign(db: ResultsDB, name: str) -> dict:
    cells = []
    for row in db.query(
        "SELECT cell, workload, hierarchy, protocol, cycles, key, replayed,"
        " no_stall, mem_data, mem_struct, sync, compute, other"
        " FROM campaign_cells WHERE campaign = ? ORDER BY rowid", (name,)
    )[1]:
        attribution = {
            col: round(row[7 + i], 4) if row[7 + i] is not None else None
            for i, col in enumerate(_ATTR_COLUMNS)
        }
        measured = {c: v for c, v in attribution.items() if v is not None}
        cells.append({
            "cell": row[0],
            "workload": row[1],
            "hierarchy": row[2],
            "protocol": row[3],
            "cycles": row[4],
            "key": row[5],
            "replayed": bool(row[6]),
            "attribution": attribution,
            "dominant": max(measured, key=measured.get) if measured else None,
        })
    return {"name": name, "cells": cells}


def _collect_perf(db: ResultsDB, source: str) -> dict:
    """Per-workload medians of every end-to-end metric in one benchmark
    file (the statistic ``benchmarks/e2e/compare.py`` compares)."""
    _, rows = db.query(
        "SELECT workload, metric, unit, value FROM e2e_metrics"
        " WHERE source = ? ORDER BY workload, metric, record", (source,)
    )
    readings: dict = {}
    for workload, metric, unit, value in rows:
        readings.setdefault((workload, metric, unit), []).append(value)
    return {
        "source": source,
        "medians": [
            {"workload": workload, "metric": metric, "unit": unit,
             "runs": len(values), "median": statistics.median(values)}
            for (workload, metric, unit), values in readings.items()
        ],
    }


def _num(value: float) -> str:
    return "%.0f" % value if abs(value) >= 1000 else "%.4g" % value


# ---------------------------------------------------------------------------
# render: Markdown
# ---------------------------------------------------------------------------

def _md_table(headers: list[str], rows: list[list]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return lines


def render_markdown(doc: dict) -> str:
    lines = [
        "# %s" % doc["title"],
        "",
        "Report version %d, `%s` sizes. Generated by `repro report build`;"
        % (doc["report_version"], doc["mode"]),
        "regenerate and diff with `repro report build --out <dir>` +"
        " `repro report diff`.",
    ]
    for exp in doc["experiments"]:
        lines += ["", "## %s" % exp["name"], ""]
        if exp["baseline"]:
            lines += ["Baseline configuration: `%s`." % exp["baseline"], ""]
        lines += _md_table(
            ["config", "cycles", "instructions", "IPC"],
            [[r["config"], r["cycles"], r["instructions"], "%.4f" % r["ipc"]]
             for r in exp["runs"]],
        )
        if exp["runs"]:
            lines += ["", "### stall breakdown (cycles)", ""]
            configs = [r["config"] for r in exp["runs"]]
            categories = [b["category"] for b in exp["runs"][0]["breakdown"]]
            by_config = {
                r["config"]: {b["category"]: b["cycles"] for b in r["breakdown"]}
                for r in exp["runs"]
            }
            lines += _md_table(
                ["category"] + configs,
                [[cat] + [by_config[c].get(cat, 0) for c in configs]
                 for cat in categories],
            )
        if exp["claims"]:
            lines += ["", "### shape claims", ""]
            for claim in exp["claims"]:
                lines.append(
                    "- [%s] %s (paper: %s; measured: %s)"
                    % ("x" if claim["holds"] else " ", claim["text"],
                       claim["paper"], claim["measured"])
                )
    campaign = doc.get("campaign")
    if campaign:
        lines += [
            "", "## campaign: %s" % campaign["name"], "",
            "Stall-attribution matrix; fractions are of each cell's own"
            " cycles.", "",
        ]
        lines += _md_table(
            ["workload", "hierarchy", "protocol", "cycles"]
            + list(_ATTR_COLUMNS) + ["dominant"],
            [
                [c["workload"], c["hierarchy"], c["protocol"], c["cycles"]]
                + ["%.4f" % c["attribution"][col] for col in _ATTR_COLUMNS]
                + [c["dominant"]]
                for c in campaign["cells"]
            ],
        )
    bench = doc.get("bench")
    if bench:
        lines += [
            "", "## perf trajectory", "",
            "Per-workload medians of the end-to-end benchmark's committed"
            " baseline records (`%s`)." % bench["source"], "",
        ]
        lines += _md_table(
            ["workload", "metric", "unit", "runs", "median"],
            [[m["workload"], m["metric"], m["unit"], m["runs"], _num(m["median"])]
             for m in bench["medians"]],
        )
    if doc.get("goldens"):
        lines += ["", "## golden outputs", "",
                  "Byte-identity anchors (SHA-256 of the committed files).", ""]
        lines += _md_table(
            ["file", "bytes", "sha256"],
            [[g["path"], g["bytes"], "`%s`" % g["sha256"]]
             for g in doc["goldens"]],
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# render: LaTeX
# ---------------------------------------------------------------------------

_TEX_SPECIALS = {
    "\\": r"\textbackslash{}", "&": r"\&", "%": r"\%", "$": r"\$",
    "#": r"\#", "_": r"\_", "{": r"\{", "}": r"\}",
    "~": r"\textasciitilde{}", "^": r"\textasciicircum{}",
}


def _tex(value) -> str:
    return "".join(_TEX_SPECIALS.get(ch, ch) for ch in str(value))


def _tex_table(headers: list[str], rows: list[list], align: str) -> list[str]:
    lines = [
        r"\begin{tabular}{%s}" % align,
        " & ".join(r"\textbf{%s}" % _tex(h) for h in headers) + r" \\",
        r"\hline",
    ]
    for row in rows:
        lines.append(" & ".join(_tex(v) for v in row) + r" \\")
    lines.append(r"\end{tabular}")
    return lines


def render_latex(doc: dict) -> str:
    # no \maketitle: it stamps \today into the PDF and the source would
    # tempt people to add it -- the report must not carry a build date.
    lines = [
        r"\documentclass{article}",
        r"\usepackage[margin=2cm]{geometry}",
        r"\begin{document}",
        r"\section*{%s}" % _tex(doc["title"]),
        r"Report version %d, \texttt{%s} sizes."
        % (doc["report_version"], doc["mode"]),
    ]
    for exp in doc["experiments"]:
        lines += ["", r"\subsection*{%s}" % _tex(exp["name"])]
        if exp["baseline"]:
            lines.append(
                r"Baseline configuration: \texttt{%s}." % _tex(exp["baseline"])
            )
        lines += _tex_table(
            ["config", "cycles", "instructions", "IPC"],
            [[r["config"], r["cycles"], r["instructions"], "%.4f" % r["ipc"]]
             for r in exp["runs"]],
            "lrrr",
        )
        if exp["claims"]:
            lines.append(r"\begin{itemize}")
            for claim in exp["claims"]:
                lines.append(
                    r"\item[%s] %s (paper: %s; measured: %s)"
                    % (r"$\checkmark$" if claim["holds"] else r"$\times$",
                       _tex(claim["text"]), _tex(claim["paper"]),
                       _tex(claim["measured"]))
                )
            lines.append(r"\end{itemize}")
    campaign = doc.get("campaign")
    if campaign:
        lines += ["", r"\subsection*{campaign: %s}" % _tex(campaign["name"])]
        lines += _tex_table(
            ["workload", "hierarchy", "protocol", "cycles", "dominant"],
            [[c["workload"], c["hierarchy"], c["protocol"], c["cycles"],
              c["dominant"]] for c in campaign["cells"]],
            "lllrl",
        )
    bench = doc.get("bench")
    if bench:
        lines += ["", r"\subsection*{perf trajectory}",
                  r"Per-workload medians of \texttt{%s}." % _tex(bench["source"])]
        lines += _tex_table(
            ["workload", "metric", "unit", "median"],
            [[m["workload"], m["metric"], m["unit"], _num(m["median"])]
             for m in bench["medians"]],
            "lllr",
        )
    lines += [r"\end{document}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# manifest: sha256sum-compatible, sorted, byte-diffable
# ---------------------------------------------------------------------------

def manifest_lines(out_dir: str, files=REPORT_FILES) -> list[str]:
    """``<sha256>  <filename>`` lines (sha256sum format), sorted by name;
    missing files are listed as absent so diffs stay explicit."""
    lines = []
    for name in sorted(files):
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            lines.append("%s  %s" % (file_sha256(path), name))
        else:
            lines.append("%s  %s" % ("-" * 64, name))
    return lines


def write_manifest(out_dir: str) -> str:
    path = os.path.join(out_dir, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(manifest_lines(out_dir)) + "\n")
    return path


def read_manifest(path: str) -> dict:
    """Parse a manifest back into ``{filename: sha256}``."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) == 2:
                out[parts[1]] = parts[0]
    return out


def check_manifest(out_dir: str) -> list[str]:
    """Mismatches between ``out_dir``'s files and its committed manifest
    (empty list == verified).  A missing manifest is itself a mismatch."""
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        return ["%s: no %s" % (out_dir, MANIFEST_NAME)]
    committed = read_manifest(manifest_path)
    actual = {name: sha for sha, name in
              (line.split("  ", 1) for line in manifest_lines(out_dir))}
    problems = []
    for name in sorted(set(committed) | set(actual)):
        want, got = committed.get(name), actual.get(name)
        if want != got:
            problems.append(
                "%s: manifest %s != actual %s" % (name, want, got)
            )
    return problems


def diff_reports(dir_a: str, dir_b: str) -> list[str]:
    """Per-file hash differences between two report directories (empty
    list == byte-identical reports)."""
    a = {name: sha for sha, name in
         (line.split("  ", 1) for line in manifest_lines(dir_a))}
    b = {name: sha for sha, name in
         (line.split("  ", 1) for line in manifest_lines(dir_b))}
    out = []
    for name in sorted(set(a) | set(b)):
        if a.get(name) != b.get(name):
            out.append("%s: %s != %s" % (name, a.get(name), b.get(name)))
    return out
