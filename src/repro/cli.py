"""Command-line interface: run, sweep, campaign, record/replay under GSI.

Examples::

    python -m repro run uts --protocol denovo --nodes 100
    python -m repro run implicit_stash --mshr 256
    python -m repro run utsd --timeline 512 --energy
    python -m repro run uts --protocol gpu --set l2_banks=8 --set hop_latency=5
    python -m repro run uts --hierarchy shapes/shared_l3.json
    python -m repro run spmv --nodes 128 --warps 4
    python -m repro sweep my_sweep.json --jobs 4 --format json --cache .sim-cache
    python -m repro campaign --fast --jobs 4 --cache .sim-cache
    python -m repro campaign --workloads spmv,bfs --protocols denovo --out results/
    python -m repro campaign --spec my_campaign.json --format csv
    python -m repro trace record uts --nodes 100 -o uts.gsitrace
    python -m repro trace replay uts.gsitrace --verify
    python -m repro trace replay uts.gsitrace --mshr 8 --store-buffer 8
    python -m repro trace info uts.gsitrace
    python -m repro run streaming --telemetry run.jsonl --sample-every 2000
    python -m repro run uts --timeline run.trace.json
    python -m repro campaign --fast --telemetry tel/ --timeline cells.trace.json
    python -m repro campaign --workers 4 --cache .sim-cache --plan
    python -m repro campaign --queue /shared/q --workers 2 --cache /shared/cache
    python -m repro worker --queue /shared/q
    python -m repro cache info .sim-cache
    python -m repro cache verify .sim-cache
    python -m repro cache prune .sim-cache
    python -m repro telemetry summarize run.jsonl
    python -m repro sweep my_sweep.json --db results.db
    python -m repro report build --out report/ --db results.db
    python -m repro report query "SELECT experiment, name, cycles FROM runs"
    python -m repro report diff docs/report report/
    python -m repro report manifest docs/report --check
    python -m repro list
    python -m repro table51

``--hierarchy`` takes a JSON/YAML memory-hierarchy spec (a ``levels`` list;
see the README's "Memory-hierarchy fabric" section), making the cache
topology -- shared L3s, private L2s, L1 bypass, cluster sharing -- a
first-class run/record/sweep axis.  ``--set FIELD=VALUE`` overrides any
``SystemConfig`` field on ``run``, ``trace record`` and ``trace replay``
(one override path: :func:`config_overrides`).

``campaign`` runs a whole workload-fleet x hierarchy x protocol cross
product through the cached parallel executor and prints the stall
attribution matrix; see the README's "Campaigns" section.  Every cell
is a full execution unless ``--plan [TRACE_DIR]`` asks for the
replay-first planner: each frontend-identity group then records one
``.gsitrace`` and serves its memory-side sweep cells as fast trace
replays, marked ``replay`` in the matrix with cycles but no stall
attribution.  ``--workers N`` / ``--queue DIR`` shard the campaign,
planned or not, over a filesystem-backed work queue that any number of
``repro worker`` processes (local or on other machines) can drain; see
the README's "Distributed campaigns" section.

``report`` is the one-command results database + programmatic report:
``repro report build`` regenerates the scenario-backed experiments,
ingests every number into a SQLite database (``--db``), and renders the
versioned Markdown/LaTeX/JSON report with a SHA-256 manifest;
``query``/``diff``/``manifest`` inspect the database and byte-compare
report directories.  ``sweep``/``campaign --db FILE`` ingest their
results on completion.  See the README's "Results database" section and
``docs/ARTIFACTS.md``.

``--telemetry`` / ``--timeline`` attach the in-flight telemetry subsystem
(:mod:`repro.obs`): a sampled stat time-series (JSONL + CSV) and a Chrome
trace-event timeline viewable in Perfetto.  On ``run``, ``--timeline``
doubles as the classic windowed ASCII timeline when given an integer
bucket size, or a trace-file path otherwise.  Telemetry is provably
inert: results are byte-identical with it on or off (see the README's
"Observability" section).

Every command takes its shared options from one vocabulary,
:data:`OPTIONS`; a bad option or input exits 2 with ``error: ...``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from repro.core.energy import estimate_energy
from repro.core.report import format_stacked_bars, format_stats_tree, format_table
from repro.core.timeline import render_timeline
from repro.sim.config import SystemConfig
from repro.system import run_workload
from repro.workloads import make_workload


class CLIError(Exception):
    """A bad option or input: :func:`main` prints it and exits 2."""


@contextlib.contextmanager
def fail_on(*errors, prefix: str = ""):
    """Re-raise the given exception types from the block as a CLIError
    (its message prefixed by ``prefix``)."""
    try:
        yield
    except errors as exc:
        raise CLIError(prefix + str(exc)) from exc


_WARPS = {"warps_per_tb": "warps"}

# CLI workload name -> (registry name, {factory kwarg: CLI option dest}).
# Classes come from the workload registry (repro.workloads), the single
# name->factory source also used by scenario specs; this table only owns
# the CLI-argument plumbing.
WORKLOADS: dict[str, tuple[str, dict[str, str]]] = {
    "uts": ("uts", {"total_nodes": "nodes", **_WARPS}),
    "utsd": ("utsd", {"total_nodes": "nodes", **_WARPS}),
    "implicit_scratchpad": ("implicit_scratchpad", _WARPS),
    "implicit_dma": ("implicit_dma", _WARPS),
    "implicit_stash": ("implicit_stash", _WARPS),
    "bfs": ("bfs", {"num_vertices": "nodes", **_WARPS}),
    "stencil": ("stencil_scratchpad", _WARPS),
    "reduction": ("reduction", _WARPS),
    "streaming": ("streaming", _WARPS),
    "pointer_chase": ("pointer_chase", _WARPS),
    # the campaign fleet (see repro.experiments.campaign)
    "spmv": ("spmv", {"num_rows": "nodes", **_WARPS}),
    "histogram": ("histogram", _WARPS),
    "matmul_tiled": ("matmul_tiled", _WARPS),
    "transpose": ("transpose", _WARPS),
    "gups": ("gups", _WARPS),
}


def workload_kwargs(args) -> dict:
    """The kwargs the selected workload's factory takes from the CLI --
    also what a recorded trace keeps as its provenance (most workloads
    ignore --nodes)."""
    _, arg_map = WORKLOADS[args.workload]
    return {kwarg: getattr(args, dest) for kwarg, dest in arg_map.items()}


# The option vocabulary shared by every command: option dest -> its
# add_argument settings.  A command declares the options it has by name
# (add_options) and may override their help, metavar, default or dest;
# everything else is the same on every command.
OPTIONS = {
    # the batch options
    "jobs": {"type": int, "default": 1, "metavar": "N",
             "help": "worker processes (default: 1)"},
    "format": {"choices": ("text", "json", "csv"), "default": "text", "dest": "fmt"},
    "out": {"metavar": "DIR", "default": None},
    "cache": {"metavar": "DIR", "default": None,
              "help": "on-disk scenario result cache"},
    "db": {"metavar": "FILE", "default": None},
    # the telemetry options
    "telemetry": {"metavar": "DIR", "default": None,
                  "help": "write one telemetry series per executed cell into "
                          "DIR (<scenario-key>.jsonl + .csv, plus an "
                          "index.json name->key map)"},
    "sample_every": {"type": int, "default": 5000, "metavar": "N",
                     "help": "per-cell telemetry sampling period in cycles "
                             "(default: 5000)"},
    "timeline": {"metavar": "OUT.trace.json", "default": None,
                 "help": "write the cells' wall-clock schedule as a Chrome "
                         "trace-event timeline (open in Perfetto)"},
    "quiet": {"action": "store_true",
              "help": "suppress the live per-cell progress lines"},
    # the single-run and inspection options
    "set": {"action": "append", "default": [], "metavar": "FIELD=VALUE",
            "dest": "overrides",
            "help": "override any SystemConfig field (repeatable)"},
    "stats": {"action": "store_true",
              "help": "print the full component stats tree"},
    "per_sm": {"action": "store_true", "help": "per-SM breakdowns"},
    "json": {"action": "store_true", "dest": "as_json",
             "help": "machine-readable output"},
}
BATCH = ("jobs", "format", "out", "cache", "db")
TELEMETRY = ("telemetry", "sample_every", "timeline", "quiet")

# lower bounds of the integer options, checked for every command that has
# the option before it runs
MINIMUMS = {"jobs": 1, "sample_every": 1, "warps": 1, "workers": 0}


def add_options(parser, *names: str, **custom) -> None:
    """Declare options of :data:`OPTIONS` on ``parser``, in vocabulary
    order: each name with the shared settings, each keyword with its own
    help text or a dict of settings that override the shared ones."""
    for name, settings in OPTIONS.items():
        if name in names or name in custom:
            override = custom.get(name, {})
            if isinstance(override, str):
                override = {"help": override}
            parser.add_argument("--" + name.replace("_", "-"),
                                **{**settings, **override})


def check_minimums(args) -> None:
    """Raise a CLIError for any option below its :data:`MINIMUMS` bound."""
    for dest, low in MINIMUMS.items():
        value = getattr(args, dest, None)
        if value is not None and value < low:
            raise CLIError("--%s must be >= %d" % (dest.replace("_", "-"), low))


def _add_sim_options(parser: argparse.ArgumentParser) -> None:
    """Workload + configuration options shared by ``run`` and
    ``trace record`` (both build a workload and an execution config)."""
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--protocol", choices=["gpu", "denovo"], default="gpu")
    parser.add_argument("--sms", type=int, default=None, help="override SM count")
    parser.add_argument("--nodes", type=int, default=80, help="tree/graph size")
    parser.add_argument("--warps", type=int, default=2,
                        help="warps per thread block (fig6.3/6.4 run the "
                             "implicit workloads at 8)")
    parser.add_argument("--mshr", type=int, default=32)
    parser.add_argument("--store-buffer", type=int, default=None)
    parser.add_argument("--scheduler", choices=["lrr", "gto"], default="lrr")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--hierarchy", metavar="FILE", default=None,
                        help="memory-hierarchy spec: a JSON/YAML file with a "
                             "'levels' list (see README 'Memory-hierarchy "
                             "fabric')")
    add_options(parser, "set")


# CLI option dest -> the SystemConfig field it overrides
_CONFIG_OPTIONS = {"sms": "num_sms", "mshr": "mshr_entries",
                   "store_buffer": "store_buffer_entries", "protocol": "protocol"}


def config_overrides(args) -> dict:
    """The SystemConfig overrides of the config options a command has
    (``--sms``, ``--mshr``, ``--store-buffer``, ``--protocol``,
    ``--hierarchy``), then of every ``--set FIELD=VALUE``, which wins;
    a ``--set`` value is JSON-coerced when it parses as JSON."""
    overrides = {
        field: getattr(args, dest)
        for dest, field in _CONFIG_OPTIONS.items()
        if getattr(args, dest, None) is not None
    }
    if getattr(args, "hierarchy", None) is not None:
        from repro.experiments.spec import load_json_or_yaml

        overrides["hierarchy"] = load_json_or_yaml(args.hierarchy)
    for text in args.overrides:
        if "=" not in text:
            raise ValueError("override %r is not of the form FIELD=VALUE" % text)
        field, raw = text.split("=", 1)
        try:
            overrides[field.strip()] = json.loads(raw)
        except ValueError:
            overrides[field.strip()] = raw  # bare strings (e.g. protocol=denovo)
    return overrides


def _config_and_workload(args, timeline: "int | None" = None):
    """The SystemConfig and workload that ``run``/``trace record`` build
    from their sim options; a bad config option is a CLIError."""
    # the store buffer follows --mshr unless it is sized on its own
    args.store_buffer = args.store_buffer or args.mshr
    with fail_on(OSError, TypeError, ValueError):
        config = SystemConfig(warp_scheduler=args.scheduler,
                              timeline_window=timeline, seed=args.seed)
        config = config.scaled(**config_overrides(args))
    return config, make_workload(WORKLOADS[args.workload][0], **workload_kwargs(args))


def _add_command(subparsers, name: str, func, help_text: str):
    """A subcommand parser whose parsed args run ``func``."""
    parser = subparsers.add_parser(name, help=help_text)
    parser.set_defaults(func=func)
    return parser


def _add_group(subparsers, name: str, help_text: str):
    """A command group: the subparsers of its required NAME_command."""
    group = subparsers.add_parser(name, help=help_text)
    return group.add_subparsers(dest=name + "_command", required=True)


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.dispatch import DEFAULT_LEASE_EXPIRY_S, DEFAULT_POLL_S

    parser = argparse.ArgumentParser(
        prog="repro", description="GSI: GPU Stall Inspector (ISPASS 2016 repro)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "list", cmd_list, "list bundled workloads")
    _add_command(sub, "table51", cmd_table51, "print Table 5.1 (system parameters)")

    sweep = _add_command(sub, "sweep", cmd_sweep,
                         "run a user-defined scenario file (JSON/YAML)")
    sweep.add_argument("file", help="scenario spec file; see README 'Custom sweeps'")
    add_options(
        sweep, *BATCH, *TELEMETRY,
        out={"metavar": "FILE", "help": "also write the report to FILE"},
        db="also ingest the results into this SQLite results database "
           "(see 'repro report')",
    )

    campaign = _add_command(
        sub, "campaign", cmd_campaign,
        "run a workload-fleet x hierarchy x protocol stall campaign",
    )
    campaign.add_argument("--spec", metavar="FILE", default=None,
                          help="campaign spec file (JSON/YAML); default: the "
                               "built-in fleet campaign")
    campaign.add_argument("--fast", action="store_true",
                          help="reduced workload sizes (CI-friendly)")
    campaign.add_argument("--workloads", metavar="A,B", default=None,
                          help="comma-separated workload subset")
    campaign.add_argument("--hierarchies", metavar="A,B", default=None,
                          help="comma-separated hierarchy subset")
    campaign.add_argument("--protocols", metavar="A,B", default=None,
                          help="comma-separated protocol subset")
    add_options(
        campaign, *BATCH, *TELEMETRY,
        out="write <name>.{txt,json,csv} into DIR",
        cache="on-disk scenario result cache (a repeated campaign is served "
              "entirely from it)",
        db="also ingest the campaign matrix and cell results into this "
           "SQLite results database (see 'repro report')",
    )
    campaign.add_argument("--plan", nargs="?", const="", default=None,
                          metavar="TRACE_DIR",
                          help="replay-first: record one trace per "
                               "frontend-identity group into TRACE_DIR "
                               "(default: <cache>/traces) and serve its "
                               "memory-side sweep cells as replays, which "
                               "report cycles but no stall attribution "
                               "(default: execute every cell)")
    campaign.add_argument("--workers", type=int, default=0, metavar="N",
                          help="shard the campaign over N local worker "
                               "processes via a shared work queue (0 runs "
                               "in-process; with --queue and 0 workers this "
                               "command only coordinates and merges)")
    campaign.add_argument("--queue", metavar="DIR", default=None,
                          help="work-queue directory (shareable across "
                               "machines; default: <cache>/queue/<name>/"
                               "{execute,plan}); "
                               "attach external workers with "
                               "'repro worker --queue DIR'")
    campaign.add_argument("--lease-expiry", type=float,
                          default=DEFAULT_LEASE_EXPIRY_S, metavar="S",
                          help="reclaim a worker's claimed cell after its "
                               "lease heartbeat goes stale this long "
                               "(default: %(default)g)")

    worker = _add_command(sub, "worker", cmd_worker,
                          "drain a distributed campaign queue until it settles")
    worker.add_argument("--queue", required=True, metavar="DIR",
                        help="queue directory created by "
                             "'repro campaign --workers/--queue'")
    worker.add_argument("--poll", type=float, default=DEFAULT_POLL_S,
                        metavar="S",
                        help="idle poll period while waiting for claimable "
                             "tasks (default: %(default)g)")
    worker.add_argument("--lease-expiry", type=float,
                        default=DEFAULT_LEASE_EXPIRY_S, metavar="S",
                        help="reclaim other workers' stale leases after this "
                             "long (default: %(default)g)")
    worker.add_argument("--max-tasks", type=int, default=None, metavar="N",
                        help="exit after claiming N tasks (default: run "
                             "until the campaign settles)")
    worker.add_argument("--id", default=None, dest="worker_id", metavar="NAME",
                        help="worker name recorded in completion markers "
                             "(default: pid-<pid>)")

    csub = _add_group(sub, "cache",
                      "inspect and maintain the content-addressed result cache")
    for name, help_text in (
        ("info", "entry count, bytes, version histogram"),
        ("verify", "sweep every entry; quarantine corrupt ones to *.bad"),
        ("prune", "remove quarantined/stale entries and orphan tmp files"),
    ):
        sub_cache = _add_command(csub, name, cmd_cache, help_text)
        sub_cache.add_argument("dir", help="cache directory (e.g. .sim-cache)")
        add_options(sub_cache, "json")
        if name == "prune":
            sub_cache.add_argument("--tmp-age", type=float, default=3600.0,
                                   metavar="S",
                                   help="only remove orphan *.tmp.* files "
                                        "older than this (default: 3600)")

    run = _add_command(sub, "run", cmd_run,
                       "run one workload and print the breakdown")
    _add_sim_options(run)
    add_options(
        run, "stats", "per_sm",
        telemetry={"metavar": "OUT.jsonl",
                   "help": "sample the stats tree into a JSONL time-series "
                           "(+ sibling .csv); provably inert"},
        sample_every="telemetry sampling period in cycles (default: 5000)",
        timeline={"metavar": "CYCLES|OUT.trace.json",
                  "help": "an integer enables the windowed ASCII timeline "
                          "with that bucket size; anything else is a Chrome "
                          "trace-event output path (open in Perfetto / "
                          "chrome://tracing)"},
        quiet="suppress telemetry heartbeat lines on stderr",
    )
    run.add_argument("--sample-stats", action="append", default=[], metavar="PAT",
                     help="extra fnmatch pattern over flattened stat paths to "
                          "sample (repeatable; adds to the default columns)")
    run.add_argument("--energy", action="store_true", help="print energy report")
    run.add_argument("--profile", metavar="OUT.pstats", default=None,
                     help="run under cProfile and write the stats file "
                          "(inspect with pstats or snakeviz; see "
                          "benchmarks/README.md)")
    run.add_argument("--profile-top", type=int, default=15, metavar="N",
                     help="with --profile: also print the top N functions "
                          "by internal time (default: 15)")

    tsub = _add_group(sub, "trace", "record a workload's memory trace / replay one")
    record = _add_command(
        tsub, "record", cmd_trace_record,
        "run a workload execution-driven and capture its trace",
    )
    _add_sim_options(record)
    record.add_argument("-o", "--out", required=True, metavar="FILE",
                        help="trace output file (conventionally *.gsitrace)")
    replay = _add_command(
        tsub, "replay", cmd_trace_replay,
        "re-inject a recorded trace into the memory hierarchy",
    )
    replay.add_argument("file", help="trace file written by 'trace record'")
    replay.add_argument("--mshr", type=int, default=None,
                        help="override MSHR entries for this replay")
    replay.add_argument("--store-buffer", type=int, default=None,
                        help="override store-buffer entries")
    replay.add_argument("--protocol", choices=["gpu", "denovo"], default=None,
                        help="override the coherence protocol")
    add_options(replay, "set", "stats", "per_sm")
    replay.add_argument("--verify", action="store_true",
                        help="check the replayed memory-side stats against "
                             "the stats recorded in the trace (requires an "
                             "unmodified configuration); exit 1 on mismatch")
    info = _add_command(tsub, "info", cmd_trace_info,
                        "print a trace file's provenance")
    info.add_argument("file")

    telsub = _add_group(sub, "telemetry", "inspect in-flight telemetry artifacts")
    summarize = _add_command(
        telsub, "summarize", cmd_telemetry,
        "render a sampled stat time-series to text or CSV",
    )
    summarize.add_argument("file", help="JSONL series written by --telemetry")
    add_options(summarize, format={"choices": ("text", "csv")})
    summarize.add_argument("--columns", action="append", default=[],
                           metavar="PAT",
                           help="fnmatch filter over column names (repeatable)")

    rsub = _add_group(sub, "report", "results database + one-command versioned "
                      "report (see docs/ARTIFACTS.md)")
    rbuild = _add_command(
        rsub, "build", cmd_report_build,
        "regenerate the experiments, ingest every number into the results "
        "database, render the md/tex/json report + manifest",
    )
    add_options(
        rbuild, "jobs",
        out={"default": "report",
             "help": "report output directory (default: report/; the "
                     "committed golden lives in docs/report/)"},
        cache="on-disk scenario result cache (a rebuild is served from it)",
        db={"default": "results.db",
            "help": "SQLite results database to ingest into "
                    "(default: results.db)"},
    )
    rbuild.add_argument("--full", action="store_true",
                        help="full paper sizes (default: --fast sizes, the "
                             "configuration the committed report is built at)")
    rbuild.add_argument("--experiments", nargs="+", default=None,
                        metavar="NAME",
                        help="restrict to these experiments (default: the "
                             "full report set)")
    rquery = _add_command(
        rsub, "query", cmd_report_query,
        "run one read-only SQL query against a results database",
    )
    rquery.add_argument("sql", nargs="?", default=None,
                        help="SQL to run (tables: runs, breakdown, stats, "
                             "claims, campaign_cells, e2e_metrics, "
                             "telemetry_series, artifacts, ingests, ...)")
    add_options(rquery, "json", db={"default": "results.db"})
    rquery.add_argument("--tables", action="store_true",
                        help="print per-table row counts and exit")
    rdiff = _add_command(rsub, "diff", cmd_report_diff,
                         "byte-compare two report directories by content hash")
    rdiff.add_argument("dir_a", help="report directory (e.g. docs/report)")
    rdiff.add_argument("dir_b", help="report directory to compare against")
    rmanifest = _add_command(
        rsub, "manifest", cmd_report_manifest,
        "print (or --check) a report directory's SHA-256 manifest",
    )
    rmanifest.add_argument("dir", help="report directory")
    rmanifest.add_argument("--check", action="store_true",
                           help="verify the directory against its committed "
                                "MANIFEST.sha256; exit 1 on any mismatch")
    return parser


def cmd_list(args) -> int:
    for name in sorted(WORKLOADS):
        print(name)
    return 0


def cmd_table51(args) -> int:
    from repro.experiments.figures import table51

    print(table51())
    return 0


def cmd_run(args) -> int:
    # --timeline is polymorphic: an integer keeps the classic windowed
    # ASCII timeline; anything else is a Chrome trace-event output path.
    windowed = (args.timeline or "").isdigit()
    timeline_window = int(args.timeline) if windowed else None
    timeline_out = None if windowed else args.timeline
    config, workload = _config_and_workload(args, timeline=timeline_window)
    telemetry = None
    if args.telemetry or timeline_out:
        from repro.obs import TelemetryConfig

        telemetry = TelemetryConfig(
            out=args.telemetry,
            sample_every=args.sample_every,
            stats_patterns=tuple(args.sample_stats),
            timeline_out=timeline_out,
            heartbeat=not args.quiet,
            label=args.workload,
        )
    if args.profile:
        # Profile exactly the simulation (workload build + run), not the
        # CLI's own reporting; the stats file is standard pstats.
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        result = profiler.runcall(run_workload, config, workload, telemetry)
        profiler.dump_stats(args.profile)
        if args.profile_top > 0:
            pstats.Stats(profiler).sort_stats("tottime").print_stats(args.profile_top)
        print("profile written to %s" % args.profile)
    else:
        result = run_workload(config, workload, telemetry=telemetry)
    print(result.summary())
    print("execution: %d cycles, %d instructions, IPC %.3f" % (
        result.cycles, result.instructions, result.ipc))
    print()
    print(format_table({args.workload: result.breakdown}))
    print(format_stacked_bars({args.workload: result.breakdown}))
    if args.per_sm:
        named = {"sm%d" % i: bd for i, bd in enumerate(result.per_sm)}
        print(format_table(named, baseline="sm0", title="per-SM breakdown"))
    if timeline_window:
        print(render_timeline(result.timeline))
    if args.energy:
        print(estimate_energy(result).render())
    if args.stats:
        print(format_stats_tree(result.stats_tree))
    if args.telemetry:
        print("telemetry series: %s (summarize with 'repro telemetry "
              "summarize %s')" % (args.telemetry, args.telemetry),
              file=sys.stderr)
    if timeline_out:
        print("timeline trace: %s (open in https://ui.perfetto.dev or "
              "chrome://tracing)" % timeline_out, file=sys.stderr)
    return 0


def _failed(header: str, lines, to_stdout: bool = False) -> int:
    """Print ``header`` and the indented ``lines`` (to stderr unless
    ``to_stdout``); returns exit status 1."""
    stream = sys.stdout if to_stdout else sys.stderr
    print(header, file=stream)
    for line in lines:
        print("  " + line, file=stream)
    return 1


def cmd_sweep(args) -> int:
    from repro.core.report import to_csv
    from repro.experiments.executor import execute
    from repro.experiments.spec import load_scenarios

    with fail_on(OSError, ValueError):
        scenarios = load_scenarios(args.file)
    progress, telemetry = _batch_telemetry(args)
    records = execute(scenarios, jobs=args.jobs, cache_dir=args.cache,
                      progress=progress, telemetry=telemetry,
                      results_db=args.db)
    if args.db:
        print("ingested %d record(s) into %s" % (len(records), args.db),
              file=sys.stderr)
    if args.timeline:
        _write_cells_timeline(args.timeline, records)
    breakdowns = {r.scenario.name: r.result.breakdown for r in records}
    if args.fmt == "json":
        report = json.dumps(
            {r.scenario.name: r.to_dict() for r in records}, indent=2, sort_keys=True
        )
    elif args.fmt == "csv":
        report = to_csv(breakdowns)
    else:
        cached = sum(1 for r in records if r.cached)
        # mention the cache only when it actually served something (and
        # keep 'cached' out of fully-fresh output)
        counts = (
            " (%d cached, %d executed)" % (cached, len(records) - cached)
            if cached else ""
        )
        lines = ["sweep: %d scenario(s) from %s%s"
                 % (len(records), args.file, counts)]
        lines += [
            "  %-40s %10d cycles  %s%s"
            % (r.scenario.name, r.result.cycles,
               "cached" if r.cached else "%.2fs" % r.elapsed_s,
               "" if r.ok else "  CHECK FAILED")
            for r in records
        ]
        lines += ["", format_table(breakdowns), format_stacked_bars(breakdowns)]
        report = "\n".join(lines)
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
    violations = [
        "%s: %s" % (r.scenario.name, "; ".join(r.violations))
        for r in records
        if not r.ok
    ]
    if violations:
        return _failed("expected-shape violations:", violations)
    return 0


def _batch_telemetry(args):
    """(progress, telemetry) pair for the sweep/campaign executors."""
    from repro.obs import cell_progress_printer

    progress = None if args.quiet else cell_progress_printer()
    telemetry = None
    if args.telemetry:
        telemetry = {"out_dir": args.telemetry, "sample_every": args.sample_every}
    return progress, telemetry


def _write_cells_timeline(path: str, records) -> None:
    from repro.obs import cells_trace

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cells_trace(records), fh)
    print("cells timeline: %s (open in https://ui.perfetto.dev or "
          "chrome://tracing)" % path, file=sys.stderr)


def cmd_campaign(args) -> int:
    from repro.experiments.campaign import (
        default_campaign,
        load_campaign,
        run_campaign,
        write_artifacts,
    )

    if args.spec and args.fast:
        raise CLIError("--fast scales the built-in fleet campaign only; size "
                       "a --spec campaign in its file instead")
    distributed = args.workers > 0 or args.queue is not None
    plan = args.plan is not None
    if distributed and args.jobs > 1:
        raise CLIError("--jobs sizes the in-process pool; a queued campaign "
                       "runs on --workers N instead (drop --jobs, or drop "
                       "--workers/--queue)")
    with fail_on(OSError, ValueError, RuntimeError):
        spec = load_campaign(args.spec) if args.spec else default_campaign(args.fast)
        spec = spec.subset(
            workloads=args.workloads.split(",") if args.workloads else None,
            hierarchies=args.hierarchies.split(",") if args.hierarchies else None,
            protocols=args.protocols.split(",") if args.protocols else None,
        )
        progress, telemetry = _batch_telemetry(args)
        cache, queue = args.cache, None
        if distributed:
            from repro.experiments.dispatch import QueueDriver

            # one default queue per plan kind: a queue refuses a plan
            # other than the one it was created for
            queue_dir = args.queue or os.path.join(
                cache or ".sim-cache", "queue", spec.name,
                "plan" if plan else "execute",
            )
            cache = cache or os.path.join(queue_dir, "results")
            queue = QueueDriver(queue_dir, workers=args.workers,
                                lease_expiry_s=args.lease_expiry,
                                name=spec.name)
        result = run_campaign(spec, jobs=args.jobs, cache_dir=cache,
                              progress=progress, telemetry=telemetry,
                              plan=plan, trace_dir=args.plan or None,
                              results_db=args.db, queue=queue)
    if args.db:
        print("ingested campaign %s into %s" % (result.spec.name, args.db),
              file=sys.stderr)
    if args.timeline:
        _write_cells_timeline(args.timeline, result.records)
    if args.fmt == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    elif args.fmt == "csv":
        print(result.to_csv(), end="")
    else:
        print(result.render())
    if args.out:
        with fail_on(OSError, prefix="cannot write artifacts: "):
            for path in write_artifacts(result, args.out):
                print("wrote %s" % path, file=sys.stderr)
    violations = [r for r in result.records if not r.ok]
    return 1 if violations else 0


def cmd_trace_record(args) -> int:
    from repro.trace import record_workload, save_trace

    config, workload = _config_and_workload(args)
    with fail_on(OSError, ValueError):
        result, trace = record_workload(
            config, workload, name=args.workload,
            workload_args=workload_kwargs(args),
        )
        sha = save_trace(trace, args.out)
    print(result.summary())
    print("execution: %d cycles, %d instructions, IPC %.3f" % (
        result.cycles, result.instructions, result.ipc))
    print("trace: %s (%d events, %d SM streams, sha256 %s...)"
          % (args.out, trace.num_events, trace.num_sms, sha[:12]))
    return 0


def _load_trace(path: str):
    from repro.trace import TraceFormatError, load_trace

    with fail_on(TraceFormatError):
        return load_trace(path)


def cmd_trace_info(args) -> int:
    trace = _load_trace(args.file)
    print("trace %s" % args.file)
    for label, value in trace.summary_rows():
        print("  %-22s %s" % (label, value))
    return 0


def cmd_trace_replay(args) -> int:
    from repro.trace import (
        compare_memory_stats,
        compare_recorded_breakdown,
        memory_side_stats,
        replay_trace,
    )

    trace = _load_trace(args.file)
    with fail_on(ValueError):
        overrides = config_overrides(args)
    if args.verify and overrides:
        raise CLIError("--verify compares against the recorded configuration; "
                       "drop the overrides")
    with fail_on(ValueError, RuntimeError):
        result = replay_trace(trace, overrides=overrides or None)
    print(result.summary())
    print("replay: %d cycles (recorded execution: %d)%s" % (
        result.cycles, trace.cycles,
        "  overrides: %s" % overrides if overrides else ""))
    print()
    print(format_table({result.workload: result.breakdown}))
    if args.per_sm:
        named = {"sm%d" % i: bd for i, bd in enumerate(result.per_sm)}
        print(format_table(named, baseline="sm0", title="per-SM breakdown"))
    if args.stats:
        print(format_stats_tree(result.stats_tree))
    if args.verify:
        mismatches = compare_memory_stats(
            trace.recorded_stats, memory_side_stats(result.stats)
        )
        mismatches += compare_recorded_breakdown(trace, result)
        if trace.cycles != result.cycles:
            mismatches.append(
                "cycles: recorded %d != replayed %d" % (trace.cycles, result.cycles)
            )
        if mismatches:
            return _failed("verify FAILED: %d mismatch(es)" % len(mismatches),
                           mismatches)
        print("verify OK: replayed memory-side stats and stall attribution "
              "match the recording exactly")
    return 0


def cmd_worker(args) -> int:
    from repro.experiments.dispatch import QueueError, run_worker

    try:
        with fail_on(QueueError):
            stats = run_worker(args.queue, poll_s=args.poll,
                               lease_expiry_s=args.lease_expiry,
                               max_tasks=args.max_tasks, worker_id=args.worker_id)
    except KeyboardInterrupt:
        print("worker interrupted; claimed cells will be reclaimed after "
              "the lease expiry", file=sys.stderr)
        return 130
    print(
        "worker done: %(claimed)d claimed (%(executed)d executed, "
        "%(cached)d cache-served, %(failed)d failed), %(reclaimed)d stale "
        "lease(s) reclaimed" % stats
    )
    return 1 if stats["failed"] else 0


def cmd_cache(args) -> int:
    from repro.experiments.cachetool import (
        cache_info,
        cache_prune,
        cache_verify,
        format_info,
    )

    with fail_on(ValueError):
        if args.cache_command == "info":
            data = cache_info(args.dir)
        elif args.cache_command == "verify":
            data = cache_verify(args.dir)
        else:
            data = cache_prune(args.dir, tmp_age_s=args.tmp_age)
    if args.as_json:
        print(json.dumps(data, indent=2, sort_keys=True))
    elif args.cache_command == "info":
        print(format_info(data))
    elif args.cache_command == "verify":
        print("verified %d entr(ies): %d ok, %d quarantined, %d stale "
              "version, %d key mismatch, %d orphan tmp"
              % (data["checked"], data["ok"], len(data["quarantined"]),
                 len(data["stale_version"]), len(data["key_mismatch"]),
                 data["orphan_tmp"]))
        for name in data["quarantined"]:
            print("  quarantined %s -> %s.bad" % (name, name))
    else:
        print("pruned %d file(s), freed %.1f KiB (%d valid entries kept)"
              % (len(data["removed"]), data["freed_bytes"] / 1024.0,
                 data["kept_entries"]))
        for name in data["removed"]:
            print("  removed %s" % name)
    problems = args.cache_command == "verify" and (
        data["quarantined"] or data["stale_version"] or data["key_mismatch"])
    return 1 if problems else 0


# The results-database surface: report build/query/diff/manifest (see the
# README's "Results database" section and docs/ARTIFACTS.md).

def cmd_report_build(args) -> int:
    from repro.results import report_gen
    from repro.results.db import ResultsDB

    with fail_on(OSError, ValueError):
        with ResultsDB(args.db) as db:
            out = report_gen.build(args.out, db, fast=not args.full,
                                   jobs=args.jobs, cache_dir=args.cache,
                                   experiments=args.experiments)
    for path in out["missing"]:
        print("warning: %s is missing from %s; the report leaves out its "
              "section" % (path, report_gen.REPO_ROOT), file=sys.stderr)
    for path in out["files"] + [out["manifest"]]:
        print("wrote %s" % path)
    print("results database: %s (query with 'repro report query "
          "--db %s')" % (args.db, args.db), file=sys.stderr)
    return 0


def cmd_report_query(args) -> int:
    import sqlite3

    from repro.results.db import ResultsDB

    if not os.path.exists(args.db):
        raise CLIError("no results database at %s (build one with "
                       "'repro report build' or sweep/campaign --db)" % args.db)
    with ResultsDB(args.db) as db:
        if args.tables:
            summary = db.summary()
            if args.as_json:
                print(json.dumps(summary, indent=2, sort_keys=True))
            else:
                for table, count in summary.items():
                    print("%-20s %d" % (table, count))
            return 0
        if not args.sql:
            raise CLIError("provide a SQL query or --tables")
        with fail_on(sqlite3.Error):
            columns, rows = db.query(args.sql)
    if args.as_json:
        print(json.dumps([dict(zip(columns, row)) for row in rows],
                         indent=2, sort_keys=True))
    else:
        if columns:
            print("\t".join(columns))
        for row in rows:
            print("\t".join(str(v) for v in row))
    return 0


def cmd_report_diff(args) -> int:
    from repro.results import report_gen

    problems = report_gen.diff_reports(args.dir_a, args.dir_b)
    if problems:
        return _failed("reports differ (%d file(s)):" % len(problems), problems,
                       to_stdout=True)
    print("reports are byte-identical")
    return 0


def cmd_report_manifest(args) -> int:
    from repro.results import report_gen

    if args.check:
        problems = report_gen.check_manifest(args.dir)
        if problems:
            return _failed("manifest check FAILED:", problems)
        print("manifest OK: %s matches its %s"
              % (args.dir, report_gen.MANIFEST_NAME))
        return 0
    print("\n".join(report_gen.manifest_lines(args.dir)))
    return 0


def cmd_telemetry(args) -> int:
    from repro.obs import summarize_series

    with fail_on(OSError, ValueError):
        print(summarize_series(args.file, fmt=args.fmt,
                               columns=args.columns or None), end="")
    return 0


def main(argv: list[str] | None = None,
         parser: argparse.ArgumentParser | None = None) -> int:
    """Parse ``argv`` with ``parser`` (default: :func:`build_parser`) and
    run the command it selects; a CLIError exits 2 with ``error: ...``."""
    args = (parser or build_parser()).parse_args(argv)
    try:
        check_minimums(args)
        return args.func(args)
    except CLIError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
