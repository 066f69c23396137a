"""Experiment runner: regenerate every table and figure from the paper.

Usage (also wired up as ``python -m repro.experiments``)::

    python -m repro.experiments                    # everything, serial
    python -m repro.experiments fig6.3             # one artifact
    python -m repro.experiments --fast --jobs 4    # reduced sizes, 4 workers
    python -m repro.experiments --format json      # machine-readable results
    python -m repro.experiments --out results/ --cache .sim-cache

Figures are declared as scenario grids (:mod:`repro.experiments.figures`)
and executed by :mod:`repro.experiments.executor`, so ``--jobs N`` fans the
grid out to N worker processes and ``--cache DIR`` re-serves unchanged
scenarios from disk; breakdown numbers are byte-identical regardless of
either flag.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.experiments import figures


@dataclass
class Artifact:
    """One regenerated experiment in all three output shapes."""

    name: str
    text: str
    data: dict
    csv: str


def experiment_results(
    name: str, fast: bool, jobs: int = 1, cache_dir: str | None = None
):
    """Run one scenario-backed experiment at the canonical sizes.

    The single owner of the fast/full size policy (node counts, TB
    counts, MSHR sweep points, campaign fleet), shared by the artifact
    wrappers below and by the report generator
    (:mod:`repro.results.report_gen`) -- so "what fig6.3 means at --fast"
    cannot drift between ``python -m repro.experiments`` and ``repro
    report build``.  Returns the experiment's natural result object: an
    :class:`~repro.experiments.figures.ExperimentResult` for the figures,
    a size-keyed dict of them for ``fig6.4``, a
    :class:`~repro.experiments.campaign.CampaignResult` for ``campaign``.
    """
    nodes = 60 if fast else 150
    tbs = 2 if fast else 4
    if name == "fig6.1":
        return figures.fig61(total_nodes=nodes, jobs=jobs, cache_dir=cache_dir)
    if name == "fig6.2":
        return figures.fig62(
            total_nodes=nodes,
            include_uts_reference=not fast,
            jobs=jobs,
            cache_dir=cache_dir,
        )
    if name == "fig6.3":
        return figures.fig63(num_tbs=tbs, jobs=jobs, cache_dir=cache_dir)
    if name == "fig6.4":
        sizes = (32, 256) if fast else (32, 64, 128, 256)
        return figures.fig64(
            mshr_sizes=sizes, num_tbs=tbs, jobs=jobs, cache_dir=cache_dir
        )
    if name == "hierarchy":
        return figures.fig_hierarchy(
            total_nodes=nodes, jobs=jobs, cache_dir=cache_dir
        )
    if name == "campaign":
        from repro.experiments import campaign

        spec = campaign.default_campaign(fast)
        return campaign.run_campaign(spec, jobs=jobs, cache_dir=cache_dir)
    raise ValueError("no scenario-backed experiment named %r" % name)


def _scenario_artifact(name: str, fast: bool, jobs: int,
                       cache_dir: str | None) -> Artifact:
    """A scenario-backed experiment whose result renders itself (the
    figures and the campaign)."""
    result = experiment_results(name, fast, jobs, cache_dir)
    return Artifact(name, result.render(), result.to_dict(), result.to_csv())


def _run_fig64(fast: bool, jobs: int, cache_dir: str | None) -> Artifact:
    sweep = experiment_results("fig6.4", fast, jobs, cache_dir)
    sizes = sorted(sweep)
    text = "\n\n".join(sweep[size].render() for size in sizes)
    data = {str(size): sweep[size].to_dict() for size in sizes}
    csv_lines = ["experiment,config,category,cycles"]
    for size in sizes:
        csv_lines += sweep[size].to_csv().splitlines()[1:]
    return Artifact("fig6.4", text, data, "\n".join(csv_lines) + "\n")


def _run_table51(fast: bool, jobs: int, cache_dir: str | None) -> Artifact:
    from repro.sim.config import SystemConfig

    config = SystemConfig()
    rows = config.table51_rows()
    return Artifact(
        "table5.1",
        figures.table51(config),
        {"table5.1": dict(rows), "config": config.to_dict()},
        "parameter,value\n" + "".join('%s,"%s"\n' % row for row in rows),
    )


def _run_overhead(fast: bool, jobs: int, cache_dir: str | None) -> Artifact:
    stats = figures.overhead_experiment(repeats=1 if fast else 3)
    text = (
        "GSI attribution overhead (paper: ~5%% simulation time):\n"
        "  with GSI    %.3f s\n  without GSI %.3f s\n  overhead    %.1f%%"
        % (stats["with_gsi_s"], stats["without_gsi_s"], stats["overhead_pct"])
    )
    csv = "metric,value\n" + "".join(
        "%s,%.6f\n" % (k, v) for k, v in stats.items()
    )
    return Artifact("overhead", text, stats, csv)


EXPERIMENTS: dict[str, Callable[[bool, int, str | None], Artifact]] = {
    "table5.1": _run_table51,
    "fig6.1": partial(_scenario_artifact, "fig6.1"),
    "fig6.2": partial(_scenario_artifact, "fig6.2"),
    "fig6.3": partial(_scenario_artifact, "fig6.3"),
    "fig6.4": _run_fig64,
    "hierarchy": partial(_scenario_artifact, "hierarchy"),
    "campaign": partial(_scenario_artifact, "campaign"),
    "overhead": _run_overhead,
}


def select(names: list[str] | None) -> list[str]:
    """Validate and dedupe experiment names, preserving first-seen order.

    Unknown names raise with close-match suggestions, so ``fig6.33`` says
    "did you mean fig6.3?" instead of silently running nothing.
    """
    chosen = list(dict.fromkeys(names or list(EXPERIMENTS)))
    unknown = [n for n in chosen if n not in EXPERIMENTS]
    if unknown:
        hints = []
        for name in unknown:
            close = difflib.get_close_matches(name, EXPERIMENTS, n=2)
            if close:
                hints.append("did you mean %s?" % " or ".join(close))
        raise ValueError(
            "unknown experiment(s) %s; available: %s%s"
            % (unknown, ", ".join(EXPERIMENTS), (" -- " + " ".join(hints)) if hints else "")
        )
    return chosen


def _render(artifacts: list[Artifact], fmt: str) -> str:
    if fmt == "json":
        return json.dumps({a.name: a.data for a in artifacts}, indent=2, sort_keys=True)
    if fmt == "csv":
        # Artifact schemas differ (breakdown rows vs Table 5.1 parameters vs
        # overhead metrics), so stdout carries blank-line-separated tables;
        # use --out for one strictly-parseable file per experiment.
        return "\n\n".join(a.csv.rstrip("\n") for a in artifacts) + "\n"
    return "\n\n".join(a.text for a in artifacts)


_EXTENSIONS = {"text": "txt", "json": "json", "csv": "csv"}


def write_artifacts(artifacts: list[Artifact], out_dir: str, fmt: str) -> list[str]:
    """Write one file per artifact into ``out_dir``; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for artifact in artifacts:
        path = os.path.join(out_dir, "%s.%s" % (artifact.name, _EXTENSIONS[fmt]))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_render([artifact], fmt))
            if fmt == "text":
                fh.write("\n")
        paths.append(path)
    return paths


def run(
    names: list[str] | None = None,
    fast: bool = False,
    jobs: int = 1,
    fmt: str = "text",
    cache_dir: str | None = None,
) -> str:
    """Run the named experiments (all by default); returns the report."""
    if fmt not in _EXTENSIONS:
        raise ValueError("format must be one of %s" % (tuple(_EXTENSIONS),))
    artifacts = [EXPERIMENTS[name](fast, jobs, cache_dir) for name in select(names)]
    return _render(artifacts, fmt)


def _regenerate(args) -> int:
    from repro.cli import fail_on

    with fail_on(ValueError):
        names = select(args.experiments or None)
    artifacts = [EXPERIMENTS[n](args.fast, args.jobs, args.cache_dir) for n in names]
    print(_render(artifacts, args.fmt))
    if args.out:
        for path in write_artifacts(artifacts, args.out, args.fmt):
            print("wrote %s" % path, file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    from repro import cli

    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.set_defaults(func=_regenerate)
    parser.add_argument("experiments", nargs="*", help="subset to run")
    parser.add_argument(
        "--fast", action="store_true", help="reduced problem sizes (CI-friendly)"
    )
    cli.add_options(
        parser,
        jobs="simulate scenarios on N worker processes (default: 1)",
        format="output format (default: text); csv on stdout is one "
               "blank-line-separated table per experiment -- combine with "
               "--out for separate files",
        out="also write one file per experiment into DIR",
        cache={"dest": "cache_dir",
               "help": "on-disk scenario result cache (reruns skip unchanged "
                       "points)"},
    )
    return cli.main(argv, parser)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
