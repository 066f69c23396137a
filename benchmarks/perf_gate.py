"""CI perf gate: diff fresh cycles/sec against the committed trajectory.

Compares a freshly measured ``BENCH_engine.json`` (produced by pointing
``REPRO_BENCH_ENGINE`` at an empty path for one benchmark session, so it
contains *only* rows measured in that session) against the committed
artifact, row by row.  Rows are matched by scenario key -- the stable hash
of the simulation inputs -- so renames and unrelated rows never pair up.

A row regresses when ``fresh < tolerance * committed`` cycles/sec.  The
default tolerance is deliberately generous: CI runners differ from the
machines the trajectory was recorded on, and the gate exists to catch
engine-hot-loop collapses (the failure mode PR 2's overhaul guards
against), not 10% jitter.  Exits non-zero on any regression, or when the
two artifacts share no rows at all (a silent no-op gate is worse than a
loud one).

Usage::

    python benchmarks/perf_gate.py --fresh fresh.json \
        [--committed benchmarks/artifacts/BENCH_engine.json] [--tolerance 0.35]
"""

from __future__ import annotations

import argparse
import os
import sys

# The gate runs as `python benchmarks/perf_gate.py` in CI, without
# PYTHONPATH=src -- bootstrap the package root so the shared artifact
# loader (repro.results.bench_io) imports either way.
try:
    from repro.results import bench_io
except ImportError:  # pragma: no cover - exercised by the CI invocation
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )
    from repro.results import bench_io


def load_rows(path: str) -> dict:
    """Scenario-key -> row map of a BENCH_engine artifact's ``scenarios``.

    Delegates to the shared loader with ``missing_ok=False``: a gate must
    fail loudly on a missing or unparsable artifact, never compare
    against nothing.
    """
    return bench_io.rows_by_key(path, "scenarios", missing_ok=False)


def load_campaign_cells(path: str) -> dict | None:
    """The ``campaign_cells`` section (replay-first campaign throughput),
    or None when the artifact predates it or the session didn't run the
    campaign benchmark."""
    return bench_io.load_campaign_cells(path, missing_ok=False)


def compare_campaign(fresh: dict | None, committed: dict | None, tolerance: float) -> tuple:
    """Gate campaign cells/min like a scenario row; skip cleanly when the
    section is missing on either side, naming which side lacks it."""
    if fresh is None or committed is None:
        missing = [
            side for side, payload in
            (("fresh", fresh), ("committed", committed)) if payload is None
        ]
        return [
            "  campaign_cells: section missing from %s artifact(s); skipped"
            % " and ".join(missing)
        ], [], False
    got = fresh["planned"]["cells_per_min"]
    want = committed["planned"]["cells_per_min"]
    ratio = got / want if want else float("inf")
    verdict = "ok"
    regressions = []
    if ratio < tolerance:
        verdict = "REGRESSION"
        regressions.append(
            "campaign %s: %.0f cells/min < %.0f%% of committed %.0f"
            % (fresh.get("campaign"), got, 100 * tolerance, want)
        )
    label = "campaign:%s (%d executed + %d replayed)" % (
        fresh.get("campaign"),
        fresh["planned"].get("executed", 0),
        fresh["planned"].get("replayed", 0),
    )
    line = "  %-45s %10.0f vs %10.0f cells/min(%5.2fx)  %s" % (label, got, want, ratio, verdict)
    return [line], regressions, True


def compare(fresh: dict, committed: dict, tolerance: float) -> tuple:
    """Returns (report lines, regression lines) for the overlapping rows."""
    lines = []
    regressions = []
    overlap = sorted(set(fresh) & set(committed), key=lambda k: fresh[k]["scenario"])
    for key in overlap:
        got = fresh[key]["cycles_per_sec"]
        want = committed[key]["cycles_per_sec"]
        ratio = got / want if want else float("inf")
        verdict = "ok"
        if ratio < tolerance:
            verdict = "REGRESSION"
            regressions.append(
                "%s: %.0f cycles/sec < %.0f%% of committed %.0f"
                % (fresh[key]["scenario"], got, 100 * tolerance, want)
            )
        lines.append(
            "  %-45s %10.0f vs %10.0f cyc/s  (%5.2fx)  %s"
            % (fresh[key]["scenario"], got, want, ratio, verdict)
        )
    for key in sorted(set(fresh) - set(committed)):
        lines.append(
            "  %-45s %10.0f cyc/s  (new row; commit the refreshed artifact)"
            % (fresh[key]["scenario"], fresh[key]["cycles_per_sec"])
        )
    return lines, regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh",
        required=True,
        help="BENCH_engine.json from this run's benchmark session",
    )
    parser.add_argument(
        "--committed",
        default="benchmarks/artifacts/BENCH_engine.json",
        help="committed perf-trajectory artifact",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.35,
        help="fail when fresh < tolerance * committed (default: 0.35)",
    )
    args = parser.parse_args(argv)
    if not 0 < args.tolerance <= 1:
        parser.error("--tolerance must be in (0, 1]")
    try:
        fresh = load_rows(args.fresh)
        committed = load_rows(args.committed)
        fresh_campaign = load_campaign_cells(args.fresh)
        committed_campaign = load_campaign_cells(args.committed)
    except (OSError, ValueError) as exc:
        print("perf gate error: %s" % exc, file=sys.stderr)
        return 2
    if not fresh and not fresh_campaign:
        print("perf gate error: %s has no measured rows" % args.fresh, file=sys.stderr)
        return 2
    lines, regressions = compare(fresh, committed, args.tolerance)
    campaign_lines, campaign_regressions, campaign_compared = compare_campaign(
        fresh_campaign, committed_campaign, args.tolerance
    )
    lines += campaign_lines
    regressions += campaign_regressions
    overlap = len(set(fresh) & set(committed))
    print(
        "perf gate: %d fresh row(s), %d overlapping committed row(s), "
        "tolerance %.0f%%" % (len(fresh), overlap, 100 * args.tolerance)
    )
    for line in lines:
        print(line)
    if not overlap and not campaign_compared:
        print(
            "perf gate error: no overlapping rows -- the gate compared "
            "nothing; regenerate the committed artifact",
            file=sys.stderr,
        )
        return 2
    if regressions:
        print("perf gate FAILED: %d regression(s)" % len(regressions), file=sys.stderr)
        for line in regressions:
            print("  " + line, file=sys.stderr)
        return 1
    print("perf gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
