"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 benchmarks/e2e/compare.py parent.json -- change.json

Each side is one or more files of run records (``run.py --out`` writes one
record, ``collect.py`` a list).  Runs of one workload pair up in file order,
so collect them alternating (``collect.py`` does).  For every end-to-end
metric declared in ``BENCHMARK.json`` and every workload it prints both
medians, the parent's quartile spread, the pairs the change won, the sample
counts, the cells each side failed and a verdict:

* ``failed``  -- the change failed more of the workload's cells than the
  parent did, whatever its timings say;
* ``better``  -- the change won at least 9 of every 10 pairs (ties count for
  neither side; at least 10 pairs) and the medians differ by more than the
  distance between the parent's quartiles;
* ``worse``   -- the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved`` -- neither, and the run-to-run spread of either side is
  wider than the bound (unless every run of the change beats every run of
  the parent);
* ``same``    -- otherwise: no regression beyond the bound.

Exits 1 when any pair is ``failed`` or ``worse``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_runs(paths: list[str]) -> list[dict]:
    runs: list[dict] = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        runs.extend(data if isinstance(data, list) else [data])
    return runs


def values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [
        r["metrics"][metric]["value"]
        for r in runs
        if r["workload"] == workload and metric in r["metrics"]
    ]


def failures(runs: list[dict], workload: str) -> int:
    """Cells failed over every run of ``workload``."""
    return sum(r["failed"] for r in runs if r["workload"] == workload)


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else math.nan


def spread(xs: list[float]) -> float:
    """Distance between the first and third quartiles."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q3 - q1


def verdict(
    a: list[float],
    b: list[float],
    bound: float,
    higher: bool,
    failed_a: int = 0,
    failed_b: int = 0,
) -> tuple[str, int, int]:
    """``(verdict, pairs won by b, pairs)`` for one metric and workload;
    ``failed_a`` and ``failed_b`` are the cells each side failed on it."""

    def beats(x: float, y: float) -> bool:
        return x > y if higher else x < y

    pairs = list(zip(a, b))
    wins = sum(beats(y, x) for x, y in pairs)
    if failed_b > failed_a:
        return "failed", wins, len(pairs)
    med_a, med_b = statistics.median(a), statistics.median(b)
    gain = (med_b - med_a) if higher else (med_a - med_b)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > spread(a):
        return "better", wins, len(pairs)
    if gain < -bound * abs(med_a):
        return "worse", wins, len(pairs)
    noisy = any(spread(xs) > bound * abs(statistics.median(xs)) for xs in (a, b))
    if noisy and not all(beats(y, x) for x in a for y in b):
        return "unresolved", wins, len(pairs)
    return "same", wins, len(pairs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv or argv.index("--") == 0 or argv[-1] == "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    cut = argv.index("--")
    parent, change = load_runs(argv[:cut]), load_runs(argv[cut + 1:])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    print(
        "%-15s %-20s %7s %12s %12s %8s %7s %7s %6s %9s  %s"
        % ("workload", "metric", "n A/B", "median A", "median B", "change",
           "IQR A", "IQR B", "wins", "failed", "verdict")
    )
    bad = 0
    for workload in (w["name"] for w in declared["workloads"]):
        failed_a, failed_b = failures(parent, workload), failures(change, workload)
        for metric in declared["end_to_end"]:
            a = values(parent, workload, metric["name"])
            b = values(change, workload, metric["name"])
            # A change that crashed before measuring anything still fails.
            if (not a or not b) and failed_b <= failed_a:
                continue
            higher = metric["better"] == "higher"
            result, wins, pairs = verdict(
                a, b, metric["bound"], higher, failed_a, failed_b
            )
            bad += result in ("failed", "worse")
            med_a, med_b = median(a), median(b)
            print(
                "%-15s %-20s %3d/%-3d %12.6g %12.6g %+7.2f%% %6.2f%% %6.2f%% %2d/%-3d %4d/%-4d  %s"
                % (
                    workload, metric["name"], len(a), len(b), med_a, med_b,
                    100.0 * (med_b - med_a) / med_a if med_a else 0.0,
                    100.0 * spread(a) / med_a if med_a else 0.0,
                    100.0 * spread(b) / med_b if med_b else 0.0,
                    wins, pairs, failed_a, failed_b, result,
                )
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
