"""Collect benchmark runs into set files for ``compare.py``.

    python3 benchmarks/e2e/collect.py --side parent=../parent --side change=. \\
        --seeds 1-10 --out-dir results

For every seed and every workload in ``BENCHMARK.json``, runs ``run.py``
for its ``run_seconds`` once per side, each in a fresh child process,
alternating which side goes first from one seed to
the next, and appends the run's full record to ``<out-dir>/<side>.json``.
Runs are sequential, so at most two processes are busy at a time.  Naming
one checkout twice (``--side run-1=. --side run-2=.``) measures the
benchmark's own run-to-run spread.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def parse_seeds(text: str) -> list[int]:
    """``1-10`` or ``1,4,7``."""
    if "-" in text.strip("-"):
        first, last = text.split("-", 1)
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(checkout: str, workload: str, seed: int, trace: bool, out_dir: str) -> dict:
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        out = os.path.join(tmp, "run.json")
        cmd = [
            sys.executable,
            os.path.join("benchmarks", "e2e", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--trace", "1" if trace else "0",
            "--out", out,
        ]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
        elapsed = time.perf_counter() - start
        if not os.path.exists(out):
            raise RuntimeError(
                "%s (%s) wrote no record, exit %d:\n%s"
                % (workload, checkout, proc.returncode, proc.stderr[-2000:])
            )
        with open(out, encoding="utf-8") as fh:
            record = json.load(fh)
    record["process_s"] = elapsed
    record["exit_status"] = proc.returncode
    return record


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--side", action="append", required=True, metavar="NAME=CHECKOUT",
        help="a set to collect and the checkout that runs it (repeatable)",
    )
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--trace", action="store_true", help="traced runs (--trace 1)")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    sides = []
    for spec in args.side:
        name, _, checkout = spec.partition("=")
        if not name or not checkout:
            parser.error("--side wants NAME=CHECKOUT, got %r" % spec)
        sides.append((name, os.path.abspath(checkout)))
    workloads = [w["name"] for w in declared["workloads"]]
    os.makedirs(args.out_dir, exist_ok=True)
    sets: dict[str, list] = {name: [] for name, _ in sides}
    failures = 0
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = sides if i % 2 == 0 else sides[::-1]
        for workload in workloads:
            for name, checkout in order:
                record = run_once(checkout, workload, seed, args.trace, args.out_dir)
                failures += record["exit_status"] != 0
                sets[name].append(record)
                print(
                    "%-8s %-15s seed %3d  exit %d  %5.1fs  %d reps  wall_s %s"
                    % (
                        name, workload, seed, record["exit_status"], record["process_s"],
                        len(record["reps"]),
                        "%.4f" % record["metrics"]["wall_s"]["value"]
                        if "wall_s" in record["metrics"] else "-",
                    ),
                    flush=True,
                )
                write_set(os.path.join(args.out_dir, name + ".json"), sets[name])
    return 1 if failures else 0


def write_set(path: str, records: list[dict]) -> None:
    """A JSON list with one run record per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(r, sort_keys=True) for r in records))
        fh.write("\n]\n")


if __name__ == "__main__":
    sys.exit(main())
