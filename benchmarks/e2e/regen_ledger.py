"""Regenerate ``expected.json``, the digest ledger the benchmark checks.

    python3 benchmarks/e2e/regen_ledger.py

Simulates every variant of every workload once, untimed, and records each
cell's SHA-256 digest, cycles and engine events.  The ledger is what every
later commit is checked against, so regenerate it only at a commit whose
results are known good (the fig6.x goldens still ``cmp`` equal).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run


def main() -> int:
    build_dir = os.path.join(run.ROOT, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    ledger: dict = {}
    for name, cls in run.WORKLOADS.items():
        workload = cls()
        for index, variant in enumerate(workload.variants):
            work_dir = tempfile.mkdtemp(prefix="ledger-", dir=build_dir)
            try:
                prepared = workload.prepare(variant, work_dir)
                _, cells = run.run_rep(workload, variant, work_dir, run.EngineClock())
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            entries = {cell: run.ledger_entry(result) for cell, result in prepared.items()}
            for cell, (result, violations) in cells.items():
                if violations:
                    print("%s/%s: %s" % (name, cell, "; ".join(violations)), file=sys.stderr)
                    return 1
                entries[cell] = run.ledger_entry(result)
            ledger.setdefault(name, {})[str(index)] = entries
            print(
                "%-15s variant %d: %3d cells, %9d cycles, %9d engine events"
                % (
                    name,
                    index,
                    len(entries),
                    sum(e["cycles"] for e in entries.values()),
                    sum(e["engine_events"] for e in entries.values()),
                )
            )
    with open(run.LEDGER_PATH, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "digest": "sha256 of json.dumps(SimResult.to_dict(), "
                "sort_keys=True, separators=(',', ':'))",
                "workloads": ledger,
            },
            fh,
            indent=1,
            sort_keys=True,
        )
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
