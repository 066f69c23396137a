"""Digest corpus pinning the simulator's behaviour, scenario by scenario.

    PYTHONPATH=src python tests/core_digests.py --check   # verify, write nothing
    PYTHONPATH=src python tests/core_digests.py           # write a missing corpus
    PYTHONPATH=src python tests/core_digests.py --force   # overwrite a changed one

Covers the fig6.x scenario grids at their ``--fast`` sizes plus the five
fleet workloads at their campaign fast sizes.  For each scenario the
corpus (``core_digests.json`` next to this file) records:

* ``result_sha256`` -- SHA-256 of ``SimResult.to_dict()`` as canonical
  JSON (the serialized artifact: cycles, breakdowns, frozen stats);
* ``stats_tree_sha256`` -- SHA-256 of the flattened component stats tree
  in snapshot order (every counter, histogram and derived stat of every
  component, so it also pins parts no figure renders);
* ``cycles`` and ``engine_events``, readable at a glance when a digest
  moves.

The scenarios run on the core ``REPRO_CORE`` selects, so ``--check`` under
each value of ``REPRO_CORE`` checks each SM frontend.  Regenerate only at a
commit whose results are known good (the fig6.x goldens still ``cmp``
equal): without ``--force`` the script refuses to replace an existing
corpus that differs, and it lists every changed scenario either way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from repro.experiments.campaign import DEFAULT_FLEET
from repro.experiments.figures import _implicit_grid, _uts_protocol_grid
from repro.experiments.spec import Scenario, Sweep
from repro.system import SimResult, run_workload

CORPUS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "core_digests.json")


def _fig6x_fast_scenarios() -> list[Scenario]:
    """The scenario grids of the fig6.x artifacts at --fast sizes
    (the sizes CI's identity gate regenerates the goldens with)."""
    scenarios: list[Scenario] = []
    for sc in _uts_protocol_grid("uts", 60, 4):
        scenarios.append(Scenario("fig6.1/" + sc.name, sc.workload,
                                  sc.workload_args, sc.config))
    for sc in _uts_protocol_grid("utsd", 60, 4):
        scenarios.append(Scenario("fig6.2/" + sc.name, sc.workload,
                                  sc.workload_args, sc.config))
    for sc in _implicit_grid(2, 8):
        scenarios.append(Scenario("fig6.3/" + sc.name, sc.workload,
                                  sc.workload_args, sc.config))
    mshr_axis = [{"mshr_entries": s, "store_buffer_entries": s} for s in (32, 256)]
    for base in _implicit_grid(2, 8):
        for sc in Sweep(base, {"mshr_entries": mshr_axis}).expand():
            scenarios.append(Scenario("fig6.4/" + sc.name, sc.workload,
                                      sc.workload_args, sc.config))
    return scenarios


def _fleet_fast_scenarios() -> list[Scenario]:
    """The five fleet workloads at their campaign fast sizes."""
    return [
        Scenario("fleet/" + label, workload, dict(fast_args), dict(config))
        for label, workload, _full, fast_args, config in DEFAULT_FLEET
    ]


SCENARIOS = _fig6x_fast_scenarios() + _fleet_fast_scenarios()


def _sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(result: SimResult) -> dict:
    """The corpus entry of one simulated scenario."""
    tree = result.stats_tree.flatten()
    return {
        "cycles": result.cycles,
        "engine_events": tree["system.engine.events"],
        "result_sha256": _sha256(result.to_dict()),
        # a list of pairs, so the snapshot order is part of the digest
        "stats_tree_sha256": _sha256(list(tree.items())),
    }


def simulate(scenario: Scenario, core: str = "auto") -> SimResult:
    config = scenario.build_config().scaled(core=core)
    return run_workload(config, scenario.build_workload())


def load_corpus(path: str = CORPUS_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["scenarios"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare against the committed corpus; write nothing")
    mode.add_argument("--force", action="store_true",
                      help="overwrite a committed corpus that differs")
    args = parser.parse_args(argv)

    fresh = {}
    for scenario in SCENARIOS:
        fresh[scenario.name] = entry = digest(simulate(scenario))
        print("%-40s %8d cycles %9d events" % (
            scenario.name, entry["cycles"], entry["engine_events"]))
    old = load_corpus() if os.path.exists(CORPUS_PATH) else None
    changed = sorted(
        name for name in set(fresh) | set(old or {})
        if old is not None and old.get(name) != fresh.get(name)
    )
    for name in changed:
        print("changed: %s" % name, file=sys.stderr)
    if args.check:
        if old is None:
            print("no corpus at %s" % CORPUS_PATH, file=sys.stderr)
            return 1
        return 1 if changed else 0
    if old is not None and changed and not args.force:
        print("refusing to overwrite %s (%d changed); rerun with --force"
              % (CORPUS_PATH, len(changed)), file=sys.stderr)
        return 1
    with open(CORPUS_PATH, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "digest": "sha256 of json.dumps(obj, sort_keys=True, "
                "separators=(',', ':')); obj is SimResult.to_dict() or "
                "list(stats_tree.flatten().items())",
                "scenarios": fresh,
            },
            fh,
            indent=1,
            sort_keys=True,
        )
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
