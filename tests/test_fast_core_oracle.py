"""Differential oracle: both SM frontends against each other and the corpus.

The two cores share the engine and the whole memory side; they differ
only in the SM frontend (``SM`` vs the inlined ``FastSM``).  Their
contract is *byte identity*.  This test runs the full fig6.x fast-size
scenario set plus the five fleet workloads under both cores in one
process (``SystemConfig.core`` pins a single system regardless of the
environment) and checks each run two ways:

* against the committed digest corpus (``tests/core_digests.json``,
  regenerated by ``tests/core_digests.py``), which pins the serialized
  result and the complete flattened component stats tree of every
  scenario -- so a change that moves both cores the same way still
  fails, and
* against the other core, field for field: the serialized result
  (``SimResult.to_dict()``) and the flattened stats tree, which names
  the diverging stat when a digest alone would only say "changed".

A digest mismatch on both cores means the simulation changed: fix the
change, or regenerate the corpus only if the new behaviour is intended
(and the fig6.x goldens are regenerated with it).
"""

from __future__ import annotations

import pytest

from tests.core_digests import SCENARIOS, describe_change, digest, load_corpus, simulate

CORPUS = load_corpus()


@pytest.mark.parametrize("scenario", SCENARIOS, ids=[s.name for s in SCENARIOS])
def test_fast_core_matches_python_oracle(scenario) -> None:
    outcome = {}
    for core in ("python", "fast"):
        result = simulate(scenario, core)
        assert digest(result) == CORPUS[scenario.name], (
            "%s core diverged from the digest corpus" % core
        )
        outcome[core] = (result.to_dict(), result.stats_tree.flatten())
    py_dict, py_tree = outcome["python"]
    fast_dict, fast_tree = outcome["fast"]
    assert fast_dict == py_dict, "serialized SimResult diverged between cores"
    assert fast_tree == py_tree, "component stats tree diverged between cores"


def test_a_changed_entry_names_what_moved() -> None:
    old = {"cycles": 100, "engine_events": 534172,
           "result_sha256": "a", "stats_tree_sha256": "b"}
    new = dict(old, engine_events=534170, stats_tree_sha256="c")
    assert describe_change("fig6.3/x", old, new) == (
        "changed: fig6.3/x: cycles 100 -> 100, engine_events 534172 -> 534170;"
        " differs: stats_tree_sha256"
    )
    assert describe_change("fig6.3/x", None, new) == "changed: fig6.3/x (not in the corpus)"
    assert describe_change("fig6.3/x", old, None) == "changed: fig6.3/x (no longer simulated)"
