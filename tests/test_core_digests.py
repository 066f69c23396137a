"""The digest corpus check: every scenario of ``tests/core_digests.py``
simulated and compared with its entry in ``tests/core_digests.json``.

Each entry pins the serialized result and the complete flattened
component stats tree of one scenario (plus the rendered timeline or the
saved trace bytes where the scenario has one), so any change to what the
simulator computes fails here, with the scenario named.  Fix the change,
or regenerate the corpus with ``tests/core_digests.py --force`` only if
the new behaviour is intended (and the fig6.x goldens are regenerated
with it).
"""

from __future__ import annotations

import pytest

from tests.core_digests import SCENARIOS, describe_change, load_corpus, simulate

CORPUS = load_corpus()


@pytest.mark.parametrize("scenario", SCENARIOS, ids=[s.name for s in SCENARIOS])
def test_simulation_matches_the_digest_corpus(scenario) -> None:
    entry = simulate(scenario)
    old = CORPUS.get(scenario.name)
    assert entry == old, describe_change(scenario.name, old, entry)


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
