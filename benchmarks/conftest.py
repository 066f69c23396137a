"""Shared configuration of the paper-artifact tests.

Every test here regenerates a paper artifact (or runs an ablation) and
checks its shape claims; only the GSI overhead test reads a clock.  Host
speed is measured by the end-to-end benchmark in ``benchmarks/e2e/``.

The figure functions run through the scenario executor, so tests pass
the session's ``sim_cache`` directory as ``cache_dir=``: a cell shared
by several artifacts (the 120-node fig6.1 UTS cells reappear as the
fig6.2 reference, the hierarchy grid's default shape and the replay
test's execution) is simulated once per session.  Run with ``-s`` to see
the regenerated artifacts.
"""

import pytest

#: problem sizes, scaled so the whole suite runs in minutes.
UTS_NODES = 120
IMPLICIT_TBS = 4
IMPLICIT_WARPS = 8


@pytest.fixture(scope="session")
def sim_cache(tmp_path_factory):
    """A content-addressed result cache shared by the whole session."""
    return str(tmp_path_factory.mktemp("sim-cache"))


@pytest.fixture
def pause_scenario_recording():
    """Does nothing: nothing records scenarios any more.  Kept only because
    ``e2e/test_e2e_benchmark.py`` still requests it; drop both together at
    the next change to the benchmark."""


@pytest.fixture
def show():
    """Print a rendered artifact beneath the test output."""

    def _show(text):
        print()
        print(text)

    return _show
