"""Hierarchy shapes: fig 6.1's UTS workload across non-default fabrics.

Runs the default shape next to a shared L3, private per-SM L2s and an L1
bypass, and checks the grid's claims.  UTS's per-SM working set is too
small to force L1 evictions, so the *spill/deep-hit correctness* of the
stack is guarded by the deterministic forced-eviction tests in
tests/test_hierarchy.py, not here.
"""

from repro.experiments.figures import fig_hierarchy

from benchmarks.conftest import UTS_NODES


def test_hierarchy_shapes_grid(show, sim_cache):
    result = fig_hierarchy(total_nodes=UTS_NODES, cache_dir=sim_cache)
    show(result.render())
    failed = [c for c in result.claims if not c.holds]
    assert not failed, "shape deviations: %s" % [str(c) for c in failed]
