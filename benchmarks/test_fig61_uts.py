"""Figure 6.1: UTS stall breakdowns, GPU coherence vs DeNovo.

Regenerates the three panels (execution-time breakdown, memory-data
sub-breakdown, memory-structural sub-breakdown) normalized to GPU
coherence, and checks the paper's qualitative claims: synchronization
stalls dominate, overall performance is similar, and DeNovo exhibits
remote-L1 data stalls from request redirection.
"""

from repro.experiments.figures import fig61

from benchmarks.conftest import UTS_NODES


def test_fig61_uts_breakdowns(show, sim_cache):
    result = fig61(total_nodes=UTS_NODES, cache_dir=sim_cache)
    show(result.render())
    failed = [c for c in result.claims if not c.holds]
    assert not failed, "shape deviations: %s" % [str(c) for c in failed]
