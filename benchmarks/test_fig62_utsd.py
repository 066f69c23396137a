"""Figure 6.2: UTSD (decentralized task queues) stall breakdowns.

Regenerates the three panels and checks the paper's headline numbers in
shape form: UTSD cuts execution time by ~90% over UTS for both protocols;
DeNovo beats GPU coherence (paper: -28%) through fewer memory structural
stalls (pending release) and fewer memory data stalls (the L2 component);
remote-L1 stalls virtually disappear.
"""

from repro.experiments.figures import fig62

from benchmarks.conftest import UTS_NODES


def test_fig62_utsd_breakdowns(show, sim_cache):
    result = fig62(
        total_nodes=UTS_NODES, include_uts_reference=True, cache_dir=sim_cache
    )
    show(result.render())
    failed = [c for c in result.claims if not c.holds]
    assert not failed, "shape deviations: %s" % [str(c) for c in failed]
