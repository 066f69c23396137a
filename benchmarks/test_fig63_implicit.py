"""Figure 6.3: the implicit microbenchmark across local-memory designs.

Regenerates the scratchpad / scratchpad+DMA / stash comparison normalized
to the scratchpad baseline and checks the paper's claims: both innovations
cut no-stall (instruction) cycles, the savings are partly offset by more
memory structural stalls, DMA's structural increase exceeds stash's, bank
conflicts are insignificant for DMA, and pending-DMA stalls are unique to
the DMA configuration.
"""

from repro.experiments.figures import fig63

from benchmarks.conftest import IMPLICIT_TBS, IMPLICIT_WARPS


def test_fig63_implicit_breakdowns(show, sim_cache):
    result = fig63(
        num_tbs=IMPLICIT_TBS, warps_per_tb=IMPLICIT_WARPS, cache_dir=sim_cache
    )
    show(result.render())
    failed = [c for c in result.claims if not c.holds]
    assert not failed, "shape deviations: %s" % [str(c) for c in failed]
