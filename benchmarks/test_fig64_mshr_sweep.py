"""Figure 6.4: implicit microbenchmark vs MSHR size (32 to 256 entries).

The store buffer scales with the MSHR as in the paper.  Checks: every
configuration improves with a bigger MSHR; full-MSHR stalls vanish at 256;
memory data stalls grow for scratchpad and stash (with stash staying below
scratchpad in absolute terms -- its on-demand, warp-granularity blocking
keeps the core utilized); pending-DMA stalls grow as the MSHR stops being
the bottleneck.
"""

from repro.core.stall_types import MemStructCause, StallType
from repro.experiments.figures import fig64

from benchmarks.conftest import IMPLICIT_TBS, IMPLICIT_WARPS


def test_fig64_mshr_sensitivity(show, sim_cache):
    sweep = fig64(
        mshr_sizes=(32, 64, 128, 256),
        num_tbs=IMPLICIT_TBS,
        warps_per_tb=IMPLICIT_WARPS,
        cache_dir=sim_cache,
    )
    lines = ["MSHR sweep (cycles / full-MSHR / mem-data / pending-DMA):"]
    for size, result in sweep.items():
        for name, r in result.results.items():
            lines.append(
                "  %3d %-15s %7d cyc  mshr_full=%6d  mem_data=%6d  pdma=%6d"
                % (
                    size,
                    name,
                    r.cycles,
                    r.breakdown.mem_struct[MemStructCause.MSHR_FULL],
                    r.breakdown.counts[StallType.MEM_DATA],
                    r.breakdown.mem_struct[MemStructCause.PENDING_DMA],
                )
            )
    show("\n".join(lines))
    show(sweep[256].render())
    failed = [c for c in sweep[256].claims if not c.holds]
    assert not failed, "shape deviations: %s" % [str(c) for c in failed]
