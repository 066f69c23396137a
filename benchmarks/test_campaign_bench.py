"""The stock fleet campaign: the full cross-product, plain and replay-first.

Runs the workload-fleet campaign (5 workloads x 2 hierarchies x
2 protocols) through the executor, then again planned into record +
replay cells (the scheduling ``repro campaign --plan`` / ``--workers``
uses), and checks that every cell of both completes and attributes its
cycles.
"""

from repro.experiments.campaign import default_campaign, run_campaign


def test_fleet_campaign_matrix(show, sim_cache):
    spec = default_campaign(fast=False)
    result = run_campaign(spec, cache_dir=sim_cache)
    show(result.render())
    w, h, p = spec.shape()
    assert len(result.records) == w * h * p == 20
    assert all(r.ok for r in result.records)
    # every cell simulated something and attributed every cycle
    for record in result.records:
        assert record.result.cycles > 0
        assert record.result.breakdown.total_cycles > 0


def test_fleet_campaign_replay_first(show, tmp_path, sim_cache):
    """The planned campaign runs cold: the session cache would serve its
    cells and leave nothing to replay."""
    spec = default_campaign(fast=False)
    cells = len(spec.scenarios())
    serial = run_campaign(spec, cache_dir=sim_cache)
    planned = run_campaign(spec, plan=True, trace_dir=str(tmp_path / "traces"))

    assert len(planned.records) == len(serial.records) == cells
    assert all(r.ok for r in planned.records)
    assert planned.replayed_count > 0
    # replay keeps the memory-side attribution live in every cell
    for record in planned.records:
        assert record.result.cycles > 0
    show(
        "replay-first: %d cells, %d replayed" % (cells, planned.replayed_count)
    )
