"""Rendering edge cases for :mod:`repro.core.report`.

The report helpers are exercised end-to-end by the figure tests on real
breakdowns; these tests pin the degenerate inputs a user can still reach
-- an empty stats tree, a zero-cycle run, a one-cell campaign -- so the
renderers degrade to readable output instead of raising.
"""

from repro.core.breakdown import StallBreakdown
from repro.core.component import Component, StatsSnapshot
from repro.core.report import (
    format_campaign_matrix,
    format_stacked_bars,
    format_stats_tree,
    format_table,
    matrix_attribution,
    summarize,
)
from repro.core.stall_types import StallType


class TestZeroCycleBreakdown:
    def test_format_table_all_zero_baseline(self):
        text = format_table({"empty": StallBreakdown()})
        assert "normalized to empty" in text
        # every stall row and the total row render 0.0000, no exception
        assert text.count("0.0000") == len(StallType) + 1

    def test_format_table_zero_baseline_nonzero_other(self):
        busy = StallBreakdown()
        busy.add(StallType.NO_STALL, 10)
        text = format_table({"empty": StallBreakdown(), "busy": busy})
        # a zero baseline zeroes the whole table rather than raising
        assert "busy" in text
        assert "inf" not in text and "nan" not in text

    def test_format_table_nonzero_unchanged(self):
        # the zero-guard must not perturb the normal path (golden artifacts
        # depend on the exact rendering)
        bd = StallBreakdown()
        bd.add(StallType.NO_STALL, 3)
        bd.add(StallType.MEM_DATA, 1)
        text = format_table({"a": bd})
        assert "%14.4f" % 0.75 in text
        assert "%14.4f" % 0.25 in text

    def test_stacked_bars_and_summarize_zero(self):
        bars = format_stacked_bars({"empty": StallBreakdown()})
        assert "legend:" in bars
        line = summarize("empty", StallBreakdown())
        assert "0 cycles" in line

    def test_matrix_attribution_zero(self):
        frac = matrix_attribution(StallBreakdown())
        assert set(frac.values()) == {0.0}


class TestCampaignMatrix:
    def test_single_cell_matrix(self):
        bd = StallBreakdown()
        bd.add(StallType.MEM_DATA, 8)
        bd.add(StallType.NO_STALL, 2)
        text = format_campaign_matrix(
            [{"workload": "w", "hierarchy": "default", "protocol": "gpu",
              "cycles": 10, "breakdown": bd}]
        )
        assert "w" in text and "default" in text and "gpu" in text
        assert "memory_data" in text  # dominant column
        assert "80.0%" in text

    def test_zero_cycle_cell(self):
        text = format_campaign_matrix(
            [{"workload": "w", "hierarchy": "h", "protocol": "denovo",
              "cycles": 0, "breakdown": StallBreakdown()}]
        )
        assert "denovo" in text

    def test_replayed_cell_has_no_attribution(self):
        assert set(matrix_attribution(None).values()) == {None}
        bd = StallBreakdown()
        bd.add(StallType.MEM_DATA, 8)
        text = format_campaign_matrix([
            {"workload": "w", "hierarchy": "h", "protocol": "gpu",
             "cycles": 8, "breakdown": bd},
            {"workload": "w", "hierarchy": "h", "protocol": "denovo",
             "cycles": 9, "breakdown": None},
        ])
        executed, replayed = text.splitlines()[-2:]
        assert replayed.split()[3:] == ["9"] + ["-"] * 6 + ["replay"]
        assert len(replayed) == len(executed) - len("memory_data") + len("replay")


class TestStatsTree:
    def test_empty_snapshot(self):
        text = format_stats_tree(StatsSnapshot("empty"))
        assert text == "empty:"

    def test_derived_only_node(self):
        node = Component("calc")
        node.stat_derived("ratio", lambda: 0.5)
        node.stat_derived("count", lambda: 7)
        text = format_stats_tree(node.stats())
        assert "calc:" in text
        assert "ratio" in text and "0.500" in text
        assert "count" in text and "7" in text

    def test_histogram_rendering(self):
        node = Component("h")
        node.stat_histogram("lat").observe(4, 2)
        text = format_stats_tree(node.stats())
        assert "{4: 2}" in text
