"""Textual rendering of GSI stall breakdowns.

The paper presents results as stacked-bar figures normalized to a baseline
configuration (Figures 6.1-6.4, each with an execution-time breakdown, a
memory-data sub-breakdown and a memory-structural sub-breakdown).  This
module renders the same three views as aligned ASCII tables and horizontal
stacked bars, plus CSV export for external plotting.
"""

from __future__ import annotations

import io
from typing import Mapping, Sequence

from repro.core.breakdown import StallBreakdown
from repro.core.stall_types import (
    MEM_DATA_ORDER,
    MEM_STRUCT_ORDER,
    StallType,
)

#: presentation order of top-level stall types (paper figure legends)
STALL_ORDER: tuple[StallType, ...] = (
    StallType.NO_STALL,
    StallType.IDLE,
    StallType.CONTROL,
    StallType.SYNC,
    StallType.MEM_DATA,
    StallType.MEM_STRUCT,
    StallType.COMP_DATA,
    StallType.COMP_STRUCT,
)

_BAR_GLYPHS = {
    StallType.NO_STALL: ".",
    StallType.IDLE: " ",
    StallType.CONTROL: "c",
    StallType.SYNC: "S",
    StallType.MEM_DATA: "D",
    StallType.MEM_STRUCT: "M",
    StallType.COMP_DATA: "d",
    StallType.COMP_STRUCT: "m",
}


def format_table(
    breakdowns: Mapping[str, StallBreakdown],
    baseline: str | None = None,
    title: str = "execution time breakdown",
) -> str:
    """Tabulate cycles per stall type, normalized to ``baseline``'s total."""
    names = list(breakdowns)
    if baseline is None:
        baseline = names[0]
    base = breakdowns[baseline]
    out = io.StringIO()
    out.write("%s (normalized to %s)\n" % (title, baseline))
    header = "%-22s" % "stall type" + "".join("%14s" % n for n in names)
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    # A zero-cycle baseline (empty kernel, zero-cycle run) renders as all
    # zeros instead of raising; the nonzero path is numerically identical
    # to StallBreakdown.normalized_to.
    base_total = base.total_cycles
    for stall in STALL_ORDER:
        row = "%-22s" % stall.value
        for n in names:
            norm = breakdowns[n].counts[stall] / base_total if base_total else 0.0
            row += "%14.4f" % norm
        out.write(row + "\n")
    out.write("-" * len(header) + "\n")
    row = "%-22s" % "total"
    for n in names:
        row += "%14.4f" % (
            breakdowns[n].total_cycles / base_total if base_total else 0.0
        )
    out.write(row + "\n")
    return out.getvalue()


def format_mem_data_table(
    breakdowns: Mapping[str, StallBreakdown], baseline: str | None = None
) -> str:
    """Memory data stall sub-breakdown (Figure x.yb analogue)."""
    names = list(breakdowns)
    if baseline is None:
        baseline = names[0]
    base = breakdowns[baseline]
    base_total = max(1, sum(base.mem_data.values()))
    out = io.StringIO()
    out.write("memory data stall breakdown (normalized to %s)\n" % baseline)
    header = "%-22s" % "serviced at" + "".join("%14s" % n for n in names)
    out.write(header + "\n" + "-" * len(header) + "\n")
    for loc in MEM_DATA_ORDER:
        row = "%-22s" % loc.value
        for n in names:
            row += "%14.4f" % (breakdowns[n].mem_data[loc] / base_total)
        out.write(row + "\n")
    return out.getvalue()


def format_mem_struct_table(
    breakdowns: Mapping[str, StallBreakdown], baseline: str | None = None
) -> str:
    """Memory structural stall sub-breakdown (Figure x.yc analogue)."""
    names = list(breakdowns)
    if baseline is None:
        baseline = names[0]
    base = breakdowns[baseline]
    base_total = max(1, sum(base.mem_struct.values()))
    out = io.StringIO()
    out.write("memory structural stall breakdown (normalized to %s)\n" % baseline)
    header = "%-22s" % "blocked by" + "".join("%14s" % n for n in names)
    out.write(header + "\n" + "-" * len(header) + "\n")
    for cause in MEM_STRUCT_ORDER:
        row = "%-22s" % cause.value
        for n in names:
            row += "%14.4f" % (breakdowns[n].mem_struct[cause] / base_total)
        out.write(row + "\n")
    return out.getvalue()


def format_stacked_bars(
    breakdowns: Mapping[str, StallBreakdown],
    baseline: str | None = None,
    width: int = 60,
) -> str:
    """Horizontal stacked bars, one per configuration, scaled so the
    baseline fills ``width`` characters (the paper's visual idiom)."""
    names = list(breakdowns)
    if baseline is None:
        baseline = names[0]
    base_total = breakdowns[baseline].total_cycles
    out = io.StringIO()
    label_w = max(len(n) for n in names) + 2
    for n in names:
        bd = breakdowns[n]
        bar = []
        for stall in STALL_ORDER:
            frac = bd.counts[stall] / base_total if base_total else 0.0
            bar.append(_BAR_GLYPHS[stall] * round(frac * width))
        out.write("%-*s|%s\n" % (label_w, n, "".join(bar)))
    legend = "  ".join(
        "%s=%s" % (_BAR_GLYPHS[s], s.value) for s in STALL_ORDER if s is not StallType.IDLE
    )
    out.write("legend: %s\n" % legend)
    return out.getvalue()


def to_json(breakdowns: Mapping[str, StallBreakdown], indent: int | None = 2) -> str:
    """JSON export: configuration name -> structured breakdown dict."""
    import json

    return json.dumps(
        {name: bd.to_dict() for name, bd in breakdowns.items()},
        indent=indent,
        sort_keys=True,
    )


def to_csv(breakdowns: Mapping[str, StallBreakdown]) -> str:
    """CSV export: one row per (configuration, category)."""
    out = io.StringIO()
    out.write("config,category,cycles\n")
    for name, bd in breakdowns.items():
        for label, cycles in bd.rows():
            out.write("%s,%s,%d\n" % (name, label, cycles))
    return out.getvalue()


def format_stats_tree(snapshot, _depth: int = 0) -> str:
    """Indented rendering of a :class:`~repro.core.component.StatsSnapshot`.

    Works for any component subtree -- the whole system, one SM, one MSHR --
    because the snapshot is self-describing; machine-readable forms come
    from the snapshot itself (``to_dict``/``to_csv``/``flatten``).
    """
    pad = "  " * _depth
    lines = ["%s%s:" % (pad, snapshot.name)]
    for stat, value in snapshot.values.items():
        if isinstance(value, dict):
            rendered = (
                "{%s}" % ", ".join("%s: %s" % kv for kv in value.items())
                if value
                else "{}"
            )
        elif isinstance(value, float):
            rendered = "%.3f" % value
        else:
            rendered = str(value)
        lines.append("%s  %-24s %s" % (pad, stat, rendered))
    for child in snapshot.children.values():
        lines.append(format_stats_tree(child, _depth + 1))
    return "\n".join(lines)


#: campaign-matrix attribution columns: label -> stall types aggregated
MATRIX_COLUMNS: tuple[tuple[str, tuple[StallType, ...]], ...] = (
    ("no_stall", (StallType.NO_STALL,)),
    ("mem_data", (StallType.MEM_DATA,)),
    ("mem_struct", (StallType.MEM_STRUCT,)),
    ("sync", (StallType.SYNC,)),
    ("compute", (StallType.COMP_DATA, StallType.COMP_STRUCT)),
    ("other", (StallType.IDLE, StallType.CONTROL)),
)


def matrix_attribution(
    breakdown: StallBreakdown | None,
) -> dict[str, float | None]:
    """Campaign attribution for one cell: column label -> fraction of the
    cell's own total cycles (the per-workload MEM_DATA/MEM_STRUCT/compute
    split the campaign matrix reports).  A replayed cell has no breakdown
    (``None``): every column is ``None``."""
    if breakdown is None:
        return {label: None for label, _ in MATRIX_COLUMNS}
    total = max(1, breakdown.total_cycles)
    return {
        label: sum(breakdown.counts[s] for s in stalls) / total
        for label, stalls in MATRIX_COLUMNS
    }


def format_campaign_matrix(
    rows: Sequence[Mapping],
    title: str = "stall-attribution matrix",
) -> str:
    """Tabulate campaign cells: one row per workload x hierarchy x protocol.

    Each ``rows`` entry carries ``workload``/``hierarchy``/``protocol``
    display labels, ``cycles`` and a :class:`StallBreakdown`, or ``None``
    for a replayed cell, which prints ``-`` in every column and ``replay``
    as its dominant cause.  Percentages are of each row's own total cycles
    (unlike the per-figure tables, which normalize to a baseline
    configuration: a campaign has no baseline).
    """
    out = io.StringIO()
    out.write("%s (%% of each row's cycles)\n" % title)
    wl_w = max([len("workload")] + [len(r["workload"]) for r in rows]) + 2
    hi_w = max([len("hierarchy")] + [len(r["hierarchy"]) for r in rows]) + 2
    header = "%-*s%-*s%-9s%10s" % (wl_w, "workload", hi_w, "hierarchy", "protocol", "cycles")
    header += "".join("%11s" % label for label, _ in MATRIX_COLUMNS)
    header += "  dominant"
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for r in rows:
        bd = r["breakdown"]
        line = "%-*s%-*s%-9s%10d" % (
            wl_w, r["workload"], hi_w, r["hierarchy"], r["protocol"], r["cycles"],
        )
        if bd is None:
            line += ("%11s" % "-") * len(MATRIX_COLUMNS) + "  replay"
        else:
            frac = matrix_attribution(bd)
            top = max(STALL_ORDER, key=lambda s: bd.counts[s])
            line += "".join(
                "%10.1f%%" % (100.0 * frac[label]) for label, _ in MATRIX_COLUMNS
            )
            line += "  %s" % top.value
        out.write(line + "\n")
    return out.getvalue()


def summarize(name: str, breakdown: StallBreakdown) -> str:
    """One-line digest used by examples and logs."""
    total = breakdown.total_cycles
    top = max(STALL_ORDER, key=lambda s: breakdown.counts[s])
    return "%s: %d cycles, dominant=%s (%.1f%%)" % (
        name,
        total,
        top.value,
        100.0 * breakdown.fraction(top),
    )
