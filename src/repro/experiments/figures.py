"""One entry point per paper artifact (Tables and Figures, Chapters 5-6).

Each ``fig*`` function **declares** the figure as a grid of
:class:`~repro.experiments.spec.Scenario` (workload name + config
overrides), hands the grid to the executor
(:func:`repro.experiments.executor.execute` -- serial, parallel, or
cache-served), and evaluates the paper's *shape claims* against the
returned results.  No figure runs a simulation loop of its own, so every
artifact parallelizes and caches for free, and a new scenario is ~10 lines
of spec instead of a new figure function.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.breakdown import StallBreakdown
from repro.core.report import (
    format_mem_data_table,
    format_mem_struct_table,
    format_stacked_bars,
    format_table,
)
from repro.core.stall_types import MemStructCause, ServiceLocation, StallType
from repro.experiments.executor import ScenarioRecord, execute, results_by_name
from repro.experiments.spec import Scenario, Sweep
from repro.sim.config import SystemConfig
from repro.system import SimResult


@dataclass
class Claim:
    """One qualitative statement from the paper, checked against our run."""

    text: str
    paper: str
    measured: str
    holds: bool

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        mark = "OK " if self.holds else "DEV"
        return "[%s] %s (paper: %s; measured: %s)" % (
            mark,
            self.text,
            self.paper,
            self.measured,
        )

    def to_dict(self) -> dict:
        return {
            "text": self.text,
            "paper": self.paper,
            "measured": self.measured,
            "holds": self.holds,
        }


@dataclass
class ExperimentResult:
    """Everything one paper artifact produced."""

    experiment: str
    results: dict[str, SimResult]
    baseline: str
    claims: list[Claim] = field(default_factory=list)
    #: executor records behind ``results`` (timing, cache provenance)
    records: list[ScenarioRecord] = field(default_factory=list)

    @property
    def breakdowns(self) -> dict[str, StallBreakdown]:
        return {k: r.breakdown for k, r in self.results.items()}

    @property
    def cycles(self) -> dict[str, int]:
        return {k: r.cycles for k, r in self.results.items()}

    def render(self) -> str:
        parts = [
            "=== %s ===" % self.experiment,
            "cycles: "
            + "  ".join("%s=%d" % (k, r.cycles) for k, r in self.results.items()),
            "",
            format_table(self.breakdowns, baseline=self.baseline),
            format_mem_data_table(self.breakdowns, baseline=self.baseline),
            format_mem_struct_table(self.breakdowns, baseline=self.baseline),
            format_stacked_bars(self.breakdowns, baseline=self.baseline),
            "shape claims:",
        ]
        parts += ["  %s" % c for c in self.claims]
        return "\n".join(parts)

    # --- machine-readable exports --------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready form; what ``--format json`` and ``--out`` emit."""
        return {
            "experiment": self.experiment,
            "baseline": self.baseline,
            "results": {k: r.to_dict() for k, r in self.results.items()},
            "claims": [c.to_dict() for c in self.claims],
            "execution": {
                r.scenario.name: {"elapsed_s": r.elapsed_s, "cached": r.cached}
                for r in self.records
            },
        }

    def to_csv(self) -> str:
        """One row per (configuration, breakdown category)."""
        lines = ["experiment,config,category,cycles"]
        for name, result in self.results.items():
            for label, cycles in result.breakdown.rows():
                lines.append("%s,%s,%s,%d" % (self.experiment, name, label, cycles))
        return "\n".join(lines) + "\n"


def _pct(new: float, old: float) -> str:
    if old == 0:
        return "n/a"
    return "%+.0f%%" % (100.0 * (new - old) / old)


# ---------------------------------------------------------------------------
# Table 5.1
# ---------------------------------------------------------------------------

def table51(config: SystemConfig | None = None) -> str:
    """Render Table 5.1: parameters of the simulated heterogeneous system."""
    config = config or SystemConfig()
    rows = config.table51_rows()
    width = max(len(k) for k, _ in rows) + 2
    lines = ["Table 5.1: parameters of the simulated heterogeneous system"]
    lines += ["  %-*s %s" % (width, k, v) for k, v in rows]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 6.1: UTS, GPU coherence vs DeNovo
# ---------------------------------------------------------------------------

def _uts_protocol_grid(
    workload: str, total_nodes: int, warps_per_tb: int
) -> list[Scenario]:
    """The recurring two-point grid of case study 1: both protocols."""
    args = {"total_nodes": total_nodes, "warps_per_tb": warps_per_tb}
    return [
        Scenario("gpu-coh", workload, dict(args), {"protocol": "gpu"}),
        Scenario("denovo", workload, dict(args), {"protocol": "denovo"}),
    ]


def fig61(
    total_nodes: int = 150,
    warps_per_tb: int = 4,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> ExperimentResult:
    """UTS stall breakdowns (execution / mem-data / mem-structural)."""
    records = execute(
        _uts_protocol_grid("uts", total_nodes, warps_per_tb),
        jobs=jobs,
        cache_dir=cache_dir,
    )
    results = results_by_name(records)

    gpu, dn = results["gpu-coh"], results["denovo"]
    sync_frac_gpu = gpu.breakdown.fraction(StallType.SYNC)
    sync_frac_dn = dn.breakdown.fraction(StallType.SYNC)
    remote_dn = dn.breakdown.mem_data[ServiceLocation.REMOTE_L1]
    remote_gpu = gpu.breakdown.mem_data[ServiceLocation.REMOTE_L1]
    rel_diff = abs(dn.cycles - gpu.cycles) / gpu.cycles
    claims = [
        Claim(
            "synchronization stalls dominate UTS under both protocols",
            "largest stall component",
            "gpu %.0f%%, denovo %.0f%% of cycles" % (100 * sync_frac_gpu, 100 * sync_frac_dn),
            sync_frac_gpu > 0.5 and sync_frac_dn > 0.5,
        ),
        Claim(
            "very little overall performance difference between protocols",
            "similar execution times",
            "denovo/gpu = %.2f" % (dn.cycles / gpu.cycles),
            rel_diff < 0.30,
        ),
        Claim(
            "DeNovo shows remote-L1 memory data stalls (request redirection)",
            "remote-L1 stalls present under DeNovo only",
            "denovo %d cycles, gpu %d cycles" % (remote_dn, remote_gpu),
            remote_dn > 0 and remote_gpu == 0,
        ),
    ]
    return ExperimentResult("fig6.1-uts", results, "gpu-coh", claims, records)


# ---------------------------------------------------------------------------
# Figure 6.2: UTSD, GPU coherence vs DeNovo
# ---------------------------------------------------------------------------

def fig62(
    total_nodes: int = 150,
    warps_per_tb: int = 4,
    include_uts_reference: bool = True,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> ExperimentResult:
    """UTSD stall breakdowns plus the UTS-vs-UTSD headline reductions."""
    scenarios = _uts_protocol_grid("utsd", total_nodes, warps_per_tb)
    if include_uts_reference:
        for ref in _uts_protocol_grid("uts", total_nodes, warps_per_tb):
            ref.name = "uts:%s" % ref.name
            scenarios.append(ref)
    records = execute(scenarios, jobs=jobs, cache_dir=cache_dir)
    named = results_by_name(records)
    results = {k: v for k, v in named.items() if not k.startswith("uts:")}
    uts_cycles = {
        k[len("uts:"):]: v.cycles for k, v in named.items() if k.startswith("uts:")
    }

    gpu, dn = results["gpu-coh"], results["denovo"]
    claims = [
        Claim(
            "DeNovo reduces UTSD execution time vs GPU coherence",
            "-28%",
            _pct(dn.cycles, gpu.cycles),
            dn.cycles < gpu.cycles,
        ),
        Claim(
            "DeNovo reduces memory structural stalls",
            "-71%",
            _pct(
                dn.breakdown.counts[StallType.MEM_STRUCT],
                max(1, gpu.breakdown.counts[StallType.MEM_STRUCT]),
            ),
            dn.breakdown.counts[StallType.MEM_STRUCT]
            < gpu.breakdown.counts[StallType.MEM_STRUCT],
        ),
        Claim(
            "DeNovo reduces memory data stalls",
            "-57%",
            _pct(
                dn.breakdown.counts[StallType.MEM_DATA],
                max(1, gpu.breakdown.counts[StallType.MEM_DATA]),
            ),
            dn.breakdown.counts[StallType.MEM_DATA]
            < gpu.breakdown.counts[StallType.MEM_DATA],
        ),
        Claim(
            "memory data stall reduction comes from the L2 component",
            "L2-serviced stalls drop; L1/main-memory components similar",
            "L2: %d -> %d"
            % (
                gpu.breakdown.mem_data[ServiceLocation.L2],
                dn.breakdown.mem_data[ServiceLocation.L2],
            ),
            dn.breakdown.mem_data[ServiceLocation.L2]
            < gpu.breakdown.mem_data[ServiceLocation.L2],
        ),
        Claim(
            "pending-release structural stalls drop under DeNovo",
            "10% of exec (gpu) vs 4% (denovo)",
            "%d vs %d cycles"
            % (
                gpu.breakdown.mem_struct[MemStructCause.PENDING_RELEASE],
                dn.breakdown.mem_struct[MemStructCause.PENDING_RELEASE],
            ),
            dn.breakdown.mem_struct[MemStructCause.PENDING_RELEASE]
            < gpu.breakdown.mem_struct[MemStructCause.PENDING_RELEASE],
        ),
        Claim(
            "remote-L1 data stalls virtually disappear relative to UTS",
            "locality removes redirection",
            "%.1f%% of DeNovo data stalls"
            % (
                100.0
                * dn.breakdown.mem_data[ServiceLocation.REMOTE_L1]
                / max(1, sum(dn.breakdown.mem_data.values()))
            ),
            dn.breakdown.mem_data[ServiceLocation.REMOTE_L1]
            < 0.35 * max(1, sum(dn.breakdown.mem_data.values())),
        ),
    ]
    if include_uts_reference:
        for label, paper in [("gpu-coh", "-91%"), ("denovo", "-94%")]:
            claims.append(
                Claim(
                    "UTSD cuts execution time vs UTS (%s)" % label,
                    paper,
                    _pct(results[label].cycles, uts_cycles[label]),
                    results[label].cycles < 0.25 * uts_cycles[label],
                )
            )
    return ExperimentResult("fig6.2-utsd", results, "gpu-coh", claims, records)


# ---------------------------------------------------------------------------
# Figure 6.3: implicit microbenchmark across local-memory organizations
# ---------------------------------------------------------------------------

#: display name -> workload registry name for the implicit variants
IMPLICIT_VARIANTS = {
    "scratchpad": "implicit_scratchpad",
    "scratchpad+dma": "implicit_dma",
    "stash": "implicit_stash",
}


def _implicit_grid(num_tbs: int, warps_per_tb: int) -> list[Scenario]:
    """Case study 2's three-point grid: one scenario per local memory."""
    return [
        Scenario(name, workload, {"num_tbs": num_tbs, "warps_per_tb": warps_per_tb})
        for name, workload in IMPLICIT_VARIANTS.items()
    ]


def fig63(
    num_tbs: int = 4,
    warps_per_tb: int = 8,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> ExperimentResult:
    """implicit: scratchpad vs scratchpad+DMA vs stash."""
    records = execute(
        _implicit_grid(num_tbs, warps_per_tb), jobs=jobs, cache_dir=cache_dir
    )
    results = results_by_name(records)

    base = results["scratchpad"]
    dma = results["scratchpad+dma"]
    stash = results["stash"]
    base_total = base.breakdown.total_cycles

    def nostall_drop(r: SimResult) -> float:
        return (
            r.breakdown.counts[StallType.NO_STALL]
            - base.breakdown.counts[StallType.NO_STALL]
        ) / base_total

    claims = [
        Claim(
            "scratchpad+DMA reduces no-stall cycles",
            "-36% (of baseline cycles)",
            "%+.0f%%" % (100 * nostall_drop(dma)),
            nostall_drop(dma) < -0.10,
        ),
        Claim(
            "stash reduces no-stall cycles",
            "-31% (of baseline cycles)",
            "%+.0f%%" % (100 * nostall_drop(stash)),
            nostall_drop(stash) < -0.10,
        ),
        Claim(
            "scratchpad+DMA increases memory structural stalls",
            "+67%",
            _pct(
                dma.breakdown.counts[StallType.MEM_STRUCT],
                base.breakdown.counts[StallType.MEM_STRUCT],
            ),
            dma.breakdown.counts[StallType.MEM_STRUCT]
            > base.breakdown.counts[StallType.MEM_STRUCT],
        ),
        Claim(
            "DMA's structural-stall increase exceeds stash's",
            "+67% vs +34%",
            "%d vs %d cycles"
            % (
                dma.breakdown.counts[StallType.MEM_STRUCT],
                stash.breakdown.counts[StallType.MEM_STRUCT],
            ),
            dma.breakdown.counts[StallType.MEM_STRUCT]
            > stash.breakdown.counts[StallType.MEM_STRUCT],
        ),
        Claim(
            "both innovations improve overall execution time",
            "faster than scratchpad",
            "dma %.2fx, stash %.2fx"
            % (dma.cycles / base.cycles, stash.cycles / base.cycles),
            dma.cycles < base.cycles and stash.cycles < base.cycles,
        ),
        Claim(
            "bank conflicts are insignificant for scratchpad+DMA",
            "DMA requests bypass the pipeline",
            "%d vs %d (baseline) conflict stalls"
            % (
                dma.breakdown.mem_struct[MemStructCause.BANK_CONFLICT],
                base.breakdown.mem_struct[MemStructCause.BANK_CONFLICT],
            ),
            dma.breakdown.mem_struct[MemStructCause.BANK_CONFLICT]
            < base.breakdown.mem_struct[MemStructCause.BANK_CONFLICT],
        ),
        Claim(
            "pending-DMA stalls appear only under scratchpad+DMA",
            "unique to the DMA configuration",
            "%d cycles" % dma.breakdown.mem_struct[MemStructCause.PENDING_DMA],
            dma.breakdown.mem_struct[MemStructCause.PENDING_DMA] > 0
            and base.breakdown.mem_struct[MemStructCause.PENDING_DMA] == 0
            and stash.breakdown.mem_struct[MemStructCause.PENDING_DMA] == 0,
        ),
    ]
    return ExperimentResult("fig6.3-implicit", results, "scratchpad", claims, records)


# ---------------------------------------------------------------------------
# Figure 6.4: MSHR size sensitivity
# ---------------------------------------------------------------------------

def fig64(
    mshr_sizes: tuple[int, ...] = (32, 64, 128, 256),
    num_tbs: int = 4,
    warps_per_tb: int = 8,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> dict[int, ExperimentResult]:
    """implicit with MSHR size swept 32..256 (store buffer scaled along,
    as in the paper): a cartesian Sweep per local-memory variant, executed
    as one batch so the whole grid parallelizes."""
    mshr_axis = [
        {"mshr_entries": size, "store_buffer_entries": size} for size in mshr_sizes
    ]
    scenarios = [
        swept
        for base in _implicit_grid(num_tbs, warps_per_tb)
        for swept in Sweep(base, {"mshr_entries": mshr_axis}).expand()
    ]
    records = execute(scenarios, jobs=jobs, cache_dir=cache_dir)
    by_name = {r.scenario.name: r for r in records}

    out: dict[int, ExperimentResult] = {}
    for size in mshr_sizes:
        size_records = [
            by_name["%s/mshr_entries=%d" % (variant, size)]
            for variant in IMPLICIT_VARIANTS
        ]
        out[size] = ExperimentResult(
            "fig6.4-mshr-%d" % size,
            {r.scenario.name.split("/")[0]: r.result for r in size_records},
            "scratchpad",
            [],
            size_records,
        )
    smallest, largest = min(mshr_sizes), max(mshr_sizes)
    lo, hi = out[smallest], out[largest]
    claims = []
    for name in ("scratchpad", "scratchpad+dma", "stash"):
        claims.append(
            Claim(
                "%s improves (or holds) with a larger MSHR" % name,
                "all configurations benefit",
                "%d -> %d cycles" % (lo.results[name].cycles, hi.results[name].cycles),
                hi.results[name].cycles <= 1.05 * lo.results[name].cycles,
            )
        )
        claims.append(
            Claim(
                "%s: full-MSHR stalls are eliminated at %d entries" % (name, largest),
                "decrease in full MSHR stalls",
                "%d -> %d cycles"
                % (
                    lo.results[name].breakdown.mem_struct[MemStructCause.MSHR_FULL],
                    hi.results[name].breakdown.mem_struct[MemStructCause.MSHR_FULL],
                ),
                hi.results[name].breakdown.mem_struct[MemStructCause.MSHR_FULL]
                < 0.25
                * max(
                    1,
                    lo.results[name].breakdown.mem_struct[MemStructCause.MSHR_FULL],
                ),
            )
        )
    claims.append(
        Claim(
            "scratchpad memory data stalls rise with MSHR size",
            "13x at 256 entries",
            "%d -> %d cycles"
            % (
                lo.results["scratchpad"].breakdown.counts[StallType.MEM_DATA],
                hi.results["scratchpad"].breakdown.counts[StallType.MEM_DATA],
            ),
            hi.results["scratchpad"].breakdown.counts[StallType.MEM_DATA]
            > lo.results["scratchpad"].breakdown.counts[StallType.MEM_DATA],
        )
    )
    claims.append(
        Claim(
            "stash memory data stalls rise with MSHR size",
            "2.1x at 256 entries",
            "%d -> %d cycles"
            % (
                lo.results["stash"].breakdown.counts[StallType.MEM_DATA],
                hi.results["stash"].breakdown.counts[StallType.MEM_DATA],
            ),
            hi.results["stash"].breakdown.counts[StallType.MEM_DATA]
            >= lo.results["stash"].breakdown.counts[StallType.MEM_DATA],
        )
    )
    claims.append(
        Claim(
            "stash's absolute data-stall level stays below scratchpad's",
            "the increase is less significant for stash",
            "%d vs %d cycles at %d entries"
            % (
                hi.results["stash"].breakdown.counts[StallType.MEM_DATA],
                hi.results["scratchpad"].breakdown.counts[StallType.MEM_DATA],
                largest,
            ),
            hi.results["stash"].breakdown.counts[StallType.MEM_DATA]
            <= hi.results["scratchpad"].breakdown.counts[StallType.MEM_DATA],
        )
    )
    claims.append(
        Claim(
            "pending-DMA stalls grow as the MSHR bottleneck lifts",
            "8.9x at 256 entries",
            "%d -> %d cycles"
            % (
                lo.results["scratchpad+dma"].breakdown.mem_struct[
                    MemStructCause.PENDING_DMA
                ],
                hi.results["scratchpad+dma"].breakdown.mem_struct[
                    MemStructCause.PENDING_DMA
                ],
            ),
            hi.results["scratchpad+dma"].breakdown.mem_struct[
                MemStructCause.PENDING_DMA
            ]
            > lo.results["scratchpad+dma"].breakdown.mem_struct[
                MemStructCause.PENDING_DMA
            ],
        )
    )
    hi.claims = claims
    return out


# ---------------------------------------------------------------------------
# Hierarchy shapes: the same workload across memory-hierarchy fabrics
# ---------------------------------------------------------------------------

def fig_hierarchy(
    total_nodes: int = 150,
    warps_per_tb: int = 4,
    protocol: str = "denovo",
    jobs: int = 1,
    cache_dir: str | None = None,
) -> ExperimentResult:
    """UTS across hierarchy shapes: Table 5.1 default vs. shared L3 vs.
    private per-SM L2 vs. L1 bypass.

    Not a paper artifact -- the paper hard-wires one hierarchy -- but the
    same grid-of-scenarios treatment the fig6.x artifacts get, exercising
    the fabric end-to-end (DeNovo by default, whose ownership makes the
    core-side shapes visible).
    """
    from repro.mem.hierarchy import example_shapes

    args = {"total_nodes": total_nodes, "warps_per_tb": warps_per_tb}
    scenarios = [Scenario("default", "uts", dict(args), {"protocol": protocol})]
    shapes = example_shapes()
    scenarios += [
        Scenario(
            name, "uts", dict(args), {"protocol": protocol, "hierarchy": shape}
        )
        for name, shape in shapes.items()
    ]
    records = execute(scenarios, jobs=jobs, cache_dir=cache_dir)
    results = results_by_name(records)

    def l1_hits(r: SimResult) -> int:
        return sum(v["load_hits"] for v in r.stats["l1"].values())

    base = results["default"]
    byp = results["l1-bypass"]
    pl2 = results["private-l2"]
    l3 = results["shared-l3"]
    claims = [
        Claim(
            "every shape completes the kernel",
            "topology is a sweep axis, not a rebuild",
            "cycles: " + " ".join("%s=%d" % (k, r.cycles) for k, r in results.items()),
            all(r.cycles > 0 for r in results.values()),
        ),
        Claim(
            "bypassing the L1 forfeits all L1 hits",
            "loads go straight to the shared level",
            "%d -> %d L1 hits" % (l1_hits(base), l1_hits(byp)),
            l1_hits(base) > 0 and l1_hits(byp) == 0,
        ),
        Claim(
            "a shared L3 does not increase DRAM traffic",
            "extra capacity behind the directory",
            "%d vs %d DRAM accesses"
            % (l3.stats["dram"]["accesses"], base.stats["dram"]["accesses"]),
            l3.stats["dram"]["accesses"] <= base.stats["dram"]["accesses"],
        ),
        Claim(
            "a private L2 does not lose core-side locality",
            "the stack catches at least what the L1 alone caught",
            "%d vs %d stack hits" % (l1_hits(pl2), l1_hits(base)),
            l1_hits(pl2) >= l1_hits(base),
        ),
    ]
    return ExperimentResult("hierarchy-shapes", results, "default", claims, records)


# ---------------------------------------------------------------------------
# Overhead: "GSI increases simulation time by on average 5%"
# ---------------------------------------------------------------------------

def overhead_experiment(repeats: int = 3) -> dict[str, float]:
    """Wall-clock cost of GSI attribution on a representative workload.

    Deliberately *not* scenario-based: it measures host time, which must
    stay in-process and uncached to mean anything.  The engine-side rates
    (cycles/sec, events, wake-ups) are read off the run's component stats
    tree (``SimResult.stats_tree``).
    """
    from repro.workloads.synthetic import StreamingWorkload
    from repro.system import run_workload

    def run_once(enabled: bool) -> tuple[float, object]:
        wl = StreamingWorkload(num_tbs=8, warps_per_tb=4, elements_per_warp=64)
        cfg = SystemConfig(num_sms=8, gsi_enabled=enabled)
        t0 = time.perf_counter()
        result = run_workload(cfg, wl)
        return time.perf_counter() - t0, result

    with_runs = [run_once(True) for _ in range(repeats)]
    without_runs = [run_once(False) for _ in range(repeats)]
    with_gsi, result = min(with_runs, key=lambda er: er[0])
    without = min(e for e, _ in without_runs)
    engine = result.stats_tree["engine"]
    return {
        "with_gsi_s": with_gsi,
        "without_gsi_s": without,
        "overhead_pct": 100.0 * (with_gsi - without) / without if without else 0.0,
        "cycles_per_sec": engine["cycles"] / with_gsi if with_gsi else 0.0,
        "engine_events": engine["events"],
        "engine_wakeups": engine["wakeups"],
    }
