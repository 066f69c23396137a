"""End-to-end benchmark of the simulator's host time.

    python3 benchmarks/e2e/run.py --workload uts-exec --seed 0 --seconds 30 --trace 0

Runs one named workload as a closed loop with one client -- one simulation
at a time, ``jobs=1``, no think time -- repeating whole passes ("reps")
until ``--seconds`` have gone by (the last rep ends past them), then
prints every end-to-end metric (the median over reps, by name and unit)
and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Every simulated cell is
checked against the SHA-256 ledger in ``expected.json``; the exit status is
non-zero when any cell fails.

``--trace 1`` spends the first third of the run on untraced reps and the
rest on reps traced layer by layer (see ``layers.py``), and reports the
per-layer metrics instead.  ``--out FILE`` writes the full record of the
run -- every rep, both metric sets -- for ``compare.py``.

The simulated caches start empty (kernel launch self-invalidates the L1s,
as in the paper) and the host does no warm-up rep; medians absorb the cold
first rep.  The model is unvalidated against hardware, so no accuracy
error is reported: a cell is correct when its result is byte-identical to
the ledger.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

from layers import LAYERS, EngineClock, Tracer  # noqa: E402

from repro.core.stall_types import StallType  # noqa: E402
from repro.experiments import executor  # noqa: E402
from repro.experiments.campaign import default_campaign, run_campaign  # noqa: E402
from repro.experiments.figures import fig63, fig64  # noqa: E402
from repro.experiments.spec import Scenario  # noqa: E402
from repro.trace import record_workload, save_trace  # noqa: E402

LEDGER_PATH = os.path.join(HERE, "expected.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: On a shared host the same code runs up to 2x slower, in spells from a
#: fraction of a second to minutes, so while a rep runs a timer interrupts
#: it PROBE_PERIOD_S after each slice of reference work
#: (``reference_loop(PROBE_STEPS)``) to time the next (see ``SpeedProbe``).
#: The rep's end-to-end timings leave the slices out and are scaled to the
#: speed at which a slice takes REFERENCE_S, about its time on the 2-vCPU
#: Xeon of the committed noise study in that host's fastest spells.
PROBE_PERIOD_S = 0.03
PROBE_STEPS = 1000
REFERENCE_S = 0.0008
#: a cell whose time holds this many slices is scaled by their mean time,
#: a shorter one by its rep's
CELL_SLICES = 5

# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

#: UTS at 20 nodes: the fig6.1 tree generator and machine, sized so a rep
#: takes about two host seconds and a 30 s run holds a dozen reps
UTS_ARGS = {"total_nodes": 20, "warps_per_tb": 4}
UTS_CONFIG = {"protocol": "gpu"}
#: the fig6.3 grid and the fig6.4 sweep at the benchmark-suite sizes
IMPLICIT_ARGS = {"num_tbs": 4, "warps_per_tb": 8}
MSHR_SIZES = (32, 64, 128, 256)
#: fleet workload -> the kwarg its seed goes to (pointer_chase takes none)
FLEET_SEED_ARGS = {
    "spmv": "seed",
    "histogram": "seed",
    "matmul_tiled": "seed",
    "bfs": "graph_seed",
}


class Workload:
    """A named benchmark workload.

    ``variants`` are the inputs ``--seed`` selects from (seed modulo their
    count); variant 0 is the registry defaults the goldens use, and a
    workload with one variant takes no seed.  The other variants were
    picked to simulate within about 1% of variant 0's cycles and engine
    events, so runs at different seeds measure the same amount of work.
    ``prepare`` runs once per run, untimed, and returns result dicts to
    check; ``rep`` is one timed pass in a fresh empty directory.
    """

    name = ""
    variants: tuple = ({},)

    def prepare(self, variant, work_dir: str) -> dict:
        return {}

    def rep(self, variant, rep_dir: str) -> None:
        raise NotImplementedError


class UtsExec(Workload):
    name = "uts-exec"
    variants = ({}, {"tree_seed": 276}, {"tree_seed": 221})

    def rep(self, variant, rep_dir):
        executor.execute(
            [Scenario(self.name, "uts", {**UTS_ARGS, **variant}, dict(UTS_CONFIG))]
        )


class UtsReplay(Workload):
    """Replays the uts-exec variant-0 run, recorded once per run."""

    name = "uts-replay"

    def prepare(self, variant, work_dir):
        scenario = Scenario("record", "uts", dict(UTS_ARGS), dict(UTS_CONFIG))
        result, trace = record_workload(
            scenario.build_config(), scenario.build_workload(), name="uts"
        )
        self.path = os.path.join(work_dir, "uts.gsitrace")
        save_trace(trace, self.path)
        return {"record": result.to_dict()}

    def rep(self, variant, rep_dir):
        executor.execute([Scenario(self.name, "trace", {"path": self.path})])


class FleetCampaign(Workload):
    """The stock 20-cell fleet, replay-first, cold cache and trace store."""

    name = "fleet-campaign"
    #: the seed every seeded fleet workload gets; None keeps the registry's
    variants = (None, 17, 33)

    def rep(self, variant, rep_dir):
        spec = default_campaign(fast=False)
        if variant is not None:
            for entry in spec.workloads:
                arg = FLEET_SEED_ARGS.get(entry["workload"])
                if arg is not None:
                    entry["workload_args"][arg] = variant
        run_campaign(
            spec,
            plan=True,
            cache_dir=os.path.join(rep_dir, "cache"),
            trace_dir=os.path.join(rep_dir, "traces"),
        )


class ImplicitLocal(Workload):
    name = "implicit-local"

    def rep(self, variant, rep_dir):
        fig63(**IMPLICIT_ARGS)
        fig64(mshr_sizes=MSHR_SIZES, **IMPLICIT_ARGS)


WORKLOADS = {w.name: w for w in (UtsExec, UtsReplay, FleetCampaign, ImplicitLocal)}

# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def digest(result: dict) -> str:
    """SHA-256 of the canonical JSON of ``SimResult.to_dict()``."""
    payload = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def ledger_entry(result: dict) -> dict:
    return {
        "sha256": digest(result),
        "cycles": result["cycles"],
        "engine_events": result["stats"]["engine"]["events"],
    }


def load_ledger(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


class Checks:
    """Cells attempted and failed against one variant's ledger entries."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        #: cells every rep must produce (the ledger minus prepare's cells)
        self.per_rep = set(expected)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, name: str, problem: str, cells: int = 1) -> None:
        self.attempted += cells
        self.failed += cells
        if len(self.problems) < 20:
            self.problems.append("%s: %s" % (name, problem))

    def cell(self, name: str, result: dict, violations=()) -> None:
        want = self.expected.get(name)
        got = ledger_entry(result)
        if violations:
            self.fail(name, "violations: %s" % "; ".join(violations))
        elif want is None:
            self.fail(name, "no ledger entry")
        elif want["sha256"] != got["sha256"]:
            self.fail(
                name,
                "digest differs from the ledger (cycles %d, ledger %d)"
                % (got["cycles"], want["cycles"]),
            )
        else:
            self.attempted += 1

    def prepared(self, results: dict) -> None:
        """Check the cells ``Workload.prepare`` simulated, once per run."""
        for name, result in results.items():
            self.cell(name, result)
            self.per_rep.discard(name)

    def rep(self, cells: dict) -> None:
        """Check one rep's cells: ``name -> (result dict, violations)``."""
        for name, (result, violations) in cells.items():
            self.cell(name, result, violations)
        for name in sorted(self.per_rep - set(cells)):
            self.fail(name, "not simulated")

    @property
    def correct(self) -> bool:
        return self.failed == 0


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def run_rep(workload, variant, rep_dir, clock, tracer=None) -> tuple[dict, dict]:
    """One timed pass: ``(timings, cells)`` with ``cells`` mapping each
    simulated cell's name to ``(SimResult.to_dict(), violations)``.  An
    untraced pass runs under a :class:`SpeedProbe` and its times leave the
    probe's slices out."""
    records = []
    previous = executor.record_hook
    executor.record_hook = records.append
    clock.runs.clear()
    probe = SpeedProbe() if tracer is None else None
    try:
        with probe or contextlib.nullcontext():
            start = time.perf_counter()
            if tracer is None:
                workload.rep(variant, rep_dir)
            else:
                tracer.reset()
                tracer.run(lambda: workload.rep(variant, rep_dir))
            end = time.perf_counter()
    finally:
        executor.record_hook = previous
    inside = probe.durations if probe is not None else lambda start, end: []
    cells = {
        r.scenario.name: (r.result.to_dict(), list(r.violations)) for r in records
    }
    cell_s, cell_slice_s = [], []
    for r in records:
        slices = inside(r.t_start_s, r.t_end_s)
        cell_s.append(r.elapsed_s - sum(slices))
        cell_slice_s.append(statistics.fmean(slices) if len(slices) >= CELL_SLICES else None)
    timings = {
        "wall_s": end - start - sum(inside(start, end)),
        "engine_s": sum(b - a - sum(inside(a, b)) for a, b in clock.runs),
        "cycles": sum(res["cycles"] for res, _ in cells.values()),
        "events": sum(res["stats"]["engine"]["events"] for res, _ in cells.values()),
        "cells": len(cells),
        "cell_s": cell_s,
        "replayed": sum(1 for r in records if r.scenario.workload == "trace"),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if probe is not None:
        timings["probe_s"] = sum(inside(start, end))
        timings["slices"] = len(probe.slices)
        timings["slice_s"] = probe.slice_s()
        timings["cell_slice_s"] = [s or timings["slice_s"] for s in cell_slice_s]
    if tracer is not None:
        timings["layers"] = {
            layer: [tracer.calls[layer], tracer.self_s[layer]] for layer in LAYERS
        }
    return timings, cells


class _Node:
    __slots__ = ("key", "value", "links")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value
        self.links: list[int] = []

    def touch(self, other: _Node) -> int:
        self.links.append(other.key)
        if len(self.links) > 8:
            del self.links[:4]
        return self.value + other.value


def reference_loop(nodes: dict, queue: list[int], steps: int) -> int:
    """``steps`` turns of a fixed discrete-event loop -- an event heap, dict
    lookups, attribute and method-call traffic, like the simulator's -- that
    shares no code with the simulator, so a change to the simulator cannot
    speed it up.  Events are ints (``time << 9 | node``), so a turn
    allocates nothing the collector tracks."""
    total = 0
    for step in range(steps):
        event = heapq.heappop(queue)
        node = nodes[event & 511]
        other = nodes[(event * 31 + step) & 511]
        total += node.touch(other)
        heapq.heappush(queue, ((event >> 9) + 1 + (total & 7)) << 9 | other.key)
    return total


class SpeedProbe:
    """While entered, times a slice of ``reference_loop`` from a ``SIGALRM``
    timer ``PROBE_PERIOD_S`` after the previous slice ended, so the slices
    sample the host's speed all through a rep and never nest.  Python runs
    the handler between two bytecodes of whatever the rep is doing, so a
    slice lies wholly inside or wholly outside any interval the rep times,
    and :meth:`durations` finds the slices to take out of it exactly."""

    def __init__(self) -> None:
        self.nodes = {i: _Node(i, i * 7 % 13) for i in range(512)}
        self.queue = [i << 9 | i for i in range(64)]  # sorted, so a heap
        #: ``(start, end)`` of every slice, in time order
        self.slices: list[tuple[float, float]] = []
        self._armed = False

    def _slice(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_loop(self.nodes, self.queue, PROBE_STEPS)
        self.slices.append((start, time.perf_counter()))
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)

    def __enter__(self) -> SpeedProbe:
        self._handler = signal.signal(signal.SIGALRM, self._slice)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def durations(self, start: float, end: float) -> list[float]:
        """Times of the slices between ``start`` and ``end``."""
        return [b - a for a, b in self.slices if start <= a and b <= end]

    def slice_s(self) -> float:
        """The mean slice time, timing one now if the timer never fired."""
        if not self.slices:
            self._slice()
        return statistics.fmean(b - a for a, b in self.slices)


def host_scale(rep: dict) -> float:
    """``REFERENCE_S`` over the rep's mean slice time: above 1 when the host
    ran faster than usual during the rep, below 1 when it ran slower."""
    return REFERENCE_S / rep["slice_s"]


def measure(workload, variant, work_dir, until, checks, clock, tracer=None):
    """Reps until ``until`` has passed (at least one), so a run measures for
    at least its ``--seconds``.  Returns the reps' timings and the first
    rep's cells.

    Each rep starts from a collected heap with every older object frozen
    out of the collector's sight, as in a fresh process, so that objects an
    earlier rep left behind (the message freelist in ``repro.noc.message``
    grows with every cell) do not make each later rep's collections slower
    than the last.
    """
    reps = []
    first_cells = None
    try:
        while True:
            gc.collect()
            gc.freeze()
            rep_dir = tempfile.mkdtemp(prefix="rep-", dir=work_dir)
            try:
                timings, cells = run_rep(workload, variant, rep_dir, clock, tracer)
            finally:
                shutil.rmtree(rep_dir, ignore_errors=True)
            checks.rep(cells)
            if first_cells is None:
                first_cells = cells
            del cells
            reps.append(timings)
            if time.perf_counter() >= until:
                return reps, first_cells
    finally:
        gc.unfreeze()


def run_benchmark(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    ledger: dict,
    work_dir: str,
    start: float | None = None,
) -> dict:
    """Measure ``workload`` for ``seconds`` (counted from ``start``) and
    return the full record of the run (see ``--out``)."""
    start = time.perf_counter() if start is None else start
    deadline = start + seconds
    index = seed % len(workload.variants)
    variant = workload.variants[index]
    checks = Checks(ledger.get(workload.name, {}).get(str(index), {}))
    out = {
        "workload": workload.name,
        "seed": seed,
        "variant": index,
        "inputs": variant,
        "seeded": len(workload.variants) > 1,
        "trace": trace,
        "reps": [],
        "traced_reps": [],
    }
    clock = EngineClock()
    tracer = Tracer() if trace else None
    cells: dict = {}
    try:
        t0 = time.perf_counter()
        checks.prepared(workload.prepare(variant, work_dir))
        out["prepare_s"] = time.perf_counter() - t0
        clock.install()
        try:
            until = deadline
            if trace:
                now = time.perf_counter()
                until = now + (deadline - now) / 3
            out["reps"], cells = measure(
                workload, variant, work_dir, until, checks, clock
            )
            if trace:
                tracer.install()
                try:
                    out["traced_reps"], _ = measure(
                        workload, variant, work_dir, deadline, checks, clock, tracer
                    )
                finally:
                    tracer.uninstall()
                out["unresolved_entry_points"] = tracer.unresolved
        finally:
            clock.uninstall()
    except Exception:
        checks.fail(workload.name, traceback.format_exc(), max(1, len(checks.expected)))
        traceback.print_exc()
    out.update(
        correct=checks.correct,
        attempted=checks.attempted,
        failed=checks.failed,
        problems=checks.problems,
        metrics={},
    )
    if out["reps"]:
        out["host_scale"] = _median(host_scale(r) for r in out["reps"])
        out["metrics"].update(end_to_end(out["reps"]))
    if out["traced_reps"]:
        out["metrics"].update(per_layer(out["reps"], out["traced_reps"], cells))
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _median(values) -> float:
    return statistics.median(list(values))


def _p95(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=20, method="inclusive")[18] if len(xs) > 1 else xs[0]


def end_to_end(reps: list[dict]) -> dict:
    """Medians over reps of each rep's times scaled by its ``host_scale``,
    and the peak memory of a process that has run the workload once (later
    reps only add the simulator's bounded caches)."""

    def median(value) -> float:
        return _median(value(r, host_scale(r)) for r in reps)

    values = {
        "setup_s": (median(lambda r, k: k * (r["wall_s"] - r["engine_s"])), "s"),
        "wall_s": (median(lambda r, k: k * r["wall_s"]), "s"),
        "sim_cycles_per_s": (median(lambda r, k: r["cycles"] / (k * r["wall_s"])), "1/s"),
        "engine_events_per_s": (
            median(lambda r, k: r["events"] / (k * r["engine_s"])),
            "1/s",
        ),
        "cells_per_min": (median(lambda r, k: 60.0 * r["cells"] / (k * r["wall_s"])), "1/min"),
        "cell_p95_s": (
            median(
                lambda r, k: _p95(
                    [REFERENCE_S / s * c for c, s in zip(r["cell_s"], r["cell_slice_s"])]
                )
            ),
            "s",
        ),
        "peak_rss_mb": (reps[0]["rss_mb"], "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def model_counters(cells: dict) -> dict:
    """Simulated statistics summed over one rep's cells: a pure-speed
    change leaves every one of them unchanged."""
    hits = misses = merges = combines = 0
    l2_requests = l2_atomics = dram = messages = 0
    hops = mem_data = mem_struct = total = 0.0
    for result, _ in cells.values():
        stats = result["stats"]
        for l1 in stats["l1"].values():
            hits += l1["load_hits"]
            misses += l1["load_misses"]
            merges += l1["mshr_merges"]
            combines += l1["sb_combines"]
        l2 = stats["l2"]
        l2_requests += l2["loads"] + l2["stores"] + l2["atomics"]
        l2_atomics += l2["atomics"]
        dram += stats["dram"]["accesses"]
        messages += stats["mesh"]["messages"]
        hops += stats["mesh"]["avg_hops"] * stats["mesh"]["messages"]
        counts = result["breakdown"]["counts"]
        mem_data += counts[StallType.MEM_DATA.value]
        mem_struct += counts[StallType.MEM_STRUCT.value]
        total += sum(counts.values())
    return {
        "sim.engine.events": (
            sum(r["stats"]["engine"]["events"] for r, _ in cells.values()),
            "count",
        ),
        "mem.l1.load_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "mem.l1.mshr_merges": (merges, "count"),
        "mem.l1.sb_combines": (combines, "count"),
        "mem.l2.requests": (l2_requests, "count"),
        "mem.l2.atomics": (l2_atomics, "count"),
        "mem.dram.accesses": (dram, "count"),
        "noc.mesh.messages": (messages, "count"),
        "noc.mesh.avg_hops": (hops / messages if messages else 0.0, "hops"),
        "core.attribution.mem_data_frac": (mem_data / total if total else 0.0, "fraction"),
        "core.attribution.mem_struct_frac": (
            mem_struct / total if total else 0.0,
            "fraction",
        ),
    }


def per_layer(reps: list[dict], traced: list[dict], cells: dict) -> dict:
    """Layer accounts from the traced reps (calls of the first; self time
    and share as medians), the model counters, and the host cost per event
    and tracing overhead against the untraced reps."""
    values = {}
    for layer in LAYERS:
        values[layer + ".calls"] = (traced[0]["layers"][layer][0], "count")
        values[layer + ".self_s"] = (
            _median(r["layers"][layer][1] for r in traced),
            "s",
        )
        values[layer + ".self_frac"] = (
            _median(
                r["layers"][layer][1] / sum(s for _, s in r["layers"].values())
                for r in traced
            ),
            "fraction",
        )
    values.update(model_counters(cells))
    values["sim.engine.host_us_per_event"] = (
        _median(1e6 * r["engine_s"] / r["events"] for r in reps),
        "us",
    )
    values["experiments.replayed_frac"] = (reps[0]["replayed"] / reps[0]["cells"], "fraction")
    values["tracing_overhead"] = (
        _median(r["wall_s"] for r in traced) / _median(r["wall_s"] for r in reps),
        "x",
    )
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _report(out: dict, names: list[str]) -> None:
    w = out["workload"]
    if out["seeded"]:
        print("%s: seed %d -> variant %d %s" % (w, out["seed"], out["variant"], out["inputs"]))
    else:
        print("%s: takes no seed (seed %d ignored)" % (w, out["seed"]))
    print(
        "%d untraced reps, %d traced reps; %d cells attempted, %d failed"
        % (len(out["reps"]), len(out["traced_reps"]), out["attempted"], out["failed"])
    )
    if "host_scale" in out:
        print(
            "end-to-end timings scaled rep by rep to the reference speed (median factor %.4f)"
            % out["host_scale"]
        )
    for problem in out["problems"]:
        print("  FAILED " + problem.strip().splitlines()[-1])
    for name in names:
        metric = out["metrics"].get(name)
        if metric is not None:
            print("  %-34s %14.6g %s" % (name, metric["value"], metric["unit"]))


def main(argv=None) -> int:
    start = time.perf_counter()
    with open(BENCHMARK_PATH, encoding="utf-8") as fh:
        declared = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full record of the run here (JSON)")
    args = parser.parse_args(argv)

    build_dir = os.path.join(ROOT, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="e2e-", dir=build_dir)
    try:
        out = run_benchmark(
            WORKLOADS[args.workload](),
            args.seed,
            args.seconds,
            bool(args.trace),
            load_ledger(LEDGER_PATH),
            work_dir,
            start,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    _report(out, names)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {n: out["metrics"][n] for n in names if n in out["metrics"]},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if out["correct"] and len(result["metrics"]) == len(names) else 1


if __name__ == "__main__":
    sys.exit(main())
