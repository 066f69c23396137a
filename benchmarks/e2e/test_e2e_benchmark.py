"""Tests for the end-to-end benchmark driver (``run.py``) and ``compare.py``.

They push a one-cell 8-node UTS through the driver's own measurement
machinery, so the file runs in seconds.  The driver swaps the executor's
record hook for its own during every rep, so none of these cells reach the
trajectory rows the benchmark conftest writes.
"""

from __future__ import annotations

import json

import compare
import pytest
import run as e2e
from layers import LAYERS

pytestmark = pytest.mark.usefixtures("pause_scenario_recording")


class TinyUts(e2e.Workload):
    name = "tiny-uts"

    def rep(self, variant, rep_dir):
        e2e.executor.execute(
            [e2e.Scenario(self.name, "uts", {"total_nodes": 8, "warps_per_tb": 2}, {"num_sms": 4})]
        )


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    _, cells = e2e.run_rep(TinyUts(), {}, str(tmp_path_factory.mktemp("rep")), e2e.EngineClock())
    return {TinyUts.name: {"0": {n: e2e.ledger_entry(r) for n, (r, _) in cells.items()}}}


@pytest.fixture(scope="module")
def traced(ledger, tmp_path_factory):
    """Two traced runs of one traced rep each (``seconds=0``: one rep per
    phase)."""
    return [
        e2e.run_benchmark(TinyUts(), 0, 0, True, ledger, str(tmp_path_factory.mktemp("w")))
        for _ in range(2)
    ]


def test_tracing_is_inert(traced):
    # The ledger was taken untraced; traced reps must reproduce it bit for bit.
    for out in traced:
        assert len(out["traced_reps"]) == 1
        assert out["correct"] and out["failed"] == 0 and out["attempted"] == 2


def test_layer_calls_repeat_exactly(traced):
    first, second = ([out["metrics"][layer + ".calls"]["value"] for layer in LAYERS] for out in traced)
    assert first == second
    calls = dict(zip(LAYERS, first))
    for layer in ("sim.engine", "gpu.sm", "mem.l1", "mem.l2", "noc.mesh", "system", "experiments"):
        assert calls[layer] > 0, layer
    assert calls["mem.local"] == calls["trace.replay"] == calls["trace.record"] == 0


def test_layer_self_time_sums_to_the_root_span(traced):
    for out in traced:
        rep = out["traced_reps"][0]
        total = sum(self_s for _, self_s in rep["layers"].values())
        assert total == pytest.approx(rep["wall_s"], rel=0.02)


def test_tampered_ledger_fails_every_cell(ledger, tmp_path, monkeypatch, capsys):
    tampered = json.loads(json.dumps(ledger))
    entry = tampered[TinyUts.name]["0"][TinyUts.name]
    entry["sha256"] = "0" * 64
    path = tmp_path / "expected.json"
    path.write_text(json.dumps({"workloads": tampered}))
    monkeypatch.setattr(e2e, "LEDGER_PATH", str(path))
    monkeypatch.setattr(e2e, "ROOT", str(tmp_path))
    monkeypatch.setattr(e2e, "WORKLOADS", {TinyUts.name: TinyUts})
    status = e2e.main(["--workload", TinyUts.name, "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1


def test_emitted_metrics_are_the_declared_ones(ledger, traced, tmp_path):
    with open(e2e.BENCHMARK_PATH, encoding="utf-8") as fh:
        declared = json.load(fh)
    untraced = e2e.run_benchmark(TinyUts(), 0, 0, False, ledger, str(tmp_path))
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    units = {name: m["unit"] for name, m in untraced["metrics"].items()}
    assert units == end_to_end
    units = {name: m["unit"] for name, m in traced[0]["metrics"].items()}
    assert units == {**end_to_end, **per_layer}


def test_timings_are_scaled_rep_by_rep_to_the_reference_speed():
    # The same rep timed at the usual speed and, twice over, on a host at
    # half speed, where the probe's slices take twice their usual time.
    # Cells are scaled by the slices timed inside them: the second cell of
    # the slow reps ran at the usual speed.
    ref = e2e.REFERENCE_S
    rep = {
        "wall_s": 1.0, "engine_s": 0.75, "cycles": 1000, "events": 3000, "cells": 2,
        "cell_s": [0.5, 0.4], "cell_slice_s": [ref, ref], "rss_mb": 10.0, "slice_s": ref,
    }
    slow = {
        **rep, "wall_s": 2.0, "engine_s": 1.5, "cell_s": [1.0, 0.4],
        "cell_slice_s": [2 * ref, ref], "slice_s": 2 * ref,
    }
    metrics = {name: m["value"] for name, m in e2e.end_to_end([rep, slow, slow]).items()}
    assert metrics["wall_s"] == pytest.approx(1.0)
    assert metrics["setup_s"] == pytest.approx(0.25)
    assert metrics["sim_cycles_per_s"] == pytest.approx(1000.0)
    assert metrics["engine_events_per_s"] == pytest.approx(4000.0)
    assert metrics["cells_per_min"] == pytest.approx(120.0)
    assert metrics["cell_p95_s"] == pytest.approx(0.495)
    assert metrics["peak_rss_mb"] == 10.0


def test_probe_slices_are_left_out_of_rep_times(tmp_path):
    handler = e2e.signal.getsignal(e2e.signal.SIGALRM)
    clock = e2e.EngineClock()
    clock.install()
    try:
        timings, _ = e2e.run_rep(TinyUts(), {}, str(tmp_path), clock)
    finally:
        clock.uninstall()
    assert timings["slices"] >= 1 and timings["slice_s"] > 0
    assert 0 < timings["engine_s"] < timings["wall_s"]
    assert timings["cell_s"][0] <= timings["wall_s"]
    assert e2e.signal.getsignal(e2e.signal.SIGALRM) is handler


@pytest.mark.parametrize(
    "change, failed, expected",
    [
        ([10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0], 0, "same"),
        ([12.0, 12.1, 11.9, 12.0, 12.05, 11.95, 12.0, 12.1, 11.9, 12.0], 0, "worse"),
        ([9.0, 9.1, 8.9, 9.0, 9.05, 8.95, 9.0, 9.1, 8.9, 9.0], 0, "better"),
        ([9.0, 9.1, 8.9, 9.0, 9.05, 8.95, 9.0, 9.1, 8.9], 0, "same"),
        ([7.0, 13.0, 7.5, 12.5, 8.0, 12.0, 7.0, 13.0, 7.5, 12.5], 0, "unresolved"),
        # a gain does not count when the change fails more cells
        ([9.0, 9.1, 8.9, 9.0, 9.05, 8.95, 9.0, 9.1, 8.9, 9.0], 1, "failed"),
    ],
)
def test_compare_verdicts(change, failed, expected):
    parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    result = compare.verdict(parent, change, bound=0.1, higher=False, failed_b=failed)
    assert result[0] == expected


def test_compare_exits_nonzero_when_the_change_fails_more(tmp_path, capsys):
    run = {"workload": "uts-exec", "failed": 0, "metrics": {"wall_s": {"value": 2.0, "unit": "s"}}}
    broken = {**run, "failed": 1, "metrics": {}}
    (tmp_path / "a.json").write_text(json.dumps([run] * 10))
    (tmp_path / "b.json").write_text(json.dumps([broken] * 10))
    status = compare.main([str(tmp_path / "a.json"), "--", str(tmp_path / "b.json")])
    assert status == 1
    assert "failed" in capsys.readouterr().out.splitlines()[1]
