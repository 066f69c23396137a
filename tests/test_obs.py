"""In-flight telemetry (:mod:`repro.obs`): inertness, series, timelines.

The crown-jewel property is *provable inertness*: a run with telemetry
attached must produce a field-for-field identical ``SimResult`` to one
without, under both cores -- telemetry observes through the
engine's observer-event lane and pure attribution taps, never through
the simulated machine.
"""

import io
import json
import os

import pytest

from repro.experiments.executor import execute
from repro.experiments.spec import Scenario
from repro.obs import (
    TelemetryConfig,
    TelemetrySession,
    cells_trace,
    read_series,
    summarize_series,
)
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.system import System, run_workload
from repro.workloads import make_workload

CORES = ("python", "fast")


def _run(core, telemetry=None, workload="streaming"):
    return run_workload(
        SystemConfig(core=core, num_sms=2), make_workload(workload), telemetry=telemetry
    )


class TestObserverLane:
    @pytest.mark.parametrize("engine_cls", [Engine])
    def test_observer_events_excluded_from_events_stat(self, engine_cls):
        engine = engine_cls()
        fired = []
        engine.schedule(1, lambda: fired.append("sim"))
        engine.schedule(3, lambda: fired.append("sim"))
        engine.schedule_observer(2, lambda: fired.append("obs"))
        engine.run(max_cycles=100)
        assert fired == ["sim", "obs", "sim"]
        assert engine.events_processed == 3
        assert engine.observer_events == 1
        assert engine.stats()["events"] == 2

    @pytest.mark.parametrize("engine_cls", [Engine])
    def test_pending_sim_events_ignores_observers(self, engine_cls):
        engine = engine_cls()
        engine.schedule(5, lambda: None)
        engine.schedule_observer(1, lambda: None)
        assert engine.pending_events() == 2
        assert engine.pending_sim_events() == 1

    def test_events_stat_is_live_mid_run(self):
        # the per-batch flush makes engine.events_processed visible to
        # observers while the run is still going
        engine = Engine()
        seen = []
        engine.schedule(1, lambda: None)
        engine.schedule(2, lambda: None)
        engine.schedule_observer(3, lambda: seen.append(engine.events_processed))
        engine.run(max_cycles=100)
        assert seen == [2]

    def test_reset_stats_clears_observer_count(self):
        engine = Engine()
        engine.schedule_observer(1, lambda: None)
        engine.run(max_cycles=10)
        assert engine.observer_events == 1
        engine.reset_stats()
        assert engine.observer_events == 0
        assert engine.stats()["events"] == 0


class TestInertness:
    @pytest.mark.parametrize("core", CORES)
    def test_result_identical_with_telemetry_on_vs_off(self, core, tmp_path):
        off = _run(core)
        telemetry = TelemetryConfig(
            out=str(tmp_path / "run.jsonl"),
            timeline_out=str(tmp_path / "run.trace.json"),
            sample_every=250,
            heartbeat=False,
        )
        on = _run(core, telemetry=telemetry)
        assert json.dumps(off.to_dict(), sort_keys=True) == json.dumps(
            on.to_dict(), sort_keys=True
        )
        # the full flattened stats tree too, field for field
        assert off.stats_tree.flatten() == on.stats_tree.flatten()
        # and telemetry actually ran
        assert len(read_series(str(tmp_path / "run.jsonl"))["samples"]) > 2

    @pytest.mark.parametrize("core", CORES)
    def test_trace_replay_identical_with_telemetry(self, core, tmp_path):
        from repro.trace import record_workload, replay_trace

        config = SystemConfig(core=core, num_sms=2)
        _, trace = record_workload(config, make_workload("streaming"))
        off = replay_trace(trace, config=SystemConfig(core=core, num_sms=2))
        telemetry = TelemetryConfig(
            out=str(tmp_path / "replay.jsonl"), sample_every=250, heartbeat=False
        )
        on = replay_trace(
            trace, config=SystemConfig(core=core, num_sms=2), telemetry=telemetry
        )
        assert json.dumps(off.to_dict(), sort_keys=True) == json.dumps(
            on.to_dict(), sort_keys=True
        )
        assert read_series(str(tmp_path / "replay.jsonl"))["samples"]


class TestSeries:
    def test_series_structure_and_deltas(self, tmp_path):
        out = str(tmp_path / "s.jsonl")
        _run("python", TelemetryConfig(out=out, sample_every=300, heartbeat=False))
        series = read_series(out)
        header = series["header"]
        assert header["columns"] == sorted(header["columns"])
        assert "breakdown.memory_data" in header["columns"]
        assert "system.engine.events" in header["columns"]
        samples = series["samples"]
        assert len(samples) > 2
        cycles = [s["cycle"] for s in samples]
        assert cycles == sorted(cycles)
        # deltas really are differences of consecutive values
        for prev, cur in zip(samples, samples[1:]):
            for col in header["columns"]:
                assert cur["deltas"][col] == cur["values"][col] - prev["values"][col]
        end = series["end"]
        assert end is not None and end["ok"]
        assert end["samples"] == len(samples)
        # events stat monotonically grows mid-run (the live per-batch flush)
        events = [s["values"]["system.engine.events"] for s in samples]
        assert events[-1] > events[0] >= 0

    def test_csv_sibling(self, tmp_path):
        out = str(tmp_path / "s.jsonl")
        _run("python", TelemetryConfig(out=out, sample_every=300, heartbeat=False))
        with open(str(tmp_path / "s.csv")) as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["cycle", "wall_s"]
        assert any(c.startswith("d.") for c in header)
        series = read_series(out)
        assert len(lines) == 1 + len(series["samples"])

    def test_extra_sample_stats_patterns(self, tmp_path):
        out = str(tmp_path / "s.jsonl")
        _run(
            "python",
            TelemetryConfig(
                out=out,
                sample_every=500,
                heartbeat=False,
                stats_patterns=("system.sm0.l1.load_*",),
            ),
        )
        columns = read_series(out)["header"]["columns"]
        assert "system.sm0.l1.load_hits" in columns
        assert "system.sm0.l1.load_misses" in columns

    def test_summarize_text_and_csv(self, tmp_path):
        out = str(tmp_path / "s.jsonl")
        _run("python", TelemetryConfig(out=out, sample_every=300, heartbeat=False))
        text = summarize_series(out)
        assert "samples" in text and "breakdown.memory_data" in text
        csv = summarize_series(out, fmt="csv", columns=["breakdown.*"])
        lines = csv.splitlines()
        assert lines[0].startswith("cycle,wall_s,breakdown.")
        assert len(lines) == 1 + len(read_series(out)["samples"])

    def test_summarize_rejects_non_series(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"type":"sample"}\n')
        with pytest.raises(ValueError):
            summarize_series(str(path))


class TestTimeline:
    def test_trace_event_schema_and_coverage(self, tmp_path):
        out = str(tmp_path / "run.trace.json")
        result = _run(
            "python", TelemetryConfig(timeline_out=out, sample_every=300, heartbeat=False)
        )
        with open(out) as fh:
            trace = json.load(fh)
        events = trace["traceEvents"]
        assert trace["otherData"]["time_domain"] == "cycles"
        phases = {e["ph"] for e in events}
        assert {"M", "X", "C"} <= phases
        names = {
            e["args"]["name"] for e in events if e["name"] == "thread_name"
        }
        assert {"sm0", "sm1"} <= names
        spans = [e for e in events if e["ph"] == "X"]
        for span in spans:
            assert span["ts"] >= 0 and span["dur"] > 0
        # every attributed cycle lands in exactly one span: total span
        # length equals the total attributed cycles across SMs
        total_dur = sum(e["dur"] for e in spans)
        assert total_dur == sum(bd.total_cycles for bd in result.per_sm)

    def test_span_cap_records_drops(self, tmp_path):
        out = str(tmp_path / "run.trace.json")
        _run(
            "python",
            TelemetryConfig(
                timeline_out=out, sample_every=2000, heartbeat=False,
                timeline_max_events=5,
            ),
        )
        with open(out) as fh:
            trace = json.load(fh)
        assert trace["otherData"]["dropped_spans"] > 0
        assert len([e for e in trace["traceEvents"] if e["ph"] == "X"]) == 5

    def test_tap_chaining_preserves_existing_observer(self):
        from repro.core.stall_types import StallType
        from repro.obs.trace_event import StallTracks, TraceEventBuilder

        system = System(SystemConfig(num_sms=1))
        seen = []
        prev_tap = lambda *a: seen.append(a)  # noqa: E731 - deliberate slot value
        system.inspector.sm(0).tap = prev_tap
        tracks = StallTracks(TraceEventBuilder(), 1)
        tracks.install(system.inspector)
        system.inspector.sm(0).record(StallType.MEM_DATA, None, 2, at=5)
        assert len(seen) == 1  # the pre-existing tap still fires
        tracks.uninstall()
        assert system.inspector.sm(0).tap is prev_tap


class TestHeartbeat:
    def test_heartbeat_records_and_stderr(self, tmp_path):
        out = str(tmp_path / "hb.jsonl")
        stream = io.StringIO()
        config = SystemConfig(num_sms=2)
        system = System(config)
        session = TelemetrySession(
            TelemetryConfig(out=out, sample_every=200, heartbeat_min_s=0.0),
            system,
            stream=stream,
        )
        session.start()
        result = system.run(make_workload("streaming"))
        session.finalize(result)
        series = read_series(out)
        assert series["heartbeats"]
        beat = series["heartbeats"][-1]
        assert beat["cycle"] > 0
        assert beat["events"] > 0
        assert beat["blocks_total"] > 0
        assert beat["blocks_done"] >= 0
        text = stream.getvalue()
        assert "[repro %s]" % session.run_id in text
        assert "cycle=" in text and "eta=" in text


class TestExecutorProgress:
    def _scenarios(self):
        return [
            Scenario(
                name="s%d" % mshr,
                workload="streaming",
                workload_args={"num_tbs": 2, "warps_per_tb": 1},
                config={"num_sms": 2, "mshr_entries": mshr},
            )
            for mshr in (8, 16)
        ]

    def test_progress_callback_fresh_then_cached(self, tmp_path):
        cache = str(tmp_path / "cache")
        calls = []
        execute(
            self._scenarios(), cache_dir=cache,
            progress=lambda *a: calls.append(a),
        )
        assert [(c[0], c[2], c[3], c[4]) for c in calls] == [
            ("s8", False, 1, 2), ("s16", False, 2, 2),
        ]
        assert all(c[1] > 0 for c in calls)  # elapsed
        calls.clear()
        execute(
            self._scenarios(), cache_dir=cache,
            progress=lambda *a: calls.append(a),
        )
        assert [(c[0], c[2], c[3], c[4]) for c in calls] == [
            ("s8", True, 1, 2), ("s16", True, 2, 2),
        ]

    def test_timing_fields_set_fresh_absent_cached(self, tmp_path):
        cache = str(tmp_path / "cache")
        fresh = execute(self._scenarios(), cache_dir=cache)
        for record in fresh:
            assert record.t_start_s is not None
            assert record.t_end_s >= record.t_start_s
            assert record.worker_pid == os.getpid()
            # the serialized record shape is frozen (sweep JSON identity)
            assert set(record.to_dict()) == {
                "scenario", "key", "result", "elapsed_s", "cached", "violations",
            }
        cached = execute(self._scenarios(), cache_dir=cache)
        for record in cached:
            assert record.cached
            assert record.t_start_s is None and record.worker_pid is None

    def test_per_cell_telemetry_files_and_index(self, tmp_path):
        out_dir = str(tmp_path / "tel")
        scenarios = self._scenarios()
        records = execute(
            scenarios,
            telemetry={"out_dir": out_dir, "sample_every": 300},
        )
        index = json.load(open(os.path.join(out_dir, "index.json")))
        assert set(index["cells"]) == {"s8", "s16"}
        for scenario, record in zip(scenarios, records):
            key = scenario.key()
            assert index["cells"][scenario.name]["key"] == key
            series = read_series(os.path.join(out_dir, "%s.jsonl" % key))
            assert series["header"]["run"] == key
            assert series["header"]["label"] == scenario.name
            assert series["samples"]
            assert not series["heartbeats"]  # workers never heartbeat

    def test_telemetry_does_not_change_executor_results(self, tmp_path):
        plain = execute(self._scenarios())
        with_tel = execute(
            self._scenarios(),
            telemetry={"out_dir": str(tmp_path / "tel"), "sample_every": 300},
        )
        for a, b in zip(plain, with_tel):
            assert json.dumps(a.result.to_dict(), sort_keys=True) == json.dumps(
                b.result.to_dict(), sort_keys=True
            )

    def test_cells_trace(self, tmp_path):
        cache = str(tmp_path / "cache")
        records = execute(self._scenarios(), cache_dir=cache)
        trace = cells_trace(records)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {s["name"] for s in spans} == {"s8", "s16"}
        assert all(s["dur"] >= 0 for s in spans)
        assert trace["otherData"]["time_domain"] == "wall"
        # cached cells degrade to instants
        cached = execute(self._scenarios(), cache_dir=cache)
        trace2 = cells_trace(cached)
        instants = [e for e in trace2["traceEvents"] if e["ph"] == "i"]
        assert {i["name"] for i in instants} == {"s8 (cached)", "s16 (cached)"}
        assert not [e for e in trace2["traceEvents"] if e["ph"] == "X"]


class TestDeadRunTermination:
    @pytest.mark.parametrize("engine_cls", [Engine])
    def test_sampler_does_not_keep_dead_engine_alive(self, engine_cls):
        # an engine whose simulation work runs dry must still terminate
        # with a sampler attached: the sampler refuses to re-arm when only
        # observer events remain pending
        engine = engine_cls()
        engine.schedule(10, lambda: None)

        def sample():
            if engine._active or engine.pending_sim_events() > 0:
                engine.schedule_observer(5, sample)

        engine.schedule_observer(5, sample)
        end = engine.run(max_cycles=1000)
        # the clock stopped at (or just past) the last real event; it did
        # not run to the 1000-cycle livelock guard
        assert end <= 20
