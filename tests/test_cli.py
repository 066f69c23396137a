"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import WORKLOADS, build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in WORKLOADS:
            assert name in out

    def test_table51_command(self, capsys):
        assert main(["table51"]) == 0
        assert "Table 5.1" in capsys.readouterr().out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bogus"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRun:
    def test_run_streaming(self, capsys):
        assert main(["run", "streaming", "--sms", "2"]) == 0
        out = capsys.readouterr().out
        assert "execution:" in out
        assert "no_stall" in out

    def test_run_with_timeline_and_energy(self, capsys):
        assert main(
            ["run", "streaming", "--sms", "1", "--timeline", "256", "--energy"]
        ) == 0
        out = capsys.readouterr().out
        assert "one column = 256 cycles" in out
        assert "energy by component" in out

    def test_run_denovo_reduction(self, capsys):
        assert main(
            ["run", "reduction", "--sms", "2", "--protocol", "denovo", "--warps", "2"]
        ) == 0
        assert "reduction" in capsys.readouterr().out

    def test_run_per_sm(self, capsys):
        assert main(["run", "streaming", "--sms", "2", "--per-sm"]) == 0
        out = capsys.readouterr().out
        assert "sm0" in out and "sm1" in out

    def test_run_uts_small(self, capsys):
        assert main(
            ["run", "uts", "--sms", "2", "--nodes", "20", "--warps", "2"]
        ) == 0
        assert "synchronization" in capsys.readouterr().out

    def test_run_gto_scheduler(self, capsys):
        assert main(["run", "streaming", "--sms", "1", "--scheduler", "gto"]) == 0

    def test_run_implicit_stash(self, capsys):
        assert main(["run", "implicit_stash", "--warps", "4"]) == 0
        assert "implicit_stash" in capsys.readouterr().out

    def test_run_with_set_overrides(self, capsys):
        assert main(
            ["run", "streaming", "--sms", "2", "--set", "l2_banks=8",
             "--set", "hop_latency=5"]
        ) == 0
        assert "execution:" in capsys.readouterr().out

    def test_run_bad_set_override_exits_2(self, capsys):
        assert main(["run", "streaming", "--set", "l2_banks=7"]) == 2
        assert "power of two" in capsys.readouterr().err
        assert main(["run", "streaming", "--set", "nonsense"]) == 2
        assert "FIELD=VALUE" in capsys.readouterr().err

    def test_run_with_hierarchy_file(self, tmp_path, capsys):
        from repro.mem.hierarchy import example_shapes

        path = tmp_path / "shape.json"
        path.write_text(json.dumps(example_shapes()["l1-bypass"]))
        assert main(
            ["run", "streaming", "--sms", "2", "--hierarchy", str(path)]
        ) == 0
        assert "execution:" in capsys.readouterr().out

    def test_run_with_bad_hierarchy_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"levels": []}))
        assert main(["run", "streaming", "--hierarchy", str(path)]) == 2
        assert "non-empty 'levels'" in capsys.readouterr().err
        assert main(["run", "streaming", "--hierarchy", "missing.json"]) == 2


class TestOptionChecks:
    """Bad numeric options exit 2 with ``error:`` before anything runs."""

    @pytest.mark.parametrize("argv, option", [
        (["sweep", "missing.json", "--jobs", "0"], "--jobs"),
        (["campaign", "--jobs", "-1"], "--jobs"),
        (["campaign", "--sample-every", "0", "--telemetry", "D"], "--sample-every"),
        (["campaign", "--workers", "-1"], "--workers"),
        (["run", "streaming", "--warps", "0"], "--warps"),
        (["report", "build", "--jobs", "0"], "--jobs"),
    ])
    def test_bad_value_exits_2(self, argv, option, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s must be >= " % option)
        assert list(tmp_path.iterdir()) == []

    def test_experiments_runner_rejects_jobs_0(self, capsys):
        from repro.experiments import runner

        assert runner.main(["--jobs", "0", "table5.1"]) == 2
        assert capsys.readouterr().err.startswith("error: --jobs must be >= 1")


class TestSweep:
    @pytest.fixture
    def spec_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "name": "s",
                        "workload": "streaming",
                        "workload_args": {"num_tbs": 2, "warps_per_tb": 1},
                        "config": {"num_sms": 2},
                        "grid": {"mshr_entries": [8, 16]},
                    }
                ]
            )
        )
        return str(path)

    def test_sweep_text(self, spec_file, capsys):
        assert main(["sweep", spec_file]) == 0
        out = capsys.readouterr().out
        assert "2 scenario(s)" in out
        assert "s/mshr_entries=8" in out
        assert "execution time breakdown" in out

    def test_sweep_json_and_out_file(self, spec_file, capsys, tmp_path):
        out_file = str(tmp_path / "report.json")
        assert main(["sweep", spec_file, "--format", "json", "--out", out_file]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"s/mshr_entries=8", "s/mshr_entries=16"}
        assert data["s/mshr_entries=8"]["result"]["cycles"] > 0
        with open(out_file) as fh:
            assert json.load(fh) == data

    def test_sweep_csv(self, spec_file, capsys):
        assert main(["sweep", spec_file, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("config,category,cycles")

    def test_sweep_cache_round_trip(self, spec_file, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["sweep", spec_file, "--cache", cache]) == 0
        first = capsys.readouterr().out
        assert "cached" not in first
        assert main(["sweep", spec_file, "--cache", cache]) == 0
        assert "cached" in capsys.readouterr().out

    def test_sweep_failed_expectation_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "name": "impossible",
                        "workload": "streaming",
                        "workload_args": {"num_tbs": 2, "warps_per_tb": 1},
                        "config": {"num_sms": 2},
                        "expect": {"max_cycles": 1},
                    }
                ]
            )
        )
        assert main(["sweep", str(path)]) == 1
        captured = capsys.readouterr()
        assert "CHECK FAILED" in captured.out
        assert "expected-shape violations" in captured.err


class TestTelemetry:
    def test_run_with_telemetry_and_timeline_trace(self, tmp_path, capsys):
        series = str(tmp_path / "run.jsonl")
        trace = str(tmp_path / "run.trace.json")
        assert main(
            ["run", "streaming", "--sms", "2", "--quiet",
             "--telemetry", series, "--sample-every", "500",
             "--timeline", trace]
        ) == 0
        captured = capsys.readouterr()
        assert "execution:" in captured.out
        assert series in captured.err and trace in captured.err
        from repro.obs import read_series

        assert read_series(series)["samples"]
        payload = json.load(open(trace))
        assert payload["traceEvents"]

    def test_run_ascii_timeline_still_works(self, capsys):
        # --timeline is polymorphic: a bare integer keeps the historical
        # ASCII rendering, a path writes a Chrome trace
        assert main(["run", "streaming", "--sms", "1", "--timeline", "128"]) == 0
        assert "one column = 128 cycles" in capsys.readouterr().out

    def test_run_rejects_bad_sample_every(self, capsys):
        assert main(
            ["run", "streaming", "--telemetry", "x.jsonl", "--sample-every", "0"]
        ) == 2
        assert "sample-every" in capsys.readouterr().err

    def test_telemetry_summarize(self, tmp_path, capsys):
        series = str(tmp_path / "run.jsonl")
        main(["run", "streaming", "--sms", "2", "--quiet",
              "--telemetry", series, "--sample-every", "500"])
        capsys.readouterr()
        assert main(["telemetry", "summarize", series]) == 0
        out = capsys.readouterr().out
        assert "samples" in out and "breakdown.memory_data" in out

    def test_telemetry_summarize_missing_file_exits_2(self, tmp_path, capsys):
        assert main(
            ["telemetry", "summarize", str(tmp_path / "nope.jsonl")]
        ) == 2
        assert capsys.readouterr().err

    def test_sweep_per_cell_telemetry(self, tmp_path, capsys):
        spec = tmp_path / "sweep.json"
        spec.write_text(
            json.dumps(
                [
                    {
                        "name": "cell%d" % n,
                        "workload": "streaming",
                        "workload_args": {"num_tbs": 2, "warps_per_tb": 1},
                        "config": {"num_sms": 2, "mshr_entries": 8 * n},
                    }
                    for n in (1, 2)
                ]
            )
        )
        out_dir = str(tmp_path / "tel")
        trace = str(tmp_path / "cells.trace.json")
        assert main(
            ["sweep", str(spec), "--telemetry", out_dir,
             "--sample-every", "400", "--timeline", trace]
        ) == 0
        captured = capsys.readouterr()
        # progress lines ride stderr, one per cell, and never touch stdout
        assert captured.err.count("cell1") == 1
        assert captured.err.count("cell2") == 1
        index = json.load(open(str(tmp_path / "tel" / "index.json")))
        assert set(index["cells"]) == {"cell1", "cell2"}
        cells = json.load(open(trace))
        assert [e for e in cells["traceEvents"] if e["ph"] == "X"]

    def test_sweep_quiet_suppresses_progress(self, tmp_path, capsys):
        spec = tmp_path / "sweep.json"
        spec.write_text(
            json.dumps(
                [
                    {
                        "name": "solo",
                        "workload": "streaming",
                        "workload_args": {"num_tbs": 2, "warps_per_tb": 1},
                        "config": {"num_sms": 2},
                    }
                ]
            )
        )
        assert main(["sweep", str(spec), "--quiet"]) == 0
        assert "solo" not in capsys.readouterr().err
