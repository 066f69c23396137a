"""Tests for the campaign subsystem: spec validation and expansion, the
executor-backed runner (resume-from-cache), matrix rendering, CSV/JSON
round-trips, artifact writing, and the ``repro campaign`` CLI."""

import csv
import io
import json

import pytest

from repro import cli
from repro.experiments.campaign import (
    PROTOCOLS,
    CampaignSpec,
    default_campaign,
    load_campaign,
    run_campaign,
    write_artifacts,
)

#: a tiny two-workload campaign that simulates in well under a second
TINY = {
    "name": "tiny",
    "workloads": [
        {"name": "hist", "workload": "histogram",
         "workload_args": {"elements_per_warp": 4}, "config": {"num_sms": 2}},
        {"name": "gups", "workload": "gups",
         "workload_args": {"updates_per_warp": 8}, "config": {"num_sms": 2}},
    ],
    "hierarchies": {"default": None},
    "protocols": ["gpu", "denovo"],
}


def tiny_spec() -> CampaignSpec:
    return CampaignSpec.from_dict(json.loads(json.dumps(TINY)))


class TestSpec:
    def test_shape_and_names(self):
        spec = tiny_spec()
        scenarios = spec.scenarios()
        assert spec.shape() == (2, 1, 2)
        assert len(scenarios) == 4
        assert [s.name for s in scenarios] == [
            "hist/default/gpu", "hist/default/denovo",
            "gups/default/gpu", "gups/default/denovo",
        ]

    def test_per_workload_config_and_protocol_reach_cells(self):
        for s in tiny_spec().scenarios():
            assert s.config["num_sms"] == 2
            assert s.config["protocol"] in PROTOCOLS

    def test_base_config_beneath_per_workload_overrides(self):
        spec = tiny_spec()
        spec.config = {"num_sms": 8, "mshr_entries": 16}
        cell = spec.scenarios()[0]
        assert cell.config["num_sms"] == 2      # per-workload wins
        assert cell.config["mshr_entries"] == 16  # base fills the rest

    def test_hierarchy_reaches_cells(self):
        from repro.mem.hierarchy import example_shapes

        spec = tiny_spec()
        spec.hierarchies = {"shared-l3": example_shapes()["shared-l3"]}
        for s in spec.scenarios():
            assert s.config["hierarchy"]["label"] == "shared-l3"

    def test_round_trip(self):
        spec = tiny_spec()
        assert CampaignSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    @pytest.mark.parametrize("mutate,match", [
        (lambda d: d.update(workloads=[]), "no workloads"),
        (lambda d: d.update(hierarchies={}), "no hierarchies"),
        (lambda d: d.update(protocols=[]), "no protocols"),
        (lambda d: d.update(protocols=["mesi"]), "unknown protocol"),
        (lambda d: d.update(workloads=[{"name": "x"}]), "needs a 'workload'"),
        (lambda d: d.update(workloads=TINY["workloads"][:1] * 2), "duplicate"),
        (lambda d: d.update(surprise=1), "unknown campaign field"),
    ])
    def test_invalid_specs_rejected(self, mutate, match):
        data = json.loads(json.dumps(TINY))
        mutate(data)
        with pytest.raises(ValueError, match=match):
            CampaignSpec.from_dict(data).scenarios()

    def test_subset_filters(self):
        spec = tiny_spec().subset(workloads=["hist"], protocols=["denovo"])
        assert [s.name for s in spec.scenarios()] == ["hist/default/denovo"]

    def test_slash_in_labels_rejected(self):
        data = json.loads(json.dumps(TINY))
        data["hierarchies"] = {"l3/fast": None}
        with pytest.raises(ValueError, match="must not contain"):
            CampaignSpec.from_dict(data).scenarios()
        data = json.loads(json.dumps(TINY))
        data["workloads"][0]["name"] = "a/b"
        with pytest.raises(ValueError, match="must not contain"):
            CampaignSpec.from_dict(data).scenarios()

    def test_subset_suggests_close_matches(self):
        with pytest.raises(ValueError, match="did you mean hist"):
            tiny_spec().subset(workloads=["hists"])
        with pytest.raises(ValueError, match="unknown protocol"):
            tiny_spec().subset(protocols=["numa"])

    def test_default_campaign_is_at_least_5x2x2(self):
        for fast in (False, True):
            w, h, p = default_campaign(fast).shape()
            assert w >= 5 and h >= 2 and p == 2

    def test_default_campaign_cells_validate(self):
        for s in default_campaign(fast=True).scenarios():
            s.validate()


class TestRunner:
    def test_matrix_shape_and_render(self):
        result = run_campaign(tiny_spec())
        assert len(result.records) == 4
        rows = result.matrix_rows()
        assert {(r["workload"], r["protocol"]) for r in rows} == {
            ("hist", "gpu"), ("hist", "denovo"),
            ("gups", "gpu"), ("gups", "denovo"),
        }
        text = result.render()
        assert "2 workloads x 1 hierarchies x 2 protocols" in text
        assert "hist" in text and "gups" in text

    def test_resume_from_cache(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = run_campaign(tiny_spec(), cache_dir=cache)
        assert not first.fully_cached
        second = run_campaign(tiny_spec(), jobs=2, cache_dir=cache)
        assert second.fully_cached
        assert second.cached_count == len(second.records) == 4
        # cache-served results are byte-identical to fresh ones
        def stable(result):
            cells = {
                name: dict(cell, cached=None, elapsed_s=None)
                for name, cell in result.to_dict()["cells"].items()
            }
            return json.dumps(cells, sort_keys=True)

        assert stable(first) == stable(second)

    def test_json_round_trip(self):
        result = run_campaign(tiny_spec())
        payload = json.loads(json.dumps(result.to_dict(), sort_keys=True))
        assert len(payload["cells"]) == 4
        for cell in payload["cells"].values():
            assert cell["cycles"] > 0
            assert abs(sum(cell["attribution"].values()) - 1.0) < 1e-9
        assert CampaignSpec.from_dict(payload["campaign"]).shape() == (2, 1, 2)

    def test_csv_round_trip(self):
        result = run_campaign(tiny_spec())
        rows = list(csv.DictReader(io.StringIO(result.to_csv())))
        per_cell = len(result.records[0].result.breakdown.rows())
        assert len(rows) == 4 * per_cell
        # cycles survive the text round trip exactly
        for record in result.records:
            workload, hierarchy, protocol = record.scenario.name.split("/")
            got = {
                r["category"]: int(r["cycles"])
                for r in rows
                if (r["workload"], r["hierarchy"], r["protocol"])
                == (workload, hierarchy, protocol)
            }
            assert got == dict(record.result.breakdown.rows())

    def test_write_artifacts(self, tmp_path):
        result = run_campaign(tiny_spec())
        paths = write_artifacts(result, str(tmp_path))
        assert [p.rsplit(".", 1)[1] for p in paths] == ["txt", "json", "csv"]
        data = json.loads((tmp_path / "tiny.json").read_text())
        assert len(data["cells"]) == 4


class TestCli:
    def _spec_file(self, tmp_path) -> str:
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY))
        return str(path)

    def test_campaign_text(self, tmp_path, capsys):
        assert cli.main(["campaign", "--spec", self._spec_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "stall-attribution matrix" in out

    def test_campaign_json_and_out(self, tmp_path, capsys):
        rc = cli.main([
            "campaign", "--spec", self._spec_file(tmp_path),
            "--format", "json", "--out", str(tmp_path / "artifacts"),
            "--jobs", "2", "--cache", str(tmp_path / "cache"),
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["cells"]) == 4
        assert (tmp_path / "artifacts" / "tiny.csv").exists()

    def test_campaign_subset_and_errors(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path)
        assert cli.main(["campaign", "--spec", spec, "--workloads", "hist",
                         "--protocols", "gpu"]) == 0
        assert "1 workloads x 1 hierarchies x 1 protocols" in capsys.readouterr().out
        assert cli.main(["campaign", "--spec", spec, "--workloads", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_campaign_missing_spec_file(self, capsys):
        assert cli.main(["campaign", "--spec", "/nonexistent.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_fast_with_spec_rejected(self, tmp_path, capsys):
        rc = cli.main(["campaign", "--spec", self._spec_file(tmp_path), "--fast"])
        assert rc == 2
        assert "--fast" in capsys.readouterr().err

    def test_unwritable_out_dir_is_clean_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = cli.main(["campaign", "--spec", self._spec_file(tmp_path),
                       "--out", str(blocker / "sub")])
        assert rc == 2
        assert "cannot write artifacts" in capsys.readouterr().err


def _campaign_outputs(out_dir, *flags) -> dict:
    """Run ``repro campaign --fast`` with ``flags``; the matrix text (run
    header and wall-clock line dropped) and the CSV it writes."""
    assert cli.main(["campaign", "--fast", "--quiet", "--out", str(out_dir),
                     *flags]) == 0
    text = (out_dir / "fleet-fast.txt").read_text().splitlines()
    return {
        "matrix": [line for line in text[1:] if not line.startswith("wall clock")],
        "csv": (out_dir / "fleet-fast.csv").read_text(),
    }


@pytest.fixture(scope="module")
def fleet_outputs(tmp_path_factory):
    """The fast fleet unplanned, cold and warm through a --cache, and
    replay-first with --plan."""
    tmp = tmp_path_factory.mktemp("fleet")
    cache = str(tmp / "cache")
    return {
        "plain": _campaign_outputs(tmp / "plain"),
        "cold": _campaign_outputs(tmp / "cold", "--cache", cache),
        "warm": _campaign_outputs(tmp / "warm", "--cache", cache),
        "plan": _campaign_outputs(tmp / "plan", "--cache", str(tmp / "pcache"),
                                  "--plan"),
    }


class TestReplayOnlyWhenAsked:
    def test_cache_does_not_change_the_matrix(self, fleet_outputs):
        plain = fleet_outputs["plain"]
        for run in ("cold", "warm"):
            assert fleet_outputs[run]["csv"] == plain["csv"]
            assert fleet_outputs[run]["matrix"] == plain["matrix"]
        assert not any(line.endswith(",1") for line in plain["csv"].splitlines())

    def test_replayed_rows_are_marked_without_attribution(self, fleet_outputs):
        plan = fleet_outputs["plan"]
        replayed = [line for line in plan["matrix"] if line.endswith("  replay")]
        assert len(replayed) == 12
        for line in replayed:
            assert line.split()[4:] == ["-"] * 6 + ["replay"]
        rows = list(csv.DictReader(io.StringIO(plan["csv"])))
        marked = [r for r in rows if r["replayed"] == "1"]
        assert len(marked) == 12
        assert all(r["category"] == r["cycles"] == "" for r in marked)

    def test_executed_rows_match_the_unplanned_run(self, fleet_outputs):
        plain, plan = fleet_outputs["plain"], fleet_outputs["plan"]
        matrix = [
            line for line in plan["matrix"] if not line.startswith("replay-first:")
        ]
        assert len(matrix) == len(plain["matrix"])
        replayed = 0
        for got, want in zip(matrix, plain["matrix"]):
            if got.endswith("  replay"):
                replayed += 1
                assert got.split()[:3] == want.split()[:3]
            else:
                assert got == want
        assert replayed == 12
        plan_csv = plan["csv"].splitlines()
        replayed_cells = tuple(
            line[:-len(",,1")] for line in plan_csv if line.endswith(",,,1")
        )
        assert len(replayed_cells) == 12
        assert [line for line in plan_csv if not line.endswith(",,,1")] == [
            line for line in plain["csv"].splitlines()
            if not line.startswith(replayed_cells)
        ]


class TestLoadCampaign:
    def test_load_and_run(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(TINY))
        spec = load_campaign(str(path))
        assert spec.shape() == (2, 1, 2)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([1, 2]))
        with pytest.raises(ValueError, match="campaign spec object"):
            load_campaign(str(path))
