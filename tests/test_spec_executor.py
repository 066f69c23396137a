"""Tests for declarative scenario specs and the sweep executor.

Scenarios are tiny (2 SMs, 1-2 warps) so the whole module stays in the
seconds range even though it runs real simulations, including one through a
2-worker multiprocessing pool.
"""

import json

import pytest

from repro.experiments import executor
from repro.experiments.executor import execute, results_by_name
from repro.experiments.spec import Scenario, Sweep, load_scenarios

#: shared tiny simulation point
TINY = dict(
    workload="streaming",
    workload_args={"num_tbs": 2, "warps_per_tb": 1},
    config={"num_sms": 2},
)


def tiny(name="tiny", **extra) -> Scenario:
    return Scenario(name=name, **TINY, **extra)


class TestScenarioHash:
    def test_hash_is_stable_across_versions(self):
        """The cache key is a contract: changing it silently invalidates
        every on-disk cache, so it is pinned here."""
        s = Scenario("any-name", "streaming", {"num_tbs": 2}, {"num_sms": 2})
        assert s.key() == "78a49d7605b62c62"

    def test_name_and_expect_do_not_affect_hash(self):
        a = tiny("first")
        b = tiny("second", expect={"min_cycles": 1})
        assert a.key() == b.key()

    def test_inputs_affect_hash(self):
        assert tiny().key() != Scenario("x", "streaming", {"num_tbs": 3}).key()
        other = tiny()
        other.config = {"num_sms": 2, "mshr_entries": 8}
        assert tiny().key() != other.key()

    def test_key_order_invariance(self):
        a = Scenario("x", "streaming", config={"num_sms": 2, "mshr_entries": 8})
        b = Scenario("x", "streaming", config={"mshr_entries": 8, "num_sms": 2})
        assert a.key() == b.key()


class TestScenarioSpec:
    def test_round_trip(self):
        s = tiny(expect={"min_cycles": 10})
        assert Scenario.from_dict(s.to_dict()) == s

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario field"):
            Scenario.from_dict({"workload": "streaming", "bogus": 1})

    def test_from_dict_requires_workload(self):
        with pytest.raises(ValueError, match="workload"):
            Scenario.from_dict({"name": "x"})

    def test_validate_rejects_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            Scenario("x", "streeming").validate()

    def test_validate_rejects_unknown_config_field(self):
        with pytest.raises(ValueError, match="bad config override"):
            Scenario("x", "streaming", config={"bogus_field": 1}).validate()

    def test_validate_rejects_bad_workload_args(self):
        with pytest.raises(ValueError, match="bad workload_args"):
            Scenario("x", "streaming", {"num_tbz": 2}).validate()


class TestSweep:
    def test_cartesian_expansion_order(self):
        sweep = Sweep(
            tiny(), {"mshr_entries": [8, 16], "workload.num_tbs": [1, 2]}
        )
        names = [s.name for s in sweep.expand()]
        assert names == [
            "tiny/mshr_entries=8,num_tbs=1",
            "tiny/mshr_entries=8,num_tbs=2",
            "tiny/mshr_entries=16,num_tbs=1",
            "tiny/mshr_entries=16,num_tbs=2",
        ]

    def test_workload_axis_targets_workload_args(self):
        [s] = Sweep(tiny(), {"workload.num_tbs": [5]}).expand()
        assert s.workload_args["num_tbs"] == 5
        assert "workload.num_tbs" not in s.config

    def test_dict_points_merge_linked_overrides(self):
        points = [{"mshr_entries": n, "store_buffer_entries": n} for n in (8, 16)]
        expanded = Sweep(tiny(), {"mshr_entries": points}).expand()
        assert [s.name for s in expanded] == [
            "tiny/mshr_entries=8",
            "tiny/mshr_entries=16",
        ]
        assert expanded[1].config["store_buffer_entries"] == 16

    def test_empty_grid_returns_base(self):
        base = tiny()
        assert Sweep(base, {}).expand() == [base]


class TestExpect:
    def test_violations_reported(self):
        s = tiny(expect={"min_cycles": 10**9, "dominant_stall": "synchronization"})
        [record] = execute([s])
        assert len(record.violations) == 2
        assert not record.ok

    def test_satisfied_expectations(self):
        s = tiny(
            expect={
                "min_cycles": 100,
                "dominant_stall": "memory_data",
                "zero": ["synchronization"],
                "nonzero": ["no_stall"],
            }
        )
        [record] = execute([s])
        assert record.ok, record.violations

    def test_unknown_expect_key_flagged(self):
        [record] = execute([tiny(expect={"bogus": 1})])
        assert any("unknown expect key" in v for v in record.violations)


class TestExecutor:
    def test_parallel_matches_serial(self):
        """The acceptance guarantee: identical breakdowns whatever --jobs."""
        scenarios = Sweep(
            tiny(), {"mshr_entries": [4, 8], "workload.num_tbs": [1, 2]}
        ).expand()
        serial = execute(scenarios, jobs=1)
        parallel = execute(scenarios, jobs=2)
        assert [r.scenario.name for r in serial] == [
            r.scenario.name for r in parallel
        ]
        for a, b in zip(serial, parallel):
            assert a.result.to_dict() == b.result.to_dict()

    def test_cache_hit_skips_resimulation(self, tmp_path, monkeypatch):
        cache = str(tmp_path / "cache")
        first = execute([tiny()], cache_dir=cache)
        assert [r.cached for r in first] == [False]

        def boom(spec_dict):  # pragma: no cover - failure path
            raise AssertionError("cache miss: scenario was re-simulated")

        monkeypatch.setattr(executor, "simulate_scenario", boom)
        second = execute([tiny()], cache_dir=cache)
        assert [r.cached for r in second] == [True]
        assert second[0].result.to_dict() == first[0].result.to_dict()

    def test_renamed_scenario_still_hits_cache(self, tmp_path):
        cache = str(tmp_path / "cache")
        execute([tiny("old-name")], cache_dir=cache)
        [record] = execute([tiny("new-name")], cache_dir=cache)
        assert record.cached

    def test_corrupt_cache_entry_is_resimulated(self, tmp_path):
        cache = tmp_path / "cache"
        [record] = execute([tiny()], cache_dir=str(cache))
        [path] = list(cache.glob("*.json"))
        path.write_text("{not json")
        [again] = execute([tiny()], cache_dir=str(cache))
        assert not again.cached
        assert again.result.to_dict() == record.result.to_dict()
        # the corrupt entry was quarantined aside, not silently overwritten:
        # another writer may be mid-rewrite and forensics need the bytes
        assert list(cache.glob("*.json.bad")) == [
            cache / (path.name + ".bad")
        ]

    def test_duplicate_scenarios_simulated_once(self):
        calls = []
        original = executor.simulate_scenario

        def counting(spec_dict):
            calls.append(spec_dict["name"])
            return original(spec_dict)

        try:
            executor.simulate_scenario = counting
            records = execute([tiny("a"), tiny("b")])
        finally:
            executor.simulate_scenario = original
        assert len(calls) == 1
        assert [r.scenario.name for r in records] == ["a", "b"]
        assert records[0].result.to_dict() == records[1].result.to_dict()

    def test_many_duplicates_deduplicate_in_linear_time(self):
        """500 same-key scenarios: one simulation, and the duplicate scan
        must not be quadratic in the sweep size (it once was)."""
        calls = []
        original = executor.simulate_scenario

        def counting(spec_dict):
            calls.append(spec_dict["name"])
            return original(spec_dict)

        scenarios = [tiny("cell-%03d" % i) for i in range(500)]
        try:
            executor.simulate_scenario = counting
            records = execute(scenarios)
        finally:
            executor.simulate_scenario = original
        assert len(calls) == 1
        assert len(records) == 500
        baseline = records[0].result.to_dict()
        assert all(r.result.to_dict() == baseline for r in records)
        assert all(not r.cached for r in records)

    def test_results_by_name_ordering(self):
        records = execute([tiny("z"), tiny("a")])
        assert list(results_by_name(records)) == ["z", "a"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate scenario name"):
            execute([tiny("same"), tiny("same")])

    @pytest.mark.parametrize("driver", ["unplanned", "planned", "queue"])
    def test_record_hook_sees_every_record(self, monkeypatch, tmp_path, driver):
        from repro.experiments.dispatch import QueueDriver
        from repro.experiments.plan import build_plan

        # a records; b and c replay its trace, so a planned run resolves
        # them in a later wave than a -- the hook must still see a first
        scenarios = [
            Scenario(name, TINY["workload"], TINY["workload_args"],
                     dict(TINY["config"], **overrides))
            for name, overrides in (("a", {}), ("b", {"protocol": "denovo"}),
                                    ("c", {"mshr_entries": 8}))
        ]
        batch, kwargs = scenarios, {}
        if driver != "unplanned":
            batch = build_plan(scenarios, str(tmp_path / "traces"))
            kwargs["cache_dir"] = str(tmp_path / "cache")
        if driver == "queue":
            kwargs["queue"] = QueueDriver(str(tmp_path / "q"), workers=1, poll_s=0.01)
        seen = []
        monkeypatch.setattr(executor, "record_hook", seen.append)
        records = execute(batch, **kwargs)
        assert [r.scenario.name for r in seen] == ["a", "b", "c"]
        assert all(s is r for s, r in zip(seen, records))


class TestLoadScenarios:
    def test_json_file_with_grid(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "scenarios": [
                        dict(TINY, name="base"),
                        dict(TINY, name="swept", grid={"mshr_entries": [4, 8]}),
                    ]
                }
            )
        )
        scenarios = load_scenarios(str(path))
        assert [s.name for s in scenarios] == [
            "base",
            "swept/mshr_entries=4",
            "swept/mshr_entries=8",
        ]

    def test_top_level_list(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([dict(TINY, name="only")]))
        assert [s.name for s in load_scenarios(str(path))] == ["only"]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="non-empty"):
            load_scenarios(str(path))

    def test_yaml_file(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump({"scenarios": [dict(TINY, name="y")]}))
        assert [s.name for s in load_scenarios(str(path))] == ["y"]

    def test_bad_workload_rejected_at_load(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([{"name": "x", "workload": "nope"}]))
        with pytest.raises(ValueError, match="unknown workload"):
            load_scenarios(str(path))
