"""Round-trip tests for the results database and report generator.

Every ingestion path (executor records, campaign matrices, benchmark
records, telemetry series, raw cache entries) is fed from a real tiny
simulation and then queried back out, asserting the source numbers are
recoverable by SQL.  The report half proves the headline contract:
``repro report build`` twice is byte-identical (manifest-equal), and the
manifest/diff/query CLI surfaces behave.
"""

import json
import shutil

import pytest

from repro import cli
from repro.core.report import matrix_attribution
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.executor import execute
from repro.experiments.spec import Scenario
from repro.results import report_gen
from repro.results.db import ResultsDB, file_sha256

#: shared tiny simulation point (mirrors tests/test_spec_executor.py)
TINY = dict(
    workload="streaming",
    workload_args={"num_tbs": 2, "warps_per_tb": 1},
    config={"num_sms": 2},
)

#: a tiny two-workload campaign (mirrors tests/test_campaign.py)
TINY_CAMPAIGN = {
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


def tiny(name="tiny", **extra) -> Scenario:
    return Scenario(name=name, **{**TINY, **extra})


def tiny_spec() -> CampaignSpec:
    return CampaignSpec.from_dict(json.loads(json.dumps(TINY_CAMPAIGN)))


# ---------------------------------------------------------------------------
# live-object ingestion: executor records
# ---------------------------------------------------------------------------

class TestIngestRecords:
    def test_every_source_number_recoverable(self, tmp_path):
        records = execute([tiny()])
        record = records[0]
        with ResultsDB(str(tmp_path / "r.db")) as db:
            assert db.ingest_records(records) == 1

            _, rows = db.query(
                "SELECT key, name, workload, cycles, instructions, cached"
                " FROM runs WHERE source = 'executor'"
            )
            assert rows == [(
                record.scenario.key(), "tiny", "streaming",
                record.result.cycles, record.result.instructions, 0,
            )]

            # the stall breakdown rows are the exact StallBreakdown labels
            _, bd = db.query(
                "SELECT category, cycles FROM breakdown ORDER BY rowid"
            )
            assert bd == [(c, v) for c, v in record.result.breakdown.rows()]

            # a nested stat leaf is addressable by dotted path
            _, ev = db.query(
                "SELECT value FROM stats WHERE path = 'engine.events'"
            )
            assert ev[0][0] == record.result.stats["engine"]["events"]

    def test_reingest_replaces_not_duplicates(self, tmp_path):
        records = execute([tiny()])
        with ResultsDB(str(tmp_path / "r.db")) as db:
            db.ingest_records(records)
            db.ingest_records(records)
            summary = db.summary()
            assert summary["runs"] == 1
            assert summary["breakdown"] == len(records[0].result.breakdown.rows())
            # provenance keeps both ingestion events
            assert summary["ingests"] == 2
            cols, _ = db.query("SELECT * FROM ingests")
            assert cols == ["id", "kind", "source", "git_sha", "python_version"]
            _, version = db.query(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            )
            assert version == [("3",)]

    def test_executor_results_db_hook(self, tmp_path):
        db_path = str(tmp_path / "hook.db")
        execute([tiny("a"), tiny("b", config={"num_sms": 2, "mshr_entries": 4})],
                results_db=db_path)
        with ResultsDB(db_path) as db:
            _, rows = db.query("SELECT name FROM runs ORDER BY name")
            assert [r[0] for r in rows] == ["a", "b"]


# ---------------------------------------------------------------------------
# live-object ingestion: campaign matrices
# ---------------------------------------------------------------------------

class TestIngestCampaign:
    def test_attribution_matches_matrix(self, tmp_path):
        result = run_campaign(tiny_spec(), cache_dir=str(tmp_path / "cache"))
        with ResultsDB(str(tmp_path / "c.db")) as db:
            db.ingest_campaign(result)
            _, cells = db.query(
                "SELECT cell, workload, hierarchy, protocol, cycles,"
                " no_stall, mem_data, mem_struct, sync, compute, other"
                " FROM campaign_cells WHERE campaign = 'tiny' ORDER BY rowid"
            )
        matrix = result.matrix_rows()
        assert len(cells) == len(matrix) == 4
        for got, row in zip(cells, matrix):
            frac = matrix_attribution(row["breakdown"])
            assert got[0] == row["record"].scenario.name
            assert got[1:5] == (row["workload"], row["hierarchy"],
                                row["protocol"], row["cycles"])
            assert got[5:] == pytest.approx((
                frac["no_stall"], frac["mem_data"], frac["mem_struct"],
                frac["sync"], frac["compute"], frac["other"],
            ))

    def test_campaign_runs_ingested_alongside_cells(self, tmp_path):
        result = run_campaign(tiny_spec(), cache_dir=str(tmp_path / "cache"))
        with ResultsDB(str(tmp_path / "c.db")) as db:
            db.ingest_campaign(result)
            _, rows = db.query(
                "SELECT COUNT(*) FROM runs WHERE source = 'campaign'"
                " AND experiment = 'tiny'"
            )
            assert rows[0][0] == 4


# ---------------------------------------------------------------------------
# file ingestion: cache entries, benchmark records, telemetry series
# ---------------------------------------------------------------------------

class TestIngestFiles:
    def test_cache_dir_round_trip(self, tmp_path):
        cache = str(tmp_path / "cache")
        records = execute([tiny()], cache_dir=cache)
        with ResultsDB(str(tmp_path / "r.db")) as db:
            assert db.ingest_cache_dir(cache) == 1
            _, rows = db.query(
                "SELECT key, cycles FROM runs WHERE source = 'cache'"
            )
            assert rows == [(records[0].scenario.key(),
                             records[0].result.cycles)]
            # the cache entry's breakdown survives label reconstruction
            _, bd = db.query("SELECT category, cycles FROM breakdown")
            assert dict(bd) == dict(records[0].result.breakdown.rows())

    def test_missing_cache_dir_is_loud(self, tmp_path):
        with ResultsDB(str(tmp_path / "r.db")) as db:
            with pytest.raises(ValueError, match="cache directory"):
                db.ingest_cache_dir(str(tmp_path / "nope"))

    def test_e2e_round_trip(self, tmp_path):
        def record(workload, seed, wall_s):
            return {"workload": workload, "seed": seed, "correct": True,
                    "metrics": {"wall_s": {"unit": "s", "value": wall_s}}}

        path = tmp_path / "run-1.json"
        path.write_text(json.dumps([
            record("uts-exec", 1, 2.0), record("uts-replay", 1, 0.5),
            record("uts-exec", 2, 3.0), record("uts-exec", 3, 9.0),
        ]))
        with ResultsDB(str(tmp_path / "b.db")) as db:
            assert db.ingest_e2e(str(path)) == 4
            assert db.ingest_e2e(str(path)) == 4  # replaces, not duplicates
            _, rows = db.query(
                "SELECT workload, seed, metric, unit, value FROM e2e_metrics"
                " ORDER BY record"
            )
            assert rows == [("uts-exec", 1, "wall_s", "s", 2.0),
                            ("uts-replay", 1, "wall_s", "s", 0.5),
                            ("uts-exec", 2, "wall_s", "s", 3.0),
                            ("uts-exec", 3, "wall_s", "s", 9.0)]
            # the report shows each workload's median
            assert report_gen._collect_perf(db, str(path))["medians"] == [
                {"workload": "uts-exec", "metric": "wall_s", "unit": "s",
                 "runs": 3, "median": 3.0},
                {"workload": "uts-replay", "metric": "wall_s", "unit": "s",
                 "runs": 1, "median": 0.5},
            ]
            # the source file lands in the content-hash ledger
            _, arts = db.query(
                "SELECT sha256 FROM artifacts WHERE kind = 'e2e'"
            )
            assert arts[0][0] == file_sha256(str(path))

    def test_telemetry_round_trip(self, tmp_path):
        tel_dir = str(tmp_path / "tel")
        records = execute(
            [tiny()], telemetry={"out_dir": tel_dir, "sample_every": 50}
        )
        key = records[0].scenario.key()
        with ResultsDB(str(tmp_path / "t.db")) as db:
            assert db.ingest_telemetry(tel_dir) == 1
            _, series = db.query(
                "SELECT run_key, label, sample_count FROM telemetry_series"
            )
            assert series[0][0] == key
            assert series[0][1] == "tiny"
            assert series[0][2] >= 1
            _, samples = db.query(
                "SELECT COUNT(*) FROM telemetry_samples"
            )
            assert samples[0][0] >= series[0][2]  # >= 1 column per sample

    def test_artifact_ledger(self, tmp_path):
        golden = tmp_path / "fig.txt"
        golden.write_text("golden bytes\n")
        with ResultsDB(str(tmp_path / "a.db")) as db:
            assert db.ingest_artifact_files(str(tmp_path), "golden") >= 1
            _, rows = db.query(
                "SELECT sha256, bytes FROM artifacts WHERE path = ?",
                (str(golden),),
            )
            assert rows == [(file_sha256(str(golden)), 13)]


# ---------------------------------------------------------------------------
# report: build twice == byte-identical; manifest/diff/query CLI
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def built_reports(tmp_path_factory):
    """Two report builds from one shared cache (second is cache-served);
    absent baseline/goldens paths keep the report self-contained."""
    tmp = tmp_path_factory.mktemp("report")
    cache = str(tmp / "cache")
    db_path = str(tmp / "results.db")
    dirs = []
    for name in ("r1", "r2"):
        out = str(tmp / name)
        with ResultsDB(db_path) as db:
            report_gen.build(
                out, db, fast=True, jobs=1, cache_dir=cache,
                experiments=["fig6.3", "campaign"],
                baseline_path=str(tmp / "absent.json"),
                goldens_dir=str(tmp / "absent"),
            )
        dirs.append(out)
    return {"dirs": dirs, "db": db_path, "tmp": tmp}


class TestReportBuild:
    def test_build_twice_is_byte_identical(self, built_reports):
        a, b = built_reports["dirs"]
        assert report_gen.diff_reports(a, b) == []

    def test_manifest_verifies(self, built_reports):
        for out in built_reports["dirs"]:
            assert report_gen.check_manifest(out) == []

    def test_document_model_round_trip(self, built_reports):
        with open(built_reports["dirs"][0] + "/report.json") as fh:
            doc = json.load(fh)
        assert doc["report_version"] == report_gen.REPORT_VERSION
        assert doc["mode"] == "fast"
        assert [e["name"] for e in doc["experiments"]] == ["fig6.3-implicit"]
        exp = doc["experiments"][0]
        assert exp["runs"] and all(r["cycles"] > 0 for r in exp["runs"])
        assert exp["claims"] and all("holds" in c for c in exp["claims"])
        assert doc["campaign"]["cells"]
        for cell in doc["campaign"]["cells"]:
            total = sum(v for v in cell["attribution"].values()
                        if v is not None)
            assert total == pytest.approx(1.0, abs=0.01)

    def test_database_queryable_after_build(self, built_reports):
        with ResultsDB(built_reports["db"]) as db:
            _, rows = db.query(
                "SELECT COUNT(*) FROM claims WHERE experiment ="
                " 'fig6.3-implicit'"
            )
            assert rows[0][0] > 0
            _, cells = db.query("SELECT COUNT(*) FROM campaign_cells")
            assert cells[0][0] > 0

    def test_unknown_experiment_rejected(self, tmp_path):
        with ResultsDB(str(tmp_path / "x.db")) as db:
            with pytest.raises(ValueError, match="unknown report experiment"):
                report_gen.build(str(tmp_path / "out"), db,
                                 experiments=["bogus"])

    def test_renderers_cover_document(self, built_reports):
        out = built_reports["dirs"][0]
        md = open(out + "/report.md").read()
        tex = open(out + "/report.tex").read()
        assert "## fig6.3-implicit" in md
        assert "## campaign:" in md
        assert tex.startswith(r"\documentclass")
        assert r"\end{document}" in tex
        # determinism guard: no build dates anywhere in the report
        assert r"\maketitle" not in tex and r"\today" not in tex


class TestReportCli:
    def test_query_tables(self, built_reports, capsys):
        rc = cli.main(["report", "query", "--db", built_reports["db"],
                       "--tables"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "runs" in out and "campaign_cells" in out

    def test_query_sql_json(self, built_reports, capsys):
        rc = cli.main([
            "report", "query", "--db", built_reports["db"], "--json",
            "SELECT experiment, COUNT(*) AS n FROM runs GROUP BY experiment"
            " ORDER BY experiment",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(row["n"] > 0 for row in payload)

    def test_query_missing_db_is_loud(self, tmp_path, capsys):
        rc = cli.main(["report", "query", "--db", str(tmp_path / "no.db"),
                       "--tables"])
        assert rc == 2
        assert "no results database" in capsys.readouterr().err

    def test_query_bad_sql_is_loud(self, built_reports, capsys):
        rc = cli.main(["report", "query", "--db", built_reports["db"],
                       "SELECT nope FROM nowhere"])
        assert rc == 2

    def test_diff_identical(self, built_reports, capsys):
        a, b = built_reports["dirs"]
        rc = cli.main(["report", "diff", a, b])
        assert rc == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_manifest_check_ok(self, built_reports, capsys):
        rc = cli.main(["report", "manifest", built_reports["dirs"][0],
                       "--check"])
        assert rc == 0
        assert "manifest OK" in capsys.readouterr().out

    def test_manifest_check_catches_tamper(self, built_reports, capsys):
        tampered = str(built_reports["tmp"] / "tampered")
        shutil.copytree(built_reports["dirs"][1], tampered)
        with open(tampered + "/report.md", "a") as fh:
            fh.write("tampered\n")
        rc = cli.main(["report", "manifest", tampered, "--check"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "manifest check FAILED" in err and "report.md" in err
        rc = cli.main(["report", "diff", built_reports["dirs"][0], tampered])
        assert rc == 1

    def test_manifest_print_matches_sha256sum_format(self, built_reports,
                                                     capsys):
        rc = cli.main(["report", "manifest", built_reports["dirs"][0]])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [ln.split("  ")[1] for ln in lines] == sorted(
            report_gen.REPORT_FILES
        )
        assert all(len(ln.split("  ")[0]) == 64 for ln in lines)

    def test_build_unknown_experiment_exits_2(self, tmp_path, capsys):
        rc = cli.main([
            "report", "build", "--out", str(tmp_path / "out"),
            "--db", str(tmp_path / "x.db"), "--experiments", "bogus",
        ])
        assert rc == 2
        assert "unknown report experiment" in capsys.readouterr().err
