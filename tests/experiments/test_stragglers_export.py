"""Stragglers experiment plumbing: seeds sweep, exports, traced run."""

import json

import pytest

from repro.__main__ import main
from repro.experiments import stragglers
from repro.experiments.registry import BY_NAME
from repro.obs.cli import main as trace_main


@pytest.fixture(scope="module")
def results():
    return stragglers.sweep(input_gb=1, slowdown=6.0, seeds=(2011, 2012))


class TestSweep:
    def test_one_result_per_seed(self, results):
        assert sorted(results) == [2011, 2012]
        for r in results.values():
            assert r.degraded.elapsed > r.healthy.elapsed


class TestExports:
    def test_rows_cover_scenarios(self, results):
        header, rows = stragglers.to_rows(results)
        assert len(rows) == 2 * 3  # seeds x scenarios
        assert "spec_reduce_attempts" in header
        scenarios = {row[1] for row in rows}
        assert scenarios == {"healthy", "degraded", "speculative"}

    def test_json_has_full_histories(self, results):
        blob = stragglers.to_json(results)
        assert blob["experiment"] == "stragglers"
        run = blob["runs"]["2011"]
        assert run["speculative"]["speculative_attempts"] >= 0
        assert 0 <= run["degradation_x"]

    def test_export_writes_files(self, results, tmp_path):
        paths = BY_NAME["stragglers"].write_exports(results, tmp_path)
        assert {p.name for p in paths} == {"stragglers.csv", "stragglers.json"}
        for p in paths:
            assert p.stat().st_size > 0


class TestTracedRun:
    def test_trace_and_manifest_written(self, tmp_path):
        trace = tmp_path / "stragglers.json"
        rc = trace_main(
            ["stragglers", "--input-gb", "1", "--trace-out", str(trace)]
        )
        assert rc == 0
        assert trace.stat().st_size > 0
        manifest = json.loads(
            (tmp_path / "stragglers.json.manifest.json").read_text()
        )
        assert manifest["experiment"] == "stragglers"
        assert manifest["sim_elapsed"]["hadoop-stragglers"] > 0


class TestCli:
    def test_main_with_seeds_and_out(self, capsys, tmp_path):
        rc = main(
            ["stragglers", "--input-gb", "1", "--seeds", "2011,2012",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "across seeds 2011,2012" in out
        assert (tmp_path / "stragglers.csv").exists()
