"""Multi-tenant experiment driver: sweep, exports, traced run."""

import json

import pytest

from repro.__main__ import main
from repro.experiments import multi_tenant
from repro.experiments.registry import BY_NAME
from repro.obs.cli import main as trace_main
from repro.obs.perfetto import categories_in, validate_trace


@pytest.fixture(scope="module")
def result():
    return multi_tenant.run(
        loads=(2.0,),
        policies=("fair",),
        seeds=(2011,),
        horizon=300.0,
        chaos=(False, True),
    )


class TestSweep:
    def test_overload_cells_account_every_job(self, result):
        for key, per_seed in result.cells.items():
            report = per_seed[2011]
            assert report["unfinished"] == 0
            assert (
                report["completed"] + report["failed"] + report["shed"]
                == report["jobs"]
            )

    def test_chaos_cell_ran_with_faults(self, result):
        clean = result.cells[(2.0, "fair", False)][2011]
        chaos = result.cells[(2.0, "fair", True)][2011]
        assert clean["offered"] == chaos["offered"]  # same arrivals
        assert clean["makespan"] != chaos["makespan"]

    def test_tenants_have_slo_rows(self, result):
        report = result.cells[(2.0, "fair", False)][2011]
        assert set(report["tenants"]) == {"batch", "interactive", "science"}
        for slo in report["tenants"].values():
            assert slo["latency_p50"] <= slo["latency_p99"]


class TestExports:
    def test_rows_cover_every_cell(self, result):
        header, rows = multi_tenant.to_rows(result)
        assert len(rows) == 2 * 3  # 2 cells x 3 tenants
        assert len(header) == len(rows[0])
        assert "latency_p95_s" in header

    def test_json_roundtrips(self, result):
        blob = json.dumps(multi_tenant.to_json(result), sort_keys=True)
        assert "2x-fair-chaos" in blob
        assert "2x-fair-clean" in blob

    def test_export_writes_files(self, result, tmp_path):
        paths = BY_NAME["tenants"].write_exports(result, tmp_path)
        names = {p.name for p in paths}
        assert names == {"multi_tenant.csv", "multi_tenant.json"}
        for p in paths:
            assert p.stat().st_size > 0

    def test_report_renders(self, result):
        out = multi_tenant.format_report(result)
        assert "offered load 2x" in out
        assert "chaos" in out


class TestTracedRun:
    def test_trace_and_manifest_written(self, tmp_path):
        trace = tmp_path / "tenants.json"
        rc = trace_main(
            ["tenants", "--horizon", "200", "--trace-out", str(trace)]
        )
        assert rc == 0
        assert trace.stat().st_size > 0
        manifest = json.loads((tmp_path / "tenants.json.manifest.json").read_text())
        assert manifest["experiment"] == "tenants"
        assert manifest["config"]["horizon"] == 200.0
        assert "tenant.job" in categories_in(validate_trace(trace))


class TestCli:
    def test_quick_main(self, capsys, tmp_path):
        rc = main(
            [
                "tenants",
                "--quick",
                "--horizon",
                "200",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Multi-tenant scheduling" in out
        assert (tmp_path / "multi_tenant.csv").exists()
        assert (tmp_path / "multi_tenant.json").exists()
