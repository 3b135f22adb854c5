"""End-to-end tests for ``python -m repro analyze``."""

import json

import pytest

from repro.obs.analyze_cli import main as analyze_main
from repro.obs.cli import main as trace_main


@pytest.fixture(scope="module")
def fig6_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace") / "fig6.json"
    assert trace_main(["fig6", "--size", "64MB", "--trace-out", str(out)]) == 0
    return out


class TestAnalyzeCli:
    def test_reports_both_systems(self, fig6_trace, capsys):
        assert analyze_main([str(fig6_trace)]) == 0
        out = capsys.readouterr().out
        assert "== hadoop:" in out
        assert "== mpid:" in out
        assert "critical-path blame" in out
        assert "what-if" in out

    def test_blame_pcts_sum_to_100(self, fig6_trace, tmp_path):
        report_path = tmp_path / "report.json"
        assert analyze_main([str(fig6_trace), "--json", str(report_path)]) == 0
        reports = json.loads(report_path.read_text())
        assert set(reports) == {"hadoop", "mpid"}
        for name, report in reports.items():
            pcts = report["critical_path"]["blame_pct"]
            assert sum(pcts.values()) == pytest.approx(100.0), name
            assert report["makespan"] > 0
            assert report["phase_breakdown"]["system"] == name

    def test_system_filter(self, fig6_trace, capsys):
        assert analyze_main([str(fig6_trace), "--system", "mpid"]) == 0
        out = capsys.readouterr().out
        assert "== mpid:" in out
        assert "== hadoop:" not in out

    def test_unknown_system_errors(self, fig6_trace):
        with pytest.raises(SystemExit):
            analyze_main([str(fig6_trace), "--system", "nope"])

    def test_validate_round_trip(self, fig6_trace, capsys):
        # The manifest `repro trace fig6` writes is enough to re-run the
        # top what-if with its knob turned.
        assert analyze_main([str(fig6_trace), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "what-if validation (hadoop, " in out
        assert "re-ran with the knob turned" in out

    def test_validate_without_manifest_fails_loudly(self, fig6_trace, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text(fig6_trace.read_text())
        with pytest.raises(FileNotFoundError, match="manifest"):
            analyze_main([str(bare), "--validate"])


@pytest.fixture(scope="module")
def tenant_store(tmp_path_factory):
    from repro.experiments.capacity import produce_stores

    out = tmp_path_factory.mktemp("stores")
    (path,) = produce_stores(out, seeds=(2011,), horizon=60.0)
    return path


class TestAnalyzeStore:
    def test_jsonl_store_analyzes_via_load_tracer(self, tenant_store, capsys):
        assert analyze_main([str(tenant_store)]) == 0
        out = capsys.readouterr().out
        assert "critical-path blame" in out

    def test_tenants_mode_prints_the_blame_report(self, tenant_store, capsys):
        assert analyze_main([str(tenant_store), "--tenants"]) == 0
        out = capsys.readouterr().out
        assert "tenant" in out.lower()

    def test_tenants_mode_json_report(self, tenant_store, tmp_path):
        report_path = tmp_path / "tenants.json"
        assert analyze_main(
            [str(tenant_store), "--tenants", "--json", str(report_path)]
        ) == 0
        report = json.loads(report_path.read_text())
        assert report["system"] == "tenants"
        assert report["jobs"] >= report["completed"]
        assert "tenants" in report

    def test_tenants_mode_rejects_perfetto_traces(self, fig6_trace):
        with pytest.raises(SystemExit):
            analyze_main([str(fig6_trace), "--tenants"])


@pytest.fixture(scope="module")
def tenants_run(tmp_path_factory):
    """A multi-tenant trace in both formats.  At this horizon some jobs
    are dispatched the instant they are queued (zero-length spans)."""
    out = tmp_path_factory.mktemp("tenants")
    assert trace_main(
        ["tenants", "--horizon", "100", "--stream", "--out-dir", str(out)]
    ) == 0
    return out / "trace.json", out / "tenants.tenants-2x-fair.store.jsonl"


class TestAnalyzeTenantsTrace:
    def test_critical_path_walk_finishes(self, tenants_run, tmp_path):
        for trace in tenants_run:
            report_path = tmp_path / f"{trace.name}.report.json"
            assert analyze_main([str(trace), "--json", str(report_path)]) == 0
            (report,) = json.loads(report_path.read_text()).values()
            pcts = report["critical_path"]["blame_pct"]
            assert sum(pcts.values()) == pytest.approx(100.0), trace.name

    def test_tenants_mode_reads_perfetto_traces(self, tenants_run, tmp_path):
        reports = []
        for trace in tenants_run:
            report_path = tmp_path / f"{trace.name}.tenants.json"
            assert analyze_main(
                [str(trace), "--tenants", "--json", str(report_path)]
            ) == 0
            reports.append(json.loads(report_path.read_text()))
        from_trace, from_store = reports
        assert from_trace["jobs"] == from_store["jobs"] > 0
        assert set(from_trace["tenants"]) == set(from_store["tenants"])
        for tenant, entry in from_store["tenants"].items():
            other = from_trace["tenants"][tenant]
            assert other["jobs"] == entry["jobs"]
            assert other["completed"] == entry["completed"]
            for bucket, seconds in entry["blame_seconds"].items():
                assert other["blame_seconds"][bucket] == pytest.approx(
                    seconds, rel=1e-9
                ), (tenant, bucket)
