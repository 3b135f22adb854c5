"""Tests for the observability-era exporters: JSON dumps + metric dumps."""

import pytest

from repro.experiments import fault_tolerance
from repro.experiments.export import (
    fault_tolerance_csv,
    fault_tolerance_json,
    fig6_json,
    obs_metrics_csv,
    obs_metrics_json,
)
from repro.experiments.fig6_wordcount import run as fig6_run
from repro.obs import Observer


@pytest.fixture(scope="module")
def fig6_result():
    return fig6_run(sizes_gb=(1,))


@pytest.fixture(scope="module")
def fault_result():
    return fault_tolerance.run(
        input_gb=1,
        seeds=(2011,),
        rates_per_hour=(40.0,),
        keep_task_records=True,
    )


class TestFig6Json:
    def test_shape(self, fig6_result):
        data = fig6_json(fig6_result)
        assert data["experiment"] == "fig6_wordcount"
        assert data["sizes_gb"] == [1]
        assert set(data["hadoop"]) == {"1"} and set(data["mpid"]) == {"1"}

    def test_carries_per_task_records(self, fig6_result):
        data = fig6_json(fig6_result)
        hadoop = data["hadoop"]["1"]
        assert hadoop["map_tasks"], "per-map phase records must be present"
        assert hadoop["reduce_tasks"]
        assert data["mpid"]["1"]  # MrMpiMetrics.to_dict payload

    def test_registered_for_export_all(self):
        from repro.experiments.registry import BY_NAME

        assert ("fig6_wordcount.json", "export.fig6_json") in BY_NAME["fig6"].exports
        assert (
            "fault_tolerance.json", "export.fault_tolerance_json"
        ) in BY_NAME["fault"].exports


class TestFaultToleranceExports:
    def test_csv_has_mpid_wasted_column(self, fault_result):
        header, rows = fault_tolerance_csv(fault_result)
        wasted = header.index("mpid_wasted_task_s")
        assert header[-1] == "hadoop_failure_why"
        assert all(len(r) == len(header) for r in rows)
        clean, faulted = rows[0], rows[1]
        assert clean[0] == 0.0 and clean[wasted] == 0.0 and clean[-1] == ""
        assert faulted[0] == 40.0

    def test_json_shape(self, fault_result):
        data = fault_tolerance_json(fault_result)
        assert data["experiment"] == "fault_tolerance"
        assert data["rates_per_hour"] == [40.0]
        # Clean-run records ride along under rate 0.0.
        assert set(data["hadoop_task_records"]) == {"0.0", "40.0"}
        faults = data["mpid_faults"]["40.0"]
        assert "wasted_task_seconds" in faults
        assert data["mpid_wasted_task_seconds"]["40.0"] == pytest.approx(
            faults["wasted_task_seconds"]
        )

    def test_mpid_wasted_consistent_with_fault_summary(self, fault_result):
        # The 1 GB MPI-D job is so short the seeded crash timeline may
        # miss it entirely; either way the accounting must be coherent:
        # zero restarts means zero waste, restarts mean positive waste.
        restarts = fault_result.mpid_restarts[40.0]
        wasted = fault_result.mpid_wasted[40.0]
        assert wasted == pytest.approx(
            fault_result.mpid_faults[40.0]["wasted_task_seconds"]
        )
        assert (wasted > 0.0) == (restarts > 0)


class TestObsMetricsDumps:
    @pytest.fixture
    def observer(self):
        clock_t = [0.0]
        obs = Observer(clock=lambda: clock_t[0])
        obs.metrics.counter("net.bytes").add(64)
        obs.metrics.histogram("slots").set(3)
        clock_t[0] = 2.0
        return obs

    def test_csv_rows(self, observer):
        header, rows = obs_metrics_csv(observer)
        assert header == [
            "metric", "type", "value", "mean", "min", "max",
            "p50", "p95", "p99", "events",
        ]
        assert [r[0] for r in rows] == ["net.bytes", "slots"]
        by_name = {r[0]: dict(zip(header, r)) for r in rows}
        # Counters carry no distribution, so the percentile cells stay blank;
        # histograms report duration-weighted quantiles.
        assert by_name["net.bytes"]["p50"] == ""
        assert by_name["slots"]["p50"] == 3.0

    def test_json_dump(self, observer):
        data = obs_metrics_json(observer)
        assert data["net.bytes"] == {"type": "counter", "value": 64.0, "events": 1}
        assert data["slots"]["mean"] == pytest.approx(3.0)


class TestCriticalPathExport:
    @pytest.fixture(scope="class")
    def cp_result(self):
        from repro.experiments import critical_path

        return critical_path.run(sizes_gb=(0.25,))

    def test_csv_rows_carry_phase_blame(self, cp_result):
        from repro.experiments.export import critical_path_csv

        header, rows = critical_path_csv(cp_result)
        assert header[:2] == ["input_gb", "makespan_s"]
        assert "copy_blame_pct" in header and "map_blame_pct" in header
        (row,) = rows
        blame = dict(zip(header, row))
        total = sum(
            v for k, v in blame.items() if k.endswith("_blame_pct")
        )
        assert total == pytest.approx(100.0)

    def test_json_cross_check_is_tight(self, cp_result):
        from repro.experiments.export import critical_path_json

        data = critical_path_json(cp_result)
        assert data["experiment"] == "critical_path"
        (row,) = data["rows"]
        # Span-measured Table-I copy share must match the JobMetrics
        # counters (the ISSUE's +-2 pts acceptance bound).
        assert row["cross_check_delta_pts"] < 2.0
        assert row["copy_pct_spans"] == pytest.approx(
            row["copy_pct_counters"], abs=2.0
        )
