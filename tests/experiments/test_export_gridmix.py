"""Tests for the CSV export module and the GridMix suite."""

import csv

import pytest

from repro.__main__ import main
from repro.experiments.export import (
    fig2_csv,
    fig3_csv,
    fig6_csv,
    render_csv,
    table1_csv,
)
from repro.experiments.fig2_latency import run as fig2_run
from repro.experiments.fig3_bandwidth import run as fig3_run
from repro.experiments.fig6_wordcount import run as fig6_run
from repro.experiments.gridmix import format_report, run as gridmix_run
from repro.experiments.table1_copy_pct import run as t1_run
from repro.workloads.gridmix_suite import GRIDMIX_SUITE, suite_by_name


class TestCsvExports:
    def test_fig2_csv_shape(self):
        header, rows = fig2_csv(fig2_run())
        assert header == ["size_bytes", "hadoop_rpc_s", "mpich2_s", "ratio"]
        assert all(len(r) == 4 for r in rows)
        assert rows[0][0] == 1

    def test_fig3_csv_has_all_series(self):
        header, rows = fig3_csv(fig3_run(include_nio=True))
        assert "Hadoop_RPC" in header and "MPICH2" in header
        assert "Socket_NIO" in header
        assert len(rows) == 27  # packet sizes 2^0..2^26

    def test_table1_csv_roundtrips_through_csv_module(self):
        header, rows = table1_csv(t1_run(sizes_gb=(1, 2)))
        text = render_csv(header, rows)
        parsed = list(csv.reader(text.splitlines()))
        assert parsed[0] == header
        assert len(parsed) == 3

    def test_fig6_csv(self):
        header, rows = fig6_csv(fig6_run(sizes_gb=(1,)))
        assert rows[0][0] == 1
        assert rows[0][3] < 1.0  # MPI-D faster

    def test_export_all_writes_files(self, tmp_path, capsys):
        # `--out` writes each experiment's files from the run just made;
        # the two cheap figures keep the test fast.
        out = tmp_path / "out"
        assert main(["fig2", "--trials", "5", "--out", str(out)]) == 0
        assert main(["fig3", "--quick", "--out", str(out)]) == 0
        written = sorted(out.iterdir())
        assert [p.name for p in written] == ["fig2_latency.csv", "fig3_bandwidth.csv"]
        for path in written:
            assert path.stat().st_size > 0
        with (out / "fig3_bandwidth.csv").open() as fh:
            assert "Socket_NIO" in next(csv.reader(fh))  # --quick adds NIO
        assert "wrote" in capsys.readouterr().out

    def test_export_only_filters_and_validates(self, tmp_path, capsys):
        # One command writes only its own experiment's files, and an
        # unknown experiment name is refused.
        out = tmp_path / "out"
        assert main(["fig2", "--trials", "5", "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["fig2_latency.csv"]
        assert main(["nope", "--out", str(out)]) == 2
        assert "unknown experiment 'nope'" in capsys.readouterr().err


class TestGridmixSuite:
    def test_suite_members(self):
        names = {e.name for e in GRIDMIX_SUITE}
        assert {"javaSort", "streamSort", "combiner", "webdataScan"} <= names

    def test_suite_by_name(self):
        assert suite_by_name()["javaSort"].profile.map_selectivity == 1.0

    def test_profiles_valid(self):
        for entry in GRIDMIX_SUITE:
            assert entry.profile.map_cpu_per_byte > 0
            assert entry.reducers_per_map > 0

    @pytest.fixture(scope="class")
    def result(self):
        subset = tuple(e for e in GRIDMIX_SUITE if e.name in ("javaSort", "webdataScan"))
        return gridmix_run(input_gb=1, suite=subset)

    def test_mpid_wins_suite_wide(self, result):
        for name in result.times:
            assert result.ratio(name) < 1.0

    def test_scan_beats_sort_ratio(self, result):
        """Filter workloads (tiny shuffle) favour MPI-D even more."""
        assert result.ratio("webdataScan") <= result.ratio("javaSort") + 0.05

    def test_report_renders(self, result):
        assert "GridMix" in format_report(result)
