"""Experiment driver tests: each figure/table regenerates with the
paper's shape at reduced scale."""

import pytest

from repro.experiments import paper
from repro.experiments.fig1_shuffle import format_report as fig1_report
from repro.experiments.fig1_shuffle import run as fig1_run
from repro.experiments.fig2_latency import Fig2Result, format_report as fig2_report
from repro.experiments.fig2_latency import panel_sizes, run as fig2_run
from repro.experiments.fig3_bandwidth import format_report as fig3_report
from repro.experiments.fig3_bandwidth import run as fig3_run
from repro.experiments.fig6_wordcount import format_report as fig6_report
from repro.experiments.fig6_wordcount import run as fig6_run
from repro.experiments.table1_copy_pct import format_report as t1_report
from repro.experiments.table1_copy_pct import run as t1_run
from repro.util.units import GiB, KiB, MiB


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self) -> Fig2Result:
        return fig2_run(trials=30)

    def test_panels_cover_paper_ranges(self):
        assert panel_sizes("a")[0] == 1
        assert panel_sizes("a")[-1] == 1 * KiB
        assert panel_sizes("c")[-1] == 64 * MiB

    def test_ratio_shape(self, result):
        assert result.ratio(1) == pytest.approx(paper.FIG2_RATIO_1B, rel=0.15)
        assert result.ratio(1 * KiB) == pytest.approx(paper.FIG2_RATIO_1KB, rel=0.25)
        assert result.ratio(1 * MiB) == pytest.approx(paper.FIG2_RATIO_1MB, rel=0.15)
        for n in (256 * KiB, 512 * KiB, 1 * MiB, 16 * MiB):
            assert result.ratio(n) > 90  # ">100 times" beyond 256 KB

    def test_mpich_under_a_millisecond_through_1kb(self, result):
        assert all(result.mpich[n] < 1e-3 for n in (1, 16, 1 * KiB))

    def test_report_renders(self, result):
        out = fig2_report(result)
        assert "Figure 2(a)" in out and "Figure 2(c)" in out
        assert "RPC/MPI" in out


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3_run(jitter=False)

    def test_peaks_match_paper(self, result):
        assert result.peak("Hadoop RPC") < 2e6
        assert result.peak("HTTP/Jetty") == pytest.approx(paper.FIG3_JETTY_PEAK, rel=0.05)
        assert result.peak("MPICH2") == pytest.approx(paper.FIG3_MPICH_PEAK, rel=0.05)

    def test_mpich_beats_jetty_slightly(self, result):
        assert 1.0 < result.peak("MPICH2") / result.peak("HTTP/Jetty") < 1.06

    def test_mpich_dwarfs_rpc(self, result):
        assert result.peak("MPICH2") / result.peak("Hadoop RPC") > 50  # "about 100 times"

    def test_streaming_transports_effective_from_256_bytes(self, result):
        assert result.series["HTTP/Jetty"][256] > 60e6
        assert result.series["MPICH2"][256] > 50e6

    def test_nio_series_optional(self):
        with_nio = fig3_run(include_nio=True, jitter=False)
        assert "Socket/NIO" in with_nio.series

    def test_report_renders(self, result):
        out = fig3_report(result)
        assert "MPICH2" in out and "peak" in out


class TestFig1:
    @pytest.fixture(scope="class")
    def metrics(self):
        return fig1_run(input_bytes=4 * GiB)

    def test_sort_stage_tiny(self, metrics):
        assert float(metrics.sort_times().mean()) < 0.1

    def test_copy_exceeds_sort_everywhere(self, metrics):
        assert (metrics.copy_times() > metrics.sort_times()).all()

    def test_first_wave_reducers_wait_longest(self, metrics):
        # Reducers scheduled during the map phase copy for longest.
        first_wave = min(metrics.reduce_tasks, key=lambda r: r.started_at)
        assert first_wave.copy_time >= float(metrics.copy_times().mean())

    @pytest.mark.slow
    def test_copy_dominates_the_reducer_lifecycle_at_8gb(self):
        metrics = fig1_run(input_bytes=8 * GiB)
        copy, sort, red = (
            metrics.copy_times(), metrics.sort_times(), metrics.reduce_times()
        )
        assert float(sort.mean()) < 0.05
        assert float(copy.mean()) > float(red.mean())
        # Paper: ~95% at 150 GB; the share grows with scale.
        assert copy.sum() / (copy.sum() + sort.sum() + red.sum()) > 0.5

    def test_report_renders(self, metrics):
        out = fig1_report(metrics)
        assert "copy" in out and "reducers" in out


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return t1_run(sizes_gb=(1, 4))

    def test_grid_shape(self, result):
        assert set(result.cells) == {1, 4}
        assert set(result.cells[1]) == {"4/2", "4/4", "8/8", "16/16"}

    def test_copy_share_grows_with_size(self, result):
        for cfg in ("4/2", "4/4", "8/8", "16/16"):
            assert result.cells[4][cfg] > result.cells[1][cfg]

    def test_fractions_in_range(self, result):
        for row in result.cells.values():
            for v in row.values():
                assert 0.0 < v < 1.0
        assert result.min_pct > 5.0

    @pytest.mark.slow
    def test_copy_stage_dominates_at_8gb(self):
        assert t1_run(sizes_gb=(8,)).cells[8]["8/8"] > 0.4

    def test_report_renders(self, result):
        out = t1_report(result)
        assert "Table I" in out and "Paper's Table I" in out


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6_run(sizes_gb=(1, 4))

    def test_mpid_faster_everywhere(self, result):
        for gb in result.sizes_gb:
            assert result.mpid[gb] < result.hadoop[gb]

    def test_ratio_rises_with_scale(self, result):
        assert result.ratio(1) < result.ratio(4) < 0.8

    def test_mpid_wins_hugely_at_1gb(self, result):
        assert result.ratio(1) < 0.3  # paper: 8%; ours ~17%

    def test_report_renders(self, result):
        out = fig6_report(result)
        assert "WordCount" in out and "MPI-D/Hadoop" in out


class TestMains:
    def test_fig2_main_runs(self, capsys):
        from repro.__main__ import main

        assert main(["fig2", "--trials", "5"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_fig3_main_runs(self, capsys):
        from repro.__main__ import main

        assert main(["fig3", "--no-jitter"]) == 0
        assert "Figure 3" in capsys.readouterr().out
