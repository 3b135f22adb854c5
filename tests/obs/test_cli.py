"""End-to-end tests for ``python -m repro trace``."""

import csv
import json

import pytest

from repro.obs.cli import main as trace_main
from repro.obs.perfetto import categories_in, validate_trace


class TestTraceCli:
    def test_fig6_writes_trace_manifest_metrics_gantt(self, tmp_path, capsys):
        trace = tmp_path / "out.json"
        metrics = tmp_path / "metrics.csv"
        rc = trace_main(
            [
                "fig6",
                "--size", "64MB",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
                "--gantt",
            ]
        )
        assert rc == 0

        events = validate_trace(trace)
        cats = categories_in(events)
        assert {"kernel", "net", "hadoop.map", "hadoop.reduce",
                "mpid.map", "mpid.reduce"} <= cats
        # Two processes: the Hadoop run and the MPI-D run.
        assert {ev["pid"] for ev in events} == {1, 2}

        manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
        assert manifest["experiment"] == "fig6"
        assert manifest["seed"] == 2011
        assert set(manifest["event_counts"]) == {"hadoop", "mpid"}
        assert manifest["event_counts"]["hadoop"]["spans"] > 0

        with metrics.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["system", "metric"]
        assert {r[0] for r in rows[1:]} == {"hadoop", "mpid"}

        out = capsys.readouterr().out
        assert "wrote" in out
        assert "simulated seconds" in out

    def test_fault_experiment_records_fault_instants(self, tmp_path):
        trace = tmp_path / "fault.json"
        rc = trace_main(
            ["fault", "--size", "64MB", "--rate", "200",
             "--trace-out", str(trace)]
        )
        assert rc == 0
        events = validate_trace(trace)
        assert "fault" in categories_in(events)


#: One small run of every observed experiment.
OBSERVED_RUNS = {
    "fig6": ["--size", "64MB"],
    "fig1": ["--size", "64MB"],
    "fault": ["--size", "64MB"],
    "durability": ["--input-gb", "0.25"],
    "stragglers": ["--input-gb", "1"],
    "tenants": ["--horizon", "30"],
}


class TestObservedManifests:
    def test_every_observed_experiment_is_covered(self):
        from repro.experiments.registry import OBSERVED

        assert set(OBSERVED_RUNS) == set(OBSERVED)

    @pytest.mark.parametrize("name", sorted(OBSERVED_RUNS))
    def test_manifest_names_the_run_and_its_processes(self, name, tmp_path):
        trace = tmp_path / "t.json"
        assert trace_main([name, *OBSERVED_RUNS[name], "--trace-out", str(trace)]) == 0
        manifest = json.loads((tmp_path / "t.json.manifest.json").read_text())
        assert manifest["experiment"] == name
        assert manifest["sim_elapsed"]
        assert set(manifest["sim_elapsed"]) == set(manifest["event_counts"])
        processes = {
            ev["args"]["name"]
            for ev in validate_trace(trace)
            if ev.get("ph") == "M" and ev.get("name") == "process_name"
        }
        assert processes == set(manifest["sim_elapsed"])

    def test_flags_come_from_the_observed_function(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            trace_main(["fig6", "--rate", "40"])
        assert err.value.code == 2
        assert "unrecognized arguments: --rate" in capsys.readouterr().err


class TestOutDirStreamDashboard:
    def test_out_dir_collects_every_artifact(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        rc = trace_main(
            [
                "fig1",
                "--size", "64MB",
                "--out-dir", str(out_dir),
                "--stream",
                "--dashboard",
                "--metrics-out", "metrics.csv",
            ]
        )
        assert rc == 0
        # Trace, manifest, metrics, store and dashboard all land together.
        assert (out_dir / "trace.json").exists()
        assert (out_dir / "trace.json.manifest.json").exists()
        assert (out_dir / "metrics.csv").exists()
        store = out_dir / "fig1.hadoop.store.jsonl"
        assert store.exists()
        assert (out_dir / "dashboard.html").exists()

        from repro.obs.store import load_tracer, read_footer

        footer = read_footer(store)
        assert footer["system"] == "hadoop"
        assert footer["counts"]["begin"] == len(load_tracer(store).spans)

        out = capsys.readouterr().out
        assert "streamed trace store" in out
        assert "dashboard.html — open it in a browser" in out

    def test_stream_writes_one_store_per_system(self, tmp_path):
        out_dir = tmp_path / "run"
        rc = trace_main(
            ["fig6", "--size", "64MB", "--out-dir", str(out_dir), "--stream"]
        )
        assert rc == 0
        assert (out_dir / "fig6.hadoop.store.jsonl").exists()
        assert (out_dir / "fig6.mpid.store.jsonl").exists()

    def test_metrics_csv_carries_percentile_columns(self, tmp_path):
        out_dir = tmp_path / "run"
        rc = trace_main(
            ["fig1", "--size", "64MB", "--out-dir", str(out_dir),
             "--metrics-out", "metrics.csv"]
        )
        assert rc == 0
        with (out_dir / "metrics.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["system", "metric", "type", "value", "mean",
                           "min", "max", "p50", "p95", "p99", "events"]
        hist_rows = [r for r in rows[1:] if r[2] == "histogram"]
        assert hist_rows  # slot/link occupancy histograms present
        assert all(r[7] != "" for r in hist_rows)  # p50 populated

    def test_gantt_limit_caps_tracks(self, tmp_path, capsys):
        rc = trace_main(
            ["fig6", "--size", "64MB",
             "--trace-out", str(tmp_path / "t.json"),
             "--gantt", "--gantt-limit", "3"]
        )
        assert rc == 0
        assert "more tracks" in capsys.readouterr().out


class TestReplayCli:
    def test_replay_experiment_writes_dashboard(self, tmp_path, capsys):
        from repro.obs.replay_cli import main as replay_main

        out = tmp_path / "dash.html"
        frames = tmp_path / "frames.json"
        rc = replay_main(
            ["fig6", "--size", "64MB", "--buckets", "40",
             "--out", str(out), "--json-out", str(frames)]
        )
        assert rc == 0
        from repro.obs.dashboard import extract_data_island

        data = extract_data_island(out.read_text())
        assert set(data["systems"]) == {"hadoop", "mpid"}
        assert len(data["systems"]["hadoop"]["frames"]) == 40
        payload = json.loads(frames.read_text())
        assert set(payload) == {"hadoop", "mpid"}
        assert "open it in a browser" in capsys.readouterr().out

    def test_replay_store_file(self, tmp_path):
        from repro.obs.replay_cli import main as replay_main

        out_dir = tmp_path / "run"
        assert trace_main(["fig1", "--size", "64MB",
                           "--out-dir", str(out_dir), "--stream"]) == 0
        dash = tmp_path / "store_dash.html"
        rc = replay_main(
            [str(out_dir / "fig1.hadoop.store.jsonl"), "--out", str(dash)]
        )
        assert rc == 0
        assert "view-heatmap" in dash.read_text()

    def test_replay_perfetto_trace(self, tmp_path):
        from repro.obs.replay_cli import main as replay_main

        trace = tmp_path / "t.json"
        assert trace_main(["fig1", "--size", "64MB",
                           "--trace-out", str(trace)]) == 0
        dash = tmp_path / "dash.html"
        assert replay_main([str(trace), "--out", str(dash)]) == 0
        from repro.obs.dashboard import extract_data_island

        assert "hadoop" in extract_data_island(dash.read_text())["systems"]

    def test_replay_sweep_browser(self, tmp_path, capsys):
        from repro.obs.replay_cli import main as replay_main

        results = tmp_path / "results"
        results.mkdir()
        (results / "fig6_wordcount.csv").write_text(
            "size_gb,hadoop_s,mpid_s\n1,100,40\n")
        out = tmp_path / "sweep.html"
        rc = replay_main(
            ["sweep", "--results-dir", str(results), "--out", str(out)]
        )
        assert rc == 0
        assert 'id="sweep-data"' in out.read_text()

    def test_unknown_target_errors(self, capsys):
        import pytest

        from repro.obs.replay_cli import main as replay_main

        with pytest.raises(SystemExit):
            replay_main(["not-a-thing"])
        assert "unknown target" in capsys.readouterr().err


class TestMainDispatch:
    def test_bare_invocation_lists_commands(self, capsys):
        from repro.__main__ import main

        assert main([]) == 0
        out = capsys.readouterr().out
        assert "python -m repro trace" in out
        assert "python -m repro replay" in out
        assert "fig6_wordcount" in out

    def test_replay_dispatch(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "sweep.html"
        rc = main(["replay", "sweep", "--results-dir",
                   str(tmp_path / "none"), "--out", str(out)])
        assert rc == 0
        assert out.exists()
