"""Dashboard HTML: valid JSON island, linked views, resolvable frames.

No browser in CI — these tests parse the generated page the way a
browser would have to: the JSON island must survive a round-trip, every
canvas the inline script draws on must exist in the markup, and every
node/link/flow a frame references must resolve against the replay's
declared node and link lists.
"""

import json
import re

import pytest

from repro.obs.dashboard import (
    build_sweep_data,
    extract_data_island,
    render_dashboard,
    render_sweep_browser,
    write_dashboard,
    write_sweep_browser,
)
from repro.obs.replay import replay_events

#: The four linked views plus their interaction chrome, by element id.
_REQUIRED_IDS = (
    "view-heatmap", "view-flows", "view-stages",
    "spark-inflight", "spark-delivered", "spark-links", "spark-markers",
    "scrub", "play", "sys-select", "markers-list", "replay-data",
)


def tiny_replay(system="hadoop"):
    events = [
        {"k": "begin", "sid": 1, "parent": 0, "cat": "hadoop.map",
         "name": "map0", "track": "a", "t0": 0.0, "args": {"node": 1}},
        {"k": "begin", "sid": 2, "parent": 0, "cat": "net",
         "name": "xfer node1.up->node2.down", "track": "f", "t0": 1.0,
         "args": {"nbytes": 512}},
        {"k": "instant", "t": 2.0, "cat": "fault", "name": "crash node2",
         "track": "faults", "args": {}},
        {"k": "end", "sid": 2, "t1": 3.0, "args": {}},
        {"k": "end", "sid": 1, "t1": 4.0, "args": {}},
        {"k": "sample", "m": "slots.in_use", "t": 1.5, "v": 3.0},
    ]
    return replay_events(events, t_end=4.0, system=system, buckets=8)


class TestDashboardHtml:
    @pytest.fixture(scope="class")
    def html(self):
        return render_dashboard(
            [("hadoop", tiny_replay("hadoop")), ("mpid", tiny_replay("mpid"))],
            title="golden",
        )

    def test_json_island_round_trips(self, html):
        data = extract_data_island(html)
        assert data["title"] == "golden"
        assert set(data["systems"]) == {"hadoop", "mpid"}
        frames = data["systems"]["hadoop"]["frames"]
        assert len(frames) == 8

    def test_island_is_inert_to_the_html_parser(self, html):
        start = html.index('id="replay-data">')
        end = html.index("</script>", start)
        island = html[start:end]
        # "</" never appears un-escaped inside the island, so no payload
        # string can terminate the script element early.
        assert "</" not in island.replace("<\\/", "")

    def test_all_linked_views_present(self, html):
        for element_id in _REQUIRED_IDS:
            assert f'id="{element_id}"' in html, element_id

    def test_frame_references_resolve(self, html):
        data = extract_data_island(html)
        for replay in data["systems"].values():
            nodes, links = set(replay["nodes"]), set(replay["links"])
            for f in replay["frames"]:
                assert set(f["node_map"]) <= nodes
                assert set(f["node_reduce"]) <= nodes
                assert set(f["links"]) <= links
                for pair in f["flows"]:
                    src, dst = pair.split(">")
                    assert {src, dst} <= nodes
                assert f["marker_count"] >= len(f["markers"])

    def test_self_contained_no_external_requests(self, html):
        # One file, openable from disk: no scripts, styles, fonts or
        # images fetched from anywhere.
        assert not re.search(r'\bsrc\s*=\s*"https?://', html)
        assert not re.search(r'\bhref\s*=\s*"https?://', html)
        assert "@import" not in html
        assert html.count("<script") == 2  # the island + the inline app

    def test_light_and_dark_modes_defined(self, html):
        assert "prefers-color-scheme: dark" in html
        assert "--surface" in html and "--seq-hi" in html

    def test_write_dashboard_creates_parents(self, tmp_path):
        out = write_dashboard(tmp_path / "deep" / "dash.html", tiny_replay())
        assert out.read_text().startswith("<!DOCTYPE html>")

    def test_single_replay_shorthand(self):
        html = render_dashboard(tiny_replay("solo"))
        assert set(extract_data_island(html)["systems"]) == {"solo"}

    def test_empty_replay_list_rejected(self):
        with pytest.raises(ValueError, match="no replays"):
            render_dashboard([])


class TestSweepBrowser:
    @pytest.fixture()
    def results_dir(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig6_wordcount.csv").write_text(
            "size_gb,hadoop_s,mpid_s\n1,100,40\n2,210,85\n4,430,170\n"
        )
        (results / "fig6_wordcount.json").write_text(json.dumps(
            {"experiment": "fig6", "sizes": [1, 2, 4]}
        ))
        (results / "notes.json").write_text("not json {")
        return tmp_path

    def test_sweep_data_collects_csv_json(self, results_dir):
        data = build_sweep_data(results_dir / "results")
        table = data["csv"]["fig6_wordcount.csv"]
        assert table["header"] == ["size_gb", "hadoop_s", "mpid_s"]
        assert len(table["rows"]) == 3 and not table["truncated"]
        assert data["json"]["fig6_wordcount.json"]["experiment"] == "fig6"
        assert "notes.json" not in data["json"]  # unparseable is skipped

    def test_oversize_csv_truncates_with_flag(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        rows = "\n".join(f"{i},{i * 2}" for i in range(50))
        (results / "big.csv").write_text("x,y\n" + rows + "\n")
        data = build_sweep_data(results, max_rows=10)
        assert len(data["csv"]["big.csv"]["rows"]) == 10
        assert data["csv"]["big.csv"]["truncated"]

    def test_sweep_page_renders_and_round_trips(self, results_dir):
        out = write_sweep_browser(
            results_dir / "sweep.html", results_dir / "results")
        html = out.read_text()
        data = extract_data_island(html, "sweep-data")
        assert "fig6_wordcount.csv" in data["csv"]
        assert 'id="charts"' in html
        assert "<table" in render_sweep_browser(data)  # table view exists

    def test_missing_inputs_yield_empty_but_valid_page(self, tmp_path):
        html = render_sweep_browser(build_sweep_data(tmp_path / "absent"))
        data = extract_data_island(html, "sweep-data")
        assert data == {"csv": {}, "json": {}}
