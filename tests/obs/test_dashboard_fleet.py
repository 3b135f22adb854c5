"""Fleet page (dashboard satellite).

The fleet page is pure server-rendered HTML around one JSON island —
no JS — so the tests assert on the island payload and the rendered
tables.
"""

import json

from repro.obs.dashboard import (
    extract_data_island,
    render_fleet_page,
    write_fleet_page,
)
from repro.obs.fleet import fleet_summary


def _stores(makespans=(100.0, 150.0), tenants=None):
    from pathlib import Path

    out = []
    for i, makespan in enumerate(makespans):
        out.append((Path(f"run-{i:03d}.jsonl"), {
            "system": "tenants-fair",
            "events": 10,
            "final_time": makespan,
            "counts": {},
            "metrics": {},
            "summary": {
                "policy": "fair", "seed": 2011, "makespan": makespan,
                "jobs": 4, "completed": 4, "failed": 0, "shed": 0,
                "tenants": tenants or {},
            },
        }))
    return out


class TestFleetPage:
    def test_island_round_trips_the_summary(self):
        summary = fleet_summary(_stores(), root_label="fleet")
        html = render_fleet_page(summary)
        data = extract_data_island(html, "fleet-data")
        assert data == json.loads(summary.to_json())

    def test_regressed_store_rows_are_highlighted(self):
        summary = fleet_summary(_stores((100.0, 150.0)), root_label="fleet")
        assert summary.regressions
        html = render_fleet_page(summary)
        assert "var(--alert)" in html
        assert "run-002" not in html  # only the two synthetic stores

    def test_quiet_fleet_renders_without_alerts(self):
        summary = fleet_summary(_stores((100.0, 100.0)), root_label="fleet")
        html = render_fleet_page(summary)
        assert "none detected" in html

    def test_slo_missing_tenant_is_highlighted(self):
        tenants = {"bursty": {
            "queue": "batch", "submitted": 10, "completed": 6, "failed": 0,
            "shed": 4, "unfinished": 0, "slot_seconds": 5.0,
            "latency_p50": 1.0, "latency_p95": 2.0, "latency_p99": 3.0,
            "queue_wait_p95": 1.0, "utilization": 0.5,
        }}
        summary = fleet_summary(
            _stores((100.0, 100.0), tenants=tenants), root_label="fleet"
        )
        html = render_fleet_page(summary)
        assert "bursty" in html and "var(--alert)" in html

    def test_write_fleet_page_accepts_a_directory(self, tmp_path):
        from repro.experiments.capacity import produce_stores

        stores = tmp_path / "stores"
        produce_stores(stores, seeds=(2011,), horizon=60.0)
        out = tmp_path / "pages" / "fleet.html"
        write_fleet_page(out, stores)
        data = extract_data_island(out.read_text(), "fleet-data")
        assert data["totals"]["stores"] == 1

    def test_page_is_self_contained(self):
        html = render_fleet_page(fleet_summary(_stores(), root_label="x"))
        assert "http://" not in html and "https://" not in html
