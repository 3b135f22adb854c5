"""Unit tests for the engine bench harness (``repro.bench``).

Tiny knobs everywhere: these verify the harness *mechanics* — scenario
construction, equality checking, divergence plumbing, report shape —
not the headline numbers (that's ``python -m repro bench``).
"""

from __future__ import annotations

import json

import pytest

from repro.bench.engine import (
    BenchReport,
    _churn_script,
    _scalability_multi_tenant,
    _scalability_single_job,
    _star_network,
    _timer_storm,
    bench_kernel_cancel,
    bench_maxmin_churn,
    bench_maxmin_solver,
    bench_scalability,
)
from tests.simnet.oracle import use_scalar_oracle


class TestReport:
    def test_record_sets_divergence_on_identical_false(self):
        report = BenchReport()
        report.record("micro", "a", {"speedup": 2.0, "identical": True})
        assert not report.divergence
        report.record("macro", "b", {"speedup": 2.0, "identical": False})
        assert report.divergence
        assert report.to_dict()["macro"]["b"]["identical"] is False

    def test_entries_without_identity_flag_do_not_diverge(self):
        report = BenchReport()
        report.record("micro", "c", {"run_s": 0.1})
        assert not report.divergence

    def test_record_sets_divergence_on_nondeterministic(self):
        report = BenchReport()
        report.record(
            "macro", "scal", {"identical": True, "deterministic": True}
        )
        assert not report.divergence
        report.record(
            "macro", "scal2", {"identical": True, "deterministic": False}
        )
        assert report.divergence


class TestScenarios:
    def test_star_network_is_deterministic(self):
        _, a = _star_network(4, 20, 4, seed=7)
        _, b = _star_network(4, 20, 4, seed=7)
        assert {f.seq: f.rate for f in a._flows} == {
            f.seq: f.rate for f in b._flows
        }
        assert len(a._flows) == 20
        assert sum(1 for f in a._flows if f.rate_cap != float("inf")) == 5

    def test_churn_script_log_is_deterministic(self):
        sim_a, _, log_a = _churn_script(4, 40, 7, 5, seed=3)
        sim_b, _, log_b = _churn_script(4, 40, 7, 5, seed=3)
        sim_a.run()
        sim_b.run()
        assert log_a == log_b
        assert len(log_a) == 40  # every flow resolves, killed or done
        assert any(not ok for _, _, ok in log_a)  # kills really landed

    def test_timer_storm_cancels_exact_fraction(self):
        from repro.simnet.kernel import Simulator

        sim = Simulator()
        _timer_storm(sim, 200, 0.25, seed=5)
        assert sim.events_cancelled == 50
        # Bare timeouts carry no callbacks, so none of them count as
        # dispatched — only the cancel ledger moves in this storm.
        assert sim.events_dispatched == 0


class TestMicroBenches:
    def test_maxmin_solver_reports_identical(self):
        r = bench_maxmin_solver(flows=40, num_nodes=4, repeats=1, solves=2)
        assert r["identical"] is True
        assert r["speedup"] > 0
        assert r["flows"] == 40 and r["links"] == 8

    def test_maxmin_churn_reports_identical_and_counters(self):
        r = bench_maxmin_churn(flows=60, num_nodes=4, repeats=1)
        assert r["identical"] is True
        c = r["counters"]
        assert c["rate_recomputes"] > 0
        assert c["rate_recompute_flows"] >= c["rate_recomputes"]
        assert c["events_dispatched"] > 0
        assert c["events_cancelled"] > 0  # superseded completion timers

    def test_kernel_cancel_counts_tombstones(self):
        r = bench_kernel_cancel(timers=400, cancel_fraction=0.5, repeats=1)
        assert r["identical"] is True
        assert r["events_cancelled"] == 200


@pytest.mark.slow
class TestScalabilityGolden:
    """Golden differential: the scalability macro's two workloads must
    export bit-for-bit identical results with the production flow engine
    and with the scalar test oracle swapped into the cluster, at the
    quick sweep size (~100 nodes).  Raw export strings, compared in the
    test."""

    NODES = 100

    def test_single_job_exports_bit_for_bit(self, monkeypatch):
        _, export, events, _ = _scalability_single_job(
            self.NODES, seed=2011, mib_per_worker=16
        )
        use_scalar_oracle(monkeypatch)
        _, ref_export, ref_events, _ = _scalability_single_job(
            self.NODES, seed=2011, mib_per_worker=16
        )
        assert export == ref_export
        assert ref_events > 0 and events > 0

    def test_multi_tenant_exports_bit_for_bit(self, monkeypatch):
        _, export, _, _ = _scalability_multi_tenant(
            self.NODES, seed=2011, horizon=120.0
        )
        use_scalar_oracle(monkeypatch)
        _, ref_export, _, _ = _scalability_multi_tenant(
            self.NODES, seed=2011, horizon=120.0
        )
        assert export == ref_export

    def test_macro_reports_identical_and_deterministic(self):
        r = bench_scalability(
            node_counts=(self.NODES,), mib_per_worker=16, horizon=120.0
        )
        assert r["identical"] is True
        assert r["deterministic"] is True
        entry = r["per_nodes"][str(self.NODES)]
        for leg in ("single_job", "multi_tenant"):
            assert entry[leg]["identical"] is True
            assert entry[leg]["deterministic"] is True
            assert entry[leg]["events_fast"] > 0
            assert entry[leg]["events_reference"] > 0


@pytest.mark.slow
class TestCli:
    def test_quick_run_writes_report_and_exits_zero(self, tmp_path):
        from repro.bench.cli import main

        out = tmp_path / "BENCH_engine.json"
        rc = main(["--quick", "--sizes", "0.25", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["divergence"] is False
        assert set(data["micro"]) == {
            "maxmin_solver",
            "maxmin_churn",
            "kernel_cancel",
        }
        assert set(data["macro"]) == {"fig6", "scalability", "network_faults"}
        assert data["macro"]["scalability"]["identical"] is True
        assert data["macro"]["scalability"]["deterministic"] is True
        assert data["manifest"]["experiment"] == "bench_engine"
