"""The simulator self-profiler contract.

Three properties the bench harness depends on (see
:mod:`repro.simnet.profiler`):

* attribution — event labels land in the right bins, counts and wall
  seconds accumulate;
* zero cost when off — a run without a profiler attached exports
  byte-identically to the pre-profiler code path (same seed, profiled
  or not, the *simulation* is untouched);
* determinism — same-seed profiled runs agree on every event count,
  and ``deterministic_view`` strips exactly the wall-clock fields so
  the remainder diffs byte-identical in CI.
"""

import json

from repro.simnet.profiler import (
    BINS,
    SelfProfiler,
    categorize,
    deterministic_view,
)


def _wordcount_export(seed: int, profiler=None) -> str:
    from repro.hadoop import HadoopConfig, JobSpec, WORDCOUNT_PROFILE
    from repro.hadoop.simulation import HadoopSimulation
    from repro.simnet.cluster import ClusterSpec

    hsim = HadoopSimulation(
        spec=JobSpec("prof", input_bytes=24 * 2**20, profile=WORDCOUNT_PROFILE),
        config=HadoopConfig(),
        cluster_spec=ClusterSpec(num_nodes=4),
        seed=seed,
    )
    if profiler is not None:
        hsim.sim.attach_profiler(profiler)
    metrics = hsim.run()
    return json.dumps(metrics.to_dict(), sort_keys=True)


class TestCategorize:
    def test_rules_hit_their_bins(self):
        assert categorize("TaskTracker.heartbeat") == "heartbeat"
        assert categorize("map3") == "task"
        assert categorize("red0") == "task"
        assert categorize("NetworkModel.solve") == "flow"
        assert categorize("FairScheduler.dispatch") == "scheduler"
        assert categorize("JobMonitor.poll") == "scheduler"
        # Flow-layer classes win over scheduler substrings ("reschedule").
        for label in (
            "RateDevice._reschedule_now.<locals>.<lambda>",
            "RateDevice._flush",
            "Network._flush",
            "Network.transfer_flow.<locals>.<lambda>",
            "Network._reallocate_now.<locals>.<lambda>",
            "Network._start_flow.<locals>.finish_local",
        ):
            assert categorize(label) == "flow", label
        # The multi-tenant engine's process names.
        for label in (
            "dispatcher",
            "arrivals",
            "preempt-sweep",
            "job:batch-3-javaSort",
            "job:wordcount-1.0g",
            "monitor:interactive-2-webdataScan",
        ):
            assert categorize(label) == "scheduler", label

    def test_unknown_labels_fall_through_to_kernel(self):
        assert categorize("frobnicate") == "kernel"
        assert categorize("") == "kernel"

    def test_every_rule_targets_a_known_bin(self):
        from repro.simnet.profiler import _RULES

        for _needle, bin_name in _RULES:
            assert bin_name in BINS


class TestSelfProfiler:
    def test_record_accumulates_events_and_seconds(self):
        prof = SelfProfiler(leg="unit")
        prof.record("map1", 0.5)
        prof.record("map2", 0.25)
        prof.record("mystery", 1.0)
        snap = prof.snapshot()
        assert snap["leg"] == "unit"
        assert snap["bins"]["task"] == {"events": 2, "wall_seconds": 0.75}
        assert snap["bins"]["kernel"] == {"events": 1, "wall_seconds": 1.0}
        assert snap["total"] == {"events": 3, "wall_seconds": 1.75}

    def test_record_overhead_adds_seconds_without_events(self):
        prof = SelfProfiler()
        prof.record_overhead("kernel", 0.125)
        snap = prof.snapshot()
        assert snap["bins"]["kernel"] == {
            "events": 0,
            "wall_seconds": 0.125,
        }

    def test_snapshot_lists_every_bin(self):
        snap = SelfProfiler().snapshot()
        assert tuple(snap["bins"]) == BINS

    def test_injected_clock_is_used_by_the_kernel(self):
        ticks = iter(range(1000))
        prof = SelfProfiler(clock=lambda: float(next(ticks)))
        assert prof.clock() == 0.0
        assert prof.clock() == 1.0


class TestDeterministicView:
    def test_strips_wall_seconds_recursively(self):
        prof = SelfProfiler(leg="x")
        prof.record("map1", 3.0)
        view = deterministic_view({"legs": {"x": prof.snapshot()}})
        leg = view["legs"]["x"]
        assert leg["bins"]["task"] == {"events": 1}
        assert leg["total"] == {"events": 1}
        assert "wall_seconds" not in json.dumps(view)

    def test_non_dict_payloads_pass_through(self):
        assert deterministic_view([1, "a", None]) == [1, "a", None]


class TestKernelIntegration:
    def test_profiled_run_does_not_perturb_the_simulation(self):
        baseline = _wordcount_export(7)
        prof = SelfProfiler()
        profiled = _wordcount_export(7, profiler=prof)
        assert profiled == baseline
        assert prof.snapshot()["total"]["events"] > 0

    def test_same_seed_profiles_agree_on_event_counts(self):
        a, b = SelfProfiler(), SelfProfiler()
        _wordcount_export(7, profiler=a)
        _wordcount_export(7, profiler=b)
        assert deterministic_view(a.snapshot()) == deterministic_view(
            b.snapshot()
        )

    def test_detach_restores_the_unprofiled_path(self):
        from repro.simnet.kernel import Simulator

        sim = Simulator()
        prof = SelfProfiler()
        sim.attach_profiler(prof)
        sim.detach_profiler()
        sim.tick(1.0, lambda ev: None)
        sim.run()
        assert prof.snapshot()["total"]["events"] == 0

    def test_heartbeats_dominate_a_hadoop_run(self):
        prof = SelfProfiler()
        _wordcount_export(7, profiler=prof)
        bins = prof.snapshot()["bins"]
        assert bins["heartbeat"]["events"] == max(
            b["events"] for b in bins.values()
        )
