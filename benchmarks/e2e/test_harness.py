"""Self-tests of the end-to-end benchmark harness.

Run with ``pytest benchmarks/e2e -q``; they stay out of the tier-1
``testpaths``.  The measured runs here use a 1 GB WordCount so the whole
file takes seconds.
"""

from __future__ import annotations

import importlib
import itertools
import json
import re
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import child, compare, harness, ledger, reference, workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TINY_RUNS = 3


def _tiny_build(seed: int, scratch: Path):
    hsim, msim = workloads._wordcount_jobs(1, seed)
    return lambda: workloads._run_wordcount(1, hsim, msim)


def _measure(workload: workloads.Workload) -> dict:
    import repro

    repro_dir = str(Path(repro.__file__).resolve().parent)
    # A fresh interpreter would need the package on its path; the import
    # time itself is not under test here.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(child, "import_probe", lambda: 0.1)
        return child.measure(workload, 2011, 0.0, repro_dir)


def _wrapped_attributes() -> dict:
    return {
        (cls_name, attr): getattr(importlib.import_module(module), cls_name).__dict__[attr]
        for _, module, cls_name, attr, _ in ledger.WRAPPED
    }


@pytest.fixture(scope="module")
def tiny():
    """(wrapped attributes before, child record) for one tiny measurement."""
    before = _wrapped_attributes()
    return before, _measure(workloads.Workload("tiny", _tiny_build, TINY_RUNS))


# -- module -> layer map -------------------------------------------------------


@pytest.mark.parametrize(
    "module, qualname, layer",
    [
        ("simnet.kernel", "Simulator.run", "simnet.kernel"),
        ("simnet.network", "Network.transfer_flow", "simnet.network"),
        ("simnet.network", "Network._maxmin_rates", "simnet.maxmin"),
        ("simnet.network", "Network._maxmin_rates_fast", "simnet.maxmin"),
        ("simnet.network", "Network._maxmin_rates_fast.<locals>.<genexpr>", "simnet.maxmin"),
        ("simnet.network", "Network._solve_component", "simnet.maxmin"),
        ("simnet.kernel", "Simulator._solve_component", "simnet.kernel"),
        ("hadoop.reducetask", "reduce_task_process", "hadoop.reducetask"),
        ("cluster.scheduler", "ClusterScheduler.budget", "cluster.scheduler"),
        ("obs.store", "TraceStoreWriter._event", "obs"),
        ("transports.hadoop_rpc", "HadoopRpcTransport.send", "transports"),
        ("util.rng", "make_rng", "util"),
        ("hadoop.metrics", "JobMetrics.to_dict", "other"),
        ("", "<module>", "other"),
        (None, "main", "harness"),
    ],
)
def test_layer_of(module, qualname, layer):
    assert ledger.layer_of(module, qualname) == layer


def test_repro_module_paths():
    root = "/x/src/repro"
    assert ledger.repro_module("/x/src/repro/simnet/network.py", root) == "simnet.network"
    assert ledger.repro_module("/x/src/repro/obs/__init__.py", root) == "obs"
    assert ledger.repro_module("/x/src/repro/__init__.py", root) == ""
    assert ledger.repro_module("/x/src/reprox/a.py", root) is None
    assert ledger.repro_module("/usr/lib/python3/heapq.py", root) is None


def test_sampler_charges_code_outside_the_package_to_harness():
    sampler = ledger.Sampler("/nonexistent/repro")
    assert sampler._layer(sys._getframe()) == "harness"


def test_every_layer_has_both_metrics_declared():
    declared = {m["name"] for m in harness.load_spec()["per_layer"]}
    for layer in ledger.LAYERS:
        assert {f"{layer}.self_s", f"{layer}.share"} <= declared


# -- BENCHMARK.json and the emitted names --------------------------------------


def test_metric_names_follow_the_grammar():
    spec = harness.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [m[0] for m in harness.EXTRA_METRICS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for w in spec["workloads"]:
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in harness.load_spec()["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_emitted_names_equal_declared_names(tiny):
    _, record = tiny
    spec = harness.load_spec()
    summary = harness.summarize(record)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    extras = {m[0] for m in harness.EXTRA_METRICS}
    assert end_to_end <= set(summary["metrics"]) <= end_to_end | extras
    assert set(record["per_layer"]) == {m["name"] for m in spec["per_layer"]}
    line = harness.result_line([summary], spec, trace=False)
    assert set(line["metrics"]) == end_to_end
    assert set(line.keys()) == {"correct", "attempted", "failed", "metrics"}


def test_tiny_run_passes_its_checks(tiny):
    _, record = tiny
    assert record["failed"] == 0 and record["attempted"] == 1 + TINY_RUNS
    assert len(record["import_s"]) == child.IMPORT_PROBES
    # every run, the traced one included, is bracketed by reference loops
    assert len(record["loop_s"]) >= record["attempted"] + 1
    assert len(record["host_wall_s"]) == len(record["wall_s"]) == TINY_RUNS
    layer = record["per_layer"]
    shares = sum(v for k, v in layer.items() if k.endswith(".share"))
    assert shares == pytest.approx(1.0)
    assert layer["simnet.kernel.events_dispatched"] > 0
    assert layer["simnet.network.flows_started"] > 0
    assert layer["hadoop.jobtracker.heartbeats"] > 0
    assert 0 < layer["hadoop.jobtracker.heartbeat_useful"] <= 1


# -- failure accounting --------------------------------------------------------


def test_injected_digest_mismatch_fails_the_benchmark(monkeypatch, capsys):
    counter = itertools.count()

    def drifting_build(seed, scratch):
        go = _tiny_build(seed, scratch)

        def drifting():
            out = go()
            out.export["run"] = next(counter)
            return out

        return drifting

    record = _measure(workloads.Workload("drift", drifting_build, TINY_RUNS))
    assert record["failed"] > 0
    assert any("digest" in f for f in record["failures"])
    assert harness.summarize(record)["metrics"]["failed_frac"]["value"] > 0

    monkeypatch.setattr(harness, "run_child", lambda name, seed, seconds: {**record, "workload": name})
    assert harness.main(["--workloads", "wordcount", "--seconds", "0"]) != 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["failed"] > 0 and last["correct"] is False


def test_one_workload_command_line_reports_unprefixed_names(tiny, monkeypatch, capsys):
    """The per-workload form ``--workload NAME --seed N --seconds S
    --trace 0|1`` prints the declared names without a workload prefix."""
    _, record = tiny
    monkeypatch.setattr(harness, "run_child", lambda name, seed, seconds: {**record, "workload": name})
    spec = harness.load_spec()
    for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        argv = ["--workload", "tenants", "--seed", "3", "--seconds", "0", "--trace", trace]
        assert harness.main(argv) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(last["metrics"]) == {m["name"] for m in declared}


def test_missing_source_tree_exits_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(harness, "ROOT", tmp_path)
    assert harness.main([]) != 0
    assert capsys.readouterr().out == ""


# -- reference seconds ---------------------------------------------------------


def test_reference_seconds_scale_with_the_loop():
    loop = reference.REFERENCE_LOOP_S
    assert child.reference_seconds(0.5, loop) == pytest.approx(0.5)
    # a host running the loop twice as slowly halves every time it reports
    assert child.reference_seconds(1.0, 2 * loop) == pytest.approx(0.5)


def test_reference_loop_imports_nothing_from_the_simulator():
    source = Path(reference.__file__).read_text()
    imported = re.findall(r"^\s*(?:from|import)\s+(\S+)", source, re.M)
    assert imported and all(m.split(".")[0] != "repro" for m in imported)
    assert reference.time_reference() > 0


# -- bounds and verdicts -------------------------------------------------------


def test_relative_bound_with_absolute_floor():
    assert harness.allowed_worsening(1.0, 0.10, 0.0) == pytest.approx(0.10)
    assert harness.allowed_worsening(0.4, 0.25, 0.03) == pytest.approx(0.10)
    assert harness.allowed_worsening(0.1, 0.25, 0.03) == pytest.approx(0.03)
    assert harness.allowed_worsening(0.0, 0.0, 0.1) == pytest.approx(0.1)
    assert harness.allowed_worsening(0.0, 0.0, 0.0) == 0.0


def _side(*runs):
    q1, med, q3 = harness.quartiles(list(runs))
    return compare.Side(q1, med, q3, list(runs))


def test_verdicts():
    v = compare.verdict
    # setup_s: 0.10 s -> 0.125 s is inside the 0.03 s floor, 0.14 s is not
    assert v(_side(0.10), _side(0.125), "lower", 0.25, 0.03) == "unchanged"
    assert v(_side(0.10), _side(0.14), "lower", 0.25, 0.03) == "worse"
    # wall_s with a 10% bound
    assert v(_side(1.0, 1.01, 0.99), _side(1.2, 1.21, 1.19), "lower", 0.10, 0.0) == "worse"
    assert v(_side(1.0, 1.01, 0.99), _side(0.8, 0.81, 0.79), "lower", 0.10, 0.0) == "better"
    assert v(_side(1.0, 1.01, 0.99), _side(1.05, 1.04, 1.06), "lower", 0.10, 0.0) == "unchanged"
    # spread wider than the bound: unresolved, unless every run is better
    assert v(_side(0.7, 1.0, 1.3), _side(0.75, 1.2, 1.3), "lower", 0.10, 0.0) == "unresolved"
    assert v(_side(1.0, 1.2, 1.4), _side(0.5, 0.6, 0.9), "lower", 0.10, 0.0) == "better"
    # "higher is better" flips the sign
    assert v(_side(1.0), _side(0.5), "higher", 0.10, 0.0) == "worse"
    # failed_frac and fidelity: any increase beyond the absolute allowance
    assert v(_side(0.0), _side(0.01), "lower", 0.0, 0.0) == "worse"
    assert v(_side(2.2), _side(2.25), "lower", 0.0, 0.1) == "unchanged"
    assert v(_side(2.2), _side(2.35), "lower", 0.0, 0.1) == "worse"


def test_compare_rows_and_pair_wins():
    spec = harness.load_spec()

    def result(wall):
        metric = {"value": wall, "q1": wall, "q3": wall, "n": 1, "values": [wall]}
        return {"workloads": {"wordcount": {"metrics": {"wall_s": metric}}}}

    files = []
    for i in range(10):
        files += [result(1.0 + i * 0.001), result(0.5 + i * 0.001)]
    header, rows, any_worse = compare.compare(files, spec)
    assert not any_worse
    assert header[-1] == "wins"
    bound = compare._bound_text(harness.metric_table(spec)["wall_s"])
    assert rows == [[
        "wordcount", "wall_s", rows[0][2], rows[0][3], rows[0][4], bound, "better", "1.00"
    ]]


# -- the traced run leaves no wrapper behind ----------------------------------


def test_wrapped_methods_are_restored_after_the_traced_run(tiny):
    before, record = tiny
    assert record["per_layer"]["cluster.scheduler.budget_calls"] == 0
    after = _wrapped_attributes()
    for key, original in before.items():
        assert after[key] is original, key


def test_call_counter_wraps_only_inside_the_block():
    before = _wrapped_attributes()
    with ledger.CallCounter():
        inside = _wrapped_attributes()
        assert all(inside[k] is not before[k] for k in before)
    assert _wrapped_attributes() == before


@pytest.mark.parametrize(
    "module, cls_name, attr",
    [
        ("repro.simnet.network", "Network", "no_such_method"),
        ("repro.simnet.network", "NoSuchClass", "transfer_flow"),
        ("repro.no_such_module", "Network", "transfer_flow"),
    ],
)
def test_missing_entry_point_is_omitted_with_a_warning(module, cls_name, attr):
    entries = (("x.calls", module, cls_name, attr, None),)
    with pytest.warns(UserWarning, match="x.calls omitted"):
        with ledger.CallCounter(entries) as calls:
            pass
    assert calls.calls == {}
