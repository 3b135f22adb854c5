"""Streaming trace store: round-trip fidelity, chunked reads, footers.

The store's contract has three parts and all are pinned here:

* **fidelity** — a trace streamed to disk as it was recorded folds back
  into the *exact* in-memory ``SpanTracer`` state (bit-for-bit spans,
  instants, edges, and open-span stacks), property-tested over random
  begin/end/instant/edge sequences and checked end-to-end on a real
  simulation;
* **bytes** — the writer's file equals, byte for byte, the one the
  dict-per-line ``JsonStoreWriter`` oracle (``tests/obs/oracle.py``)
  writes for the same events, whatever their values;
* **memory** — the chunked reader never holds more than one chunk plus
  one carried line, no matter how large the file.
"""

import enum
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.observer import Observer
from repro.obs.store import (
    TraceStoreReader,
    TraceStoreWriter,
    events_of,
    load_tracer,
    read_events,
    read_footer,
)
from repro.obs.tracer import Edge, Instant, Span
from tests.obs.oracle import JsonStoreWriter


class Clock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t


def tracer_state(tracer):
    """Everything the round-trip guarantee covers, as comparable data."""
    return (
        [
            (s.sid, s.parent, s.category, s.name, s.track, s.t0, s.t1, s.args)
            for s in tracer.spans
        ],
        [(i.time, i.category, i.name, i.track, i.args) for i in tracer.instants],
        [(e.src, e.dst, e.kind, e.time, e.args) for e in tracer.edges],
        {k: list(v) for k, v in tracer._open_by_track.items() if v},
    )


def assert_index_points_at_lines(path):
    """Every footer index entry ``[i, offset]`` is the first byte of event
    ``i``'s line (line 0 is the header)."""
    lines = path.read_bytes().split(b"\n")
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line) + 1)
    footer = read_footer(path)
    assert footer["index"], "no index entries to check"
    for i, offset in footer["index"]:
        assert offset == starts[i + 1], (i, offset)
    assert len(lines) == footer["events"] + 3  # header, footer, final ""


# One random trace "program": a sequence of recorded operations.  Ends
# may close any still-open span (in any order); some spans stay open.
_op = st.sampled_from(["begin", "end", "instant", "edge"])
_programs = st.lists(
    st.tuples(_op, st.floats(min_value=0.0, max_value=100.0,
                             allow_nan=False, allow_infinity=False),
              st.integers(min_value=0, max_value=4)),
    min_size=0, max_size=60,
)


def run_program(program):
    """Drive a live observer + streaming writer through one program."""
    clock = Clock()
    obs = Observer(clock=clock)
    open_sids = []
    t = 0.0
    for op, dt, pick in program:
        t += dt / 10.0
        clock.t = t
        if op == "begin":
            track = f"track{pick}"
            sid = obs.tracer.begin(
                f"cat{pick % 3}", f"span at {t:.3f}", track=track,
                node=pick, detail=f"d{pick}",
            )
            open_sids.append(sid)
        elif op == "end" and open_sids:
            sid = open_sids.pop(pick % len(open_sids))
            obs.tracer.end(sid, done=pick)
        elif op == "instant":
            obs.tracer.instant(f"icat{pick % 2}", f"inst {t:.3f}",
                               track="marks", n=pick)
        elif op == "edge" and len(obs.tracer.spans) >= 2:
            n = len(obs.tracer.spans)
            src_sid, dst_sid = 1 + pick % n, 1 + (pick // 2) % n
            if src_sid != dst_sid:
                obs.tracer.edge(src_sid, dst_sid, kind="dep")
    return obs


class TestRoundTrip:
    @given(_programs)
    def test_streamed_store_reconstructs_exact_tracer(self, tmp_path_factory,
                                                      program):
        tmp = tmp_path_factory.mktemp("store")
        path = tmp / "trace.store.jsonl"
        clock = Clock()
        obs = Observer(clock=clock)
        with TraceStoreWriter(path, system="prop") as writer:
            writer.attach(obs)
            # Replay the same program against the attached observer.
            open_sids = []
            t = 0.0
            for op, dt, pick in program:
                t += dt / 10.0
                clock.t = t
                if op == "begin":
                    open_sids.append(obs.tracer.begin(
                        f"cat{pick % 3}", f"span at {t:.3f}",
                        track=f"track{pick}", node=pick, detail=f"d{pick}",
                    ))
                elif op == "end" and open_sids:
                    obs.tracer.end(open_sids.pop(pick % len(open_sids)),
                                   done=pick)
                elif op == "instant":
                    obs.tracer.instant(f"icat{pick % 2}", f"inst {t:.3f}",
                                       track="marks", n=pick)
                elif op == "edge" and len(obs.tracer.spans) >= 2:
                    n = len(obs.tracer.spans)
                    src_sid = 1 + pick % n
                    dst_sid = 1 + (pick // 2) % n
                    if src_sid != dst_sid:
                        obs.tracer.edge(src_sid, dst_sid, kind="dep")
        # Tiny chunks on purpose: fidelity must not depend on chunk size.
        rebuilt = load_tracer(path, chunk_bytes=256)
        assert tracer_state(rebuilt) == tracer_state(obs.tracer)

    def test_real_simulation_round_trips_bit_for_bit(self, tmp_path):
        from repro.hadoop import HadoopConfig, JobSpec, WORDCOUNT_PROFILE
        from repro.hadoop.simulation import HadoopSimulation
        from repro.util.units import MiB

        spec = JobSpec(name="rt", input_bytes=128 * MiB,
                       profile=WORDCOUNT_PROFILE, num_reduce_tasks=1)
        sim = HadoopSimulation(spec=spec, config=HadoopConfig(), observe=True)
        path = tmp_path / "run.store.jsonl"
        with sim.obs.stream_to(path, system="hadoop"):
            sim.run()
        rebuilt = load_tracer(path)
        assert tracer_state(rebuilt) == tracer_state(sim.obs.tracer)
        assert rebuilt.last_time() == sim.obs.tracer.last_time()

    def test_live_events_match_streamed_events(self, tmp_path):
        """``events_of`` (live) and the file agree on spans/instants/edges."""
        obs = run_program([("begin", 5.0, 1), ("instant", 1.0, 0),
                           ("begin", 2.0, 2), ("edge", 0.0, 1),
                           ("end", 3.0, 0)])
        live = [ev for ev in events_of(obs) if ev["k"] != "sample"]
        rebuilt = load_tracer(iter(live))
        assert tracer_state(rebuilt) == tracer_state(obs.tracer)


class TestChunkedReader:
    @pytest.fixture(scope="class")
    def big_store(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("store") / "big.store.jsonl"
        clock = Clock()
        obs = Observer(clock=clock)
        with TraceStoreWriter(path, system="big", index_every=100) as w:
            w.attach(obs)
            for i in range(500):
                clock.t = float(i)
                sid = obs.tracer.begin("cat", f"span{i}", track=f"t{i % 7}")
                clock.t = i + 0.5
                obs.tracer.end(sid)
                obs.metrics.histogram("g").set(i)
        return path

    def test_memory_stays_o_chunk(self, big_store):
        chunk = 1024
        reader = TraceStoreReader(big_store, chunk_bytes=chunk)
        n = sum(1 for _ in reader)
        assert n == 1500  # 500 * (begin + end + sample)
        longest = max(len(line) for line in
                      big_store.read_text().splitlines()) + 1
        # One chunk plus at most one carried (partial) line — never the
        # whole file, which is > 50 chunks here.
        assert reader.max_buffered_bytes <= chunk + longest
        assert reader.max_buffered_bytes < big_store.stat().st_size / 10

    def test_footer_counts_index_and_tail_read(self, big_store):
        footer = read_footer(big_store)
        assert footer is not None
        assert footer["events"] == 1500
        assert footer["counts"]["begin"] == 500
        assert footer["counts"]["sample"] == 500
        assert footer["final_time"] == 499.5
        assert footer["metrics"]["g"]["type"] == "histogram"
        # Sparse index: one [event_index, byte_offset] per 100 events,
        # each offset pointing at the start of that event's line.
        assert [i for i, _ in footer["index"]] == list(range(0, 1500, 100))
        assert_index_points_at_lines(big_store)

    def test_reader_exposes_header_and_footer(self, big_store):
        reader = TraceStoreReader(big_store)
        for _ in reader:
            pass
        assert reader.header == {"k": "header", "version": 1, "system": "big"}
        assert reader.footer is not None and reader.footer["k"] == "footer"

    def test_unclosed_store_has_no_footer(self, tmp_path):
        path = tmp_path / "open.store.jsonl"
        obs = Observer(clock=Clock())
        writer = TraceStoreWriter(path, system="x").attach(obs)
        obs.tracer.begin("cat", "s")
        writer._fh.flush()
        assert read_footer(path) is None
        writer.close()
        assert read_footer(path)["events"] == 1

    def test_same_seed_stores_are_byte_identical(self, tmp_path):
        from repro.hadoop import HadoopConfig, JobSpec, WORDCOUNT_PROFILE
        from repro.hadoop.simulation import HadoopSimulation
        from repro.util.units import MiB

        def run(path):
            spec = JobSpec(name="det", input_bytes=64 * MiB,
                           profile=WORDCOUNT_PROFILE, num_reduce_tasks=1)
            sim = HadoopSimulation(spec=spec, config=HadoopConfig(),
                                   seed=7, observe=True)
            with sim.obs.stream_to(path, system="hadoop"):
                sim.run()

        run(tmp_path / "a.jsonl")
        run(tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == \
            (tmp_path / "b.jsonl").read_bytes()


class Level(enum.IntEnum):
    LOW = 1


class Tag(str):
    """A ``str`` subclass: ``json`` writes its text, ``repr`` would not."""


def _mostly(plain, odd):
    """``plain`` most of the time, ``odd`` about one draw in ten."""
    return st.integers(0, 9).flatmap(lambda n: odd if n == 7 else plain)


_INF = float("inf")
_finite = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300, 0.1, 1 / 3]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_non_finite = st.sampled_from([float("nan"), _INF, -_INF])
_texts = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\x7f\n\t", "é✓😀",
                     "\ud800", "x\udfffy", ""]),
)
#: Values of the exact types the templates write themselves.
_plain = st.one_of(
    _finite,
    st.integers(),
    st.sampled_from([2**64, -(2**63) - 1, 10**40]),
    st.booleans(),
    st.none(),
    _texts,
)
#: Near misses the templates must leave to ``json``.
_odd = st.one_of(
    _non_finite,
    st.one_of(_finite, _non_finite).map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.just(Level.LOW),
    _texts.map(Tag),
)
_scalars = _mostly(_plain, _odd)
_values = st.recursive(
    st.one_of(_plain, _odd),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(_texts, inner, max_size=3),
    ),
    max_leaves=6,
)
_args = st.one_of(
    st.just({}),
    st.dictionaries(st.text(max_size=6), _scalars, max_size=4),
    # Nested values, and keys ``json`` turns into strings.
    st.dictionaries(st.one_of(_texts, st.integers(), st.booleans(),
                              st.none()), _values, max_size=3),
)
_clock = _mostly(
    st.one_of(_finite, st.integers(0, 10**6)),
    st.one_of(_non_finite, st.one_of(_finite, _non_finite).map(np.float64)),
)
_ids = _mostly(st.integers(0, 60), st.sampled_from([True, Level.LOW]))
_names = _mostly(_texts, st.one_of(_texts.map(Tag), _plain, _odd))
_sink_ops = st.one_of(
    st.tuples(st.just("begin"), _clock, _ids, _ids, _names, _names, _names,
              _args),
    st.tuples(st.just("end"), _clock, st.integers(0, 60), _args),
    st.tuples(st.just("instant"), _clock, _names, _names, _names, _args),
    st.tuples(st.just("edge"), _clock, _ids, _ids, _names, _args),
    st.tuples(st.just("sample"), _clock, _names, _mostly(_finite, _scalars)),
)


def write_sink_program(writer_cls, path, program, index_every):
    """Feed one program of sink calls to a fresh ``writer_cls`` store.

    Returns the store bytes and, per call, the exception type it raised
    (None if it did not).  ``end`` merges its args into the span's own
    dict, as ``SpanTracer.end`` does, so a begin line formatted late
    would show them.
    """
    spans, raised = [], []
    with writer_cls(path, system="prop", index_every=index_every) as writer:
        for op, t, *fields in program:
            try:
                if op == "begin":
                    sid, parent, cat, name, track, args = fields
                    span = Span(sid, parent, cat, name, track, t, None,
                                dict(args))
                    spans.append(span)
                    writer.on_begin(span)
                elif op == "end":
                    pick, args = fields
                    if not spans:
                        continue
                    span = spans[pick % len(spans)]
                    span.t1 = t
                    span.args.update(args)
                    writer.on_end(span.sid, t, args)
                elif op == "instant":
                    cat, name, track, args = fields
                    writer.on_instant(Instant(t, cat, name, track, args))
                elif op == "edge":
                    src, dst, kind, args = fields
                    writer.on_edge(Edge(src, dst, kind, t, args))
                else:
                    name, value = fields
                    writer.on_sample(name, t, value)
            except (TypeError, ValueError) as exc:
                raised.append(type(exc))
            else:
                raised.append(None)
    return path.read_bytes(), raised


def traced_fault_runs(writer_cls, out):
    """A seeded Hadoop run with one node crash and an MPI-D run that a
    link flap aborts, both streamed through ``writer_cls``."""
    from repro.hadoop import HadoopConfig, JobSpec, WORDCOUNT_PROFILE
    from repro.hadoop.simulation import HadoopSimulation
    from repro.mrmpi.simulator import MpiJobAborted, MrMpiSimulation
    from repro.simnet.faults import FaultPlan, LinkFlap, NodeCrash
    from repro.util.units import MiB

    spec = JobSpec(name="oracle", input_bytes=256 * MiB,
                   profile=WORDCOUNT_PROFILE, num_reduce_tasks=2)
    hadoop = HadoopSimulation(
        spec=spec, config=HadoopConfig(), seed=7, observe=True,
        fault_plan=FaultPlan(specs=(NodeCrash(node=3, at=8.0,
                                              restart_after=5.0),)),
    )
    mpid = MrMpiSimulation(
        spec=spec, seed=7, observe=True,
        fault_plan=FaultPlan(specs=(LinkFlap(node=2, at=1.0,
                                             duration=1.0),)),
    )
    paths = [out / "hadoop.jsonl", out / "mpid.jsonl"]
    with writer_cls(paths[0], system="hadoop").attach(hadoop.obs):
        hadoop.run()
    with writer_cls(paths[1], system="mpid").attach(mpid.obs):
        with pytest.raises(MpiJobAborted):
            mpid.run()
    return paths


class TestByteOracle:
    @settings(max_examples=300)
    @given(st.lists(_sink_ops, max_size=25), st.integers(1, 4))
    def test_templates_write_what_json_writes(self, tmp_path_factory,
                                              program, index_every):
        tmp = tmp_path_factory.mktemp("bytes")
        want, want_raised = write_sink_program(
            JsonStoreWriter, tmp / "json.jsonl", program, index_every)
        got, got_raised = write_sink_program(
            TraceStoreWriter, tmp / "store.jsonl", program, index_every)
        assert got_raised == want_raised
        assert got == want
        if want_raised and not any(want_raised):
            assert_index_points_at_lines(tmp / "store.jsonl")

    def test_fault_run_stores_are_byte_equal(self, tmp_path):
        want = traced_fault_runs(JsonStoreWriter, tmp_path / "json")
        got = traced_fault_runs(TraceStoreWriter, tmp_path / "store")
        for w, g in zip(want, got):
            assert g.read_bytes() == w.read_bytes(), g.name
            assert_index_points_at_lines(g)
        events = [ev for path in got for ev in read_events(path)]
        arg_types = {(k, type(v)) for ev in events
                     for k, v in ev.get("args", {}).items()}
        assert any(ev["k"] == "instant" and ev["cat"] == "fault"
                   for ev in events)
        assert {("outcome", str), ("won", bool)} <= arg_types


class TestCorruptStores:
    def test_begin_sid_out_of_order_raises(self):
        with pytest.raises(ValueError, match="begin sid"):
            load_tracer(iter([
                {"k": "begin", "sid": 2, "parent": 0, "cat": "c", "name": "n",
                 "track": "t", "t0": 0.0, "args": {}},
            ]))

    def test_end_of_unknown_span_raises(self):
        with pytest.raises(ValueError, match="unknown span"):
            load_tracer(iter([{"k": "end", "sid": 9, "t1": 1.0, "args": {}}]))

    def test_second_end_of_a_span_raises(self):
        with pytest.raises(ValueError, match="ended twice"):
            load_tracer(iter([
                {"k": "begin", "sid": 1, "parent": 0, "cat": "c", "name": "n",
                 "track": "t", "t0": 0.0, "args": {}},
                {"k": "end", "sid": 1, "t1": 1.0, "args": {}},
                {"k": "end", "sid": 1, "t1": 2.0, "args": {}},
            ]))

    def test_parent_that_is_not_an_earlier_span_raises(self):
        with pytest.raises(ValueError, match="parent 5"):
            load_tracer(iter([
                {"k": "begin", "sid": 1, "parent": 5, "cat": "c", "name": "n",
                 "track": "t", "t0": 0.0, "args": {}},
            ]))

    @pytest.mark.parametrize("src, dst, match", [
        (1, 9, "unknown span 9"),
        (1, 1, "to itself"),
    ])
    def test_bad_edge_raises(self, src, dst, match):
        with pytest.raises(ValueError, match=match):
            load_tracer(iter([
                {"k": "begin", "sid": 1, "parent": 0, "cat": "c", "name": "n",
                 "track": "t", "t0": 0.0, "args": {}},
                {"k": "edge", "src": src, "dst": dst, "kind": "dep", "t": 0.0,
                 "args": {}},
            ]))

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            load_tracer(iter([{"k": "bogus"}]))

    def test_detach_on_close_stops_streaming(self, tmp_path):
        path = tmp_path / "s.jsonl"
        obs = Observer(clock=Clock())
        writer = TraceStoreWriter(path).attach(obs)
        obs.tracer.instant("cat", "before")
        writer.close()
        obs.tracer.instant("cat", "after")  # must not hit the closed file
        kinds = [ev["k"] for ev in read_events(path)]
        assert kinds == ["instant"]
        assert obs.tracer.sink is None
        assert obs.metrics.sample_sink is None

    def test_store_lines_are_valid_compact_json(self, tmp_path):
        path = tmp_path / "s.jsonl"
        obs = Observer(clock=Clock())
        with TraceStoreWriter(path).attach(obs):
            sid = obs.tracer.begin("cat", "n")
            obs.tracer.end(sid)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["k"] == "header"
        assert json.loads(lines[-1])["k"] == "footer"
        assert all(json.loads(line) for line in lines)
