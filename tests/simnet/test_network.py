"""Tests for the max-min fair flow-level network model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.kernel import Simulator
from repro.simnet.network import Network
from tests.simnet.oracle import ScalarNetwork


def _net_two_links(sim, cap=100.0):
    net = Network(sim)
    up = net.add_link("up", cap)
    down = net.add_link("down", cap)
    return net, up, down


class TestSingleFlow:
    def test_full_capacity(self):
        sim = Simulator()
        net, up, down = _net_two_links(sim)

        def proc(sim):
            yield net.transfer((up, down), 500.0)

        sim.process(proc(sim))
        assert sim.run() == pytest.approx(5.0)

    def test_latency_added_before_bytes(self):
        sim = Simulator()
        net, up, down = _net_two_links(sim)

        def proc(sim):
            yield net.transfer((up, down), 100.0, latency=2.0)

        sim.process(proc(sim))
        assert sim.run() == pytest.approx(3.0)

    def test_zero_bytes_costs_only_latency(self):
        sim = Simulator()
        net, up, down = _net_two_links(sim)

        def proc(sim):
            yield net.transfer((up, down), 0.0, latency=0.25)

        sim.process(proc(sim))
        assert sim.run() == pytest.approx(0.25)

    def test_empty_path_is_local(self):
        sim = Simulator()
        net = Network(sim)

        def proc(sim):
            yield net.transfer((), 1e9, latency=0.5)

        sim.process(proc(sim))
        assert sim.run() == pytest.approx(0.5)

    def test_validation(self):
        sim = Simulator()
        net, up, down = _net_two_links(sim)
        with pytest.raises(ValueError):
            net.transfer((up,), -1)
        with pytest.raises(ValueError):
            net.transfer((up,), 1, latency=-1)
        with pytest.raises(ValueError):
            net.add_link("up", 50)


class TestSharing:
    def test_two_flows_same_link_split_evenly(self):
        sim = Simulator()
        net = Network(sim)
        link = net.add_link("l", 100.0)
        done = []

        def proc(sim, tag):
            yield net.transfer((link,), 100.0)
            done.append((tag, sim.now))

        sim.process(proc(sim, "a"))
        sim.process(proc(sim, "b"))
        sim.run()
        assert done == [("a", 2.0), ("b", 2.0)]

    def test_disjoint_flows_dont_interfere(self):
        sim = Simulator()
        net = Network(sim)
        l1 = net.add_link("l1", 100.0)
        l2 = net.add_link("l2", 100.0)
        done = {}

        def proc(sim, tag, link):
            yield net.transfer((link,), 100.0)
            done[tag] = sim.now

        sim.process(proc(sim, "a", l1))
        sim.process(proc(sim, "b", l2))
        sim.run()
        assert done == {"a": 1.0, "b": 1.0}

    def test_maxmin_bottleneck_reallocation(self):
        """Classic max-min: flows A (l1), B (l1+l2), C (l2), caps 100 each.

        Fair share: B is constrained to 50 on both links; A and C then get
        the leftover 50... actually progressive filling gives every flow 50
        first (both links have 2 flows), then A and C get the residual:
        A=50, B=50, C=50 -> residual 0. All flows at 50.
        """
        sim = Simulator()
        net = Network(sim)
        l1 = net.add_link("l1", 100.0)
        l2 = net.add_link("l2", 100.0)
        done = {}

        def proc(sim, tag, path, size):
            yield net.transfer(path, size)
            done[tag] = sim.now

        sim.process(proc(sim, "A", (l1,), 100.0))
        sim.process(proc(sim, "B", (l1, l2), 100.0))
        sim.process(proc(sim, "C", (l2,), 100.0))
        sim.run()
        # All three start at 50 B/s. Nobody finishes before t=2; at t=2 all
        # three complete simultaneously (equal sizes, equal rates).
        assert done == {"A": 2.0, "B": 2.0, "C": 2.0}

    def test_departure_speeds_up_survivor(self):
        sim = Simulator()
        net = Network(sim)
        link = net.add_link("l", 100.0)
        done = {}

        def proc(sim, tag, size):
            yield net.transfer((link,), size)
            done[tag] = sim.now

        sim.process(proc(sim, "small", 50.0))
        sim.process(proc(sim, "big", 150.0))
        sim.run()
        # Shared at 50/50 until small finishes at t=1 (50 bytes each);
        # big then has 100 left at 100 B/s -> t=2.
        assert done["small"] == pytest.approx(1.0)
        assert done["big"] == pytest.approx(2.0)

    def test_fan_in_congestion(self):
        """7 senders -> 1 receiver: receiver downlink is the bottleneck."""
        sim = Simulator()
        net = Network(sim)
        downlink = net.add_link("rx.down", 100.0)
        uplinks = [net.add_link(f"tx{i}.up", 100.0) for i in range(7)]
        done = []

        def proc(sim, up):
            yield net.transfer((up, downlink), 100.0)
            done.append(sim.now)

        for up in uplinks:
            sim.process(proc(sim, up))
        sim.run()
        # All 7 share the 100 B/s downlink -> 7*100/100 = 7 s.
        assert done == pytest.approx([7.0] * 7)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(1.0, 1000.0), min_size=1, max_size=10),
    )
    def test_shared_link_work_conservation(self, sizes):
        """n flows on one link: makespan == total_bytes / capacity exactly."""
        sim = Simulator()
        net = Network(sim)
        link = net.add_link("l", 100.0)

        def proc(sim, size):
            yield net.transfer((link,), size)

        for size in sizes:
            sim.process(proc(sim, size))
        end = sim.run()
        assert end == pytest.approx(sum(sizes) / 100.0)

    def test_bytes_delivered_accounting(self):
        sim = Simulator()
        net = Network(sim)
        link = net.add_link("l", 100.0)

        def proc(sim):
            yield net.transfer((link,), 70.0)

        sim.process(proc(sim))
        sim.run()
        assert net.bytes_delivered == pytest.approx(70.0)


class TestArenaIsolation:
    """Slot/arena reuse must never leak state across Network instances.

    The flow engine keeps per-network dense slot lists (swap-remove
    recycling) and draws completion timers from the simulator's pooled
    tick arena.  A fresh Network — on a fresh simulator OR sharing a
    simulator whose tick pool is already warm from a previous
    network's run — must behave exactly like the first.
    """

    SIZES = (50.0, 130.0, 70.0, 260.0)

    def _run_round(self, sim, net):
        link = net.add_link("arena-l", 100.0)
        t0 = sim.now
        done = []

        def proc(size):
            yield net.transfer((link,), size)
            done.append((sim.now - t0, size))

        for s in self.SIZES:
            sim.process(proc(s))
        sim.run()
        return done, net.bytes_delivered

    @pytest.mark.parametrize(
        "network_cls",
        [
            pytest.param(Network, id="vectorized"),
            pytest.param(ScalarNetwork, id="reference"),
        ],
    )
    def test_fresh_network_after_run_is_pristine(self, network_cls):
        sim = Simulator()
        first = network_cls(sim)
        base_done, base_bytes = self._run_round(sim, first)
        assert len(base_done) == len(self.SIZES)
        # The slot lists drain back to empty with every slot freed.
        assert first._slot_flows == []
        assert first._slot_rem == []
        assert first._slot_rate == []
        # A second network on the SAME simulator starts with a warm
        # tick arena and a non-zero clock; it must reproduce the first
        # network's timeline relative to its own start, from blank state.
        second = network_cls(sim)
        assert second._slot_flows == [] and second._slot_rem == []
        done2, bytes2 = self._run_round(sim, second)
        assert [s for _, s in done2] == [s for _, s in base_done]
        for (dt2, _), (dt1, _) in zip(done2, base_done):
            assert dt2 == pytest.approx(dt1)
        assert bytes2 == pytest.approx(base_bytes)
        assert first.bytes_delivered == pytest.approx(base_bytes)  # untouched

    def test_finished_flows_release_their_slots(self):
        sim = Simulator()
        net = Network(sim)
        link = net.add_link("slots-l", 100.0)
        flows = [net.transfer_flow((link,), 40.0) for _ in range(3)]
        assert [f.slot for f in flows] == [0, 1, 2]
        sim.run()
        assert all(f.slot == -1 for f in flows)
        assert all(f.done.triggered for f in flows)
        # The next flow reuses slot 0 — dense from the bottom again.
        late = net.transfer_flow((link,), 10.0)
        assert late.slot == 0
        sim.run()
        assert late.slot == -1
