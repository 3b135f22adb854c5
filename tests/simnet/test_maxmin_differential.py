"""Differential + property tests pinning the max-min solver AND the
flow engine.

Two independent optimisations must reproduce their oracles
(:mod:`tests.simnet.oracle`) **bit-for-bit** — same divisions, same
epsilon-tie choices, same floats — under arbitrary interleavings of
flow arrivals, departures, kills, link flaps, capacity changes and
partitions:

* the max-min solver (`Network._maxmin_rates`: the reference loop with
  cheaper bookkeeping) against the from-scratch
  :func:`~tests.simnet.oracle.reference_rates`, checked synchronously
  at every op;
* the horizon-batching engine (dense slot lists, deferred same-instant
  solve flush, pooled completion ticks) against the scalar oracle
  (:class:`tests.simnet.oracle.ScalarNetwork`), checked by replaying
  identical op sequences under both and comparing every checkpoint's
  rates, every flow's finish instant and the final delivered-byte
  counters exactly.

Max-min structural invariants (capacity respected, caps respected,
every uncapped-below-cap flow has a saturated bottleneck where it gets
a maximal share) are asserted on the same checkpoints.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.kernel import Simulator
from repro.simnet.network import Network
from tests.simnet.oracle import ReferenceSolverNetwork, ScalarNetwork, reference_rates

NODES = 5
REL_TOL = 1e-6

#: Engine sweep: the scalar oracle and the production slot engine.
ENGINES = [
    pytest.param(ScalarNetwork, id="ref-engine"),
    pytest.param(Network, id="vec-engine"),
]


def _build(network_cls=Network):
    sim = Simulator()
    net = network_cls(sim)
    ups, dns = [], []
    for n in range(NODES):
        # Deliberately non-uniform capacities: uniform ones hide
        # tie-breaking bugs because every order gives the same shares.
        ups.append(net.add_link(f"n{n}.up", 100e6 * (1 + 0.11 * n)))
        dns.append(net.add_link(f"n{n}.dn", 95e6 * (1 + 0.07 * n)))
    return sim, net, ups, dns


def _check_against_reference(net: Network) -> None:
    """Standing rates == a from-scratch reference solve."""
    rates = {f.seq: f.rate for f in net._flows}
    reference_rates(net)
    ref_rates = {f.seq: f.rate for f in net._flows}
    assert rates == ref_rates, (
        "solver diverged from reference: "
        f"{ {s: (rates[s], ref_rates[s]) for s in rates if rates[s] != ref_rates[s]} }"
    )


def _check_maxmin_invariants(net: Network) -> None:
    links = {l for f in net._flows for l in f.path}
    loads = {l: sum(f.rate for f in l._flows) for l in links}
    for link, load in loads.items():
        assert load <= link.capacity * (1 + REL_TOL), (
            f"{link.name} over capacity: {load} > {link.capacity}"
        )
    for f in net._flows:
        assert f.rate <= f.rate_cap * (1 + REL_TOL), (
            f"flow #{f.seq} above its cap: {f.rate} > {f.rate_cap}"
        )
        if f.rate >= f.rate_cap * (1 - REL_TOL):
            continue  # cap-frozen: its bottleneck is the protocol, not a link
        # Below its cap: some path link must be saturated with this flow
        # taking a maximal share there (the max-min bottleneck property).
        has_bottleneck = False
        for link in f.path:
            saturated = loads[link] >= link.capacity * (1 - REL_TOL)
            maximal = all(
                f.rate >= other.rate * (1 - REL_TOL) for other in link._flows
            )
            if saturated and maximal:
                has_bottleneck = True
                break
        assert has_bottleneck, (
            f"flow #{f.seq} at {f.rate} (cap {f.rate_cap}) has no "
            f"saturated bottleneck on its path"
        )


def _resolve_cap(cap, path) -> float:
    """A start op's rate cap: ``None`` (uncapped), a fixed rate, or
    ``("share", i, m, k)`` — the fair share of ``m`` flows on the path's
    ``i``-th link at its current capacity, moved by ``k`` tie windows
    (``k * 1e-9``), where a cap and a link share bind together.
    """
    if cap is None:
        return float("inf")
    if isinstance(cap, tuple):
        _, i, m, k = cap
        return path[i].capacity / m + k * Network._EPS
    return cap


def _apply_ops(ops, network_cls=Network):
    """Drive one op sequence on a ``network_cls`` network.

    Returns ``(checkpoints, rate_log, bytes_delivered, end_clock)``
    where ``rate_log`` records ``(sim.now, {flow_seq: rate})`` at every
    checkpoint, then ``(flow_seq, sim.now, ok)`` for every flow in the
    order flows finished or died — the exact-comparison payload for
    cross-engine sweeps — and ``end_clock`` is ``sim.now`` after
    ``run`` (compared by :func:`_check_end_clocks`).
    """
    sim, net, ups, dns = _build(network_cls)
    flows: list = []
    checks = 0
    rate_log: list = []
    finished: list = []

    def check():
        nonlocal checks
        # The slot engine batches same-instant membership churn into one
        # deferred solve; force it now so standing rates are
        # inspectable synchronously (a timeline no-op — see the hook).
        net._settle_pending()
        rate_log.append((sim.now, {f.seq: f.rate for f in net._flows}))
        _check_against_reference(net)
        _check_maxmin_invariants(net)
        checks += 1

    def driver():
        for op in ops:
            kind = op[0]
            if kind == "start":
                _, s, d, size, cap = op
                if s == d:
                    d = (d + 1) % NODES
                path = (ups[s], dns[d])
                f = net.transfer_flow(path, size, rate_cap=_resolve_cap(cap, path))
                f.done.defuse()  # kills are intentional here
                f.done.callbacks.append(
                    lambda ev, f=f: finished.append((f.seq, sim.now, ev.ok))
                )
                flows.append(f)
            elif kind == "kill":
                if flows:
                    net.fail_flow(flows[op[1] % len(flows)], reason="prop-kill")
            elif kind == "down":
                net.set_link_down(ups[op[1]])
            elif kind == "up":
                net.set_link_up(ups[op[1]])
            elif kind == "capacity":
                _, n, scale = op
                net.set_link_capacity(dns[n], 95e6 * scale)
            elif kind == "partition":
                cut = op[1]
                groups = {}
                for i in range(NODES):
                    groups[ups[i]] = 0 if i < cut else 1
                    groups[dns[i]] = 0 if i < cut else 1
                net.set_partition(groups)
            elif kind == "heal":
                net.clear_partition()
            elif kind == "wait":
                yield sim.timeout(op[1])
            check()
        # Let everything drain, checking at a few more quiesce points.
        while net._flows:
            yield sim.timeout(0.05)
            check()

    sim.process(driver(), name="diff-driver")
    sim.run()
    assert not net._flows
    return checks, rate_log + finished, net.bytes_delivered, sim.now


def _check_end_clocks(log, scalar_end, slot_end, solver_end) -> None:
    """The clocks after ``run`` of one op sequence on the scalar oracle,
    the slot engine and the slot engine with the reference solver.

    A superseded completion timer is a tombstone that still advances
    the clock when it pops, so the end clock is the latest instant any
    event was scheduled for, superseded timers included.  Both slot
    runs arm the same timers when their rates agree: their end clocks
    are equal.  The scalar oracle also re-solves between the changes of
    one op (each flow a link-down kills, say) and arms timers the slot
    engine never arms, so its end clock is only an upper bound; the
    drained checkpoint, the last of ``log`` (0 for an empty sequence),
    is the lower one.  Rate caps play no part in that gap: it opens on
    about 3% of seeded sequences, with caps on a link's share or
    without them.
    """
    drained = max((entry[0] for entry in log if len(entry) == 2), default=0.0)
    assert slot_end == solver_end
    assert drained <= slot_end <= scalar_end


_node = st.integers(0, NODES - 1)
_share_cap = st.tuples(
    st.just("share"), st.integers(0, 1), st.integers(1, 4), st.integers(-3, 3)
)
_op = st.one_of(
    st.tuples(
        st.just("start"),
        _node,
        _node,
        st.floats(1e3, 5e8),
        st.one_of(st.sampled_from([None, None, 8e5, 2.5e7, 6e7]), _share_cap),
    ),
    st.tuples(st.just("kill"), st.integers(0, 999)),
    st.tuples(st.just("down"), _node),
    st.tuples(st.just("up"), _node),
    st.tuples(st.just("capacity"), _node, st.floats(0.2, 2.5)),
    st.tuples(st.just("partition"), st.integers(1, NODES - 1)),
    st.tuples(st.just("heal")),
    st.tuples(st.just("wait"), st.floats(0.0, 0.4)),
)


@given(st.lists(_op, max_size=30))
@settings(max_examples=40)
def test_differential_random_ops(ops):
    """Hypothesis churn, swept across engines AND solvers.

    The scalar oracle run is the reference: the slot engine with either
    the production or the reference solver must reproduce its
    checkpoint rates, finish instants and delivered bytes *exactly* (no
    tolerance: same IEEE operations, same results).
    """
    _, ref_log, ref_bytes, ref_end = _apply_ops(ops, ScalarNetwork)
    ends = []
    for network_cls in (Network, ReferenceSolverNetwork):
        _, log, nbytes, end = _apply_ops(ops, network_cls)
        assert log == ref_log, (
            f"{network_cls.__name__} diverged from the scalar oracle"
        )
        assert nbytes == ref_bytes
        ends.append(end)
    _check_end_clocks(ref_log, ref_end, *ends)


def _seeded_cap(rng: random.Random):
    cap = rng.choice([None, None, None, 8e5, 2.5e7, 6e7, "share"])
    if cap == "share":
        return ("share", rng.randrange(2), rng.randint(1, 4), rng.randint(-3, 3))
    return cap


def _seeded_ops(seed: int, count: int):
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.45:
            ops.append(
                (
                    "start",
                    rng.randrange(NODES),
                    rng.randrange(NODES),
                    10 ** rng.uniform(3, 8.6),
                    _seeded_cap(rng),
                )
            )
        elif roll < 0.6:
            ops.append(("kill", rng.randrange(1000)))
        elif roll < 0.68:
            ops.append(("down", rng.randrange(NODES)))
        elif roll < 0.76:
            ops.append(("up", rng.randrange(NODES)))
        elif roll < 0.84:
            ops.append(("capacity", rng.randrange(NODES), rng.uniform(0.2, 2.5)))
        elif roll < 0.88:
            ops.append(("partition", rng.randrange(1, NODES)))
        elif roll < 0.92:
            ops.append(("heal",))
        else:
            ops.append(("wait", rng.uniform(0.0, 0.4)))
    return ops


@pytest.mark.parametrize("network_cls", ENGINES)
@pytest.mark.parametrize("seed", [2011, 2012, 2013])
def test_differential_seeded_churn(seed, network_cls):
    checks, _, _, _ = _apply_ops(_seeded_ops(seed, 60), network_cls)
    assert checks >= 60


@pytest.mark.parametrize("seed", [2011, 2013])
def test_cross_engine_rates_and_bytes_exact(seed):
    """Seeded churn: slot-engine checkpoints == scalar checkpoints, exactly."""
    ops = _seeded_ops(seed, 80)
    _, ref_log, ref_bytes, ref_end = _apply_ops(ops, ScalarNetwork)
    _, vec_log, vec_bytes, vec_end = _apply_ops(ops)
    assert vec_log == ref_log
    assert vec_bytes == ref_bytes
    solver_end = _apply_ops(ops, ReferenceSolverNetwork)[3]
    _check_end_clocks(ref_log, ref_end, vec_end, solver_end)


@pytest.mark.slow
@pytest.mark.parametrize("network_cls", ENGINES)
@pytest.mark.parametrize("seed", [7, 40, 1337])
def test_differential_seeded_churn_long(seed, network_cls):
    """Long churn: hundreds of joins, kills, flaps and capacity changes."""
    checks, _, _, _ = _apply_ops(_seeded_ops(seed, 400), network_cls)
    assert checks >= 400


def test_vectorized_defers_solve_to_one_per_instant():
    """Same-instant churn under the slot engine costs ONE solve."""
    sim, net, ups, dns = _build()
    for i in range(6):
        net.transfer_flow((ups[i % NODES], dns[(i + 1) % NODES]), 1e6)
    # All six arrivals landed at t=0; the solve is still queued.
    assert net.rate_recomputes == 0
    net._settle_pending()
    assert net.rate_recomputes == 1
    # Settling consumed the pending flush; settling again is a no-op.
    net._settle_pending()
    assert net.rate_recomputes == 1


def test_disjoint_groups_near_a_tie_match_the_reference():
    """Two groups of flows that share no link, with bottleneck shares
    inside the solver's 1e-9 tie window.

    The full pass breaks the near-tie across both groups: ``a0``'s share
    wins over ``a1``'s and then loses to ``a2``'s.  A solver that
    re-solves only the group a change touched breaks it inside that
    group and freezes the three late flows on the wrong bottleneck.
    """
    sim = Simulator()
    net = Network(sim)
    a0 = net.add_link("a0", 46e6)
    a1 = net.add_link("a1", 2 * (1e6 - 0.9e-9))
    a2 = net.add_link("a2", 2 * (1e6 - 1.5e-9))
    for _ in range(46):
        net.transfer_flow((a0,), 1e12)
    net._settle_pending()
    late = [
        net.transfer_flow(path, 1e12) for path in ((a1,), (a1, a2), (a2,))
    ]
    net._settle_pending()
    # The shares really sit inside the tie window: a1 ties a0, a2 beats it.
    assert 1e6 - Network._EPS < a1.capacity / 2 < 1e6
    assert a2.capacity / 2 < 1e6 - Network._EPS
    assert len(net._flows) == 49
    _check_against_reference(net)
    assert [f.rate for f in late] == [
        a1.capacity - a2.capacity / 2,
        a2.capacity / 2,
        a2.capacity / 2,
    ]
