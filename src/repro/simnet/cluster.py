"""Cluster model: nodes with CPUs/disk/NICs around one switch.

:func:`paper_cluster` builds the paper's testbed: 8 nodes, each with two
quad-core Xeon E5620s (8 cores), 16 GB RAM, one SATA disk, all ports on a
single Gigabit Ethernet switch.  Every node gets a full-duplex pair of
links (uplink to the switch, downlink from it); a flow from node A to
node B traverses ``A.uplink`` then ``B.downlink``, so fan-in congestion
at a busy reducer shows up exactly where it does on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simnet.kernel import Event, Simulator
from repro.simnet.network import Flow, Link, Network
from repro.simnet.resources import RateDevice, SlotPool
from repro.util.units import GiB, MiB


@dataclass(frozen=True)
class ClusterSpec:
    """Hardware parameters for a homogeneous cluster."""

    num_nodes: int = 8
    cores_per_node: int = 8
    memory_bytes: int = 16 * GiB
    # Effective GigE goodput.  The wire rate is 125 MB/s; TCP/IP framing
    # leaves ~117 MiB/s, consistent with the paper's measured MPICH2 peak
    # of ~111 MB/s once library overheads are charged by the transports.
    link_bandwidth: float = 117.0 * MiB
    link_latency: float = 50e-6  # one-way propagation + switch cut-through
    # Single 7.2k SATA disk, circa 2010: ~90 MB/s sequential.
    disk_bandwidth: float = 90.0 * MiB
    disk_seek: float = 8e-3

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError(f"need at least one node, got {self.num_nodes}")
        if self.cores_per_node < 1:
            raise ValueError(f"need at least one core, got {self.cores_per_node}")
        if min(self.link_bandwidth, self.disk_bandwidth) <= 0:
            raise ValueError("bandwidths must be positive")
        if min(self.link_latency, self.disk_seek) < 0:
            raise ValueError("latencies may not be negative")


@dataclass
class Node:
    """One simulated machine."""

    node_id: int
    name: str
    cpus: SlotPool
    disk: RateDevice
    uplink: Link
    downlink: Link
    memory_bytes: int
    spec: ClusterSpec = field(repr=False, default=None)  # type: ignore[assignment]

    def disk_read(self, nbytes: float, sequential: bool = True) -> Event:
        """Read from the local disk; one seek is charged per request."""
        return self._disk_io(nbytes, sequential)

    def disk_write(self, nbytes: float, sequential: bool = True) -> Event:
        """Write to the local disk (same service model as reads)."""
        return self._disk_io(nbytes, sequential)

    def _disk_io(self, nbytes: float, sequential: bool) -> Event:
        seek_bytes = 0.0 if sequential else self.spec.disk_seek * self.disk.rate
        return self.disk.transfer(nbytes + seek_bytes)


class Cluster:
    """A set of :class:`Node` objects sharing one :class:`Network`.

    ``send(src, dst, nbytes, latency)`` is the raw fabric primitive the
    transport models build on: it prices only propagation and max-min
    shared bandwidth — protocol costs (RPC serialization, HTTP framing,
    MPI eager/rendezvous) belong to :mod:`repro.transports`.
    """

    def __init__(self, sim: Simulator, spec: ClusterSpec):
        self.sim = sim
        self.spec = spec
        self.network = Network(sim)
        self.nodes: list[Node] = []
        for i in range(spec.num_nodes):
            name = f"node{i}"
            up = self.network.add_link(f"{name}.up", spec.link_bandwidth)
            down = self.network.add_link(f"{name}.down", spec.link_bandwidth)
            node = Node(
                node_id=i,
                name=name,
                cpus=SlotPool(sim, spec.cores_per_node, name=f"{name}.cpus"),
                disk=RateDevice(sim, spec.disk_bandwidth, name=f"{name}.disk"),
                uplink=up,
                downlink=down,
                memory_bytes=spec.memory_bytes,
                spec=spec,
            )
            self.nodes.append(node)

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def send(
        self,
        src: int,
        dst: int,
        nbytes: float,
        extra_latency: float = 0.0,
        rate_cap: float = float("inf"),
        waiter_sid: int = 0,
    ) -> Event:
        """Move ``nbytes`` from ``src`` to ``dst``; returns the completion event.

        A node-local transfer (``src == dst``) bypasses the switch and is
        charged only ``extra_latency`` (plus ``rate_cap`` drain time when
        the protocol, not the wire, is the bottleneck — loopback doesn't
        make Hadoop RPC fast).  ``waiter_sid`` optionally names the span
        that waits on this transfer so the tracer can record a
        happens-before edge (see :meth:`Network.transfer`).
        """
        return self.send_flow(
            src, dst, nbytes, extra_latency, rate_cap, waiter_sid=waiter_sid
        ).done

    def send_flow(
        self,
        src: int,
        dst: int,
        nbytes: float,
        extra_latency: float = 0.0,
        rate_cap: float = float("inf"),
        waiter_sid: int = 0,
    ) -> Flow:
        """:meth:`send` returning the :class:`Flow` handle instead of the
        event — for callers that may need to cancel it (fetch timeouts)
        or that retry on :class:`~repro.simnet.network.FlowFailed`."""
        if src == dst:
            return self.network.transfer_flow(
                (),
                nbytes,
                latency=extra_latency,
                rate_cap=rate_cap,
                waiter_sid=waiter_sid,
            )
        path = (self.nodes[src].uplink, self.nodes[dst].downlink)
        return self.network.transfer_flow(
            path,
            nbytes,
            latency=self.spec.link_latency + extra_latency,
            rate_cap=rate_cap,
            waiter_sid=waiter_sid,
        )

    def utilization_report(self, elapsed: float) -> dict:
        """Per-node resource utilization over ``elapsed`` simulated seconds.

        The bottleneck-analysis view: which disks and links were busy,
        and how many bytes each moved.
        """
        # Link byte counters settle lazily; bring them up to now first.
        self.network.settle_accounting()
        report: dict = {}
        for node in self.nodes:
            report[node.name] = {
                "disk": node.disk.utilization(elapsed),
                "disk_bytes": node.disk.bytes_served,
                "uplink": node.uplink.utilization(elapsed),
                "downlink": node.downlink.utilization(elapsed),
            }
        return report


def paper_cluster(sim: Simulator, num_nodes: int = 8) -> Cluster:
    """The ICPP-2011 testbed: ``num_nodes`` Xeon E5620 boxes on one GigE switch."""
    return Cluster(sim, ClusterSpec(num_nodes=num_nodes))
