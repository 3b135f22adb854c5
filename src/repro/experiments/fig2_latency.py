"""Figure 2: ping-pong latency, Hadoop RPC vs MPICH2, three panels.

Reproduces the methodology of Section II-B: 100 ping-pong trials per
size, latency = round-trip / 2, first 5 JVM trials dropped.  Panel (a)
covers 1 B - 1 KB, (b) 1 KB - 1 MB, (c) 1 MB - 64 MB, as in the paper.

Run: ``python -m repro fig2 [--trials N]``
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import paper
from repro.experiments.reporting import Table, banner, compare_to_paper
from repro.transports import HadoopRpcTransport, LatencyBench, MpichTransport
from repro.util.units import KiB, MiB, fmt_bytes, fmt_time


@dataclass
class Fig2Result:
    """Latency sweep: size -> (rpc, mpich) average latency in seconds."""

    sizes: list[int]
    rpc: dict[int, float] = field(default_factory=dict)
    mpich: dict[int, float] = field(default_factory=dict)

    def ratio(self, size: int) -> float:
        return self.rpc[size] / self.mpich[size]


def panel_sizes(panel: str) -> list[int]:
    lo, hi = paper.FIG2_PANELS[panel]
    sizes = []
    n = lo
    while n <= hi:
        sizes.append(n)
        n *= 2
    return sizes


def run(trials: int = 100, seed: int = 20110913) -> Fig2Result:
    """Sweep all three panels' sizes through both transports."""
    sizes = sorted({s for p in paper.FIG2_PANELS for s in panel_sizes(p)})
    result = Fig2Result(sizes=sizes)
    rpc_bench = LatencyBench(HadoopRpcTransport(), trials=trials, seed=seed)
    mpi_bench = LatencyBench(MpichTransport(), trials=trials, seed=seed)
    for n in sizes:
        result.rpc[n] = rpc_bench.measure(n).latency
        result.mpich[n] = mpi_bench.measure(n).latency
    return result


def format_report(result: Fig2Result) -> str:
    blocks = [banner("Figure 2: message latency, Hadoop RPC vs MPICH2")]
    for panel in ("a", "b", "c"):
        sizes = [s for s in panel_sizes(panel) if s in result.rpc]
        table = Table(
            headers=("size", "Hadoop RPC", "MPICH2", "RPC/MPI"),
            title=f"-- Figure 2({panel}) --",
        )
        for n in sizes:
            table.add_row(
                fmt_bytes(n),
                fmt_time(result.rpc[n]),
                fmt_time(result.mpich[n]),
                f"{result.ratio(n):.1f}x",
            )
        blocks.append(table.render())
    comparisons = [
        ("RPC/MPI ratio @ 1 B", result.ratio(1), paper.FIG2_RATIO_1B),
        ("RPC/MPI ratio @ 1 KB", result.ratio(1 * KiB), paper.FIG2_RATIO_1KB),
        ("RPC/MPI ratio @ 1 MB", result.ratio(1 * MiB), paper.FIG2_RATIO_1MB),
        ("RPC latency @ 1 KB (s)", result.rpc[1 * KiB], paper.FIG2_RPC_LATENCY[1 * KiB]),
        ("RPC latency @ 64 MB (s)", result.rpc[64 * MiB], paper.FIG2_RPC_LATENCY[64 * MiB]),
        (
            "MPICH2 latency @ 64 MB (s)",
            result.mpich[64 * MiB],
            paper.FIG2_MPICH_LATENCY[64 * MiB],
        ),
    ]
    blocks.append(compare_to_paper(comparisons))
    return "\n\n".join(blocks)


if __name__ == "__main__":
    from repro.__main__ import alias
    raise SystemExit(alias(__spec__.name))
