"""Golden digests: every canonical export, pinned across commits.

``digests.json`` holds the sha256 of each file the cases below write, as
the commit named in its ``generated_at`` wrote them.  A case is one
``python -m repro`` command; experiment cases add ``--out DIR``.  A
multi-command case runs its commands in order and spells every path as
``{dir}/...``, so later commands read what earlier ones wrote.  The
tests in ``tests/experiments/test_golden_digests.py`` rebuild every case
and compare; ``python -m tests.golden --bless`` rewrites the file and
prints which entries moved.  A change that moves a digest re-blesses it
in the same change and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from repro.__main__ import main

DIGESTS = Path(__file__).with_name("digests.json")

#: case -> (``python -m repro`` argv or a tuple of them, files they write).
CASES: dict[str, tuple[tuple, tuple[str, ...]]] = {
    "fig1": (("fig1", "--quick"), ("fig1_shuffle.csv",)),
    "fig2": (("fig2", "--quick"), ("fig2_latency.csv",)),
    "fig3": (("fig3", "--quick"), ("fig3_bandwidth.csv",)),
    "table1": (("table1", "--quick"), ("table1_copy_pct.csv",)),
    "fig6": (("fig6", "--quick"), ("fig6_wordcount.csv", "fig6_wordcount.json")),
    "fault": (("fault", "--quick"), ("fault_tolerance.csv", "fault_tolerance.json")),
    "network_faults": (
        ("network_faults", "--quick"),
        ("network_faults.csv", "network_faults.json"),
    ),
    "durability": (("durability", "--quick"), ("durability.csv", "durability.json")),
    "critical_path": (
        ("critical_path", "--quick"),
        ("critical_path.csv", "critical_path.json"),
    ),
    "tenants": (("tenants", "--quick"), ("multi_tenant.csv", "multi_tenant.json")),
    "stragglers": (("stragglers",), ("stragglers.csv", "stragglers.json")),
    "capacity": (("capacity", "--quick"), ("capacity.json",)),
    "gridmix": (("gridmix", "--quick"), ("gridmix.json",)),
    "ablation_compression": (
        ("ablation_compression", "--quick"),
        ("ablation_compression.json",),
    ),
    "trace-fig6": (
        ("trace", "fig6", "--size", "64MB", "--stream"),
        ("fig6.hadoop.store.jsonl", "fig6.mpid.store.jsonl"),
    ),
    "trace-fig1": (
        ("trace", "fig1", "--size", "64MB", "--stream"),
        ("fig1.hadoop.store.jsonl",),
    ),
    "trace-fault": (
        ("trace", "fault", "--size", "64MB", "--stream"),
        ("fault.hadoop-faulted.store.jsonl",),
    ),
    "replay-fig6": (
        ("replay", "fig6", "--size", "64MB", "--buckets", "40"),
        ("frames.json",),
    ),
    # Both trace readers on one run: the Perfetto file and a streamed
    # store through `repro analyze`, the Perfetto file through replay.
    "readers-fig6": (
        (
            ("trace", "fig6", "--size", "64MB", "--stream", "--out-dir", "{dir}"),
            ("analyze", "{dir}/trace.json", "--json", "{dir}/analyze-trace.json"),
            (
                "analyze", "{dir}/fig6.mpid.store.jsonl",
                "--json", "{dir}/analyze-store.json",
            ),
            (
                "replay", "{dir}/trace.json", "--buckets", "40",
                "--out", "{dir}/dashboard.html",
                "--json-out", "{dir}/frames-trace.json",
            ),
        ),
        ("analyze-trace.json", "analyze-store.json", "frames-trace.json"),
    ),
}
#: Cases over ~3 s; they run in CI's slow-tests job (``-m slow``).
SLOW = frozenset(
    {
        "table1", "network_faults", "tenants", "stragglers", "gridmix",
        "ablation_compression",
    }
)


def _argvs(case: str, out_dir: Path) -> list[list[str]]:
    """The command lines of one case, paths resolved under ``out_dir``."""
    commands = CASES[case][0]
    if isinstance(commands[0], tuple):
        return [[arg.format(dir=out_dir) for arg in argv] for argv in commands]
    return [_argv(list(commands), out_dir)]


def _argv(argv: list[str], out_dir: Path) -> list[str]:
    if argv[0] == "trace":
        return [*argv, "--out-dir", str(out_dir)]
    if argv[0] == "replay":
        return [
            *argv,
            "--out", str(out_dir / "dashboard.html"),
            "--json-out", str(out_dir / "frames.json"),
        ]
    return [*argv, "--out", str(out_dir)]


def build(case: str, out_dir: Path) -> dict[str, str]:
    """Run one case into ``out_dir``; returns ``{"case/file": sha256}``."""
    for argv in _argvs(case, out_dir):
        with contextlib.redirect_stdout(io.StringIO()):
            status = main(argv)
        if status != 0:
            raise RuntimeError(f"{case}: exit status {status} from {argv}")
    return {
        f"{case}/{name}": hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in CASES[case][1]
    }


def load() -> dict:
    return json.loads(DIGESTS.read_text())


def pinned(case: str) -> dict[str, str]:
    """The committed digests of one case."""
    return {
        key: digest
        for key, digest in load()["digests"].items()
        if key.split("/", 1)[0] == case
    }
