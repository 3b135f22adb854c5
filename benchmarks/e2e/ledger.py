"""Per-layer ledger for the traced run: sampled host time and exact counts.

Host time is attributed by a sampler, not by the simulator: every
millisecond it reads the running stack and charges the sample to the
innermost frame that belongs to ``src/repro``.  Layers are module
paths under ``repro``; ``simnet.maxmin`` is carved out of
``simnet/network.py`` by function name, repro modules outside the named
layers land in ``other``, and a stack with no repro frame at all is
``harness`` (this benchmark's own code).

Work counts come from public attributes of the simulations, plus three
count-only wrappers installed on classes for the traced run and removed
afterwards.  A missing entry point drops its metric with a warning.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import signal
import warnings
from collections import Counter
from typing import Callable, Optional

#: Whole modules that are layers, as dotted paths under ``repro``.
LAYER_MODULES = (
    "simnet.kernel",
    "simnet.network",
    "simnet.resources",
    "simnet.cluster",
    "simnet.faults",
    "hadoop.jobtracker",
    "hadoop.tasktracker",
    "hadoop.maptask",
    "hadoop.reducetask",
    "hadoop.hdfs",
    "hadoop.simulation",
    "mrmpi.simulator",
    "cluster.scheduler",
    "cluster.engine",
    "cluster.arrivals",
)
#: Packages that are one layer each.
LAYER_PACKAGES = ("transports", "obs", "util", "core")
#: Every layer, in report order.
LAYERS = (
    LAYER_MODULES[:2]
    + ("simnet.maxmin",)
    + LAYER_MODULES[2:]
    + LAYER_PACKAGES
    + ("other", "harness")
)

#: Max-min solver functions inside ``simnet/network.py``.
_MAXMIN_PREFIX = "_maxmin_rates"
_MAXMIN_NAMES = ("_solve_component",)


def repro_module(filename: str, repro_dir: str) -> Optional[str]:
    """Dotted module path under ``repro`` for a source file, or None
    when the file is not part of the package."""
    prefix = repro_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return None
    rel = filename[len(prefix):]
    if rel.endswith(".py"):
        rel = rel[:-3]
    module = rel.replace(os.sep, ".")
    return module.removesuffix("__init__").rstrip(".")


def layer_of(module: Optional[str], qualname: str) -> str:
    """The layer a frame is charged to, from its repro module (None for
    code outside the package) and its function's qualified name."""
    if module is None:
        return "harness"
    if module == "simnet.network" and any(
        part.startswith(_MAXMIN_PREFIX) or part in _MAXMIN_NAMES
        for part in qualname.split(".")
    ):
        return "simnet.maxmin"
    if module in LAYER_MODULES:
        return module
    if module.split(".")[0] in LAYER_PACKAGES:
        return module.split(".")[0]
    return "other"


#: Wall seconds between two stack samples.
SAMPLE_INTERVAL_S = 0.001


class Sampler:
    """Bins the running frame's innermost repro frame every
    :data:`SAMPLE_INTERVAL_S` while the ``with`` block runs.

    Samples come from a ``SIGALRM`` interval timer handled in the main
    thread, not from a second thread reading ``sys._current_frames()``:
    a reader thread only gets the interpreter lock when the main thread
    lets go of it, and a streamed trace store lets go at every buffer
    flush, so a thread sampler charged nearly all of ``traced_wordcount``
    to the store's write call.  A signal lands at the next bytecode
    boundary instead, so time in C code is charged to its Python caller.
    The wall-clock timer (not ``ITIMER_PROF``) is the one with millisecond
    resolution on Linux.  Must be entered from the main thread.
    """

    def __init__(self, repro_dir: str):
        self.repro_dir = repro_dir
        self.counts: Counter = Counter()
        self._layer_by_code: dict = {}
        self._old_handler = None

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def _layer(self, frame) -> str:
        cache = self._layer_by_code
        while frame is not None:
            code = frame.f_code
            layer = cache.get(code, "")
            if layer == "":
                module = repro_module(code.co_filename, self.repro_dir)
                layer = cache[code] = (
                    None
                    if module is None
                    else layer_of(module, getattr(code, "co_qualname", code.co_name))
                )
            if layer is not None:
                return layer
            frame = frame.f_back
        return "harness"

    def _on_tick(self, signum, frame) -> None:
        self.counts[self._layer(frame)] += 1

    def __enter__(self) -> "Sampler":
        self._old_handler = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def self_seconds(self, wall: float) -> dict[str, float]:
        """Each layer's share of the samples, scaled to ``wall`` seconds."""
        total = self.samples
        return {
            layer: (self.counts.get(layer, 0) / total * wall if total else 0.0)
            for layer in LAYERS
        }


def _useful_heartbeat(result) -> bool:
    maps, reduces = result
    return bool(maps or reduces)


#: (metric, module, class, method, predicate for a useful call or None)
WRAPPED = (
    ("simnet.network.flows_started", "repro.simnet.network", "Network", "transfer_flow", None),
    ("hadoop.jobtracker.heartbeats", "repro.hadoop.jobtracker", "JobTracker", "heartbeat", _useful_heartbeat),
    ("cluster.scheduler.budget_calls", "repro.cluster.scheduler", "ClusterScheduler", "budget", None),
)


class CallCounter:
    """Count calls to the :data:`WRAPPED` methods inside a ``with`` block.

    Each wrapper only counts and forwards, so the simulation is
    unchanged; the original function object is put back on exit, so
    runs after the block execute unwrapped code.
    """

    def __init__(self, entries=WRAPPED):
        self.entries = entries
        self.calls: dict[str, int] = {}
        self.useful: dict[str, int] = {}
        self._installed: list[tuple[type, str, Callable]] = []

    def _wrap(self, metric: str, original: Callable, useful) -> Callable:
        calls, hits = self.calls, self.useful

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            calls[metric] += 1
            if useful is not None and useful(result):
                hits[metric] += 1
            return result

        return counted

    def __enter__(self) -> "CallCounter":
        for metric, module, cls_name, attr, useful in self.entries:
            try:
                cls = getattr(importlib.import_module(module), cls_name, None)
            except ImportError:
                cls = None
            original = None if cls is None else cls.__dict__.get(attr)
            if not inspect.isfunction(original):
                warnings.warn(f"{module}.{cls_name}.{attr} not found; {metric} omitted")
                continue
            self.calls[metric] = 0
            if useful is not None:
                self.useful[metric] = 0
            setattr(cls, attr, self._wrap(metric, original, useful))
            self._installed.append((cls, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for cls, attr, original in reversed(self._installed):
            setattr(cls, attr, original)
        self._installed.clear()


#: (metric, owner attribute on a Cluster, public counter attribute)
PUBLIC_COUNTS = (
    ("simnet.kernel.events_dispatched", "sim", "events_dispatched"),
    ("simnet.kernel.events_cancelled", "sim", "events_cancelled"),
    ("simnet.maxmin.solves", "network", "rate_recomputes"),
    ("simnet.maxmin.flows_resolved", "network", "rate_recompute_flows"),
    ("simnet.maxmin.skips", "network", "rate_skips"),
    ("simnet.network.flows_failed", "network", "flows_failed"),
)


def public_counts(clusters: list) -> dict[str, int]:
    """Sum the public work counters over every simulated cluster."""
    out: dict[str, int] = {}
    for metric, owner, attr in PUBLIC_COUNTS:
        values = [getattr(getattr(c, owner), attr, None) for c in clusters]
        if None in values:
            warnings.warn(f"{owner}.{attr} not found; {metric} omitted")
            continue
        out[metric] = sum(values)
    jobs = [
        getattr(node.disk, "jobs_completed", None)
        for c in clusters
        for node in c.nodes
    ]
    if None in jobs:
        warnings.warn("RateDevice.jobs_completed not found; simnet.resources.device_jobs omitted")
    else:
        out["simnet.resources.device_jobs"] = sum(jobs)
    return out
