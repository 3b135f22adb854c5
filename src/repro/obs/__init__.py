"""Simulation-wide observability: spans, metrics, exporters, manifests.

The layer has three moving parts, all reachable from any model through
the :class:`~repro.simnet.kernel.Simulator` they already hold:

* :class:`SpanTracer` — span-based tracing with explicit span IDs,
  nesting and categories (kernel events, network transfers, transport
  sends, map/reduce phases, MPI-D phases, fault injections);
* :class:`MetricsRegistry` — counters and time-weighted histograms
  sampled in *simulated* time (link utilization, queue depths, slot
  occupancy, bytes shuffled);
* exporters — Chrome/Perfetto ``trace_event`` JSON
  (:func:`trace_events` / :func:`write_trace`, read back into observers
  by :func:`load_observers`), an ASCII Gantt renderer
  (:func:`ascii_gantt`) and per-run manifests (:func:`build_manifest`);
* the streaming layer — an append-as-recorded JSONL trace store
  (:class:`TraceStoreWriter` / :func:`read_events` / :func:`load_tracer`),
  a replay engine folding event streams into time-bucketed frames
  (:func:`replay_events` / :func:`replay_store`), and self-contained
  HTML dashboards (:func:`write_dashboard` / :func:`write_sweep_browser`).

An :class:`Observer` bundles one tracer plus one registry and attaches
to a simulator (``Observer.attach(sim)``); every instrumented model
reads ``sim.obs``.  The default is :data:`NULL_OBS`, a no-op whose
methods never schedule events, never consume randomness, and never
allocate — a run with observability off is bit-for-bit identical to a
run of the uninstrumented code.
"""

from repro.obs.dashboard import (
    render_dashboard,
    render_fleet_page,
    render_sweep_browser,
    write_dashboard,
    write_fleet_page,
    write_sweep_browser,
)
from repro.obs.fleet import FleetSummary, fleet_summary, scan_stores
from repro.obs.gantt import ascii_gantt
from repro.obs.manifest import RunManifest, build_manifest, config_hash, git_revision
from repro.obs.metrics import (
    Counter,
    MetricsRegistry,
    TimeWeightedHistogram,
)
from repro.obs.observer import NULL_OBS, NullObserver, Observer
from repro.obs.perfetto import (
    load_observers,
    trace_events,
    validate_trace,
    write_trace,
)
from repro.obs.replay import (
    Replay,
    ReplayFrame,
    replay_events,
    replay_observer,
    replay_store,
)
from repro.obs.store import (
    TraceStoreReader,
    TraceStoreWriter,
    events_of,
    load_tracer,
    read_events,
    read_footer,
)
from repro.obs.tenant_analysis import (
    CapacityProjection,
    TenantJob,
    analyze_tenants,
    format_tenant_analysis,
    jobs_from_tracer,
    tenant_blame,
)
from repro.obs.tracer import Edge, Instant, Span, SpanTracer, TraceError

__all__ = [
    "CapacityProjection",
    "Counter",
    "Edge",
    "FleetSummary",
    "Instant",
    "MetricsRegistry",
    "NULL_OBS",
    "NullObserver",
    "Observer",
    "Replay",
    "ReplayFrame",
    "RunManifest",
    "Span",
    "SpanTracer",
    "TenantJob",
    "TimeWeightedHistogram",
    "TraceError",
    "TraceStoreReader",
    "TraceStoreWriter",
    "analyze_tenants",
    "ascii_gantt",
    "build_manifest",
    "config_hash",
    "events_of",
    "fleet_summary",
    "format_tenant_analysis",
    "git_revision",
    "jobs_from_tracer",
    "load_observers",
    "load_tracer",
    "read_events",
    "read_footer",
    "render_dashboard",
    "render_fleet_page",
    "render_sweep_browser",
    "replay_events",
    "replay_observer",
    "replay_store",
    "scan_stores",
    "tenant_blame",
    "trace_events",
    "validate_trace",
    "write_dashboard",
    "write_fleet_page",
    "write_sweep_browser",
]
