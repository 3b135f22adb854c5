"""Critical-path blame and causal what-if validation (Figure 1 / Table I).

Where Table I accounts *counter* time (how long each phase ran, summed
over tasks), this experiment walks the trace DAG and asks the causal
question: which stage actually gated the finish line?  For every input
size it runs one observed WordCount job, extracts the critical path,
and prints both accountings side by side — the counter copy share is
cross-checked against :class:`~repro.hadoop.metrics.JobMetrics` to
catch drift between the span instrumentation and the metrics code.

``--validate`` closes the causal loop: take the top what-if prediction
("speeding up stage S by p% saves T seconds"), actually turn the
matching simulator knob, re-run, and report predicted vs measured:

* ``map``    — scale ``profile.map_cpu_per_byte`` by (1-p);
* ``reduce`` — scale ``profile.reduce_cpu_per_byte`` by (1-p);
* ``copy``   — scale link bandwidth and the Jetty servlet's streaming
  peak by 1/(1-p) (the shuffle is capped by both).

The map/reduce knobs map one-to-one onto critical-path time, so the
first-order Coz-style prediction lands within a few percent; the copy
knob also shrinks per-fetch setup waits only partially, which the
report calls out.

Run: ``python -m repro critical_path [--quick|--full] [--validate]``
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.experiments.reporting import Table, banner
from repro.hadoop import HadoopConfig, WORDCOUNT_PROFILE, JobSpec
from repro.hadoop.simulation import HadoopSimulation
from repro.obs.analysis import (
    STAGES,
    CriticalPath,
    TraceDAG,
    critical_path,
    phase_breakdown,
    what_if,
)
from repro.simnet.cluster import ClusterSpec
from repro.transports.jetty import JettyHttpTransport
from repro.util.units import GiB, fmt_bytes

#: Stages a simulator knob exists for ("sort" and "idle" have none).
ACTIONABLE = ("map", "copy", "reduce")


def _hadoop_sim(
    nbytes: int,
    seed: int,
    *,
    stage: Optional[str] = None,
    pct: float = 0.0,
    observe: bool = False,
) -> HadoopSimulation:
    """The Figure-6 WordCount job, optionally with one stage sped up."""
    profile = WORDCOUNT_PROFILE
    cluster = ClusterSpec()
    if stage == "map":
        profile = replace(
            profile, map_cpu_per_byte=profile.map_cpu_per_byte * (1.0 - pct)
        )
    elif stage == "reduce":
        profile = replace(
            profile, reduce_cpu_per_byte=profile.reduce_cpu_per_byte * (1.0 - pct)
        )
    elif stage == "copy":
        cluster = replace(
            cluster, link_bandwidth=cluster.link_bandwidth / (1.0 - pct)
        )
    elif stage is not None:
        raise ValueError(f"no simulator knob for stage {stage!r}")
    spec = JobSpec(
        name=f"wordcount-{fmt_bytes(nbytes)}",
        input_bytes=nbytes,
        profile=profile,
        num_reduce_tasks=1,
    )
    sim = HadoopSimulation(
        spec=spec,
        config=HadoopConfig(map_slots=7, reduce_slots=7),
        cluster_spec=cluster,
        seed=seed,
        observe=observe,
    )
    if stage == "copy":
        # The fetch stream is rate-capped by the servlet too, not just
        # the wire; a faster copy stage needs both raised.
        sim.jetty = JettyHttpTransport(
            stream_peak=sim.jetty.stream_peak / (1.0 - pct),
            wire_bandwidth=sim.jetty.wire_bandwidth / (1.0 - pct),
        )
    return sim


@dataclass
class BlameRow:
    """One input size: causal blame vs counter accounting."""

    input_bytes: int
    makespan: float
    #: stage -> % of makespan on the critical path.
    cp_blame_pct: dict[str, float]
    #: Table-I semantics, measured from spans.
    span_copy_pct: float
    #: Table-I semantics, from the JobMetrics counters (cross-check).
    counter_copy_pct: float

    @property
    def cross_check_delta(self) -> float:
        return abs(self.span_copy_pct - self.counter_copy_pct)


@dataclass
class ValidationResult:
    """One validated what-if prediction."""

    stage: str
    pct: float
    baseline: float
    predicted: float
    actual: float

    @property
    def error(self) -> float:
        """Relative prediction error vs the measured re-run."""
        return abs(self.predicted - self.actual) / self.actual


@dataclass
class CriticalPathResult:
    seed: int
    rows: list[BlameRow] = field(default_factory=list)
    validations: list[ValidationResult] = field(default_factory=list)


def analyze_size(nbytes: int, seed: int) -> tuple[BlameRow, CriticalPath]:
    """One observed run -> causal blame + counter cross-check."""
    sim = _hadoop_sim(nbytes, seed, observe=True)
    metrics = sim.run()
    dag = TraceDAG.from_observer(sim.obs, name="hadoop")
    cp = critical_path(dag)
    pb = phase_breakdown(dag)
    row = BlameRow(
        input_bytes=nbytes,
        makespan=cp.makespan,
        cp_blame_pct=cp.blame_pct(),
        span_copy_pct=pb["copy_pct"],
        counter_copy_pct=100.0 * metrics.copy_fraction,
    )
    return row, cp


def validate_top_what_if(
    cp: CriticalPath,
    nbytes: int,
    seed: int,
    pct: float = 0.25,
    stage: Optional[str] = None,
) -> ValidationResult:
    """Turn the top actionable what-if into a real re-run and compare.

    ``stage=None`` picks the actionable stage with the most
    critical-path time (what the profiler would tell you to optimise).
    """
    if stage is None:
        stage = max(ACTIONABLE, key=lambda s: cp.seconds_in(stage=s))
    wi = what_if(cp, stage, pct)
    actual = _hadoop_sim(nbytes, seed, stage=stage, pct=pct).run().elapsed
    return ValidationResult(
        stage=stage,
        pct=pct,
        baseline=wi.baseline_makespan,
        predicted=wi.predicted_makespan,
        actual=actual,
    )


def run(
    sizes_gb: tuple[float, ...] = (1.0, 10.0),
    seed: int = 2011,
    validate: bool = False,
    pct: float = 0.25,
) -> CriticalPathResult:
    result = CriticalPathResult(seed=seed)
    for gb in sizes_gb:
        nbytes = int(gb * GiB)
        row, cp = analyze_size(nbytes, seed)
        result.rows.append(row)
        if validate:
            result.validations.append(
                validate_top_what_if(cp, nbytes, seed, pct=pct)
            )
    return result


def format_report(result: CriticalPathResult) -> str:
    table = Table(
        headers=(
            "input",
            "makespan (s)",
            *[f"{s} %" for s in STAGES],
            "copy% (spans)",
            "copy% (counters)",
        ),
        title="critical-path blame (causal) vs Table-I counters (WordCount)",
    )
    for row in result.rows:
        table.add_row(
            fmt_bytes(row.input_bytes),
            row.makespan,
            *[row.cp_blame_pct.get(s, 0.0) for s in STAGES],
            row.span_copy_pct,
            row.counter_copy_pct,
        )
    parts = [banner("Critical path: who actually gated the finish line?"), table.render()]
    note = (
        "causal blame sums to 100% of the makespan; the counter columns "
        "use Table I's accounting (copy time includes waiting for maps) "
        "and must agree between spans and JobMetrics."
    )
    parts.append(note)
    if result.validations:
        vt = Table(
            headers=(
                "stage", "speedup", "baseline (s)", "predicted (s)",
                "actual (s)", "error",
            ),
            title="what-if validation: prediction vs re-run with the knob turned",
        )
        for v in result.validations:
            vt.add_row(
                v.stage, f"-{v.pct:.0%}", v.baseline, v.predicted,
                v.actual, f"{v.error:.1%}",
            )
        parts.append(vt.render())
    return "\n\n".join(parts)


if __name__ == "__main__":
    from repro.__main__ import alias
    raise SystemExit(alias(__spec__.name))
