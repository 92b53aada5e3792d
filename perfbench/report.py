"""Orchestration and metrics of one benchmark invocation.

``timed_run`` and ``traced_run`` simulate the workload's traces;
``end_to_end`` and ``per_layer`` turn the simulations into the metrics the
last output line reports, and ``run_workload`` prints them after checking
that repeated simulations agree.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from harness import simulate
from tracing import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".perfbench"

#: Measured passes over the traces: every decision is timed this many
#: times, a pass apart, and its fastest time is kept.
PASSES = 3

#: Cold builds before each simulation; a trace's set-up time is the
#: minimum over the builds of all its measured simulations.
SETUP_REPEATS = 3

#: Traces the traced run also simulates untraced, for the tracing overhead.
OVERHEAD_PAIRS = 2

#: Highest percentile reported: every workload keeps at least ten samples
#: of one pass beyond it (checked on every run).
TAIL = 95


@dataclass
class Fastest:
    """One trace's loaded phase rebuilt from the fastest repeat of every
    segment.

    The measured simulations of a trace make the same decisions in the same
    order (the digest checks it), so each decision, and each stretch of
    simulator time before a decision, was timed once per simulation.
    Taking the minimum of each over simulations a pass apart keeps what
    the program needs and drops most of what a slow spell of the host adds.

    The loaded phase ends with the trace's last arrival.  The drain after
    it, replans over the few long jobs still running, is an artefact of a
    finite trace: its length follows the trace's longest job, and it would
    make a third of a short trace's decisions.  It is simulated, and counts
    in the checks and the quality metrics, but not in the timings.
    """

    decision_s: np.ndarray
    gap_s: np.ndarray
    arrival: np.ndarray
    setup_s: float

    @classmethod
    def of(cls, repeats) -> "Fastest":
        arrival = repeats[0].arrival
        loaded = int(np.nonzero(arrival)[0][-1]) + 1
        return cls(
            decision_s=np.min([r.decision_s[:loaded] for r in repeats], axis=0),
            gap_s=np.min([r.gap_s[:loaded] for r in repeats], axis=0),
            arrival=arrival[:loaded],
            setup_s=min(min(r.setup_s) for r in repeats),
        )

    @property
    def wall_s(self) -> float:
        return float(self.decision_s.sum() + self.gap_s.sum())

    def ms(self, arrival: bool) -> np.ndarray:
        return 1e3 * self.decision_s[self.arrival == arrival]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def tail_has_ten(per_pass: int) -> bool:
    """At least ten samples of one pass lie beyond the tail percentile."""
    return per_pass * (100 - TAIL) / 100 >= 10


def group(runs):
    by_trace = defaultdict(list)
    for run in runs:
        by_trace[run.trace_index].append(run)
    return by_trace


def consistency(runs) -> list[str]:
    """Differences between repeated simulations of one trace.

    Every repeat of a trace must make the same decisions (digest) and the
    same work (probe counters and planning-cache statistics), whatever the
    host's speed.
    """
    problems = []
    for index, repeats in sorted(group(runs).items()):
        first = repeats[0]
        for other in repeats[1:]:
            if other.digest != first.digest:
                problems.append(f"trace {index}: decision digest differs between repeats")
            if other.counts != first.counts:
                changed = sorted(
                    name
                    for name in set(first.counts) | set(other.counts)
                    if first.counts.get(name) != other.counts.get(name)
                )
                problems.append(f"trace {index}: work counts differ ({', '.join(changed)})")
            if other.decisions != first.decisions:
                problems.append(f"trace {index}: decision count differs between repeats")
    return problems


def median_wall(runs) -> float:
    """Sum over traces of the median ``Simulator.run`` wall time."""
    return sum(statistics.median(r.wall_s for r in repeats) for repeats in group(runs).values())


def first_pass(runs, n_traces: int):
    seen = {}
    for run in runs:
        seen.setdefault(run.trace_index, run)
    return [seen[i] for i in range(n_traces)]


def run_digest(runs) -> str:
    h = hashlib.blake2b(digest_size=16)
    for run in runs:
        h.update(run.digest.encode())
    return h.hexdigest()


def total_counts(runs) -> dict[str, int]:
    totals: dict[str, int] = defaultdict(int)
    for run in runs:
        for name, n in run.counts.items():
            totals[name] += n
    return dict(sorted(totals.items()))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_total(runs, key: str) -> float:
    """Sum of one traced per-simulation figure over ``runs``."""
    return sum(r.layers[key] for r in runs)


def timed_run(workload, seed: int, seconds: float):
    """The untraced run: ``PASSES`` measured passes over every trace, then
    further simulations from the first trace until time is up.

    The passes follow one another, so a trace's measured simulations lie a
    pass apart.  The further simulations feed only the digest and
    work-count checks, so every run's figures rest on the same number of
    repeats, however fast the host was.
    """
    runs = []
    start = perf_counter()
    for _ in range(PASSES):
        for index in range(workload.n_traces):
            runs.append(simulate(workload, seed, index, setup_repeats=SETUP_REPEATS))
    index = 0
    while perf_counter() - start < seconds:
        runs.append(simulate(workload, seed, index % workload.n_traces, setup_repeats=SETUP_REPEATS))
        index += 1
    return runs


def fastest(workload, runs) -> list[Fastest]:
    """Every trace rebuilt from its measured passes, in trace order."""
    by_trace = group(runs)
    return [Fastest.of(by_trace[i][:PASSES]) for i in range(workload.n_traces)]


def end_to_end(workload, runs, lines: list[str], problems: list[str]) -> dict[str, tuple]:
    """Metric name -> (value, unit) or (value, unit, note printed beside it)."""
    passed = first_pass(runs, workload.n_traces)
    traces = fastest(workload, runs)
    decisions = sum(r.decisions for r in passed)
    arrival = np.concatenate([t.ms(True) for t in traces])
    replan = np.concatenate([t.ms(False) for t in traces])
    loaded = sum(len(t.decision_s) for t in traces)
    for kind, samples in (("arrival", arrival), ("replan", replan)):
        if not tail_has_ten(len(samples)):
            problems.append(f"fewer than ten {kind} samples of a pass beyond p{TAIL}")
    slo = sum(r.slo_jobs for r in passed)
    admitted = sum(r.admitted for r in passed)
    late = sum(r.admitted_late for r in passed)
    metrics = {
        "decisions_per_s": (loaded / sum(t.wall_s for t in traces), "1/s"),
        "arrival_p50_ms": (percentile(arrival, 50), "ms", f"{len(arrival)} samples"),
        f"arrival_p{TAIL}_ms": (percentile(arrival, TAIL), "ms", f"{len(arrival)} samples"),
        "replan_p50_ms": (percentile(replan, 50), "ms", f"{len(replan)} samples"),
        f"replan_p{TAIL}_ms": (percentile(replan, TAIL), "ms", f"{len(replan)} samples"),
        "setup_s": (sum(t.setup_s for t in traces), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "deadline_ratio": (ratio(sum(r.slo_met for r in passed), slo), "fraction"),
        "on_time_admitted_ratio": (1.0 - ratio(late, admitted), "fraction"),
    }
    lines.append(
        f"decisions per pass: {decisions} over {sum(r.events for r in passed)} events; "
        f"{loaded} up to each trace's last arrival, timed "
        f"({len(arrival)} arrivals, {len(replan)} non-arrival); "
        f"cold builds: {sum(len(r.setup_s) for r in runs)}"
    )
    lines.append(
        f"quality: {sum(r.slo_met for r in passed)}/{slo} SLO jobs on time, "
        f"{late}/{admitted} admitted jobs late "
        f"(late_admitted_ratio {ratio(late, admitted):.4f})"
    )
    return metrics


def per_layer(workload, untraced, traced, lines: list[str]) -> dict[str, tuple[float, str]]:
    passed = first_pass(traced, workload.n_traces)
    counts = defaultdict(int, total_counts(passed))
    layers = defaultdict(float)
    for repeats in group(traced).values():
        for name in LAYERS:
            layers[name] += statistics.median(r.layers["self_s"][name] for r in repeats)
        layers["sim"] += statistics.median(r.layers["sim_self_s"] for r in repeats)
        layers["between"] += statistics.median(r.layers["sim_between_s"] for r in repeats)
    calls = defaultdict(int)
    for run in passed:
        for name, n in run.layers["calls"].items():
            calls[name] += n
    decisions = sum(r.decisions for r in passed)
    wall = median_wall(traced)
    build_s = sum(statistics.median(r.build_s for r in repeats) for repeats in group(untraced + traced).values())
    fill_hits = layer_total(passed, "fill_cache_hits")
    fill_misses = layer_total(passed, "fill_cache_misses")
    events = layer_total(passed, "events")
    paired = [r for r in traced if r.trace_index in {u.trace_index for u in untraced}]
    metrics = {
        "admission.calls": (calls["admission"], "count"),
        "admission.self_s": (layers["admission"], "s"),
        "admission.us_per_call": (1e6 * ratio(layers["admission"], calls["admission"]), "us"),
        "admission.warm_hit_ratio": (
            ratio(counts["cache.warm_hits"], counts["cache.warm_hits"] + counts["cache.warm_misses"]),
            "ratio",
        ),
        "admission.delta_fast": (counts["alg1_delta_fast"], "count"),
        "allocation.calls": (calls["allocation"], "count"),
        "allocation.self_s": (layers["allocation"], "s"),
        "allocation.us_per_call": (1e6 * ratio(layers["allocation"], calls["allocation"]), "us"),
        "allocation.heap_pops": (counts["alg2_heap_pops"], "count"),
        "allocation.stale_pop_ratio": (
            ratio(counts["alg2_stale_revalidations"], counts["alg2_heap_pops"]),
            "ratio",
        ),
        "scheduler.self_s": (layers["scheduler"], "s"),
        "scheduler.us_per_decision": (1e6 * ratio(layers["scheduler"], decisions), "us"),
        "scheduler.frame_rows": (counts["frame_rows"], "count"),
        "cluster.calls": (calls["cluster"], "count"),
        "cluster.self_s": (layers["cluster"], "s"),
        "cluster.migrations": (layer_total(passed, "migrations"), "count"),
        "executor.calls": (calls["executor"], "count"),
        "executor.self_s": (layers["executor"], "s"),
        "sim.self_s": (layers["sim"], "s"),
        "sim.wall_s": (wall, "s"),
        "sim.decisions": (decisions, "count"),
        "sim.events": (events, "count"),
        "sim.stale_event_ratio": (ratio(layer_total(passed, "stale_events"), events), "ratio"),
        "perf.fill_cache_hit_ratio": (ratio(fill_hits, fill_hits + fill_misses), "ratio"),
        "perf.batch_hit_ratio": (
            ratio(counts["cache.batch_hits"], counts["cache.batch_hits"] + counts["cache.batch_misses"]),
            "ratio",
        ),
        "traces.build_s": (build_s, "s"),
        "profiles.curve_calls": (layer_total(passed, "curve_calls"), "count"),
        "tracing.dps_ratio": (median_wall(untraced) / median_wall(paired), "ratio"),
    }
    shares = " | ".join(
        f"{name} {100 * ratio(layers[name], wall):.1f}%"
        for name in (*LAYERS, "sim")
    )
    lines.append(f"traced wall {wall:.3f}s per pass, self-time shares: {shares}")
    lines.append(
        f"sim self time {layers['sim']:.3f}s: {layers['sim'] - layers['between']:.3f}s "
        f"inside event dispatches, {layers['between']:.3f}s between them"
    )
    lines.append(
        f"tracing overhead: traced decisions/s = {metrics['tracing.dps_ratio'][0]:.3f} x untraced"
    )
    return metrics


def traced_run(workload, seed: int, seconds: float):
    """A traced pass over every trace, then more until time is up.

    The first ``OVERHEAD_PAIRS`` traces are also simulated untraced, next
    to their traced simulation, for the tracing overhead; which of the pair
    runs first alternates, so that neither side always runs on a warmer
    process.  Tracing the other traces alone keeps the run short.
    """
    tracer = Tracer()
    untraced, traced = [], []

    def simulate_traced(trace_index):
        with tracer:
            traced.append(
                simulate(workload, seed, trace_index, setup_repeats=SETUP_REPEATS, tracer=tracer)
            )

    start = perf_counter()
    index = 0
    while index < workload.n_traces or perf_counter() - start < seconds:
        trace_index = index % workload.n_traces
        traced_first = index % 2 == 1
        if traced_first:
            simulate_traced(trace_index)
        if trace_index < OVERHEAD_PAIRS:
            untraced.append(simulate(workload, seed, trace_index, setup_repeats=SETUP_REPEATS))
        if not traced_first:
            simulate_traced(trace_index)
        index += 1
    return tracer, untraced, traced


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    lines = [
        f"workload {workload.name}: {workload.n_traces} traces x {workload.n_jobs} jobs "
        f"on {workload.cluster_gpus} GPUs, seed {args.seed}, trace {args.trace}"
    ]
    if args.trace:
        tracer, untraced, traced = traced_run(workload, args.seed, args.seconds)
        runs = untraced + traced
    else:
        runs = timed_run(workload, args.seed, args.seconds)
    passed = first_pass(runs, workload.n_traces)
    problems = consistency(runs)
    errors = [f"trace {r.trace_index}: {r.error}" for r in runs if r.error]
    failed = sum(r.failed for r in runs)
    if not errors and not problems:
        if args.trace:
            metrics = per_layer(workload, untraced, traced, lines)
            if not all(r.layers["reconciles"] for r in traced):
                problems.append("layer self times do not reconcile with the traced wall time")
            path = SPAN_DIR / f"spans-{workload.name}-seed{args.seed}.json"
            tracer.write(path)
            lines.append(f"spans written to {path.relative_to(ROOT)}")
        else:
            metrics = end_to_end(workload, runs, lines, problems)
        counts = total_counts(passed)
        lines.append(f"simulations: {len(runs)} of {workload.n_traces} traces")
        lines.append(f"decision_digest {run_digest(passed)}")
        lines.append("work counts per pass: " + json.dumps(counts, separators=(",", ":")))
        for name, (value, unit, *note) in metrics.items():
            lines.append(f"  {name:28s} {value:14.6g} {unit}" + "".join(f"  ({n})" for n in note))
    else:
        metrics = {}
    problems.extend(errors)
    for problem in problems:
        lines.append(f"CHECK FAILED: {problem}")
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": not problems and bool(metrics),
                "attempted": max(1, sum(r.decisions for r in runs)),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit, *_) in metrics.items()
                },
            }
        )
    )
    return 0
