"""Workload definitions and the cold set-up of one simulation.

A workload is fixed by its generator parameters and its trace size: the
decision rate falls as a trace gets longer (the active set grows at load
1.1), so the size is part of the workload.  One benchmark run simulates
``n_traces`` traces of the workload, drawn from consecutive seeds derived
from the run's ``--seed``; pooling several traces keeps the run's figures
from depending on one trace's luck.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.cluster.topology import ClusterSpec
from repro.core.scheduler import ElasticFlowPolicy
from repro.profiles.throughput import ThroughputModel
from repro.sim.engine import Simulator
from repro.traces.deadlines import DeadlineAssigner
from repro.traces.synthetic import ClusterTraceConfig, generate_trace
from repro.traces.workload import build_jobs

#: The heavy requested-size mix of the large benchmark scales in
#: ``repro.perf.bench`` (mean request about 24 GPUs).
HEAVY_GPU_WEIGHTS = {4: 0.20, 8: 0.25, 16: 0.25, 32: 0.15, 64: 0.10, 128: 0.05}

#: Planning-slot width and periodic replan interval (the figures' default).
SLOT_SECONDS = 600.0


@dataclass(frozen=True)
class Workload:
    """Generator parameters of one benchmark workload.

    ``gpu_weights=None`` keeps the generator's Philly-like default mix
    (mean request about 4 GPUs).
    """

    name: str
    cluster_gpus: int
    n_jobs: int
    n_traces: int
    lambda_min: float = 0.5
    lambda_max: float = 1.5
    gpu_weights: dict[int, float] | None = None

    def trace_seed(self, run_seed: int, index: int) -> int:
        """Seed of the ``index``-th trace of a run started with ``run_seed``."""
        return run_seed * 1000 + index


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Algorithm 2 does most of the work; some admitted jobs run late here.
        Workload("philly", cluster_gpus=1024, n_jobs=120, n_traces=12),
        # Most arrivals are refused: Algorithm 1's trial fill dominates.
        Workload(
            "wide-tight",
            cluster_gpus=4096,
            n_jobs=1500,
            n_traces=10,
            lambda_min=0.3,
            lambda_max=0.9,
            gpu_weights=HEAVY_GPU_WEIGHTS,
        ),
    )
}


@dataclass
class Setup:
    """One cold-built simulation, ready for its first decision."""

    simulator: Simulator
    policy: ElasticFlowPolicy
    setup_s: float
    build_s: float


def build(workload: Workload, seed: int, wrap_throughput=None) -> Setup:
    """Generate the trace and jobs, and construct the simulator, timed.

    ``setup_s`` covers everything up to the first decision: trace and job
    generation, the throughput curves and simulator construction.  ``build_s`` is the trace-and-jobs part of it.  The
    optional hook receives the throughput model before any curve is built,
    so a tracer can count curve lookups from the start.
    """
    start = perf_counter()
    kwargs = {}
    if workload.gpu_weights is not None:
        kwargs["gpu_weights"] = workload.gpu_weights
    config = ClusterTraceConfig(
        f"bench-{workload.name}",
        workload.cluster_gpus,
        workload.n_jobs,
        target_load=1.1,
        duration_median_s=3000.0,
        duration_sigma=1.2,
        **kwargs,
    )
    throughput = ThroughputModel()
    if wrap_throughput is not None:
        wrap_throughput(throughput)
    trace = generate_trace(config, seed=seed)
    specs = build_jobs(
        trace,
        throughput,
        seed=seed,
        deadlines=DeadlineAssigner(workload.lambda_min, workload.lambda_max),
    )
    cluster = ClusterSpec(n_nodes=workload.cluster_gpus // 8, gpus_per_node=8)
    build_s = perf_counter() - start
    # The ExperimentConfig protection knobs every figure uses.
    policy = ElasticFlowPolicy(
        safety_margin=0.03, deadline_padding_s=60.0, stability_threshold=0.3
    )
    simulator = Simulator(
        cluster,
        policy,
        specs,
        throughput=throughput,
        slot_seconds=SLOT_SECONDS,
        record_timeline=False,
    )
    return Setup(
        simulator=simulator,
        policy=policy,
        setup_s=perf_counter() - start,
        build_s=build_s,
    )
