"""Closed-loop decision measurement of one simulation.

The load is a closed loop with one client: the simulator's event loop
starts the next decision only when the previous one has returned, in one
process with no worker pool.  A *decision* is one call into the policy:

- an arrival: ``admit``, plus the ``allocate`` it triggers when the job is
  admitted (a refused arrival ends at ``admit``);
- a non-arrival event: a live completion, a periodic replan, or a node
  failure or repair, each of which calls ``allocate`` once.

Stale projection pops never reach the policy, so they are not decisions.
Everything here wraps the policy's public methods from outside; no
program file is changed.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.errors import ReproError
from repro.perf import probe
from repro.perf.tables import cache_stats, reset_cache

from workloads import Workload, build


class DecisionLog:
    """Wraps one policy's ``admit`` and ``allocate`` to time every decision.

    Every decision leaves a mark ``(start, end, is_arrival)`` in event
    order, so that repeated simulations of one trace can be compared
    decision by decision.  Each ``allocate`` result is kept (as an item
    tuple, in event order) for the decision digest, which is hashed after
    the simulation so that hashing stays outside the timed loop.  The
    simulator itself rejects an invalid allocation with a
    ``SchedulingError``.
    """

    def __init__(self, policy) -> None:
        self.decisions = 0
        self.marks: list[tuple[float, float, bool]] = []
        self.allocations: list[tuple] = []
        self._arrival_start: float | None = None
        admit, allocate = policy.admit, policy.allocate

        def timed_admit(job, active, now):
            self.decisions += 1
            start = perf_counter()
            kept = admit(job, active, now)
            if kept:
                self._arrival_start = start
            else:
                self.marks.append((start, perf_counter(), True))
            return kept

        def timed_allocate(active, now):
            arrival_start = self._arrival_start
            if arrival_start is None:
                self.decisions += 1
            start = perf_counter()
            result = allocate(active, now)
            end = perf_counter()
            if arrival_start is None:
                self.marks.append((start, end, False))
            else:
                self.marks.append((arrival_start, end, True))
                self._arrival_start = None
            self.allocations.append(tuple(result.items()))
            return result

        policy.admit = timed_admit
        policy.allocate = timed_allocate

    def segments(self, start: float, end: float):
        """The run from ``start`` to ``end`` cut at every decision boundary.

        Returns ``(decision_s, gap_s, arrival)``: each decision's duration,
        the simulator's own time before, between and after the decisions
        (one more gap than decisions), and which decisions are arrivals.
        The durations and gaps sum to ``end - start``.
        """
        marks = np.array([(s, e) for s, e, _ in self.marks], dtype=float).reshape(-1, 2)
        bounds = np.concatenate(([start], marks.ravel(), [end]))
        decision_s = marks[:, 1] - marks[:, 0]
        gap_s = bounds[1::2] - bounds[0::2]
        arrival = np.array([a for _, _, a in self.marks], dtype=bool)
        return decision_s, gap_s, arrival


@dataclass
class SimRun:
    """What one simulation of one trace measured and decided."""

    trace_index: int
    setup_s: list[float]
    build_s: float
    wall_s: float = 0.0
    decisions: int = 0
    decision_s: np.ndarray = field(default_factory=lambda: np.zeros(0))
    gap_s: np.ndarray = field(default_factory=lambda: np.zeros(0))
    arrival: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    digest: str = ""
    counts: dict[str, int] = field(default_factory=dict)
    failed: int = 0
    error: str | None = None
    events: int = 0
    slo_jobs: int = 0
    slo_met: int = 0
    admitted: int = 0
    admitted_late: int = 0
    layers: dict | None = None


def _digest(log: DecisionLog, outcomes) -> str:
    """Hash of every allocate result in event order plus the final outcomes."""
    h = hashlib.blake2b(digest_size=16)
    for items in log.allocations:
        h.update(repr(items).encode())
    final = sorted(
        (o.job_id, o.status.value, o.admitted, o.completion_time, o.scale_events)
        for o in outcomes
    )
    h.update(repr(final).encode())
    return h.hexdigest()


def simulate(
    workload: Workload,
    run_seed: int,
    index: int,
    *,
    setup_repeats: int,
    tracer=None,
) -> SimRun:
    """Build trace ``index`` of the run cold ``setup_repeats`` times, then
    simulate the last build and collect its decisions.

    Every build starts from empty planning caches and zeroed counters, so
    repeated simulations of one trace must repeat their decisions and
    their work counts exactly.  With a ``tracer`` the simulation's layer
    calls are recorded as spans, and curve lookups are counted from the
    last build's set-up on.
    """
    seed = workload.trace_seed(run_seed, index)
    setup_s = []
    for repeat in range(setup_repeats):
        reset_cache()
        probe.reset_counters()
        gc.collect()
        count_curves = tracer is not None and repeat == setup_repeats - 1
        setup = build(workload, seed, tracer.count_curves if count_curves else None)
        setup_s.append(setup.setup_s)
    log = DecisionLog(setup.policy)
    run = SimRun(
        trace_index=index,
        setup_s=setup_s,
        build_s=setup.build_s,
    )
    gc.collect()
    if tracer is not None:
        tracer.begin(log)
    start = perf_counter()
    try:
        result = setup.simulator.run()
    except ReproError as exc:
        end = perf_counter()
        run.wall_s = end - start
        run.decisions = log.decisions
        run.failed = 1
        run.error = f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.end(start, end)
        return run
    end = perf_counter()
    run.wall_s = end - start
    if tracer is not None:
        run.layers = tracer.end(start, end)
    run.decisions = log.decisions
    run.decision_s, run.gap_s, run.arrival = log.segments(start, end)
    run.digest = _digest(log, result.outcomes)
    run.counts = {
        **probe.counters(),
        **{f"cache.{name}": n for name, n in cache_stats().items()},
    }
    run.events = result.events_processed
    slo = result.slo_outcomes
    run.slo_jobs = len(slo)
    run.slo_met = sum(o.met_deadline for o in slo)
    admitted = [o for o in result.outcomes if o.admitted]
    run.admitted = len(admitted)
    run.admitted_late = sum(not o.met_deadline for o in admitted)
    return run
