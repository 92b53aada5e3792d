"""Span tracing of the program's layers, from outside.

Each layer's public functions are replaced, for the duration of a traced
run, by wrappers that record one span per call: name, start, end, parent
span and decision id.  Spans stay in memory and are written out when the
benchmark ends.  A span's self time is its duration minus the time its
child spans cover; a layer's self time is the sum over its spans.  The
``sim`` layer has no spans of its own: its self time is the
``Simulator.run`` wall time minus every root span.

The event dispatches are timed too, apart from the spans, and the
reconciliation checks the spans against them: every root span must lie
inside one event's dispatch, the dispatches must lie inside the run, and
the engine time measured from the dispatches (each dispatch's time outside
its root spans, plus the run's time between dispatches) must equal the
wall time minus the layer self times.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from time import perf_counter

import numpy as np

import repro.core.scheduler as scheduler_module
from repro.cluster.placement import PlacementManager
from repro.core.admission import AdmissionController
from repro.core.scheduler import ElasticFlowPolicy
from repro.sim.engine import Simulator
from repro.sim.events import EventKind
from repro.sim.executor import ElasticExecutor

#: Layer name -> (owner, attribute) pairs whose calls become its spans.
#: ``allocate_leftover`` is patched where the scheduler looks it up.
LAYER_TARGETS: dict[str, list[tuple[object, str]]] = {
    "admission": [
        (AdmissionController, "try_admit"),
        (AdmissionController, "plan_shares"),
    ],
    "allocation": [(scheduler_module, "allocate_leftover")],
    "scheduler": [(ElasticFlowPolicy, "admit"), (ElasticFlowPolicy, "allocate")],
    "cluster": [
        (PlacementManager, name)
        for name in ("place", "resize", "release", "fail_node", "repair_node")
    ],
    "executor": [
        (ElasticExecutor, "scaling_overhead"),
        (ElasticExecutor, "migration_overhead"),
    ],
}
LAYERS = tuple(LAYER_TARGETS)

#: Cluster calls whose result carries the list of migrated victim jobs.
MIGRATING = ("place", "resize")


class Tracer:
    """Installs the layer wrappers and collects spans per simulation.

    Use as a context manager around the traced simulations: the wrappers
    are installed on entry and the original functions restored on exit.
    """

    def __init__(self) -> None:
        self.targets = [
            (owner, attr, LAYERS.index(layer))
            for layer, targets in LAYER_TARGETS.items()
            for owner, attr in targets
        ]
        self.names = [
            f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in self.targets
        ]
        self.layer_of = np.array([layer for _, _, layer in self.targets], dtype=np.int64)
        self._originals: list[tuple[object, str, object]] = []
        self._recording = False
        self._spans: list = []
        self._stack: list[int] = []
        self._dispatches: list[tuple[float, float]] = []
        self._log = None
        self.curve_calls = 0
        self.migrations = 0
        self.events = 0
        self.stale_events = 0
        self.controllers: list[AdmissionController] = []
        self.simulations: list[dict] = []

    # ------------------------------------------------------------ install
    def __enter__(self) -> "Tracer":
        for name_id, (owner, attr, _) in enumerate(self.targets):
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name_id, original, attr in MIGRATING))
        self._count_events()
        # Register every admission controller, so that the fill-memo ratio
        # also counts controllers the policy's LRU evicts mid-simulation.
        init = AdmissionController.__init__
        self._originals.append((AdmissionController, "__init__", init))

        @functools.wraps(init)
        def registering_init(controller, *args, **kwargs):
            init(controller, *args, **kwargs)
            self.controllers.append(controller)

        AdmissionController.__init__ = registering_init
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, name_id: int, fn, migrating: bool):
        spans, stack = self._spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            decision = self._log.decisions
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent, decision)
            if migrating:
                self.migrations += len(result[1])
            return result

        return traced

    def _count_events(self) -> None:
        """Time every event's dispatch, and count the stale projection pops.

        A stale pop is a completion or replan event whose dispatch neither
        reached the policy nor completed a job.  ``Simulator._dispatch`` is
        the engine's seam for wrapping exactly one event's work.
        """
        dispatch = Simulator._dispatch
        dispatches = self._dispatches
        self._originals.append((Simulator, "_dispatch", dispatch))

        @functools.wraps(dispatch)
        def counting_dispatch(sim, event):
            if not self._recording:
                return dispatch(sim, event)
            self.events += 1
            decisions = self._log.decisions
            job = sim.jobs.get(event.job_id)
            was_active = job is not None and job.is_active
            start = perf_counter()
            try:
                dispatch(sim, event)
            finally:
                dispatches.append((start, perf_counter()))
            if (
                (event.kind is EventKind.COMPLETION or event.kind is EventKind.REPLAN)
                and self._log.decisions == decisions
                and not (was_active and not job.is_active)
            ):
                self.stale_events += 1

        Simulator._dispatch = counting_dispatch

    def count_curves(self, throughput) -> None:
        """Count ``ThroughputModel.curve`` calls of one simulation."""
        curve = throughput.curve

        def counted(*args, **kwargs):
            self.curve_calls += 1
            return curve(*args, **kwargs)

        throughput.curve = counted

    # ------------------------------------------------------------- record
    def begin(self, log) -> None:
        """Start recording the spans of one simulation."""
        self._spans.clear()
        self._stack.clear()
        self._dispatches.clear()
        self.controllers = []
        self._log = log
        self._recording = True
        self._start = perf_counter()

    def end(self, run_start: float, run_end: float) -> dict:
        """Stop recording; return the per-layer figures of the simulation
        that ran from ``run_start`` to ``run_end``."""
        self._recording = False
        wall_s = run_end - run_start
        spans = np.array(self._spans, dtype=np.float64).reshape(-1, 5)
        name_id = spans[:, 0].astype(np.int64)
        start, end = spans[:, 1], spans[:, 2]
        parent = spans[:, 3].astype(np.int64)
        duration = end - start
        child = parent >= 0
        covered = np.zeros(len(spans))
        np.add.at(covered, parent[child], duration[child])
        self_s = duration - covered
        layer = self.layer_of[name_id]
        layer_self = np.bincount(layer, weights=self_s, minlength=len(LAYERS))
        # A call enters a layer when its parent span belongs to another one.
        entries = ~child | (layer != np.where(child, layer[parent], -1))
        layer_calls = np.bincount(layer[entries], minlength=len(LAYERS))
        nested = bool(
            np.all(start[child] >= start[parent[child]])
            and np.all(end[child] <= end[parent[child]])
            and np.all(self_s >= 0.0)
        )
        sim_self = wall_s - layer_self.sum()
        # The engine's own time, measured from the dispatches instead.
        dispatch = np.array(self._dispatches, dtype=np.float64).reshape(-1, 2)
        d_start, d_end = dispatch[:, 0], dispatch[:, 1]
        in_run = bool(
            len(dispatch)
            and d_start[0] >= run_start
            and d_end[-1] <= run_end
            and np.all(d_start[1:] >= d_end[:-1])
        )
        owner = np.searchsorted(d_start, start[~child], side="right") - 1
        inside = bool(
            np.all(owner >= 0)
            and (not len(owner) or np.all(end[~child] <= d_end[owner]))
        )
        root_time = np.bincount(
            np.maximum(owner, 0), weights=duration[~child], minlength=len(dispatch)
        )
        dispatch_self = d_end - d_start - root_time
        between = wall_s - (d_end - d_start).sum()
        engine_s = dispatch_self.sum() + between
        reconciles = (
            nested
            and in_run
            and inside
            and bool(np.all(dispatch_self >= 0.0))
            and abs(engine_s - sim_self) <= 1e-6 * wall_s
        )
        figures = {
            "self_s": dict(zip(LAYERS, layer_self.tolist())),
            "calls": dict(zip(LAYERS, layer_calls.tolist())),
            "sim_self_s": sim_self,
            "sim_between_s": between,
            "wall_s": wall_s,
            "reconciles": reconciles,
            "fill_cache_hits": sum(c.fill_cache_hits for c in self.controllers),
            "fill_cache_misses": sum(c.fill_cache_misses for c in self.controllers),
            "curve_calls": self.curve_calls,
            "migrations": self.migrations,
            "events": self.events,
            "stale_events": self.stale_events,
        }
        origin = self._start
        self.simulations.append(
            {
                "wall_s": wall_s,
                "spans": [
                    [self.names[int(n)], round(s - origin, 7), round(e - origin, 7), int(p), int(d)]
                    for n, s, e, p, d in self._spans
                ],
            }
        )
        self._spans.clear()
        self._dispatches.clear()
        self.controllers = []
        self.curve_calls = self.migrations = self.events = self.stale_events = 0
        return figures

    def write(self, path: Path) -> None:
        """Write every recorded simulation's spans as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "decision"],
                    "simulations": self.simulations,
                },
                handle,
            )
