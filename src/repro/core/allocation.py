"""Greedy elastic resource allocation (paper Section 4.2, Algorithm 2).

After every admitted job holds its minimum satisfactory share, leftover GPUs
in the *next* slot are handed out one upgrade at a time to the job with the
highest marginal return.  An upgrade raises a job's slot-0 allocation to its
next runnable size; the job's tail is then re-filled minimally (progressive
filling from slot 1), so speeding a job up releases capacity in later slots
for everyone else.  Under concave scaling curves this greedy order is
optimal for the total-GPU-time objective (Theorem 2); our tests verify this
against brute force on small instances.

Best-effort jobs (Section 4.4) participate with a zero minimum share: their
first GPU has infinite marginal return (they would otherwise never finish),
with ties broken shortest-remaining-first to minimise average JCT.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from repro.core.admission import PlanningJob, _emit_plan, progressive_filling
from repro.core.batch import WarmRowBatch
from repro.core.plan import Ledger
from repro.numeric import EPS as _EPS
from repro.perf import probe
from repro.perf.coherence import coherent, mutates
from repro.perf.tables import (
    batching_enabled,
    cache_enabled,
    ladder_consts,
    note_batch_fill,
    note_plan_memo_fills,
    note_warm_fill,
)

__all__ = ["Upgrade", "allocate_leftover"]

#: Distinguishes "no memo yet" from a memoized verification failure
#: (stored as ``None``) in the upgrade engine's plan cache.
_UNCACHED = object()


class Upgrade(NamedTuple):
    """A proposed single-step expansion of one job's slot-0 allocation.

    ``available`` snapshots the ledger's unclaimed-capacity vector at
    proposal time — by *reference*: :meth:`Ledger.available` hands out a
    frozen array that is rebound, never mutated, on version change, so
    keeping it costs nothing.  The capacity the tail refill was actually
    computed against is this snapshot plus the job's own plan, which the
    revalidation re-adds at pop time (the job's plan cannot have moved
    while its proposal is in flight — each job has at most one live
    proposal).  ``None`` for best-effort/degraded proposals, whose plans
    never reach past slot 0 and therefore depend only on slot-0 capacity.
    A popped proposal whose ledger version is stale is *revalidated*
    against the snapshot instead of being rebuilt from scratch — see
    :func:`_still_valid`.

    A ``NamedTuple`` rather than a dataclass: the upgrade loop constructs
    one per proposal (a seven-figure count per full-scale run) and tuple
    construction skips the frozen-dataclass ``object.__setattr__`` dance.
    Heap entries order on ``(-priority, tiebreak, job_id, generation)``
    before ever reaching the payload, so tuple comparison semantics are
    never exercised.
    """

    job_id: str
    plan: np.ndarray
    added_gpus: int
    priority: float
    tiebreak: float
    ledger_version: int
    available: np.ndarray | None = None
    #: GPU-time of ``plan`` (SLO proposals only).  After this upgrade is
    #: applied it becomes the job's *current* cost, so the follow-up
    #: proposal reuses it instead of recomputing the identical product.
    new_cost: float = 0.0
    #: Whether the snapshot's usable window had at least the job's top
    #: runnable size free in every slot.  The clamped snapshot vector is
    #: then the constant ``top`` row, so revalidation reduces to a single
    #: min over the current window (see :func:`_still_valid`).
    top_free: bool = False


def _gpu_seconds_to_completion(info: PlanningJob, n_gpus: int, slot_seconds: float) -> float:
    """GPU-time a best-effort job burns finishing at a constant size."""
    throughput = float(info.throughput_table[n_gpus])
    if throughput <= 0.0:
        return math.inf
    return info.remaining_iterations / throughput * n_gpus


def _propose(
    info: PlanningJob,
    ledger: Ledger,
    slot_seconds: float,
    old_cost: float | None = None,
    warm_hints: dict[tuple[str, int], int] | None = None,
    engine: "_UpgradeEngine | None" = None,
) -> Upgrade | None:
    """Build the next upgrade for one job, or ``None`` if it cannot grow.

    ``old_cost`` short-circuits the GPU-time of the job's current plan when
    the caller already knows it (the cost of the upgrade it just applied).
    ``warm_hints`` carries the tail refill's previous cap choices into
    :func:`progressive_filling` (verified there; see its docstring).
    ``engine`` routes the tail refill through the upgrade engine's shared
    row batch first (bit-identical; see :meth:`_UpgradeEngine.try_warm_plan`),
    with ``progressive_filling`` as the fallback for anything the batch
    path cannot serve.
    """
    current = ledger.plan_view(info.job_id)
    current_size = int(current[0])
    next_size = info.next_size_after(current_size)
    if next_size is None:
        return None
    # Constraint (7): only grow while throughput strictly improves.
    if info.throughput_table[next_size] <= info.throughput_table[current_size]:
        return None
    added = next_size - current_size
    # Slot-0 feasibility over the job-inclusive capacity reduces to the
    # ledger's unclaimed slot-0 count (the job's own share cancels), so no
    # capacity vector is materialised unless the tail fill needs one.  The
    # engine carries that count incrementally (decremented on every apply,
    # the only ledger mutation while it runs), sparing the array lookup.
    if added > (engine.avail0 if engine is not None else ledger.available_at(0)):
        return None

    if info.best_effort or info.degraded:
        # Degraded SLO jobs (deadline already unmeetable) are served exactly
        # like best-effort jobs: leftovers only, finish as early as possible.
        new_plan = np.zeros(ledger.horizon, dtype=np.int64)
        new_plan[0] = next_size
        if current_size == 0:
            priority = math.inf
            tiebreak = _gpu_seconds_to_completion(info, 1, slot_seconds)
        else:
            old_cost = _gpu_seconds_to_completion(info, current_size, slot_seconds)
            new_cost = _gpu_seconds_to_completion(info, next_size, slot_seconds)
            priority = (old_cost - new_cost) / added
            tiebreak = 0.0
        return Upgrade(
            job_id=info.job_id,
            plan=new_plan,
            added_gpus=added,
            priority=priority,
            tiebreak=tiebreak,
            ledger_version=ledger.version,
            available=None,
        )
    avail_slots = ledger.available()
    if engine is not None:
        warm = engine.try_warm_plan(info, avail_slots, current, next_size)
        if warm is not None:
            new_plan, top_free, new_cost = warm
            if old_cost is None:
                old_cost = engine.current_cost(info, current)
            return Upgrade(
                job_id=info.job_id,
                plan=new_plan,
                added_gpus=added,
                priority=(old_cost - new_cost) / added,
                tiebreak=0.0,
                ledger_version=ledger.version,
                available=avail_slots,
                new_cost=new_cost,
                top_free=top_free,
            )
    if engine is not None:
        # Scratch reuse: the fill reads both arrays synchronously (windowed
        # copies) and retains neither; slots past 0 of the head stay zero.
        capacity = np.add(avail_slots, current, out=engine.cap_scratch)
        head = engine.head_scratch
    else:
        capacity = avail_slots + current  # capacity if this job replans
        head = np.zeros(ledger.horizon, dtype=np.int64)
    head[0] = next_size
    new_plan = progressive_filling(
        info,
        capacity,
        start_slot=1,
        head=head,
        warm_hints=warm_hints,
    )
    if new_plan is None:
        return None
    if old_cost is None:
        old_cost = (
            engine.current_cost(info, current)
            if engine is not None
            else info.gpu_seconds_of(current)
        )
    new_cost = info.gpu_seconds_of(new_plan)
    return Upgrade(
        job_id=info.job_id,
        plan=new_plan,
        added_gpus=added,
        priority=(old_cost - new_cost) / added,
        tiebreak=0.0,
        ledger_version=ledger.version,
        available=avail_slots,
        new_cost=new_cost,
        # ``top_free`` stays False on this path: deciding it costs an
        # extra O(window) min per proposal, which only pays off where
        # the min is already in hand (the engine/batched paths).  False
        # merely routes revalidation through the exact comparison.
        top_free=False,
    )


def _still_valid(
    upgrade: Upgrade,
    info: PlanningJob,
    ledger: Ledger,
    stop: int | None = None,
    slot0_ok: bool = False,
) -> bool:
    """Whether a stale-versioned proposal is still exactly what a rebuild
    would produce.  ``stop`` optionally carries the caller's memo of
    ``1 + info.window(1)`` (the engine keeps one per job); ``slot0_ok``
    says the caller already verified ``added <= available[0]`` (the engine
    loop gates every pop on its carried count before revalidating).

    A proposal depends only on the proposing job's own registered plan
    (unchanged — each job has at most one proposal in flight, so its plan
    can only have moved by applying *this* proposal) and on the capacity
    left for it.  Slot-0 feasibility reduces to ``added <= available[0]``;
    an SLO proposal's tail refill additionally depends on the leftover
    capacity per slot, but only *within the job's usable window* (slots
    with nonzero weight — progress and the written plan never reach past
    it) and only *clamped at the job's largest runnable size* (the fill
    takes ``min(cap, available)`` with ``cap <= top``, so capacity above
    ``top`` is indistinguishable from ``top``).  When the clamped windowed
    capacity vector is unchanged, the rebuilt proposal is bit-identical
    (same plan, same priority), so the popped one can be applied directly —
    this turns Algorithm 2 from O(upgrades x jobs) refills into
    O(upgrades) refills plus cheap short-vector comparisons.
    """
    if not slot0_ok and upgrade.added_gpus > ledger.available_at(0):
        return False
    if upgrade.available is None:
        return True
    if stop is None:
        stop = 1 + info.window(1)
    if stop == 1:
        return True
    top = info.sizes[-1] if info.sizes else 0
    current = ledger.plan_view(upgrade.job_id)
    cur_win = current[1:stop]
    if upgrade.top_free:
        # The snapshot's clamped window is the constant ``top`` row, so the
        # rebuilt vector equals it exactly when the current window also
        # clears ``top`` everywhere — one add and one min instead of two
        # clamps and a comparison (exact in both directions: a clamped
        # vector is all-``top`` iff its unclamped min is >= ``top``).
        now_min = int((ledger.available()[1:stop] + cur_win).min())
        return now_min >= top
    # The snapshot holds the ledger's availability by reference; the
    # capacity the refill saw is snapshot + the job's own plan, which is
    # unchanged while its proposal is in flight (Upgrade docstring).
    then = np.minimum(np.maximum(upgrade.available[1:stop] + cur_win, 0), top)
    now = np.minimum(
        np.maximum(ledger.available()[1:stop] + cur_win, 0), top
    )
    return bool(np.array_equal(then, now))


@coherent(
    _handles="verified:try_warm_plan",
    _perturb_versions="verified:window_undisturbed",
    _plan_cache="verified:try_warm_plan",
)
class _UpgradeEngine:
    """Per-call vectorized state for Algorithm 2's upgrade loop.

    One engine lives for the duration of a single :func:`allocate_leftover`
    call and carries three pieces of state across heap pops:

    - **A shared row batch with a handle cache.**  Within one call every
      job's planning view is frozen, so the warm tail row for a hinted cap
      — ``cumsum(T[S[cap]] * weights[1:1+usable])`` — is a pure function of
      ``(job_id, cap)``.  The seed proposals register their rows here
      (:func:`_initial_upgrades` solves them in one padded bucketed pass),
      and every *follow-up* or *rebuilt* proposal re-proposed after an
      apply first asks :meth:`try_warm_plan`: a cache hit skips the row
      cumsum entirely (a job that keeps its tail cap across consecutive
      upgrades — the overwhelmingly common case — re-verifies against the
      already-solved row, because the row depends on the cap, not on the
      growing head size); a miss appends to the same batch and solves just
      the pending tail (bit-identical to a fresh solve — see
      :meth:`repro.core.batch.WarmRowBatch.solve_pending`).  On top of the
      rows, whole *emitted plans* (and their GPU-time) are memoized per
      ``(job_id, cap, next_size)`` — pure per key once the unclamped gate
      holds, see :meth:`adopt_plan` — as are verification failures, and
      each job's current-plan cost is carried across applies
      (:meth:`current_cost`), so a typical re-proposal does two dict hits
      and one windowed min.
    - **A perturbation watermark.**  Every applied upgrade records the
      first tail slot its plan changed (``tail_lo``) against the ledger
      version after the apply, in a monotone stack (versions ascending,
      watermarks strictly ascending; pushing pops dominated entries).  A
      stale-versioned pop then answers "is my snapshot window undisturbed?"
      with one bisect: if every apply since the proposal's version only
      touched slots at or past the window's end, the availability the
      proposal saw is *exactly* unchanged and the O(window) vector compare
      of :func:`_still_valid` is skipped.  Inconclusive answers fall back
      to the exact check, so the watermark can only save time, never flip
      a decision (the ``verified`` coherence class).
    - **Slot-0 availability, carried incrementally.**  The loop condition
      and the slot-0 feasibility gate read a running counter decremented
      by each apply's ``added_gpus`` instead of re-deriving
      ``ledger.available_at(0)`` per pop.

    The engine never mutates the ledger; applies stay in
    :func:`allocate_leftover` (the declared ``Ledger`` mutator), which
    notifies :meth:`note_apply` afterwards.  Operation counts accumulate
    locally and flush to :mod:`repro.perf.probe` in one call.
    """

    def __init__(
        self,
        ledger: Ledger,
        warm_hints: dict[tuple[str, int], int] | None,
    ) -> None:
        self._ledger = ledger
        self._warm_hints = warm_hints
        self.batch = WarmRowBatch()
        self._handles: dict[tuple[str, int], int] = {}
        self._perturb_versions: list[int] = []
        self._perturb_watermarks: list[int] = []
        self._plan_cache: dict[tuple[str, int, int], tuple[np.ndarray, float] | None] = {}
        #: Memo of ``1 + info.window(1)`` per job — the window itself is
        #: memoized on the view, but the hot loops pay the method-call and
        #: double-dict-lookup toll millions of times per run.
        self._stops: dict[str, int] = {}
        #: Reusable buffers for the ``progressive_filling`` fallback, which
        #: reads its capacity vector and head synchronously and keeps no
        #: reference to either — one allocation per engine instead of two
        #: per fallback proposal.
        self.cap_scratch = np.empty(ledger.horizon, dtype=np.int64)
        self.head_scratch = np.zeros(ledger.horizon, dtype=np.int64)
        self.avail0 = ledger.available_at(0)
        #: GPU-time of each job's *current* plan, updated to the applied
        #: proposal's ``new_cost`` on every apply (same float the fresh
        #: product would yield) — carried like ``avail0``, so stale
        #: reproposals skip the windowed product-sum.
        self.job_cost: dict[str, float] = {}
        self.counters = {
            "alg2_heap_pushes": 0,
            "alg2_heap_pops": 0,
            "alg2_gen_skips": 0,
            "alg2_watermark_hits": 0,
            "alg2_stale_revalidations": 0,
            "alg2_batched_reproposals": 0,
            "alg2_row_cache_hits": 0,
            "alg2_plan_cache_hits": 0,
        }

    @mutates("_handles")
    def register(self, job_id: str, cap: int, handle: int) -> None:
        """Adopt a seed proposal's solved row into the handle cache."""
        self._handles[(job_id, cap)] = handle

    @mutates("_plan_cache")
    def adopt_plan(
        self,
        job_id: str,
        cap: int,
        next_size: int,
        plan: np.ndarray,
        new_cost: float,
    ) -> None:
        """Memoize a verified warm plan for its ``(job_id, cap, next_size)``.

        Given the unclamped-window gate (``m >= cap``), the emitted plan and
        its GPU-time are pure functions of the key — every planning view is
        frozen for the call, the solved row depends on the cap alone, and
        the key is applied at most once (an apply strictly grows the job's
        size, changing ``next_size``) — so re-proposals after the gate can
        return the memo verbatim.  Adopted arrays are never written again
        (``set_plan(trusted=True)`` freezes them in place on apply).
        """
        self._plan_cache[(job_id, cap, next_size)] = (plan, new_cost)

    @mutates("_plan_cache")
    def reject_plan(self, job_id: str, cap: int, next_size: int) -> None:
        """Memoize a row-verification failure (pure per key, like adoption)."""
        self._plan_cache[(job_id, cap, next_size)] = None

    def current_cost(self, info: PlanningJob, current: np.ndarray) -> float:
        """GPU-time of the job's registered plan, memoized until its next apply."""
        cost = self.job_cost.get(info.job_id)
        if cost is None:
            cost = info.gpu_seconds_of(current)
            self.job_cost[info.job_id] = cost
        return cost

    @mutates("_handles", "_plan_cache")
    def try_warm_plan(
        self,
        info: PlanningJob,
        avail_slots: np.ndarray,
        current: np.ndarray,
        next_size: int,
    ) -> tuple[np.ndarray, bool, float] | None:
        """Build a follow-up tail refill from cached/batched rows.

        ``avail_slots`` is the ledger's availability vector and ``current``
        the job's own registered plan — the refill's capacity is their sum,
        only ever materialised over the usable window.  Applies the
        identical gates and verification as the unclamped warm path of
        :func:`repro.core.admission.progressive_filling` (via the same
        precomputed ladder constants), returning ``(plan, top_free,
        new_cost)`` on success and ``None`` for any gate or verification
        failure — the caller then falls back to ``progressive_filling``,
        which handles clamped windows, hint updates, and the full 2-D scan.
        The ``m >= cap`` gate makes the ``np.maximum(available, 0)`` clamp
        of the fallback path a no-op, so the batch row verifies exactly
        what the sequential row would.

        Results are memoized per ``(job_id, cap, next_size)`` — both
        verified plans and verification failures, which are equally pure
        per key (see :meth:`adopt_plan`) — so a re-proposal only re-checks
        the state-dependent gates (the hinted cap and the windowed ``m``).
        """
        warm_hints = self._warm_hints
        if warm_hints is None or not info.sizes:
            return None
        cap = warm_hints.get((info.job_id, 1))
        if cap is None:
            return None
        job_id = info.job_id
        key = (job_id, cap, next_size)
        cached = self._plan_cache.get(key, _UNCACHED)
        if cached is None:
            return None  # memoized verification failure
        stop = self._stops.get(job_id)
        if stop is None:
            stop = 1 + info.window(1)
            self._stops[job_id] = stop
        if stop == 1:
            return None  # empty usable window
        if cached is not _UNCACHED:
            m = int((avail_slots[1:stop] + current[1:stop]).min())
            if m < cap:
                return None  # clamped window: per-slot takes differ
            # Warm/batch fill stats for memo hits flush in bulk at the end
            # of the call (flush_counters) instead of two calls per hit.
            self.counters["alg2_plan_cache_hits"] += 1
            plan, new_cost = cached
            return plan, m >= info.sizes[-1], new_cost
        base = float(info.throughput_table[next_size]) * float(info.weights[0])
        required = info.remaining_iterations - base
        if required <= _EPS:
            return None
        consts = ladder_consts(
            info.tables_token,
            cap,
            info.sizes,
            info.sizes_array(),
            info.size_table,
            info.throughput_table,
        )
        if consts is None:
            return None  # stale hint from a different table build
        m = int((avail_slots[1:stop] + current[1:stop]).min())
        if m < cap:
            return None  # clamped window: per-slot takes differ
        s_cap, thr_hint, _below, thr_below = consts
        row_key = (job_id, cap)
        handle = self._handles.get(row_key)
        if handle is None:
            handle = self.batch.add(
                info.weights[1:stop], thr_hint, thr_below
            )
            self.batch.solve_pending()
            self._handles[row_key] = handle
            self.counters["alg2_batched_reproposals"] += 1
        else:
            self.counters["alg2_row_cache_hits"] += 1
        threshold = required - _EPS
        row = self.batch.hint_row(handle)
        if not (row[-1] >= threshold and self.batch.below_total(handle) < threshold):
            note_batch_fill(False)
            self._plan_cache[key] = None
            return None
        note_warm_fill(True)
        note_batch_fill(True)
        plan = np.zeros(self._ledger.horizon, dtype=np.int64)
        plan[0] = next_size
        plan = _emit_plan(
            info,
            plan,
            s_cap,
            row,
            required,
            threshold,
            info.weights[1 : 1 + len(row)],
            1,
        )
        new_cost = info.gpu_seconds_of(plan)
        self._plan_cache[key] = (plan, new_cost)
        return plan, m >= info.sizes[-1], new_cost

    @mutates("_perturb_versions")
    def note_apply(
        self,
        old_plan: np.ndarray,
        new_plan: np.ndarray,
        version_after: int,
    ) -> None:
        """Record an applied upgrade's tail perturbation watermark."""
        changed = new_plan[1:] != old_plan[1:]
        # argmax finds the first True in one pass (no index-array build);
        # an all-False row (or an empty one at horizon 1) means only slot 0
        # moved.
        if changed.size and changed[(first := int(changed.argmax()))]:
            tail_lo = 1 + first
        else:
            tail_lo = self._ledger.horizon + 1  # only slot 0 moved
        versions = self._perturb_versions
        watermarks = self._perturb_watermarks
        while watermarks and watermarks[-1] >= tail_lo:
            watermarks.pop()
            versions.pop()
        versions.append(version_after)
        watermarks.append(tail_lo)

    def window_undisturbed(self, upgrade: Upgrade, info: PlanningJob) -> bool:
        """Whether no apply since the proposal touched its snapshot window.

        ``True`` implies the availability vector over ``[1, 1+usable)`` is
        bit-identical to the proposal's snapshot *and* the proposing job's
        own plan is unchanged (the generation counter guarantees the popped
        entry is the job's only live proposal), so the exact
        :func:`_still_valid` comparison would pass; the slot-0 feasibility
        gate is the caller's.  ``False`` means "inconclusive", not
        "invalid".
        """
        if upgrade.available is None:
            return True  # best-effort: depends on slot 0 only
        stop = self._stops.get(info.job_id)
        if stop is None:
            stop = 1 + info.window(1)
            self._stops[info.job_id] = stop
        if stop == 1:
            return True
        index = bisect_right(self._perturb_versions, upgrade.ledger_version)
        if index == len(self._perturb_versions):
            return True
        # Watermarks are strictly increasing, so the first entry newer than
        # the proposal carries the minimum watermark among all of them
        # (popped entries were dominated by a newer, lower watermark).
        return self._perturb_watermarks[index] >= stop

    def flush_counters(self) -> None:
        note_plan_memo_fills(self.counters["alg2_plan_cache_hits"])
        probe.add_counters(self.counters)


def _initial_upgrades(
    infos: list[PlanningJob],
    ledger: Ledger,
    slot_seconds: float,
    warm_hints: dict[tuple[str, int], int] | None,
    engine: _UpgradeEngine | None = None,
) -> list[Upgrade]:
    """Every job's first Algorithm 2 proposal, warm tail refills batched.

    Pass 1 applies the exact scalar gates of :func:`_propose` and queues
    every SLO job whose hinted tail cap is runnable and whose usable window
    is unclamped (min leftover capacity >= cap) into one
    :class:`WarmRowBatch`; pass 2 solves the batch; pass 3 verifies each
    row exactly as the warm path of :func:`progressive_filling` does and
    emits the proposal, falling back to :func:`_propose` for everything
    else (best-effort, unhinted, clamped, trivially-satisfied, or failed
    verification).  Proposals are bit-identical either way — see the batch
    module's contract — and the resulting heap order is too, because it is
    a total order over ``(priority, tiebreak, job_id)`` and never depends
    on push order.

    With an ``engine``, rows are queued into *its* shared batch and their
    handles registered in its ``(job_id, cap)`` cache, so the follow-up
    proposals the upgrade loop builds later reuse the seed rows in place.
    """
    batch = engine.batch if engine is not None else WarmRowBatch()
    prepared: list[tuple] = []
    upgrades: list[Upgrade] = []
    fallbacks: list[PlanningJob] = []
    # One frozen snapshot serves every job: the ledger version cannot move
    # inside this read-only pass, and the slot-0 gate is job-independent
    # because a job's own share cancels (available[0] - current_size ==
    # unclaimed capacity for every job).
    avail_slots = ledger.available()
    avail0 = int(avail_slots[0])
    for info in infos:
        current = ledger.plan_view(info.job_id)
        current_size = int(current[0])
        next_size = info.next_size_after(current_size)
        if next_size is None:
            continue
        if info.throughput_table[next_size] <= info.throughput_table[current_size]:
            continue
        added = next_size - current_size
        if added > avail0:
            continue
        if info.best_effort or info.degraded:
            fallbacks.append(info)  # scalar-only proposal: nothing to batch
            continue
        cap = None if warm_hints is None else warm_hints.get((info.job_id, 1))
        usable = info.window(1)
        # Same single-product head shortcut as the start_slot=1 fill.
        base = float(info.throughput_table[next_size]) * float(info.weights[0])
        required = info.remaining_iterations - base
        if cap is None or not usable or required <= _EPS or not info.sizes:
            fallbacks.append(info)
            continue
        consts = ladder_consts(
            info.tables_token,
            cap,
            info.sizes,
            info.sizes_array(),
            info.size_table,
            info.throughput_table,
        )
        if consts is None:
            fallbacks.append(info)  # stale hint from a different table build
            continue
        stop = 1 + usable
        m = int((avail_slots[1:stop] + current[1:stop]).min())
        if m < cap:
            fallbacks.append(info)  # clamped window: per-slot takes differ
            continue
        s_cap, thr_hint, _below, thr_below = consts
        handle = batch.add(info.weights[1:stop], thr_hint, thr_below)
        if engine is not None:
            engine.register(info.job_id, cap, handle)
        prepared.append(
            (info, current, cap, next_size, added, required, s_cap, handle, m)
        )
    batch.solve()
    for info, current, cap, next_size, added, required, s_cap, handle, m in prepared:
        threshold = required - _EPS
        row = batch.hint_row(handle)
        if row[-1] >= threshold and batch.below_total(handle) < threshold:
            note_warm_fill(True)
            note_batch_fill(True)
            plan = np.zeros(ledger.horizon, dtype=np.int64)
            plan[0] = next_size
            plan = _emit_plan(
                info,
                plan,
                s_cap,
                row,
                required,
                threshold,
                info.weights[1 : 1 + len(row)],
                1,
            )
            old_cost = info.gpu_seconds_of(current)
            new_cost = info.gpu_seconds_of(plan)
            if engine is not None:
                # Seed the engine's memos: the emitted plan for this key
                # and the job's current cost (exact floats either way).
                engine.adopt_plan(info.job_id, cap, next_size, plan, new_cost)
                engine.job_cost[info.job_id] = old_cost
            upgrades.append(
                Upgrade(
                    job_id=info.job_id,
                    plan=plan,
                    added_gpus=added,
                    priority=(old_cost - new_cost) / added,
                    tiebreak=0.0,
                    ledger_version=ledger.version,
                    available=avail_slots,
                    new_cost=new_cost,
                    top_free=m >= info.sizes[-1],
                )
            )
        else:
            note_batch_fill(False)
            if engine is not None:
                engine.reject_plan(info.job_id, cap, next_size)
            fallbacks.append(info)
    for info in fallbacks:
        upgrade = _propose(info, ledger, slot_seconds, None, warm_hints, engine)
        if upgrade is not None:
            upgrades.append(upgrade)
    return upgrades


@mutates("Ledger._plans", "Ledger._used")
def allocate_leftover(
    infos: list[PlanningJob],
    ledger: Ledger,
    slot_seconds: float,
    *,
    warm_hints: dict[tuple[str, int], int] | None = None,
) -> dict[str, int]:
    """Run Algorithm 2: distribute leftover slot-0 GPUs by marginal return.

    Args:
        infos: Planning views of every active job.  Each must already have a
            plan registered in ``ledger`` (its minimum satisfactory share;
            all-zero for best-effort jobs).
        ledger: Occupancy ledger pre-loaded with minimum shares.  Mutated in
            place; on return it holds the final plans.
        slot_seconds: Width of one planning slot.
        warm_hints: Optional cap-hint store threaded into every tail refill
            (see :func:`repro.core.admission.progressive_filling`); the
            policy passes its controller's hint dict so cap choices carry
            across events.

    Returns:
        Mapping of job id to its slot-0 GPU allocation (the decision that is
        actually executed before the next scheduling event).
    """
    by_id = {info.job_id: info for info in infos}
    revalidate = cache_enabled()
    if revalidate and batching_enabled():
        return _allocate_with_engine(infos, by_id, ledger, slot_seconds, warm_hints)

    # Ties on (priority, tiebreak) are broken by job id, NOT insertion
    # order: the order must be a property of the proposals themselves so
    # that revalidating a stale proposal (fast path) and rebuilding it
    # from scratch (cache-disabled path) pop jobs in the identical order.
    heap: list[tuple[float, float, str, Upgrade]] = []

    def push(info: PlanningJob, old_cost: float | None = None) -> None:
        upgrade = _propose(info, ledger, slot_seconds, old_cost, warm_hints)
        if upgrade is not None:
            heapq.heappush(
                heap, (-upgrade.priority, upgrade.tiebreak, upgrade.job_id, upgrade)
            )

    for info in infos:
        push(info)

    while heap and ledger.available_at(0) > 0:
        _, _, _, upgrade = heapq.heappop(heap)
        info = by_id[upgrade.job_id]
        if upgrade.ledger_version != ledger.version and not (
            revalidate and _still_valid(upgrade, info, ledger)
        ):
            push(info)  # genuinely stale: capacity it relied on is gone
            continue
        ledger.set_plan(info.job_id, upgrade.plan, trusted=True)
        # The applied plan is now the job's current one, so its cost can
        # carry into the follow-up proposal (the SLO branch would
        # recompute the identical product; best-effort proposals never
        # read it).  The carry is a memo, so the cache-disabled path
        # recomputes instead.
        carry = revalidate and upgrade.available is not None
        push(info, upgrade.new_cost if carry else None)

    return {info.job_id: int(ledger.plan_view(info.job_id)[0]) for info in infos}


@mutates("Ledger._plans", "Ledger._used")
def _allocate_with_engine(
    infos: list[PlanningJob],
    by_id: dict[str, PlanningJob],
    ledger: Ledger,
    slot_seconds: float,
    warm_hints: dict[tuple[str, int], int] | None,
) -> dict[str, int]:
    """The vectorized upgrade loop (caches + batching on).

    Decision-equivalent to the sequential loop above, pop for pop:

    - Heap entries are ``(-priority, tiebreak, job_id, generation,
      upgrade)``.  The order over live entries is the identical total
      order — generation only disambiguates multiple entries of one job,
      which the strict per-job proposal discipline makes superseded
      duplicates; popping one is a skip, never an apply, so lazy deletion
      cannot reorder applies.
    - Stale-versioned pops try the engine's perturbation watermark first
      and fall back to the exact :func:`_still_valid` comparison; both are
      exact, so the valid/stale verdict is unchanged.
    - Rebuilds and follow-ups route through the engine's shared row batch
      (:meth:`_UpgradeEngine.try_warm_plan`, bit-identical) with
      ``progressive_filling`` as the fallback.
    """
    engine = _UpgradeEngine(ledger, warm_hints)
    heap: list[tuple[float, float, str, int, Upgrade]] = []
    generation: dict[str, int] = {}
    # Loop-frequency counters live in locals and merge into the engine's
    # dict once, after the loop — a dict lookup per pop is measurable here.
    # Push and repropose are likewise inlined: a closure call per heap entry
    # (~2M per full-scale event stream) shows up in the profile.
    pushes = pops = gen_skips = watermark_hits = stale_revals = 0
    heappush, heappop = heapq.heappush, heapq.heappop

    for upgrade in _initial_upgrades(infos, ledger, slot_seconds, warm_hints, engine):
        job_id = upgrade.job_id
        gen = generation.get(job_id, 0) + 1
        generation[job_id] = gen
        heappush(heap, (-upgrade.priority, upgrade.tiebreak, job_id, gen, upgrade))
        pushes += 1

    while heap and engine.avail0 > 0:
        _, _, job_id, gen, upgrade = heappop(heap)
        pops += 1
        if gen != generation[job_id]:
            gen_skips += 1
            continue  # superseded by a newer proposal for the same job
        info = by_id[job_id]
        if upgrade.ledger_version != ledger.version:
            if upgrade.added_gpus > engine.avail0:
                valid = False
            elif engine.window_undisturbed(upgrade, info):
                watermark_hits += 1
                valid = True
            else:
                stale_revals += 1
                valid = _still_valid(
                    upgrade, info, ledger, engine._stops.get(job_id), slot0_ok=True
                )
            if not valid:
                # Genuinely stale: its capacity is gone — repropose.
                nxt = _propose(info, ledger, slot_seconds, None, warm_hints, engine)
                if nxt is not None:
                    gen += 1
                    generation[job_id] = gen
                    heappush(heap, (-nxt.priority, nxt.tiebreak, job_id, gen, nxt))
                    pushes += 1
                continue
        old_plan = ledger.plan_view(job_id)
        ledger.set_plan(job_id, upgrade.plan, trusted=True)
        engine.avail0 -= upgrade.added_gpus
        engine.note_apply(old_plan, upgrade.plan, ledger.version)
        # Cost carry as in the sequential loop (always on here: the engine
        # path implies revalidation is on).  With slot-0 capacity spent,
        # the follow-up proposal would fail the slot-0 gate before doing
        # any work (including warm-hint updates), so skip building it.
        if upgrade.available is not None:
            engine.job_cost[job_id] = upgrade.new_cost
            follow_cost = upgrade.new_cost
        else:
            follow_cost = None
        if engine.avail0 > 0:
            nxt = _propose(info, ledger, slot_seconds, follow_cost, warm_hints, engine)
            if nxt is not None:
                gen += 1
                generation[job_id] = gen
                heappush(heap, (-nxt.priority, nxt.tiebreak, job_id, gen, nxt))
                pushes += 1

    counters = engine.counters
    counters["alg2_heap_pushes"] += pushes
    counters["alg2_heap_pops"] += pops
    counters["alg2_gen_skips"] += gen_skips
    counters["alg2_watermark_hits"] += watermark_hits
    counters["alg2_stale_revalidations"] += stale_revals
    engine.flush_counters()
    return {info.job_id: int(ledger.plan_view(info.job_id)[0]) for info in infos}
