"""Tests for the memoized planning tables and their invalidation hooks."""

import importlib

import numpy as np
import pytest

from repro.perf import tables as tables_mod
from repro.perf.tables import (
    cache_enabled,
    cache_stats,
    compute_planning_tables,
    curve_revision,
    invalidate_planning_tables,
    planning_cache_disabled,
    planning_tables_for,
    reset_cache,
)
from repro.profiles import ThroughputModel
from repro.profiles.online import OnlineThroughputModel


@pytest.fixture(autouse=True)
def _fresh_cache():
    reset_cache()
    yield
    reset_cache()


def _curve(model="resnet50", batch=128):
    return ThroughputModel().curve(model, batch)


class TestComputeTables:
    def test_matches_inline_computation(self):
        """The tables must equal the historical per-call computation."""
        curve = _curve()
        capacity = 16
        built = compute_planning_tables(curve, capacity)
        sizes = list(curve.allowed_sizes(capacity))
        assert list(built.sizes) == sizes
        best_size, best_thr = 0, 0.0
        for x in range(1, capacity + 1):
            if x in sizes:
                thr = curve.throughput(x)
                if thr > best_thr:
                    best_size, best_thr = x, thr
            assert built.throughput_table[x] == best_thr
            assert built.size_table[x] == best_size
        assert built.throughput_table[0] == 0.0
        assert built.size_table[0] == 0

    def test_tables_are_read_only(self):
        built = compute_planning_tables(_curve(), 8)
        with pytest.raises(ValueError):
            built.throughput_table[1] = 99.0
        with pytest.raises(ValueError):
            built.size_table[1] = 99

    def test_tokens_are_unique_per_build(self):
        curve = _curve()
        a = compute_planning_tables(curve, 8)
        b = compute_planning_tables(curve, 8)
        assert a.token != b.token


class TestMemoisation:
    def test_second_lookup_hits(self):
        curve = _curve()
        first = planning_tables_for(curve, 8)
        second = planning_tables_for(curve, 8)
        assert first is second
        stats = cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_distinct_capacity_is_a_distinct_entry(self):
        curve = _curve()
        a = planning_tables_for(curve, 8)
        b = planning_tables_for(curve, 16)
        assert a is not b
        assert len(a.throughput_table) == 9
        assert len(b.throughput_table) == 17

    def test_distinct_curves_do_not_collide(self):
        a = planning_tables_for(_curve("resnet50"), 8)
        b = planning_tables_for(_curve("vgg16"), 8)
        assert a.token != b.token

    def test_escape_hatch_bypasses_and_does_not_populate(self):
        curve = _curve()
        with planning_cache_disabled():
            assert not cache_enabled()
            a = planning_tables_for(curve, 8)
            b = planning_tables_for(curve, 8)
        assert a is not b  # fresh build each time
        assert cache_stats()["bypasses"] == 2
        assert cache_enabled()
        # The bypassed builds must not have seeded the store.
        planning_tables_for(curve, 8)
        assert cache_stats()["misses"] == 1


class TestInvalidation:
    def test_invalidate_forces_rebuild_with_new_token(self):
        curve = _curve()
        before = planning_tables_for(curve, 8)
        invalidate_planning_tables(curve)
        after = planning_tables_for(curve, 8)
        assert after is not before
        assert after.token != before.token
        assert cache_stats()["invalidations"] == 1

    def test_curve_revision_bumps_on_every_invalidation(self):
        curve = _curve()
        assert curve_revision(curve) == 0
        invalidate_planning_tables(curve)
        assert curve_revision(curve) == 1
        invalidate_planning_tables(curve)  # even with nothing cached
        assert curve_revision(curve) == 2

    def test_reset_cache_keeps_revisions_monotone(self):
        """reset_cache forgets tables but must never rewind revisions —
        downstream memo keys rely on the counter being monotone."""
        curve = _curve()
        invalidate_planning_tables(curve)
        revision = curve_revision(curve)
        reset_cache()
        assert curve_revision(curve) == revision

    def test_online_observation_invalidates_dependent_tables(self):
        """An OnlineThroughputModel correction must flow through to the
        planning tables: same curve object, fresh table contents."""
        online = OnlineThroughputModel(ThroughputModel(), alpha=1.0)
        curve = online.curve("resnet50", 128)
        before = planning_tables_for(curve, 8)
        revision_before = curve_revision(curve)
        measured = curve.throughput(1) * 0.5
        online.observe("resnet50", 128, n_gpus=1, observed_rate=measured)
        assert curve_revision(curve) > revision_before
        after = planning_tables_for(curve, 8)
        assert after.token != before.token
        assert not np.array_equal(after.throughput_table, before.throughput_table)

    def test_observation_on_unseen_curve_is_harmless(self):
        online = OnlineThroughputModel(ThroughputModel(), alpha=0.5)
        online.observe("vgg16", 64, n_gpus=2, observed_rate=1.0)
        assert cache_stats()["invalidations"] == 0


class TestModuleHygiene:
    def test_public_surface(self):
        for name in tables_mod.__all__:
            assert hasattr(tables_mod, name)

    def test_only_the_cache_and_batching_switches_are_global(self):
        """Exactly two global code-path switches exist: the planning cache
        (off = the paper-shaped uncached reference) and the batched solver
        (off = the sequential-solver reference for large scales)."""
        switches = {
            name
            for name in tables_mod.__all__
            if name.endswith(("_enabled", "_disabled"))
        }
        assert switches == {
            "cache_enabled",
            "set_cache_enabled",
            "planning_cache_disabled",
            "batching_enabled",
            "set_batching_enabled",
            "batched_solver_disabled",
        }

    def test_compiled_kernel_module_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.core.kernels")
