"""Tests for the runtime coherence vocabulary (repro.perf.coherence)."""

from __future__ import annotations

from repro.core.plan import Ledger
from repro.perf.coherence import (
    COHERENT_FIELDS_ATTR,
    INVALIDATES_ATTR,
    INVALIDATION_REGISTRY,
    KEYED_FIELDS_ATTR,
    MUTATES_ATTR,
    coherence_report,
    coherent,
    invalidates,
    keyed,
    mutates,
)
from repro.sim.engine import Simulator  # noqa: F401 - registers its providers


def test_decorators_attach_metadata_without_changing_behavior() -> None:
    @coherent(_store="test_dep_alpha")
    @keyed(_memo="revision_fn")
    class Holder:
        def __init__(self) -> None:
            self._store: dict[str, int] = {}
            self._memo: dict[str, int] = {}

        @invalidates("test_dep_alpha")
        def _refresh(self) -> str:
            return "refreshed"

        @mutates("_store")
        def put(self, key: str, value: int) -> None:
            self._store[key] = value
            self._refresh()

    holder = Holder()
    holder.put("a", 1)
    assert holder._store == {"a": 1}  # decorated methods behave unchanged
    assert getattr(Holder, COHERENT_FIELDS_ATTR) == {"_store": "test_dep_alpha"}
    assert getattr(Holder, KEYED_FIELDS_ATTR) == {"_memo": "revision_fn"}
    assert getattr(Holder.put, MUTATES_ATTR) == ("_store",)
    assert getattr(Holder._refresh, INVALIDATES_ATTR) == ("test_dep_alpha",)
    assert INVALIDATION_REGISTRY["test_dep_alpha"] == (
        "test_decorators_attach_metadata_without_changing_behavior."
        "<locals>.Holder._refresh",
    )


def test_repeated_mutates_declarations_accumulate() -> None:
    @mutates("_a")
    @mutates("_b")
    def touch() -> None:
        pass

    assert set(getattr(touch, MUTATES_ATTR)) == {"_a", "_b"}


def test_registry_holds_the_shipped_invalidations() -> None:
    assert INVALIDATION_REGISTRY["planning_tables"] == (
        "invalidate_planning_tables",
        "reset_cache",
    )
    assert INVALIDATION_REGISTRY["ledger_version"] == ("Ledger._bump_version",)
    assert INVALIDATION_REGISTRY["event_projections"] == (
        "Simulator._retire_projections",
    )


def test_coherence_report_of_the_ledger() -> None:
    report = coherence_report(Ledger)
    assert report["coherent_fields"] == {
        "_used": "ledger_version",
        "_plans": "ledger_version",
    }
    for method in ("set_plan", "remove_plan", "clear"):
        assert set(report["mutators"][method]) == {"_used", "_plans"}
    assert report["providers"]["_bump_version"] == ("ledger_version",)


def test_coherence_report_of_the_simulator() -> None:
    report = coherence_report(Simulator)
    assert report["coherent_fields"] == {"_alloc_version": "event_projections"}
    assert report["keyed_fields"] == {"_rate_memo": "curve_revision"}
    assert report["providers"]["_retire_projections"] == ("event_projections",)
