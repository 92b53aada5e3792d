"""Tests for the bucketed warm-row batch (``repro.core.batch``).

The batch must answer exactly what the per-job sequential cumsums would,
whether its candidates are solved all at once or split across several
incremental ``solve_pending`` calls (the upgrade engine relies on the
latter to re-propose follow-up rows through the same batch).
"""

import numpy as np

from repro.core.batch import WarmRowBatch


class TestSolvePending:
    def add_rows(self, batch, rng, count):
        handles = []
        for _ in range(count):
            length = int(rng.integers(1, 24))
            weights = rng.uniform(0.1, 600.0, size=length)
            handles.append(
                batch.add(weights, float(rng.uniform(0.5, 8.0)), float(rng.uniform(0.0, 8.0)))
            )
        return handles

    def test_incremental_solves_match_one_shot(self):
        """Splitting adds across solves yields the all-at-once rows exactly."""
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        incremental = WarmRowBatch()
        oneshot = WarmRowBatch()
        # Mixed chunk sizes straddle SMALL_BATCH on both sides.
        for chunk in (3, 12, 1, 9):
            self.add_rows(incremental, rng_a, chunk)
            incremental.solve_pending()
        self.add_rows(oneshot, rng_b, 3 + 12 + 1 + 9)
        oneshot.solve()
        assert len(incremental) == len(oneshot)
        for handle in range(len(oneshot)):
            assert np.array_equal(
                incremental.hint_row(handle), oneshot.hint_row(handle)
            )
            assert incremental.below_total(handle) == oneshot.below_total(handle)

    def test_solve_is_idempotent(self):
        rng = np.random.default_rng(3)
        batch = WarmRowBatch()
        handles = self.add_rows(batch, rng, 10)
        batch.solve()
        rows = [batch.hint_row(h).copy() for h in handles]
        batch.solve()  # nothing pending: a no-op
        for handle, row in zip(handles, rows):
            assert np.array_equal(batch.hint_row(handle), row)


def test_bucketed_rows_match_per_job_cumsums():
    """Padded bucket rows equal the unpadded 1-D cumsums bit for bit."""
    rng = np.random.default_rng(7)
    batch = WarmRowBatch()
    cases = []
    for _ in range(3 * WarmRowBatch.SMALL_BATCH):
        weights = rng.uniform(0.1, 600.0, size=int(rng.integers(1, 40)))
        thr_hint, thr_below = float(rng.uniform(0.5, 8.0)), float(rng.uniform(0.0, 8.0))
        cases.append((batch.add(weights, thr_hint, thr_below), weights, thr_hint, thr_below))
    batch.solve()
    for handle, weights, thr_hint, thr_below in cases:
        assert np.array_equal(batch.hint_row(handle), np.cumsum(thr_hint * weights))
        assert batch.below_total(handle) == float(np.cumsum(thr_below * weights)[-1])
