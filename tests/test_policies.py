"""Tests for hot/cold tracking: exact structures vs the epoch monitor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MigrationError
from repro.migration.policies import EpochMonitor, ExactPolicies


class TestExactPolicies:
    def test_observe_exactly_one_side(self):
        p = ExactPolicies(4)
        with pytest.raises(MigrationError):
            p.observe(slot=None, offpkg_page=None)
        with pytest.raises(MigrationError):
            p.observe(slot=1, offpkg_page=2)

    def test_coldest_and_hottest(self):
        p = ExactPolicies(4)
        for slot in (0, 1, 3):
            p.observe(slot=slot, offpkg_page=None)
        assert p.coldest_slot() == 2
        for _ in range(3):
            p.observe(slot=None, offpkg_page=77)
        p.observe(slot=None, offpkg_page=5)
        assert p.hottest_page() == 77

    def test_forget(self):
        p = ExactPolicies(4)
        p.observe(slot=None, offpkg_page=9)
        p.forget_page(9)
        assert p.hottest_page() is None

    def test_state_bits_match_paper(self):
        """256 slots: 256-bit clock map + 780-bit multi-queue."""
        assert ExactPolicies(256).state_bits == 256 + 780


class TestEpochMonitor:
    def test_coldest_prefers_untouched(self):
        m = EpochMonitor(4)
        m.observe_epoch(
            slots=np.array([0, 1, 3]),
            slot_times=np.array([10, 20, 30]),
            offpkg_pages=np.array([]),
            off_times=np.array([]),
        )
        assert m.coldest_slot() == 2

    def test_coldest_is_oldest_touch(self):
        m = EpochMonitor(3)
        m.observe_epoch(
            slots=np.array([0, 1, 2]),
            slot_times=np.array([30, 10, 20]),
            offpkg_pages=np.array([]),
            off_times=np.array([]),
        )
        assert m.coldest_slot() == 1

    def test_coldest_exclude(self):
        m = EpochMonitor(3)
        m.observe_epoch(
            slots=np.array([2]), slot_times=np.array([5]),
            offpkg_pages=np.array([]), off_times=np.array([]),
        )
        assert m.coldest_slot(exclude={0}) == 1
        with pytest.raises(MigrationError):
            m.coldest_slot(exclude={0, 1, 2})

    def test_hottest_by_count_then_recency(self):
        m = EpochMonitor(2)
        m.observe_epoch(
            slots=np.array([]), slot_times=np.array([]),
            offpkg_pages=np.array([7, 7, 9, 9, 5]),
            off_times=np.array([1, 2, 3, 4, 5]),
        )
        page, count = m.hottest_page()
        assert count == 2
        assert page == 9  # ties broken by recency (9 touched later than 7)

    def test_hottest_none_without_offpkg_traffic(self):
        m = EpochMonitor(2)
        assert m.hottest_page() is None

    def test_new_epoch_clears_counts_keeps_recency(self):
        m = EpochMonitor(2)
        m.observe_epoch(
            slots=np.array([1]), slot_times=np.array([100]),
            offpkg_pages=np.array([3]), off_times=np.array([100]),
        )
        m.new_epoch()
        assert m.hottest_page() is None
        assert m.coldest_slot() == 0  # slot 1's last touch survives epochs

    def test_slot_epoch_count(self):
        m = EpochMonitor(2)
        m.observe_epoch(
            slots=np.array([1, 1, 0]), slot_times=np.array([1, 2, 3]),
            offpkg_pages=np.array([]), off_times=np.array([]),
        )
        assert m.slot_epoch_count(1) == 2

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 1)), min_size=1, max_size=60))
    def test_monitor_agrees_with_exact_on_coldest(self, events):
        """Feeding the same slot-touch stream, the epoch monitor's coldest
        slot must be one the exact clock pseudo-LRU would also consider
        cold (its reference bit is clear, or it was never touched since
        the clock's last sweep)."""
        n_slots = 8
        exact = ExactPolicies(n_slots)
        monitor = EpochMonitor(n_slots)
        slots = [s for s, _ in events]
        times = list(range(len(slots)))
        for s in slots:
            exact.observe(slot=s, offpkg_page=None)
        monitor.observe_epoch(
            slots=np.array(slots), slot_times=np.array(times),
            offpkg_pages=np.array([]), off_times=np.array([]),
        )
        cold = monitor.coldest_slot()
        # the monitor's choice was touched no more recently than any
        # untouched slot; exact clock victim is untouched-biased too
        untouched = set(range(n_slots)) - set(slots)
        if untouched:
            assert cold in untouched


def _lexsort_coldest(touch, exclude):
    """The full-sort ranking the monitor's coldest_slot must reproduce."""
    for s in np.lexsort((np.arange(touch.shape[0]), touch)):
        if int(s) not in exclude:
            return int(s)
    return None


def _lexsort_hottest(counts, last, penalty):
    score = counts if penalty is None else counts.astype(np.float64) - penalty
    return int(np.lexsort((last, score))[-1])


class TestLinearSelection:
    """coldest_slot / hottest_page select in O(n) exactly what a full
    lexsort ranking selects, ties and exclusions included."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-1, 4), min_size=1, max_size=24),
        st.sets(st.integers(-2, 26), max_size=24),
    )
    def test_coldest_matches_lexsort(self, touch, exclude):
        m = EpochMonitor(len(touch))
        m.slot_last_touch[:] = touch
        want = _lexsort_coldest(np.array(touch, dtype=np.int64), exclude)
        if want is None:
            with pytest.raises(MigrationError):
                m.coldest_slot(exclude=exclude)
        else:
            assert m.coldest_slot(exclude=exclude) == want
        if not exclude:
            assert m.coldest_slot() == want

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 3),
                      st.sampled_from([0.0, 0.5, 1.0, 2.5])),
            min_size=1, max_size=30,
        ),
        st.booleans(),
    )
    def test_hottest_matches_lexsort(self, rows, with_penalty):
        counts = np.array([r[0] for r in rows], dtype=np.int64)
        last = np.array([r[1] for r in rows], dtype=np.int64)
        pages = np.arange(len(rows), dtype=np.int64) * 3 + 100
        penalty = np.array([r[2] for r in rows]) if with_penalty else None
        m = EpochMonitor(2)
        m.fold_epoch(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                     pages, counts, last)
        by_page = None if penalty is None else (
            lambda p: penalty[(np.asarray(p) - 100) // 3]
        )
        want = _lexsort_hottest(counts, last, penalty)
        assert m.hottest_page(wear_penalty=by_page) == (
            int(pages[want]), int(counts[want])
        )
