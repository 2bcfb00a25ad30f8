"""Tests for the migration engine: triggers, scheduling, timelines,
and a long-run stress property (invariants across hundreds of swaps)."""

import numpy as np
import pytest

from repro.address import AddressMap
from repro.config import BusConfig, MigrationConfig
from repro.migration.engine import MigrationEngine
from repro.migration.table import EMPTY
from repro.units import KB, MB

N_SLOTS = 8


def make_engine(algorithm="live", interval=100, **kwargs) -> MigrationEngine:
    amap = AddressMap(
        total_bytes=N_SLOTS * 4 * MB,
        onpkg_bytes=N_SLOTS * MB,
        macro_page_bytes=1 * MB,
        subblock_bytes=64 * KB,
    )
    cfg = MigrationConfig(
        algorithm=algorithm, macro_page_bytes=1 * MB, subblock_bytes=64 * KB,
        swap_interval=interval, **kwargs,
    )
    return MigrationEngine(amap, cfg)


def observe_hot_page(engine: MigrationEngine, page: int, count: int = 5, t0: int = 0):
    engine.observe_epoch(
        slots=np.array([], dtype=np.int64),
        slot_times=np.array([], dtype=np.int64),
        offpkg_pages=np.full(count, page, dtype=np.int64),
        off_times=np.arange(t0, t0 + count, dtype=np.int64),
        off_subblocks=np.zeros(count, dtype=np.int64),
    )


class TestTrigger:
    def test_no_offpkg_traffic_no_swap(self):
        e = make_engine()
        d = e.maybe_swap(now=100)
        assert not d.triggered

    def test_hot_offpkg_page_triggers(self):
        e = make_engine()
        hot = N_SLOTS + 3
        observe_hot_page(e, hot)
        d = e.maybe_swap(now=100)
        assert d.triggered and d.mru == hot
        assert e.active is not None

    def test_busy_suppression(self):
        """P/F bits block re-triggering while a swap is in flight."""
        e = make_engine()
        observe_hot_page(e, N_SLOTS + 3)
        assert e.maybe_swap(now=100).triggered
        busy_until = e.active.end
        observe_hot_page(e, N_SLOTS + 4)
        d = e.maybe_swap(now=busy_until - 1)
        assert not d.triggered
        assert e.swaps_suppressed_busy == 1
        # after completion, a new swap goes through
        observe_hot_page(e, N_SLOTS + 4, t0=busy_until)
        assert e.maybe_swap(now=busy_until + 1).triggered

    def test_hottest_coldest_comparison(self):
        """No swap when the coldest slot is at least as hot (Section III-A)."""
        e = make_engine()
        hot = N_SLOTS + 3
        e.observe_epoch(
            slots=np.full(10, 2, dtype=np.int64),          # slot 2 very hot
            slot_times=np.arange(10, dtype=np.int64),
            offpkg_pages=np.full(3, hot, dtype=np.int64),  # off page less hot
            off_times=np.arange(10, 13, dtype=np.int64),
        )
        # make every other slot even hotter so slot 2 is the coldest
        e.monitor.slot_last_touch[:] = 100
        e.monitor.slot_last_touch[2] = 1
        e.monitor.slot_epoch_counts[:] = 20
        e.monitor.slot_epoch_counts[2] = 10
        d = e.maybe_swap(now=50)
        assert not d.triggered
        assert e.swaps_suppressed_cold == 1

    def test_trigger_disabled_swaps_unconditionally(self):
        e = make_engine(hottest_coldest_trigger=False)
        hot = N_SLOTS + 3
        e.observe_epoch(
            slots=np.full(10, 2, dtype=np.int64),
            slot_times=np.arange(10, dtype=np.int64),
            offpkg_pages=np.full(1, hot, dtype=np.int64),
            off_times=np.array([10], dtype=np.int64),
        )
        assert e.maybe_swap(now=50).triggered

    def test_ghost_physical_page_never_migrates(self):
        e = make_engine()
        observe_hot_page(e, e.amap.ghost_page)
        assert not e.maybe_swap(now=10).triggered

    def test_already_onpkg_candidate_skipped(self):
        e = make_engine()
        observe_hot_page(e, 2)  # page 2 is on-package (OF)
        # monitor thinks it's off-package (stale mid-epoch observation)
        d = e.maybe_swap(now=10)
        assert not d.triggered


class TestEpochFold:
    """The dense fold, the sorted fold and the non-monotone fallback
    all give every touched page's count, last-touch time and last
    sub-block, exactly as a plain per-access walk does."""

    @staticmethod
    def _reference(pages, times, subblocks):
        fold = {}
        for p, t, sb in zip(pages.tolist(), times.tolist(), subblocks.tolist()):
            count, last, _ = fold.get(p, (0, t, 0))
            fold[p] = (count + 1, max(last, t), sb)
        return fold

    @pytest.mark.parametrize("ratio", [0, 1 << 20], ids=["sorted", "dense"])
    @pytest.mark.parametrize("monotone", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_folds_agree(self, monkeypatch, ratio, monotone, seed):
        monkeypatch.setattr("repro.migration.engine._DENSE_FOLD_RATIO", ratio)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        pages = rng.integers(N_SLOTS, 4 * N_SLOTS, n).astype(np.int64)
        times = np.cumsum(rng.integers(0, 3, n)).astype(np.int64)
        if not monotone:
            times = rng.permutation(times)
        subblocks = rng.integers(0, 16, n).astype(np.int64)
        e = make_engine()
        e.observe_epoch(
            slots=np.array([], dtype=np.int64),
            slot_times=np.array([], dtype=np.int64),
            offpkg_pages=pages, off_times=times, off_subblocks=subblocks,
        )
        want = self._reference(pages, times, subblocks)
        m = e.monitor
        assert m._off_pages.tolist() == sorted(want)
        assert m._off_counts.tolist() == [want[p][0] for p in sorted(want)]
        assert m._off_last.tolist() == [want[p][1] for p in sorted(want)]
        for p, (_, _, sb) in want.items():
            assert e._mru_first_subblock(p) == sb


class TestScheduling:
    def test_timeline_starts_with_pre_swap_state(self):
        e = make_engine()
        hot = N_SLOTS + 3
        observe_hot_page(e, hot)
        e.maybe_swap(now=1000)
        tl = e.active.timelines[hot]
        assert tl[0][1:] == (False, hot)  # initially off-package at home
        assert tl[-1][1] is True or tl[-1][1] == np.True_  # ends on-package

    def test_fill_info_timing(self):
        e = make_engine()
        hot = N_SLOTS + 3
        observe_hot_page(e, hot)
        e.maybe_swap(now=1000)
        fill = e.active.fill
        assert fill is not None and fill.live
        assert fill.start >= 1000
        copy_cycles = BusConfig().copy_cycles(1 * MB)
        assert fill.end - fill.start == pytest.approx(copy_cycles, rel=0.01)
        # critical-first wraparound ordering
        avail = fill.available_at(np.array([fill.first_subblock,
                                            (fill.first_subblock + 1) % fill.n_subblocks]))
        assert avail[0] < avail[1]

    def test_nonlive_fill_is_whole_page(self):
        e = make_engine(algorithm="N-1")
        hot = N_SLOTS + 3
        observe_hot_page(e, hot)
        e.maybe_swap(now=1000)
        fill = e.active.fill
        assert not fill.live
        avail = fill.available_at(np.array([0, 7]))
        assert (avail == fill.end).all()

    def test_stall_plan_for_basic_design(self):
        e = make_engine(algorithm="N")
        hot = N_SLOTS + 3
        observe_hot_page(e, hot)
        e.maybe_swap(now=1000)
        assert e.active.stall
        assert e.active.fill is None
        assert e.active.end > 1000

    def test_byte_accounting(self):
        e = make_engine()
        observe_hot_page(e, N_SLOTS + 3)
        e.maybe_swap(now=0)
        assert e.migrated_bytes == 3 * MB       # case A: 3 copies
        assert e.cross_boundary_bytes == 3 * MB

    def test_table_final_state_after_schedule(self):
        """The engine applies plans eagerly; the table ends consistent."""
        e = make_engine()
        hot = N_SLOTS + 3
        observe_hot_page(e, hot)
        e.maybe_swap(now=0)
        e.table.check_invariants()
        assert e.table.resolve(hot)[0]  # on-package


class TestLongRunStress:
    @pytest.mark.parametrize("algorithm", ["N", "N-1", "live"])
    def test_hundreds_of_swaps_keep_invariants(self, algorithm):
        """Drive the engine with a shifting hot set for many epochs; the
        table must stay consistent and exactly one slot stays empty
        (N-1/live) the whole time."""
        rng = np.random.default_rng(0)
        e = make_engine(algorithm=algorithm)
        n_pages = e.amap.n_total_pages
        now = 0
        for epoch in range(300):
            hot = int(rng.integers(0, n_pages - 1))  # never Ω
            on, _ = e.table.resolve(hot)
            slots_touched = rng.integers(0, N_SLOTS, 5)
            e.observe_epoch(
                slots=slots_touched,
                slot_times=np.full(5, now, dtype=np.int64),
                offpkg_pages=np.array([] if on else [hot] * 9, dtype=np.int64),
                off_times=np.arange(now, now + (0 if on else 9), dtype=np.int64),
                off_subblocks=np.zeros(0 if on else 9, dtype=np.int64),
            )
            # a 1 MB swap takes ~1M cycles; space epochs so most complete
            now += 1_200_000
            e.maybe_swap(now)
            e.table.check_invariants()
            if algorithm != "N":
                assert e.table.empty_slot() is not None
            assert (e.table.pair != EMPTY).sum() >= N_SLOTS - 1
        assert e.swaps_triggered > 20


class TestTimelineConsistency:
    """The recorded routing timelines must end exactly at the table's
    final (mirror) state — the epoch simulator's correctness hinges on
    the hand-off between per-time overrides and the dense mirrors."""

    @pytest.mark.parametrize("algorithm", ["N", "N-1", "live"])
    def test_final_timeline_state_matches_mirrors(self, algorithm):
        rng = np.random.default_rng(7)
        e = make_engine(algorithm=algorithm)
        now = 0
        for _ in range(60):
            hot = int(rng.integers(0, e.amap.n_total_pages - 1))
            if bool(e.table.onpkg[hot]):
                continue
            observe_hot_page(e, hot, t0=now)
            now += 1_200_000
            d = e.maybe_swap(now)
            if not d.triggered:
                continue
            active = e.active
            for page, timeline in active.timelines.items():
                t_final, on_final, machine_final = timeline[-1]
                assert t_final <= active.end
                on, machine = e.table.resolve(page)
                assert (bool(on_final), int(machine_final)) == (on, machine), page
                # times strictly ordered within a timeline
                times = [t for t, _, _ in timeline]
                assert times == sorted(times)

    def test_fill_covers_whole_page_once(self):
        e = make_engine()
        observe_hot_page(e, N_SLOTS + 2)
        e.maybe_swap(now=0)
        fill = e.active.fill
        sbs = np.arange(fill.n_subblocks)
        avail = fill.available_at(sbs)
        # every sub-block lands within the copy window, each at a distinct time
        assert avail.min() > fill.start
        assert avail.max() <= fill.end + fill.subblock_cycles
        assert len(np.unique(avail)) == fill.n_subblocks
