"""Hot/cold page tracking policies.

The hardware (Section III-B) tracks the on-package LRU macro page with a
clock-based pseudo-LRU bitmap (one bit per slot) and the off-package MRU
macro page with a 3-level x 10-entry multi-queue:

* :class:`ExactPolicies` — those exact structures, updated per access;
  used by the detailed simulator and the policy unit tests.
* :class:`EpochMonitor` — the vectorised equivalent used by the epoch
  simulator: coldest = on-package slot with the oldest last touch (what
  the clock hand converges to), hottest = off-package page with the
  highest epoch access count, recency-tie-broken (what the multi-queue
  surfaces). ``tests/test_policies.py`` checks the two agree on shared
  streams.
"""

from __future__ import annotations

import numpy as np

from ..cache.replacement import ClockPseudoLRU, MultiQueue
from ..errors import MigrationError


class ExactPolicies:
    """Per-access clock pseudo-LRU (slots) + multi-queue (off-pkg pages)."""

    def __init__(self, n_slots: int, *, mq_levels: int = 3, mq_capacity: int = 10):
        self.clock = ClockPseudoLRU(n_slots)
        self.mq = MultiQueue(mq_levels, mq_capacity)

    def observe(self, *, slot: int | None, offpkg_page: int | None) -> None:
        """Record one access: it hit a slot (on-package) XOR an off-package page."""
        if (slot is None) == (offpkg_page is None):
            raise MigrationError("exactly one of slot / offpkg_page must be given")
        if slot is not None:
            self.clock.touch(slot)
        else:
            self.mq.touch(offpkg_page)

    def coldest_slot(self) -> int:
        return self.clock.victim()

    def hottest_page(self) -> int | None:
        return self.mq.hottest()

    def forget_page(self, page: int) -> None:
        self.mq.forget(page)

    @property
    def state_bits(self) -> int:
        return self.clock.state_bits + self.mq.state_bits


class EpochMonitor:
    """Vectorised epoch statistics feeding the swap trigger.

    Keeps, across epochs, each slot's last-touch time and accumulates the
    current epoch's per-page counts for off-package accesses.
    """

    def __init__(self, n_slots: int):
        if n_slots <= 0:
            raise MigrationError("n_slots must be positive")
        self.n_slots = n_slots
        self.slot_last_touch = np.full(n_slots, -1, dtype=np.int64)
        self.slot_epoch_counts = np.zeros(n_slots, dtype=np.int64)
        self._off_pages = np.zeros(0, dtype=np.int64)
        self._off_counts = np.zeros(0, dtype=np.int64)
        self._off_last = np.zeros(0, dtype=np.int64)

    def observe_epoch(
        self,
        slots: np.ndarray,
        slot_times: np.ndarray,
        offpkg_pages: np.ndarray,
        off_times: np.ndarray,
    ) -> None:
        """Fold one epoch's accesses into the monitor (all arrays 1-D)."""
        off = np.asarray(offpkg_pages, dtype=np.int64)
        if off.size:
            pages, inverse, counts = np.unique(off, return_inverse=True, return_counts=True)
            last = np.zeros(pages.shape[0], dtype=np.int64)
            np.maximum.at(last, inverse, np.asarray(off_times, dtype=np.int64))
        else:
            pages = counts = last = np.zeros(0, dtype=np.int64)
        self.fold_epoch(slots, slot_times, pages, counts, last)

    def fold_epoch(
        self,
        slots: np.ndarray,
        slot_times: np.ndarray,
        off_pages: np.ndarray,
        off_counts: np.ndarray,
        off_last: np.ndarray,
    ) -> None:
        """:meth:`observe_epoch` with the off-package page aggregation
        (unique pages, per-page counts and last-touch times) already
        computed — the migration engine shares one ``np.unique`` pass
        between the monitor and its own recency bookkeeping."""
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size:
            st = np.asarray(slot_times, dtype=np.int64)
            if bool((st[1:] >= st[:-1]).all()):
                # non-decreasing epoch times: a gather-max scatter's
                # last write per slot IS the per-slot maximum
                self.slot_last_touch[slots] = np.maximum(
                    self.slot_last_touch[slots], st
                )
            else:
                # last touch per slot: maximum time per slot id
                np.maximum.at(self.slot_last_touch, slots, st)
            self.slot_epoch_counts += np.bincount(slots, minlength=self.n_slots)
        self._off_pages = off_pages
        self._off_counts = off_counts
        self._off_last = off_last

    def coldest_slot(self, exclude: set[int] | None = None) -> int:
        """Slot with the oldest last touch (never-touched slots first),
        lowest slot id among ties."""
        touch = self.slot_last_touch
        if not exclude:
            # argmin returns the first of equal minima: the lowest slot id
            return int(np.argmin(touch))
        masked = sorted({s for s in exclude if 0 <= s < self.n_slots})
        if len(masked) == self.n_slots:
            raise MigrationError("all slots excluded")
        # mask in place rather than gather the allowed slots: touch
        # times never reach int64 max, so no masked slot can win
        saved = touch[masked]
        touch[masked] = np.iinfo(np.int64).max
        try:
            return int(np.argmin(touch))
        finally:
            touch[masked] = saved

    def hottest_page(self, wear_penalty=None) -> tuple[int, int] | None:
        """``(page, epoch_count)`` of the hottest off-package page.

        Highest count wins, then the most recent touch, then the last
        entry of the page list. ``wear_penalty`` (RAS wear leveling)
        maps a page array to a finite per-page score penalty: candidates
        are then ranked by ``count - penalty`` so a worn-out machine
        page loses the swap even when slightly hotter. The *returned*
        count is always the raw epoch count, so the hottest-coldest
        trigger comparison is unchanged. ``None`` keeps the selection
        bit-identical to the endurance-blind ranking.
        """
        if self._off_pages.size == 0:
            return None
        score = self._off_counts
        if wear_penalty is not None:
            score = score.astype(np.float64)
            score -= np.asarray(wear_penalty(self._off_pages), dtype=np.float64)
        top = np.flatnonzero(score == score.max())
        last = self._off_last[top]
        idx = top[last == last.max()][-1]
        return int(self._off_pages[idx]), int(self._off_counts[idx])

    def slot_epoch_count(self, slot: int) -> int:
        return int(self.slot_epoch_counts[slot])

    def new_epoch(self) -> None:
        self.slot_epoch_counts[:] = 0
        self._off_pages = np.zeros(0, dtype=np.int64)
        self._off_counts = np.zeros(0, dtype=np.int64)
        self._off_last = np.zeros(0, dtype=np.int64)

    def forget_pages(self, pages: np.ndarray, slots=()) -> None:
        """Purge released pages/slots from the monitor (tenant churn).

        The off-package fold (the ``np.unique``-derived page arrays set
        by :meth:`fold_epoch`) survives until the boundary's swap
        evaluation consumes it, and a tenant release is legal in
        between — without this filter a freed page could win the
        hottest ranking and be promoted after its owner is gone.
        Reclaimed ``slots`` get their recency cleared: a never-touched
        slot sorts coldest, so freed capacity is immediately demotable.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size and self._off_pages.size:
            keep = ~np.isin(self._off_pages, pages)
            if not bool(keep.all()):
                self._off_pages = self._off_pages[keep]
                self._off_counts = self._off_counts[keep]
                self._off_last = self._off_last[keep]
        for slot in slots:
            self.slot_last_touch[slot] = -1
            self.slot_epoch_counts[slot] = 0

    # -- checkpoint support ------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "slot_last_touch": self.slot_last_touch.copy(),
            "slot_epoch_counts": self.slot_epoch_counts.copy(),
            "off_pages": self._off_pages.copy(),
            "off_counts": self._off_counts.copy(),
            "off_last": self._off_last.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        if state["slot_last_touch"].shape[0] != self.n_slots:
            raise MigrationError("monitor snapshot has a different slot count")
        self.slot_last_touch = state["slot_last_touch"].copy()
        self.slot_epoch_counts = state["slot_epoch_counts"].copy()
        self._off_pages = state["off_pages"].copy()
        self._off_counts = state["off_counts"].copy()
        self._off_last = state["off_last"].copy()
