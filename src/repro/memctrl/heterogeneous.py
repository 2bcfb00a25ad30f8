"""Fig 3: the heterogeneity-aware on-chip memory controller.

The pipeline order change is the architectural point: **address
translation comes first** (physical -> machine via the migration layer's
table), then the access routes to the on-package or off-package region,
and each region runs its own transaction scheduling — the two regions'
optimisations are independent. The optional migration controller
rewrites the table at run time; this module consumes its routing
timelines, fill state and stall windows to price every access at its
own timestamp.

Every translated access pays the table's 2-cycle RAM/CAM lookup
(Section III-B).
"""

from __future__ import annotations

import numpy as np

from ..address import AddressMap
from ..config import SystemConfig
from ..dram.latency import LatencyModel
from ..errors import SimulationError
from ..migration.engine import ActiveMigration
from ..migration.overhead import translation_cycles
from ..migration.table import TranslationTable
from ..trace.record import TraceChunk
from ..units import log2_exact
from .routing import RegionRouter

#: ``seg_starts`` of a flush that services its accesses as one segment
ONE_SEGMENT = np.zeros(1, dtype=np.int64)
ONE_SEGMENT.flags.writeable = False


class HeterogeneousController:
    """Translate-first, split-schedule memory controller."""

    def __init__(self, config: SystemConfig, *,
                 translation_overhead: bool = True):
        self.config = config
        #: static (no-migration) systems decode regions from MSBs for free
        self.translation_overhead = translation_overhead
        self.amap: AddressMap = config.address_map()
        self.router = RegionRouter(self.amap)
        self.onpkg_model = LatencyModel(
            config.latency, config.onpkg_dram, onpkg=True
        )
        self.offpkg_model = LatencyModel(
            config.latency, config.offpkg_dram, onpkg=False
        )
        self._sb_shift = log2_exact(self.amap.subblock_bytes)
        #: optional data-content mirror (set by EpochSimulator
        #: track_data=True); fed every routed access, never read back
        self.shadow = None
        self.accesses = 0
        self.total_latency = 0
        self.onpkg_accesses = 0
        self.offpkg_accesses = 0

    def counters(self) -> tuple[int, int, int, int]:
        """``(accesses, total_latency, onpkg, offpkg)`` snapshot.

        The tenancy scheduler diffs consecutive snapshots around each
        tenant's trace chunk to attribute controller work per tenant —
        valid because the epoch loop's last flush settles these counters
        within ``run_into`` before it returns.
        """
        return (
            self.accesses,
            self.total_latency,
            self.onpkg_accesses,
            self.offpkg_accesses,
        )

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "accesses": self.accesses,
            "total_latency": self.total_latency,
            "onpkg_accesses": self.onpkg_accesses,
            "offpkg_accesses": self.offpkg_accesses,
            "onpkg_device": self.onpkg_model.device.state_dict(),
            "offpkg_device": self.offpkg_model.device.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.accesses = state["accesses"]
        self.total_latency = state["total_latency"]
        self.onpkg_accesses = state["onpkg_accesses"]
        self.offpkg_accesses = state["offpkg_accesses"]
        self.onpkg_model.device.load_state_dict(state["onpkg_device"])
        self.offpkg_model.device.load_state_dict(state["offpkg_device"])

    # ------------------------------------------------------------------
    def resolve_into(
        self,
        pages: np.ndarray,
        times: np.ndarray,
        subblocks: np.ndarray | None,
        table: TranslationTable,
        active: ActiveMigration | None,
        on_out: np.ndarray,
        machine_out: np.ndarray,
    ) -> None:
        """Per-access ``(on_package, machine_page)`` honouring in-flight
        swaps, written into the caller's output views — this is what lets
        the epoch loop resolve straight into preallocated whole-flush
        scratch buffers. ``subblocks`` may be ``None`` when ``active``
        carries no fill in flight.
        """
        if pages.size and pages.min() < 0:
            table.resolve_many(pages)  # raises the domain-specific error
        try:
            # single-pass gathers straight into the caller's buffers;
            # upper bounds are still checked (mode='raise'), but the
            # temporary copies of resolve_many are skipped on this
            # per-epoch hot path (np.take would *wrap* negative pages,
            # hence the explicit check above)
            np.take(table.onpkg, pages, out=on_out)
            np.take(table.machine_of, pages, out=machine_out)
        except IndexError:
            table.resolve_many(pages)  # raises the domain-specific error
            raise
        if active is None:
            return

        for page, (change_times, ons, machines) in active.timeline_arrays().items():
            mask = pages == page
            if not mask.any():
                continue
            idx = np.searchsorted(change_times, times[mask], side="right") - 1
            on_out[mask] = ons[idx]
            machine_out[mask] = machines[idx]

        fill = active.fill
        if fill is not None:
            mask = (pages == fill.page) & (times >= fill.start) & (times < fill.end)
            if mask.any():
                ready = fill.available_at(subblocks[mask])
                served_on = times[mask] >= ready
                on_out[mask] = served_on
                machine_out[mask] = np.where(served_on, fill.slot, fill.old_machine)

    def prepare_into(
        self,
        pages: np.ndarray,
        times: np.ndarray,
        subblocks: np.ndarray,
        writes: np.ndarray,
        table: TranslationTable,
        active: ActiveMigration | None,
        on_out: np.ndarray,
        machine_out: np.ndarray,
        extra_out: np.ndarray,
    ) -> np.ndarray | None:
        """The control half of servicing one epoch.

        Resolves routing into ``on_out``/``machine_out``, feeds the
        shadow memory (if any) and writes an in-flight swap's stall or
        interference cycles into ``extra_out`` (zero-filled by the
        caller). Returns the mask of stalled accesses, which issue at
        ``active.end``, or None when no arrival moves.
        """
        self.resolve_into(pages, times, subblocks, table, active, on_out, machine_out)
        if self.shadow is not None:
            # the shadow checks at *original* access times: a stalled
            # access still reads whatever the location holds once the
            # stall window (during which data and routing flip together)
            # has drained, and the op queue flushes by land time
            self.shadow.process(times, pages, subblocks, on_out, machine_out, writes)
        if active is None:
            return None
        if active.stall:
            # N design: execution halts while the swap copies data;
            # stalled accesses issue together at the stall's end
            stalled = (times >= active.start) & (times < active.end)
            if not stalled.any():
                return None
            extra_out[stalled] = active.end - times[stalled]
            return stalled
        # background copy traffic shares the DDR channel
        off_win = ~on_out
        off_win &= times >= active.start
        off_win &= times < active.end
        extra_out[off_win] = self.config.migration.interference_cycles
        return None

    def service_chunk(
        self,
        chunk: TraceChunk,
        table: TranslationTable,
        active: ActiveMigration | None = None,
        *,
        pages: np.ndarray | None = None,
        offsets: np.ndarray | None = None,
        subblocks: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Latency of each access in a time-ordered chunk, serviced as
        one segment.

        Returns ``(latencies, onpkg_mask, machine_page)``. The chunk must
        not start before previously serviced chunks (device state is
        persistent). ``pages``/``offsets``/``subblocks`` accept arrays
        the caller already derived from ``chunk.addr``.
        """
        n = len(chunk)
        if n == 0:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=bool),
                np.zeros(0, dtype=np.int64),
            )
        times = np.ascontiguousarray(chunk.time)
        if np.any(times[1:] < times[:-1]):
            # checked on the original times, before the shadow consumes
            # them or a stall moves them: a stall maps every time in its
            # window to the window's end, which would hide an inversion
            raise SimulationError("chunk times must be non-decreasing")
        if pages is None:
            pages = self.amap.page_of(chunk.addr)
        if offsets is None:
            offsets = self.amap.offset_of(chunk.addr)
        if subblocks is None:
            subblocks = offsets >> self._sb_shift
        writes = chunk.rw != 0
        on = np.empty(n, dtype=bool)
        machine = np.empty(n, dtype=np.int64)
        extra = np.zeros(n, dtype=np.int64)
        stalled = self.prepare_into(
            pages, times, subblocks, writes, table, active, on, machine, extra
        )
        if stalled is not None:
            times = times.copy()
            times[stalled] = active.end
        latency = self.service_resolved(
            on, machine, offsets, times, ONE_SEGMENT, extra
        )
        return latency, on, machine

    def service_resolved(
        self,
        on: np.ndarray,
        machine: np.ndarray,
        offsets: np.ndarray,
        times: np.ndarray,
        seg_starts: np.ndarray,
        extra: np.ndarray,
    ) -> np.ndarray:
        """Flush resolved accesses through each region's device.

        The control pass (:meth:`prepare_into`) already resolved routing
        per epoch; each region services its share in one segmented call
        whose segments are the epoch boundaries (``seg_starts``, global
        indices into the flush). ``times`` are effective arrival times
        (stalls applied); ``extra`` carries the per-access stall and
        interference cycles. :meth:`FastDevice.service_segmented`'s
        contract makes this bit-identical to one device call per
        segment. Counters and translation overhead are applied here.
        """
        n = on.shape[0]
        n_on = int(np.count_nonzero(on))
        if n_on == n or n_on == 0:
            # single-region flush: no select/gather/scatter round-trip
            latency = self._flush_region(
                n_on > 0, None, machine, offsets, times, seg_starts
            )
        else:
            latency = np.empty(n, dtype=np.int64)
            sel = np.flatnonzero(on)
            latency[sel] = self._flush_region(
                True, sel, machine, offsets, times, seg_starts
            )
            sel = np.flatnonzero(~on)
            latency[sel] = self._flush_region(
                False, sel, machine, offsets, times, seg_starts
            )
        if self.translation_overhead:
            latency += translation_cycles(
                self.config.migration.os_assisted,
                hw_cycles=self.config.migration.hw_translation_cycles,
            )
        latency += extra

        self.accesses += n
        self.total_latency += int(latency.sum())
        self.onpkg_accesses += n_on
        self.offpkg_accesses += n - n_on
        return latency

    def _flush_region(
        self,
        onpkg: bool,
        sel: np.ndarray | None,
        machine: np.ndarray,
        offsets: np.ndarray,
        times: np.ndarray,
        seg_starts: np.ndarray,
    ) -> np.ndarray:
        """One region's device latency plus path overhead for the
        accesses ``sel`` indexes (None: all of them)."""
        model = self.onpkg_model if onpkg else self.offpkg_model
        address = (
            self.router.onpkg_local_address
            if onpkg
            else self.router.offpkg_local_address
        )
        if sel is None:
            local = address(machine, offsets)
        else:
            segs = np.searchsorted(sel, seg_starts)
            seg_starts = segs[segs < sel.shape[0]]
            # the machine/offset gathers die here, before the device pass
            # allocates its own full-width temporaries
            local = address(machine[sel], offsets[sel])
            times = times[sel]
        latency = model.device.service_segmented(
            local, times, seg_starts, assume_monotone=True
        )
        latency += model.path_overhead
        return latency

    @property
    def average_latency(self) -> float:
        return self.total_latency / self.accesses if self.accesses else 0.0

    @property
    def onpkg_fraction(self) -> float:
        return self.onpkg_accesses / self.accesses if self.accesses else 0.0
