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


class HeterogeneousController:
    """Translate-first, split-schedule memory controller."""

    def __init__(self, config: SystemConfig, *, detailed: bool = False,
                 translation_overhead: bool = True):
        self.config = config
        #: static (no-migration) systems decode regions from MSBs for free
        self.translation_overhead = translation_overhead
        self.amap: AddressMap = config.address_map()
        self.router = RegionRouter(self.amap)
        self.onpkg_model = LatencyModel(
            config.latency, config.onpkg_dram, onpkg=True, detailed=detailed
        )
        self.offpkg_model = LatencyModel(
            config.latency, config.offpkg_dram, onpkg=False, detailed=detailed
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
        valid on both loop flavours because the fused flush also settles
        these counters within ``run_into`` before it returns.
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
        """:meth:`resolve_chunk` over precomputed per-access arrays.

        Writes ``(on_package, machine_page)`` into the caller's output
        views — this is what lets the fused epoch loop resolve straight
        into preallocated whole-flush scratch buffers. ``subblocks`` may
        be ``None`` when ``active`` carries no fill in flight.
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

    def resolve_chunk(
        self,
        chunk: TraceChunk,
        table: TranslationTable,
        active: ActiveMigration | None,
        *,
        pages: np.ndarray | None = None,
        subblocks: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-access ``(on_package, machine_page)`` honouring in-flight swaps."""
        if pages is None:
            pages = self.amap.page_of(chunk.addr)
        if (
            subblocks is None
            and active is not None
            and active.fill is not None
        ):
            subblocks = self.amap.offset_of(chunk.addr) >> self._sb_shift
        n = pages.shape[0]
        on = np.empty(n, dtype=bool)
        machine = np.empty(n, dtype=np.int64)
        self.resolve_into(pages, chunk.time, subblocks, table, active, on, machine)
        return on, machine

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
        """Latency of each access in a time-ordered chunk.

        Returns ``(latencies, onpkg_mask, machine_page)``. The chunk must
        not start before previously serviced chunks (device state is
        persistent). ``pages``/``offsets``/``subblocks`` accept arrays
        the caller already derived from ``chunk.addr`` (the epoch loop
        precomputes them once per trace chunk).
        """
        n = len(chunk)
        if n == 0:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=bool),
                np.zeros(0, dtype=np.int64),
            )
        on, machine = self.resolve_chunk(
            chunk, table, active, pages=pages, subblocks=subblocks
        )
        if offsets is None:
            offsets = self.amap.offset_of(chunk.addr)
        times = chunk.time
        if np.any(times[1:] < times[:-1]):
            # checked on the original times, before the shadow consumes
            # them or a stall moves them: a stall maps every time in its
            # window to the window's end, which would hide an inversion
            raise SimulationError("chunk times must be non-decreasing")
        writes = chunk.rw != 0
        if self.shadow is not None:
            # the shadow checks at *original* access times: a stalled
            # access still reads whatever the location holds once the
            # stall window (during which data and routing flip together)
            # has drained, and the op queue flushes by land time
            if pages is None:
                pages = self.amap.page_of(chunk.addr)
            if subblocks is None:
                subblocks = offsets >> self._sb_shift
            self.shadow.process(times, pages, subblocks, on, machine, writes)
        latency = np.zeros(n, dtype=np.int64)

        # N design: execution halts while the swap copies data
        stall_extra = None
        if active is not None and active.stall:
            stall_extra = np.zeros(n, dtype=np.int64)
            stalled = (times >= active.start) & (times < active.end)
            stall_extra[stalled] = active.end - times[stalled]
            times = times + stall_extra  # issue after the stall

        n_on = int(np.count_nonzero(on))
        if n_on:
            sel = np.flatnonzero(on)
            local = self.router.onpkg_local_address(machine[sel], offsets[sel])
            latency[sel] = self.onpkg_model.access_latency(
                local, times[sel], writes[sel]
            )
        if n_on < n:
            sel = np.flatnonzero(~on)
            local = self.router.offpkg_local_address(machine[sel], offsets[sel])
            lat = self.offpkg_model.access_latency(local, times[sel], writes[sel])
            if active is not None and not active.stall:
                # background copy traffic shares the DDR channel
                window = (times[sel] >= active.start) & (times[sel] < active.end)
                lat = lat + window * self.config.migration.interference_cycles
            latency[sel] = lat

        if self.translation_overhead:
            latency += translation_cycles(
                self.config.migration.os_assisted,
                hw_cycles=self.config.migration.hw_translation_cycles,
            )
        if stall_extra is not None:
            latency += stall_extra

        self.accesses += n
        self.total_latency += int(latency.sum())
        self.onpkg_accesses += n_on
        self.offpkg_accesses += n - n_on
        return latency, on, machine

    def service_resolved(
        self,
        on: np.ndarray,
        machine: np.ndarray,
        offsets: np.ndarray,
        times: np.ndarray,
        writes: np.ndarray,
        seg_starts: np.ndarray,
        extra: np.ndarray,
    ) -> np.ndarray:
        """Deferred region servicing for the fused epoch loop.

        The control pass already resolved routing per epoch; this flushes
        the accumulated accesses through each region's device in one
        segmented call whose segments are the original epoch boundaries
        (``seg_starts``, global indices into the flush). ``times`` are
        effective arrival times (stalls applied); ``extra`` carries the
        per-access additive cycles the control pass computed (stall +
        interference). Bit-identical to the per-epoch
        :meth:`service_chunk` sequence by :meth:`FastDevice.service_segmented`'s
        contract. Counters and translation overhead are applied here.
        """
        n = on.shape[0]
        n_on = int(np.count_nonzero(on))
        if n_on == n or n_on == 0:
            # single-region flush: no select/gather/scatter round-trip
            model = self.onpkg_model if n_on else self.offpkg_model
            dev = model.device
            local = (
                self.router.onpkg_local_address(machine, offsets)
                if n_on
                else self.router.offpkg_local_address(machine, offsets)
            )
            wr = writes if dev.geometry.timing.t_wr else None
            latency = dev.service_segmented(
                local, times, seg_starts, wr, assume_monotone=True
            )
            latency += model.path_overhead
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

        latency = np.zeros(n, dtype=np.int64)
        if n_on:
            sel = np.flatnonzero(on)
            local = self.router.onpkg_local_address(machine[sel], offsets[sel])
            segs = np.searchsorted(sel, seg_starts)
            segs = segs[segs < sel.shape[0]]
            dev = self.onpkg_model.device
            # the write gather is dead weight when the region charges no
            # write recovery
            wr = writes[sel] if dev.geometry.timing.t_wr else None
            latency[sel] = (
                dev.service_segmented(
                    local, times[sel], segs, wr, assume_monotone=True
                )
                + self.onpkg_model.path_overhead
            )
        if n_on < n:
            sel = np.flatnonzero(~on)
            local = self.router.offpkg_local_address(machine[sel], offsets[sel])
            segs = np.searchsorted(sel, seg_starts)
            segs = segs[segs < sel.shape[0]]
            dev = self.offpkg_model.device
            wr = writes[sel] if dev.geometry.timing.t_wr else None
            latency[sel] = (
                dev.service_segmented(
                    local, times[sel], segs, wr, assume_monotone=True
                )
                + self.offpkg_model.path_overhead
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

    @property
    def average_latency(self) -> float:
        return self.total_latency / self.accesses if self.accesses else 0.0

    @property
    def onpkg_fraction(self) -> float:
        return self.onpkg_accesses / self.accesses if self.accesses else 0.0
