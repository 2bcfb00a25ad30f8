"""Test-only reference oracle for :class:`repro.core.simulator.EpochSimulator`.

This is the epoch loop as a plain stepwise loop: each epoch is resolved
and serviced through each region's device on its own, with one
``LatencyModel.access_latency`` call per region, and every boundary hook
then runs on that epoch's finished latency. The production loop defers
DRAM service to segmented flushes of whole-epoch blocks of about
``FLUSH_BLOCK_ACCESSES`` accesses (or flushes each epoch, when a
boundary hook reads device state) through
``HeterogeneousController.service_resolved``; this module shares none
of that flush code. ``tests/test_fused_equivalence.py`` drives both
through the same traces and asserts every simulated number agrees.
"""

from __future__ import annotations

import numpy as np

from repro.core.simulator import EpochSimulator, SimulationResult
from repro.errors import SimulationError, WatchdogError
from repro.memctrl.heterogeneous import HeterogeneousController
from repro.migration.overhead import translation_cycles
from repro.resilience.degradation import WATCHDOG_BREACH, DegradationEvent


def service_epoch(
    ctrl: HeterogeneousController, epoch, table, active, *,
    pages: np.ndarray, offsets: np.ndarray, subblocks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(latencies, onpkg_mask, machine_page)`` of one epoch, serviced
    region by region with per-access stall and interference."""
    n = len(epoch)
    on = np.empty(n, dtype=bool)
    machine = np.empty(n, dtype=np.int64)
    ctrl.resolve_into(pages, epoch.time, subblocks, table, active, on, machine)
    times = epoch.time
    if np.any(times[1:] < times[:-1]):
        raise SimulationError("chunk times must be non-decreasing")
    writes = epoch.rw != 0
    if ctrl.shadow is not None:
        ctrl.shadow.process(times, pages, subblocks, on, machine, writes)
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
        local = ctrl.router.onpkg_local_address(machine[sel], offsets[sel])
        latency[sel] = ctrl.onpkg_model.access_latency(local, times[sel])
    if n_on < n:
        sel = np.flatnonzero(~on)
        local = ctrl.router.offpkg_local_address(machine[sel], offsets[sel])
        lat = ctrl.offpkg_model.access_latency(local, times[sel])
        if active is not None and not active.stall:
            # background copy traffic shares the DDR channel
            window = (times[sel] >= active.start) & (times[sel] < active.end)
            lat = lat + window * ctrl.config.migration.interference_cycles
        latency[sel] = lat

    if ctrl.translation_overhead:
        latency += translation_cycles(
            ctrl.config.migration.os_assisted,
            hw_cycles=ctrl.config.migration.hw_translation_cycles,
        )
    if stall_extra is not None:
        latency += stall_extra

    ctrl.accesses += n
    ctrl.total_latency += int(latency.sum())
    ctrl.onpkg_accesses += n_on
    ctrl.offpkg_accesses += n - n_on
    return latency, on, machine


class EpochwiseSimulator(EpochSimulator):
    """:class:`EpochSimulator` with the stepwise reference epoch loop.

    Every epoch counts as ``stepwise_epochs``, whatever the config.
    """

    def _run_epochs(self, trace, result: SimulationResult) -> None:
        interval = self.config.migration.swap_interval
        resilience = self.config.resilience
        amap = self.controller.amap
        n = len(trace)
        pages_all = amap.page_of(trace.addr)
        offsets_all = amap.offset_of(trace.addr)
        subblocks_all = offsets_all >> self._sb_shift
        result.stepwise_epochs += -(-n // interval)
        for start in range(0, n, interval):
            stop = min(start + interval, n)
            epoch = trace[start:stop]
            t0 = int(epoch.time[0])
            epoch_index = self._epoch_index
            self._epoch_index += 1

            pending_dram_errors = 0
            if self._fault_plan is not None:
                pending_dram_errors = self._apply_faults(epoch_index, t0, result)

            active = self.engine.active
            if active is not None and active.end <= t0:
                active = None

            latency, on, machine = service_epoch(
                self.controller, epoch, self.engine.table, active,
                pages=pages_all[start:stop],
                offsets=offsets_all[start:stop],
                subblocks=subblocks_all[start:stop],
            )
            now = int(epoch.time[-1]) + 1
            epoch_cycles = int(latency.sum())
            if pending_dram_errors:
                epoch_cycles += self._run_ecc(
                    pending_dram_errors, epoch_index, now, result
                )

            n_on = int(np.count_nonzero(on))
            if self._ras is not None:
                epoch_cycles += self._ras.end_epoch(
                    epoch_index, now,
                    machine=machine, on=on, writes=epoch.rw != 0,
                    n_on=n_on, n_total=len(epoch),
                )
            if self._disturb is not None:
                epoch_cycles += self._disturb.end_epoch(
                    epoch_index, now,
                    pages=pages_all[start:stop], machine=machine, on=on,
                    offsets=offsets_all[start:stop],
                )

            if resilience.epoch_cycle_budget and (
                epoch_cycles > resilience.epoch_cycle_budget
            ):
                detail = (
                    f"epoch {epoch_index} (t=[{t0}, {now})) spent "
                    f"{epoch_cycles} cycles, budget "
                    f"{resilience.epoch_cycle_budget}"
                )
                if resilience.watchdog_action == "raise":
                    raise WatchdogError(detail)
                self._events.append(
                    DegradationEvent(
                        time=now, epoch=epoch_index, kind=WATCHDOG_BREACH,
                        detail=detail, recovered=True,
                    )
                )

            result.n_accesses += len(epoch)
            result.total_latency += epoch_cycles
            result.onpkg_accesses += n_on
            result.offpkg_accesses += len(epoch) - n_on
            result.epoch_latency.append(float(latency.mean()))

            if resilience.audit_interval and (
                (epoch_index + 1) % resilience.audit_interval == 0
            ):
                self._audit(epoch_index, now)

            if self.migrate:
                if not self.engine.quarantined:
                    pages = pages_all[start:stop]
                    times = epoch.time
                    on_idx = np.flatnonzero(on)
                    off_idx = np.flatnonzero(~on)
                    self.engine.observe_epoch(
                        slots=machine[on_idx],
                        slot_times=times[on_idx],
                        offpkg_pages=pages[off_idx],
                        off_times=times[off_idx],
                        off_subblocks=subblocks_all[start:stop][off_idx],
                    )
                decision = self.engine.maybe_swap(now)
                if decision.triggered:
                    result.swaps_triggered += 1
            self._last_time = int(epoch.time[-1])
