"""The epoch loop must be bit-identical to the stepwise reference loop.

Production defers DRAM servicing and flushes it in blocks of whole
epochs: one segmented flush at the first epoch boundary where the
unflushed accesses reach ``FLUSH_BLOCK_ACCESSES``, and one at the end of
the chunk. It flushes each epoch at its boundary instead when RAS, row
disturbance or the watchdog reads device state there. ``tests/epochwise_reference.py``
keeps the stepwise loop, with its own per-region device path, as the
oracle. These tests pin the contract: not a single simulated number may
change — total latency, the full ``epoch_latency`` series, swap
counters, row-hit rates, degradation events, shadow-memory violations,
everything — and the flush counters must say which flush the config
implies.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.config import (
    MigrationConfig,
    SystemConfig,
    offpkg_dram_timing,
    onpkg_dram_timing,
)
from repro.core.hetero_memory import HeterogeneousMainMemory
from repro.core import simulator
from repro.core.simulator import (
    FLUSH_BLOCK_ACCESSES,
    EpochSimulator,
    SimulationResult,
)
from repro.errors import WatchdogError
from repro.experiments import chaos_soak, hammer_soak
from repro.resilience import FaultEvent, FaultKind, FaultPlan
from repro.resilience.degradation import WATCHDOG_BREACH
from repro.trace.record import make_chunk
from repro.units import KB, MB

from .epochwise_reference import EpochwiseSimulator

ALGORITHMS = ("N", "N-1", "live")

#: flush-block sizes the equivalence is checked at besides the default:
#: one access, and an odd size that never lines up with an epoch
PATCHED_BLOCKS = (1, 37)


def with_blocks(cells):
    """``cells`` (tuples of parameters) crossed with the flush-block
    size: ``None`` keeps the default block and the cell's plain id."""
    params = []
    for cell in cells:
        cell_id = "-".join(cell)
        params.append(pytest.param(*cell, None, id=cell_id))
        params.extend(
            pytest.param(*cell, block, id=f"{cell_id}-block{block}")
            for block in PATCHED_BLOCKS
        )
    return params


def set_block(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(simulator, "FLUSH_BLOCK_ACCESSES", block)


def _trace(n=60_000, seed=0, writes=True):
    rng = np.random.default_rng(seed)
    span = 128 * MB // 4096
    hot = rng.integers(0, span)
    blocks = np.where(
        rng.random(n) < 0.8,
        (hot + rng.integers(0, 512, n)) % span,
        rng.integers(0, span, n),
    )
    rw = (rng.random(n) < 0.3).astype(np.int8) if writes else 0
    return make_chunk(
        blocks * 4096, time=np.cumsum(rng.integers(1, 80, n)), rw=rw
    )


def _cfg(**migration_kwargs):
    kwargs = dict(algorithm="live", macro_page_bytes=64 * KB, swap_interval=1_000)
    kwargs.update(migration_kwargs)
    return SystemConfig(
        total_bytes=128 * MB,
        onpkg_bytes=16 * MB,
        migration=MigrationConfig(**kwargs),
    )


def _scalar_fields(result):
    # fused_epochs/stepwise_epochs say how DRAM service was flushed, not
    # what was simulated — they are asserted separately in assert_identical
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name not in ("epoch_latency", "degradation_events",
                          "fused_epochs", "stepwise_epochs")
    }


def _feed(sim, trace, chunks, result=None):
    result = SimulationResult() if result is None else result
    bounds = np.linspace(0, len(trace), chunks + 1).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sim.run_into(trace[lo:hi], result)
    return result


def _pair(cfg, *, migrate=True, track_data=False, arm=None):
    sim = EpochSimulator(cfg, migrate=migrate, track_data=track_data)
    ref = EpochwiseSimulator(cfg, migrate=migrate, track_data=track_data)
    if arm is not None:
        arm(sim)
        arm(ref)
    return sim, ref


def _assert_same_results(sim, ref, r_sim, r_ref):
    assert _scalar_fields(r_sim) == _scalar_fields(r_ref)
    assert r_sim.epoch_latency == r_ref.epoch_latency
    assert r_sim.degradation_events == r_ref.degradation_events
    if ref.shadow is not None:
        assert sim.shadow.violations == ref.shadow.violations


def assert_identical(cfg, trace, *, migrate=True, chunks=1, arm=None,
                     track_data=False, flush_each_epoch=False):
    """Run the production loop and the reference on ``trace`` and assert
    they agree on every field; ``flush_each_epoch`` is the flush the
    config must imply (True for RAS, row disturbance and the watchdog)."""
    sim, ref = _pair(cfg, migrate=migrate, track_data=track_data, arm=arm)
    r_sim = _feed(sim, trace, chunks)
    r_ref = _feed(ref, trace, chunks)
    _assert_same_results(sim, ref, r_sim, r_ref)
    # flush counters: every epoch lands in exactly one, and the one the
    # config implies — migration-active epochs, fault plans, audits and
    # the shadow memory included
    n_epochs = r_ref.stepwise_epochs
    assert r_ref.fused_epochs == 0
    if flush_each_epoch:
        assert (r_sim.fused_epochs, r_sim.stepwise_epochs) == (0, n_epochs)
    else:
        assert (r_sim.fused_epochs, r_sim.stepwise_epochs) == (n_epochs, 0)
    # nor may a flush replay its segments one service() call at a time
    for dev in (sim.controller.onpkg_model.device,
                sim.controller.offpkg_model.device):
        assert dev.segmented_replays == 0
    return r_sim


def _every_fault_kind(start=2, seed=9):
    """One event of every :class:`FaultKind`, three epochs apart; the
    slot-, frame- and row-targeted kinds each hit a different index."""
    params = {
        FaultKind.ABORT_SWAP: 3,      # copy step
        FaultKind.DRAM_TRANSIENT: 4,  # error count
    }
    return FaultPlan(
        [
            FaultEvent(epoch=start + 3 * i, kind=kind,
                       param=params.get(kind, 1 + 2 * i))
            for i, kind in enumerate(FaultKind)
        ],
        seed=seed,
    )


def _epoch_budget(cfg, trace, quantile):
    """A watchdog budget that ``quantile`` of the epochs stay within."""
    result = EpochSimulator(cfg).run(trace)
    sums = np.asarray(result.epoch_latency) * cfg.migration.swap_interval
    return int(np.quantile(sums, quantile))


class TestBoundaryHooks:
    """Every boundary hook against the reference, per design.

    The shadow memory, fault plans and audits keep the deferred block
    flush; the watchdog, RAS and row disturbance flush every epoch,
    before their hooks read the devices or the epoch's latency.
    """

    VARIANTS = ("track_data", "track_data-chunked", "faults-audit",
                "watchdog-degrade", "ras", "disturb-ras")

    def _cell(self, algorithm, variant):
        cell = dict(track_data=True)
        if variant in ("track_data", "track_data-chunked"):
            cfg, trace = _cfg(algorithm=algorithm), _trace(n=30_000)
            if variant == "track_data-chunked":
                cell["chunks"] = 7
        elif variant == "faults-audit":
            cfg = _cfg(algorithm=algorithm).with_resilience(audit_interval=3)
            trace = _trace(n=30_000)
            cell["arm"] = lambda sim: sim.attach_faults(_every_fault_kind())
        elif variant == "watchdog-degrade":
            trace = _trace(n=30_000)
            cfg = _cfg(algorithm=algorithm)
            cfg = cfg.with_resilience(
                epoch_cycle_budget=_epoch_budget(cfg, trace, 0.5),
                watchdog_action="degrade",
            )
            cell.update(track_data=False, flush_each_epoch=True)
        elif variant == "ras":
            cfg = chaos_soak.soak_config(algorithm)
            trace = chaos_soak.soak_trace(40)
            cell["arm"] = lambda sim: sim.attach_faults(_every_fault_kind())
            cell["flush_each_epoch"] = True
        else:
            cfg = hammer_soak.soak_config(algorithm).with_ras(
                enabled=True, seed=3, ce_base_rate=0.002,
                scrub_interval_epochs=4,
            )
            trace = hammer_soak.hammer_trace(30)
            cell["flush_each_epoch"] = True
        return cfg, trace, cell

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_matrix(self, algorithm, variant):
        cfg, trace, cell = self._cell(algorithm, variant)
        r = assert_identical(cfg, trace, **cell)
        assert r.swaps_triggered > 0
        # guards: each cell exercises the hook it names
        if variant in ("faults-audit", "ras"):
            assert r.faults_injected == len(FaultKind)
        if variant == "watchdog-degrade":
            breaches = [e for e in r.degradation_events
                        if e.kind == WATCHDOG_BREACH]
            assert 0 < len(breaches) < r.stepwise_epochs
        if variant in ("ras", "disturb-ras"):
            assert r.ras.scrub_reads > 0
        if variant == "disturb-ras":
            assert r.disturb.victim_refreshes > 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_watchdog_raise(self, algorithm):
        """Both loops stop at the same epoch with the same message, and
        leave the same partial result behind."""
        trace = _trace(n=30_000)
        cfg = _cfg(algorithm=algorithm)
        cfg = cfg.with_resilience(
            epoch_cycle_budget=_epoch_budget(cfg, trace, 0.9),
            watchdog_action="raise",
        )
        sim, ref = _pair(cfg)
        r_sim, r_ref = SimulationResult(), SimulationResult()
        with pytest.raises(WatchdogError) as e_sim:
            _feed(sim, trace, 3, r_sim)
        with pytest.raises(WatchdogError) as e_ref:
            _feed(ref, trace, 3, r_ref)
        assert str(e_sim.value) == str(e_ref.value)
        assert sim._epoch_index == ref._epoch_index > 1
        _assert_same_results(sim, ref, r_sim, r_ref)
        assert r_sim.stepwise_epochs == r_ref.stepwise_epochs


class TestAlgorithms:
    @pytest.mark.parametrize(
        "algorithm, block", with_blocks((a,) for a in ALGORITHMS)
    )
    def test_bit_identical(self, monkeypatch, algorithm, block):
        set_block(monkeypatch, block)
        cfg = _cfg(algorithm=algorithm)
        r = assert_identical(cfg, _trace())
        assert r.swaps_triggered > 0  # exercise the migration machinery

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bit_identical_without_writes(self, algorithm):
        assert_identical(_cfg(algorithm=algorithm), _trace(writes=False))


class TestVariants:
    def test_os_assisted_translation(self):
        # macro page below hw_min_page_bytes -> OS-assisted table updates
        cfg = _cfg(macro_page_bytes=16 * KB, hw_min_page_bytes=1 * MB)
        assert_identical(cfg, _trace())

    def test_critical_block_first_off(self):
        assert_identical(_cfg(critical_block_first=False), _trace())

    def test_hottest_coldest_trigger_off(self):
        assert_identical(_cfg(hottest_coldest_trigger=False), _trace())

    def test_no_migration(self):
        assert_identical(_cfg(), _trace(), migrate=False)

    def test_chunked_feeding(self):
        # chunk boundaries must not perturb either loop, including
        # boundaries that do not line up with epoch boundaries
        assert_identical(_cfg(), _trace(), chunks=7)

    def test_large_epochs(self):
        assert_identical(_cfg(swap_interval=25_000), _trace())

    def test_tiny_queue_wait_forces_fallback(self):
        # a tiny cap binds at interior segment boundaries, so the
        # deferred flush must carry the capped backlog from block to block
        # instead of propagating the uncapped departure — results must
        # still be identical, with no per-segment replay
        base = _cfg()
        timing = dataclasses.replace(base.offpkg_dram, max_queue_wait=8)
        cfg = dataclasses.replace(base, offpkg_dram=timing)
        assert_identical(cfg, _trace(n=30_000))

    def test_empty_and_tiny_traces(self):
        cfg = _cfg()
        assert_identical(cfg, make_chunk([]))
        assert_identical(cfg, make_chunk([0, 4096, 8192]))


class TestBlockCadence:
    """Where the deferred flushes fall: at the first epoch boundary
    where the unflushed accesses reach the block, never inside an
    epoch, and at the end of the chunk."""

    @staticmethod
    def _flushes(cfg, trace):
        sim = EpochSimulator(cfg)
        flushes = []
        service = sim.controller.service_resolved

        def record(on, machine, offsets, times, seg_starts, extra):
            flushes.append((on.shape[0], seg_starts.tolist()))
            return service(on, machine, offsets, times, seg_starts, extra)

        sim.controller.service_resolved = record
        sim.run(trace)
        return flushes

    def test_flushes_at_the_first_epoch_boundary_past_the_block(self):
        assert FLUSH_BLOCK_ACCESSES == 32_768
        flushes = self._flushes(_cfg(swap_interval=1_000), _trace(n=60_000))
        assert flushes == [
            (33_000, list(range(0, 33_000, 1_000))),
            (27_000, list(range(0, 27_000, 1_000))),
        ]

    def test_an_epoch_longer_than_the_block_is_flushed_whole(self):
        flushes = self._flushes(_cfg(swap_interval=50_000), _trace(n=60_000))
        assert flushes == [(50_000, [0]), (10_000, [0])]


class TestMigrationActive:
    """Epochs with an active SwapPlan must ride the deferred flush.

    The matrix crosses the three paper algorithms with write traffic,
    OS-assisted translation, a one-shot abort mid-plan, and refresh on
    both tiers. Every cell goes through :func:`assert_identical`, which
    pins bit-identical ``epoch_latency`` *and* ``stepwise_epochs == 0``
    on the production run — a regression that flushes migration-active
    epochs one at a time fails here, not just in the throughput numbers.
    Each cell runs at the default flush block and at ``PATCHED_BLOCKS``.
    """

    VARIANTS = ("writes", "os-assisted", "abort", "refresh")

    def _cell(self, algorithm, variant):
        cfg = _cfg(algorithm=algorithm)
        if variant == "os-assisted":
            cfg = _cfg(algorithm=algorithm, macro_page_bytes=16 * KB,
                       hw_min_page_bytes=1 * MB)
        elif variant == "refresh":
            cfg = dataclasses.replace(
                cfg,
                offpkg_dram=offpkg_dram_timing(refresh=True),
                onpkg_dram=onpkg_dram_timing(refresh=True),
            )
        arm = None
        if variant == "abort":
            arm = lambda mem: mem.engine.inject_abort(1)
        return cfg, _trace(writes=variant == "writes"), arm

    @pytest.mark.parametrize(
        "algorithm, variant, block",
        with_blocks(itertools.product(ALGORITHMS, VARIANTS)),
    )
    def test_matrix(self, monkeypatch, algorithm, variant, block):
        set_block(monkeypatch, block)
        cfg, trace, arm = self._cell(algorithm, variant)
        r = assert_identical(cfg, trace, arm=arm)
        assert r.swaps_triggered > 0
        assert r.data_violations == 0
        if variant != "os-assisted":
            # plans span epoch boundaries (a later trigger found the
            # previous one still in flight): the deferred flush covered
            # epochs with P/F bits live, not just plan-free epochs
            assert r.swaps_suppressed_busy > 0

    def test_abort_changes_behavior(self):
        # guard: the armed abort genuinely takes a different path
        cfg = _cfg()
        clean = HeterogeneousMainMemory(cfg).run(_trace())
        aborted_mem = HeterogeneousMainMemory(cfg)
        aborted_mem.engine.inject_abort(1)
        aborted = aborted_mem.run(_trace())
        assert aborted.total_latency != clean.total_latency


class TestRefresh:
    """The tREFI/tRFC time warp is a pure function of global time, so
    it must commute with segment boundaries: enabling refresh keeps the
    deferred flush bit-identical while exercising mid-service suspensions
    and refresh-stretched migration copies."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bit_identical_with_refresh_both_tiers(self, algorithm):
        cfg = dataclasses.replace(
            _cfg(algorithm=algorithm),
            offpkg_dram=offpkg_dram_timing(refresh=True),
            onpkg_dram=onpkg_dram_timing(refresh=True),
        )
        r = assert_identical(cfg, _trace())
        assert r.swaps_triggered > 0  # refresh-stretched copies included

    def test_bit_identical_with_refresh_offpkg_only(self):
        cfg = dataclasses.replace(
            _cfg(), offpkg_dram=offpkg_dram_timing(refresh=True)
        )
        assert_identical(cfg, _trace())

    def test_refresh_survives_chunked_feeding(self):
        # chunk boundaries land at arbitrary phases of the tREFI period
        cfg = dataclasses.replace(
            _cfg(),
            offpkg_dram=offpkg_dram_timing(refresh=True),
            onpkg_dram=onpkg_dram_timing(refresh=True),
        )
        assert_identical(cfg, _trace(), chunks=7)

    def test_refresh_changes_the_numbers(self):
        # guard against the refresh flag silently not reaching the model
        base = assert_identical(_cfg(), _trace(), migrate=False)
        taxed = assert_identical(
            dataclasses.replace(
                _cfg(), offpkg_dram=offpkg_dram_timing(refresh=True)
            ),
            _trace(),
            migrate=False,
        )
        assert taxed.total_latency > base.total_latency


class TestMultiTenant:
    """A tenant-tagged interleaved stream must keep the deferred flush:
    window translation, QoS constraints and per-tenant attribution ride
    on ``run_into`` and may not perturb the epoch loop."""

    N_TENANTS = 3

    def _tenant_trace(self, n, seed, span_bytes):
        rng = np.random.default_rng(seed)
        hot = rng.integers(0, span_bytes)
        addr = np.where(
            rng.random(n) < 0.8,
            (hot + rng.integers(0, 2 * MB, n)) % span_bytes,
            rng.integers(0, span_bytes, n),
        )
        addr = (addr // 4096) * 4096
        rw = (rng.random(n) < 0.3).astype(np.int8)
        return make_chunk(
            addr.astype(np.int64), time=np.cumsum(rng.integers(1, 80, n)), rw=rw
        )

    def _run(self, monkeypatch, simulator_cls):
        from repro.tenancy import (
            MultiTenantSimulator,
            ProportionalSharePolicy,
            TenantSpec,
        )

        monkeypatch.setattr(
            "repro.tenancy.simulator.EpochSimulator", simulator_cls
        )
        cfg = _cfg()
        amap = cfg.address_map()
        n_pages = amap.ghost_page // self.N_TENANTS
        mts = MultiTenantSimulator(cfg, policy=ProportionalSharePolicy())
        for i in range(self.N_TENANTS):
            mts.add_tenant(
                TenantSpec(tenant_id=i, name=f"t{i}", n_pages=n_pages,
                           weight=1.0 + 0.5 * i),
                self._tenant_trace(
                    20_000, seed=i, span_bytes=n_pages * amap.macro_page_bytes
                ),
            )
        return mts.run()

    def test_bit_identical_under_tenant_tags(self, monkeypatch):
        r_sim = self._run(monkeypatch, EpochSimulator)
        r_ref = self._run(monkeypatch, EpochwiseSimulator)
        # TenantMetrics is an eq dataclass: the tenants dicts compare
        # field-for-field inside _scalar_fields
        assert _scalar_fields(r_sim) == _scalar_fields(r_ref)
        assert r_sim.epoch_latency == r_ref.epoch_latency
        assert r_sim.stepwise_epochs == 0
        assert r_ref.fused_epochs == 0
        assert r_sim.fused_epochs == r_ref.stepwise_epochs
        assert r_sim.swaps_triggered > 0
