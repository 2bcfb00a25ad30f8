"""Fused multi-epoch fast path must be bit-identical to the stepwise loop.

The fused path defers all DRAM servicing to one segmented flush per
chunk; these tests pin the contract from the optimisation work: not a
single simulated number may change — total latency, the full
``epoch_latency`` series, swap counters, row-hit rates, everything.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import (
    MigrationConfig,
    SystemConfig,
    offpkg_dram_timing,
    onpkg_dram_timing,
)
from repro.core.hetero_memory import HeterogeneousMainMemory
from repro.trace.record import make_chunk
from repro.units import KB, MB

ALGORITHMS = ("N", "N-1", "live")


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
    # fused_epochs/stepwise_epochs say which loop ran, not what was
    # simulated — they are asserted separately in assert_identical
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name not in ("epoch_latency", "degradation_events",
                          "fused_epochs", "stepwise_epochs")
    }


def assert_identical(cfg, trace, *, migrate=True, chunks=1, arm=None):
    fused = HeterogeneousMainMemory(cfg, migrate=migrate, fused=True)
    plain = HeterogeneousMainMemory(cfg, migrate=migrate, fused=False)
    if arm is not None:
        arm(fused)
        arm(plain)
    if chunks == 1:
        r_fused = fused.run(trace)
        r_plain = plain.run(trace)
    else:
        bounds = np.linspace(0, len(trace), chunks + 1).astype(int)
        r_fused = fused.simulator.run(trace[: bounds[1]])
        r_plain = plain.simulator.run(trace[: bounds[1]])
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            fused.simulator.run_into(trace[lo:hi], r_fused)
            plain.simulator.run_into(trace[lo:hi], r_plain)
    assert _scalar_fields(r_fused) == _scalar_fields(r_plain)
    assert r_fused.epoch_latency == r_plain.epoch_latency
    # coverage: the fused simulator must never fall back to the
    # stepwise loop (migration-active epochs included), and the two
    # counters must partition the same epoch count
    assert r_fused.stepwise_epochs == 0
    assert r_plain.fused_epochs == 0
    assert r_fused.fused_epochs == r_plain.stepwise_epochs
    # nor may a flush replay its segments one service() call at a time,
    # except for the per-call channel-bus stage
    ctrl = fused.simulator.controller
    for dev in (ctrl.onpkg_model.device, ctrl.offpkg_model.device):
        if not dev.geometry.timing.channel_bus:
            assert dev.segmented_replays == 0
    return r_fused


class TestAlgorithms:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bit_identical(self, algorithm):
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
        # chunk boundaries must not perturb either path, including
        # boundaries that do not line up with epoch boundaries
        assert_identical(_cfg(), _trace(), chunks=7)

    def test_large_epochs(self):
        assert_identical(_cfg(swap_interval=25_000), _trace())

    def test_tiny_queue_wait_forces_fallback(self):
        # a tiny cap binds at interior segment boundaries, so the fused
        # flush must carry the capped backlog from block to block
        # instead of propagating the uncapped departure — results must
        # still be identical, with no per-segment replay
        base = _cfg()
        timing = dataclasses.replace(base.offpkg_dram, max_queue_wait=8)
        cfg = dataclasses.replace(base, offpkg_dram=timing)
        assert_identical(cfg, _trace(n=30_000))

    def test_channel_bus_replays_per_segment(self):
        # the bus stage restarts at every service() call, so this is
        # the one configuration whose flushes still replay each segment
        base = _cfg()
        timing = dataclasses.replace(base.offpkg_dram, channel_bus=True)
        cfg = dataclasses.replace(base, offpkg_dram=timing)
        mems = []
        assert_identical(cfg, _trace(n=30_000), arm=mems.append)
        ctrl = mems[0].simulator.controller
        assert ctrl.offpkg_model.device.segmented_replays > 0
        assert ctrl.onpkg_model.device.segmented_replays == 0

    def test_empty_and_tiny_traces(self):
        cfg = _cfg()
        assert_identical(cfg, make_chunk([]))
        assert_identical(cfg, make_chunk([0, 4096, 8192]))


class TestMigrationActive:
    """Epochs with an active SwapPlan must run through the fused path.

    The matrix crosses the three paper algorithms with write traffic,
    OS-assisted translation, a one-shot abort mid-plan, and refresh on
    both tiers. Every cell goes through :func:`assert_identical`, which
    pins bit-identical ``epoch_latency`` *and* ``stepwise_epochs == 0``
    on the fused run — a regression that sends migration-active epochs
    back to the stepwise fallback fails here, not just in the
    throughput numbers.
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

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_matrix(self, algorithm, variant):
        cfg, trace, arm = self._cell(algorithm, variant)
        r = assert_identical(cfg, trace, arm=arm)
        assert r.swaps_triggered > 0
        assert r.data_violations == 0
        if variant != "os-assisted":
            # plans span epoch boundaries (a later trigger found the
            # previous one still in flight): the fused path simulated
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
    fused path bit-identical while exercising mid-service suspensions
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
    """A tenant-tagged interleaved stream must keep the fused fast path:
    window translation, QoS constraints and per-tenant attribution ride
    on ``run_into`` and may not force (or perturb) the stepwise loop."""

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

    def _run(self, fused):
        from repro.tenancy import (
            MultiTenantSimulator,
            ProportionalSharePolicy,
            TenantSpec,
        )

        cfg = _cfg()
        amap = cfg.address_map()
        n_pages = amap.ghost_page // self.N_TENANTS
        mts = MultiTenantSimulator(
            cfg, policy=ProportionalSharePolicy(), fused=fused
        )
        for i in range(self.N_TENANTS):
            mts.add_tenant(
                TenantSpec(tenant_id=i, name=f"t{i}", n_pages=n_pages,
                           weight=1.0 + 0.5 * i),
                self._tenant_trace(
                    20_000, seed=i, span_bytes=n_pages * amap.macro_page_bytes
                ),
            )
        return mts.run()

    def test_bit_identical_under_tenant_tags(self):
        r_fused = self._run(fused=True)
        r_plain = self._run(fused=False)
        # TenantMetrics is an eq dataclass: the tenants dicts compare
        # field-for-field inside _scalar_fields
        assert _scalar_fields(r_fused) == _scalar_fields(r_plain)
        assert r_fused.epoch_latency == r_plain.epoch_latency
        assert r_fused.stepwise_epochs == 0
        assert r_plain.fused_epochs == 0
        assert r_fused.fused_epochs == r_plain.stepwise_epochs
        assert r_fused.swaps_triggered > 0
