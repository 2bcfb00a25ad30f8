"""``FastDevice.service_segmented`` against one ``service()`` per segment.

The fused flush must be bit-identical to the sequential calls it
stands for, including when the finite-queue cap binds at an interior
segment boundary (the sequential carry is capped there, the fused
recursion is not). A tiny ``max_queue_wait`` and bursty arrivals make
that binding common; each case also proves it happened by showing that
one uncut ``service()`` call over the same accesses disagrees.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import DramTiming, offpkg_dram_timing
from repro.dram.fastmodel import FastDevice
from repro.dram.timing import DramGeometry
from repro.errors import SimulationError


def _timing(refresh: bool, **kwargs) -> DramTiming:
    base = offpkg_dram_timing(refresh=True) if refresh else DramTiming()
    return dataclasses.replace(base, **kwargs)


def _workload(rng, n, n_rows=6):
    # bursts of near-simultaneous arrivals separated by idle gaps, over
    # few rows so hits, conflicts and backlog all occur
    gaps = np.where(rng.random(n) < 0.05, rng.integers(500, 5_000, n),
                    rng.integers(0, 4, n))
    arrivals = np.cumsum(gaps).astype(np.int64)
    addr = (rng.integers(0, 32, n) * 64
            + rng.integers(0, n_rows, n) * 8192 * 32).astype(np.int64)
    return addr, arrivals


def _splits(rng, n, n_segments):
    cuts = np.sort(rng.choice(np.arange(1, n), n_segments - 1, replace=False))
    return np.concatenate([[0], cuts]).astype(np.int64)


def _per_segment(dev, addr, arrivals, seg_starts):
    bounds = seg_starts.tolist() + [addr.shape[0]]
    return np.concatenate([
        dev.service(addr[lo:hi], arrivals[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ])


def _assert_same_state(a: FastDevice, b: FastDevice):
    np.testing.assert_array_equal(a._open_row, b._open_row)
    np.testing.assert_array_equal(a._ready, b._ready)
    assert (a.row_hits, a.row_conflicts) == (b.row_hits, b.row_conflicts)


@pytest.mark.parametrize("refresh", [False, True], ids=["plain", "refresh"])
@pytest.mark.parametrize("seed", range(6))
def test_matches_per_segment_calls_when_the_cap_binds(seed, refresh):
    rng = np.random.default_rng(seed)
    timing = _timing(refresh, max_queue_wait=int(rng.integers(4, 40)))
    geo = DramGeometry(timing)
    fused, twin, uncut = FastDevice(geo), FastDevice(geo), FastDevice(geo)
    bound = False
    # several flushes in a row: the persistent carry crosses calls too
    for _ in range(3):
        n = int(rng.integers(200, 2_000))
        addr, arrivals = _workload(rng, n)
        arrivals += int(twin._ready.max())
        seg_starts = _splits(rng, n, int(rng.integers(2, 60)))
        got = fused.service_segmented(addr, arrivals, seg_starts)
        want = _per_segment(twin, addr, arrivals, seg_starts)
        np.testing.assert_array_equal(got, want)
        _assert_same_state(fused, twin)
        # the cap bound at an interior boundary iff ignoring the
        # boundaries changes some latency
        uncut.load_state_dict(twin.state_dict())
        bound |= not np.array_equal(uncut.service(addr, arrivals), want)
        uncut.load_state_dict(twin.state_dict())
    assert bound
    assert fused.segmented_replays == 0


def test_empty_segments_and_single_access_segments():
    rng = np.random.default_rng(7)
    geo = DramGeometry(_timing(False, max_queue_wait=8))
    fused, twin = FastDevice(geo), FastDevice(geo)
    addr, arrivals = _workload(rng, 300)
    seg_starts = np.array([0, 0, 1, 2, 2, 50, 51, 51, 299], dtype=np.int64)
    bounds = seg_starts.tolist() + [300]
    want = np.concatenate([
        twin.service(addr[lo:hi], arrivals[lo:hi])
        if hi > lo else np.zeros(0, dtype=np.int64)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ])
    got = fused.service_segmented(addr, arrivals, seg_starts)
    np.testing.assert_array_equal(got, want)
    _assert_same_state(fused, twin)


def test_far_apart_arrivals_replay_exactly():
    # a time span so wide that the block-offset running max would
    # overflow int64: the flush replays one service() call per segment
    rng = np.random.default_rng(3)
    geo = DramGeometry(_timing(False, max_queue_wait=8))
    fused, twin = FastDevice(geo), FastDevice(geo)
    addr, arrivals = _workload(rng, 2_000)
    arrivals[1_000:] += np.int64(1) << 56
    seg_starts = np.arange(0, 2_000, 10, dtype=np.int64)
    got = fused.service_segmented(addr, arrivals, seg_starts)
    want = _per_segment(twin, addr, arrivals, seg_starts)
    np.testing.assert_array_equal(got, want)
    _assert_same_state(fused, twin)
    assert fused.segmented_replays == 1


def test_backwards_arrivals_replay():
    rng = np.random.default_rng(5)
    addr, arrivals = _workload(rng, 400)
    seg_starts = np.array([0, 100, 200, 300], dtype=np.int64)
    geo = DramGeometry(_timing(False, max_queue_wait=8))
    fused, twin = FastDevice(geo), FastDevice(geo)
    back = arrivals.copy()
    back[200:] -= back[200] - back[50]  # segment 2 restarts earlier
    got = fused.service_segmented(addr, back, seg_starts)
    want = _per_segment(twin, addr, back, seg_starts)
    np.testing.assert_array_equal(got, want)
    _assert_same_state(fused, twin)
    assert fused.segmented_replays == 1


def test_single_segment_matches_service():
    rng = np.random.default_rng(11)
    geo = DramGeometry(_timing(True, max_queue_wait=8))
    fused, checked, twin = FastDevice(geo), FastDevice(geo), FastDevice(geo)
    addr, arrivals = _workload(rng, 500)
    one = np.zeros(1, dtype=np.int64)
    want = twin.service(addr, arrivals)
    got = fused.service_segmented(addr, arrivals, one, assume_monotone=True)
    np.testing.assert_array_equal(got, want)
    _assert_same_state(fused, twin)
    np.testing.assert_array_equal(
        checked.service_segmented(addr, arrivals, one), want
    )
    _assert_same_state(checked, twin)


def test_backwards_single_segment_raises():
    # one segment has no boundary to replay across: a caller that does
    # not assume monotone arrivals gets service()'s check
    rng = np.random.default_rng(5)
    addr, arrivals = _workload(rng, 400)
    back = arrivals.copy()
    back[200:] -= back[200] - back[50]
    dev = FastDevice(DramGeometry(_timing(False)))
    with pytest.raises(SimulationError, match="non-decreasing"):
        dev.service_segmented(addr, back, np.zeros(1, dtype=np.int64))
    assert dev.row_hits == dev.row_conflicts == 0
