"""Differential tests: the array-based shadow memory against the
per-access reference loop in ``tests/shadow_reference.py``.

Random streams drive both implementations through the same calls —
demand chunks that read and write across slots, machine pages and dead
pages (Ω and a RAS spare), whole-page and per-sub-block copies, links
opened and closed, ops landing exactly at access times, and ``corrupt``,
``scrub_page``, ``drop_pending``, ``flush`` and ``verify_table`` between
chunks — and every observable is compared after every step. A second
property cuts one stream into chunks at different places and asserts
the results do not depend on the cuts. Whole tracked simulations then
run with both shadows attached and compared after every call.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.address import AddressMap
from repro.core.simulator import EpochSimulator
from repro.datamodel import ShadowMemory
from repro.migration.table import TranslationTable
from repro.units import KB

from .shadow_reference import ScalarShadowMemory
from .test_data_integrity import config, write_trace
from .test_disturb import _cfg as disturb_config
from .test_disturb import _hammer_trace

#: 16 pages of 4 sub-blocks, 4 slots (the last one the N-1 empty slot)
AMAP = AddressMap(
    total_bytes=1024 * KB, onpkg_bytes=256 * KB,
    macro_page_bytes=64 * KB, subblock_bytes=16 * KB,
)
S = AMAP.subblocks_per_page
N_PAGES = AMAP.n_total_pages
SPARE = N_PAGES - 3
LOCATIONS = (
    [("slot", i) for i in range(AMAP.n_onpkg_pages)]
    + [("mach", p) for p in range(N_PAGES)]
    + [("buf", 0)]
)


def make_table() -> TranslationTable:
    return TranslationTable(AMAP, reserved_pages={SPARE})


def contents(shadow) -> dict:
    """Cell contents by location; an all-garbage location is absent."""
    return {
        loc: cells
        for loc, cells in shadow.state_dict()["contents"].items()
        if any(cell is not None for cell in cells)
    }


def assert_same(fast: ShadowMemory, ref: ScalarShadowMemory) -> None:
    assert fast.violations == ref.violations
    assert (fast.reads, fast.writes) == (ref.reads, ref.writes)
    assert fast.generation == ref.generation
    assert contents(fast) == contents(ref)
    fast_state, ref_state = fast.state_dict(), ref.state_dict()
    assert fast_state["links"] == ref_state["links"]
    assert fast_state["ops"] == ref_state["ops"]


# ----------------------------------------------------------------------
# random streams
# ----------------------------------------------------------------------

locations = st.sampled_from(LOCATIONS)
subblock_sets = st.lists(
    st.integers(0, S - 1), min_size=1, max_size=S, unique=True
).map(tuple)

#: (time step, page, sub-block, location index, write); small time steps
#: make ties between accesses and with op land times common, and a
#: negative step checks that an op lands once any earlier access in the
#: chunk has reached it
accesses = st.lists(
    st.tuples(
        st.integers(-1, 2), st.integers(0, N_PAGES - 1), st.integers(0, S - 1),
        st.integers(0, len(LOCATIONS) - 2), st.booleans(),
    ),
    min_size=0, max_size=40,
)

ops = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.one_of(
            st.tuples(st.just("copy"), st.tuples(locations, locations, st.none())),
            st.tuples(
                st.just("copy"), st.tuples(locations, locations, subblock_sets)
            ),
            st.tuples(st.just("link"), st.tuples(locations, locations)),
            st.tuples(st.just("close"), st.just(())),
        ),
    ),
    min_size=1, max_size=6,
)

steps = st.lists(
    st.one_of(
        st.tuples(st.just("chunk"), accesses),
        st.tuples(st.just("schedule"), ops),
        st.tuples(st.just("corrupt"), locations, subblock_sets,
                  st.one_of(st.none(), st.integers(0, 6))),
        st.tuples(st.just("scrub"), st.integers(0, N_PAGES - 1), locations),
        st.tuples(st.just("copy"), locations, locations,
                  st.one_of(st.none(), subblock_sets)),
        st.tuples(st.just("link"), locations, locations),
        st.tuples(st.just("close"),),
        st.tuples(st.just("drop_pending"),),
        st.tuples(st.just("flush"), st.one_of(st.none(), st.integers(0, 6))),
        st.tuples(st.just("verify"), st.integers(-1, S)),
    ),
    min_size=1, max_size=25,
)


def chunk_arrays(accs, t0: int):
    """Per-access arrays for ``process``; times start at ``t0``."""
    cols = np.array(accs, dtype=np.int64).reshape(-1, 5).T
    dt, pages, sbs, locs, writes = cols
    chosen = [LOCATIONS[i] for i in locs.tolist()]
    on = np.array([kind == "slot" for kind, _ in chosen], dtype=bool)
    machine = np.array([index for _, index in chosen], dtype=np.int64)
    times = t0 + np.cumsum(dt)
    return times, pages, sbs, on, machine, writes.astype(bool)


def fill_state(table: TranslationTable, landed: int) -> None:
    """Put ``table`` mid-fill with ``landed`` sub-blocks in (-1: no fill)."""
    table.end_fill()
    if landed < 0:
        return
    table.begin_fill(0, 9)
    for sb in range(min(landed, S - 1)):
        table.fill_subblock(sb)


class TestDifferential:
    @given(program=steps)
    @settings(max_examples=300, deadline=None)
    def test_every_step_matches_the_reference(self, program):
        table = make_table()
        fast, ref = ShadowMemory(table), ScalarShadowMemory(table)
        assert_same(fast, ref)
        now = 0
        for step in program:
            kind = step[0]
            if kind == "chunk":
                arrays = chunk_arrays(step[1], now)
                fast.process(*arrays)
                ref.process(*arrays)
                if arrays[0].size:
                    now = int(arrays[0][-1])
            elif kind == "schedule":
                t = now
                for dt, (op, payload) in step[1]:
                    t += dt
                    fast.schedule(t, op, payload)
                    ref.schedule(t, op, payload)
            elif kind == "corrupt":
                _, loc, sbs, dt = step
                t = None if dt is None else now + dt
                assert fast.corrupt(loc, sbs, t) == ref.corrupt(loc, sbs, t)
            elif kind == "scrub":
                fast.scrub_page(step[1], step[2])
                ref.scrub_page(step[1], step[2])
            elif kind == "copy":
                fast.apply_copy(*step[1:])
                ref.apply_copy(*step[1:])
            elif kind == "link":
                fast.open_link(*step[1:])
                ref.open_link(*step[1:])
            elif kind == "close":
                fast.close_links()
                ref.close_links()
            elif kind == "drop_pending":
                fast.drop_pending()
                ref.drop_pending()
            elif kind == "flush":
                until = None if step[1] is None else now + step[1]
                fast.flush(until)
                ref.flush(until)
            else:
                fill_state(table, step[1])
                assert fast.verify_table(table) == ref.verify_table(table)
            assert_same(fast, ref)

    @given(
        accs=accesses.filter(len),
        schedule=ops,
        cuts=st.lists(st.lists(st.integers(0, 40), max_size=6), min_size=2,
                      max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_results_do_not_depend_on_chunk_cuts(self, accs, schedule, cuts):
        table = make_table()
        arrays = chunk_arrays(accs, 0)
        n = arrays[0].shape[0]
        ref = ScalarShadowMemory(table)
        runs = []
        for cut, max_chunk in [(c, None) for c in cuts] + [([], 3)]:
            fast = ShadowMemory(table)
            if max_chunk is not None:
                # the packed-key bound, shrunk so one chunk runs in pieces
                fast._max_chunk = max_chunk
            runs.append(fast)
            t = 0
            for dt, (op, payload) in schedule:
                t += dt
                fast.schedule(t, op, payload)
            edges = [0, *sorted(min(c, n) for c in cut), n]
            for a, b in zip(edges, edges[1:]):
                fast.process(*(x[a:b] for x in arrays))
        t = 0
        for dt, (op, payload) in schedule:
            t += dt
            ref.schedule(t, op, payload)
        ref.process(*arrays)
        for fast in runs:
            assert_same(fast, ref)


def test_a_read_after_a_landed_copy_sees_the_copy():
    """An op landing at an access's exact time lands before it."""
    table = make_table()
    fast, ref = ShadowMemory(table), ScalarShadowMemory(table)
    for shadow in (fast, ref):
        shadow.schedule(5, "copy", (("mach", 7), ("slot", 1), None))
        shadow.process(
            np.array([5, 5]), np.array([7, 1]), np.array([2, 2]),
            np.array([True, True]), np.array([1, 1]), np.array([False, False]),
        )
    assert_same(fast, ref)
    assert [v.page for v in fast.violations] == [1]
    assert fast.violations[0].found == (7, 0)
    assert fast.replayed_accesses == 2


def test_garbage_reads_report_none():
    table = make_table()
    shadow = ShadowMemory(table)
    assert shadow.corrupt(("slot", 0), (1, 1, 2)) == 2
    shadow.process(
        np.array([1]), np.array([0]), np.array([1]), np.array([True]),
        np.array([0]), np.array([False]),
    )
    (v,) = shadow.violations
    assert v.found is None and v.expected == (0, 0)
    assert v.location == ("slot", 0)
    assert shadow.replayed_accesses == 0  # nothing in flight: all quiet


def test_unknown_location_rejected():
    shadow = ShadowMemory(make_table())
    for loc in (("slot", AMAP.n_onpkg_pages), ("mach", N_PAGES), ("buf", 1),
                ("disk", 0)):
        with pytest.raises(ValueError, match="no such location"):
            shadow.apply_copy(loc, ("slot", 0))


def test_state_dict_round_trip_and_old_format():
    """A checkpoint without ``replayed_accesses`` (written before the
    counter existed) still loads; the round trip is exact."""
    table = make_table()
    fast, ref = ShadowMemory(table), ScalarShadowMemory(table)
    arrays = chunk_arrays([(1, p % N_PAGES, p % S, p % 9, p % 3 == 0)
                           for p in range(30)], 0)
    for shadow in (fast, ref):
        shadow.open_link(("slot", 1), ("mach", 9))
        shadow.schedule(100, "copy", (("slot", 2), ("buf", 0), (3,)))
        shadow.process(*arrays)
    old = ref.state_dict()
    assert "replayed_accesses" not in old
    loaded = ShadowMemory(make_table())
    loaded.load_state_dict(old)
    assert_same(loaded, ref)
    assert loaded.replayed_accesses == 0
    again = ShadowMemory(make_table())
    again.load_state_dict(fast.state_dict())
    assert_same(again, ref)
    assert again.replayed_accesses == fast.replayed_accesses > 0


# ----------------------------------------------------------------------
# whole simulations, both shadows attached
# ----------------------------------------------------------------------

class Tee:
    """Forwards every shadow call to both implementations, asserts the
    return values and the full state agree, and serves attribute reads
    from the array-based one."""

    def __init__(self, fast: ShadowMemory, ref: ScalarShadowMemory):
        self.fast, self.ref = fast, ref
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(self.fast, name)
        if not callable(attr):
            return attr

        def both(*args, **kwargs):
            out = attr(*args, **kwargs)
            assert getattr(self.ref, name)(*args, **kwargs) == out
            assert_same(self.fast, self.ref)
            self.calls += 1
            return out

        return both


def tee_shadow(sim: EpochSimulator) -> Tee:
    tee = Tee(sim.shadow, ScalarShadowMemory(sim.engine.table))
    sim.shadow = sim.engine.shadow = sim.controller.shadow = tee
    if sim._disturb is not None:
        sim._disturb.shadow = tee
    return tee


@pytest.mark.parametrize("algo", ["N", "N-1", "live"])
def test_migrating_simulation_matches_reference(algo):
    cfg = config(algo).with_ras(
        enabled=True, seed=1, ce_base_rate=0.02, scrub_interval_epochs=2
    )
    sim = EpochSimulator(cfg, track_data=True)
    tee = tee_shadow(sim)
    trace = write_trace(cfg, n_epochs=10, seed=3)
    # RAS spares carry no program data: move their accesses to page 0
    amap = cfg.address_map()
    spare = np.isin(amap.page_of(trace.addr), sorted(sim.table.reserved_pages))
    trace.records["addr"][spare] &= amap.macro_page_bytes - 1
    result = sim.run(trace)
    assert result.swaps_triggered > 0
    assert tee.fast.replayed_accesses > 0
    assert tee.calls > 0
    assert result.data_violations == 0
    assert tee.verify_table(sim.engine.table) == []


def test_unmitigated_hammer_matches_reference():
    """Flips land (``corrupt``) and surface as violations in both."""
    sim = EpochSimulator(
        disturb_config(mitigate=False), migrate=False, track_data=True
    )
    tee = tee_shadow(sim)
    result = sim.run(_hammer_trace(6))
    assert result.disturb.flip_cells >= 1
    leftover = tee.verify_table(sim.table)
    assert result.data_violations + len(leftover) >= result.disturb.flip_cells


def test_no_swaps_means_no_replay():
    sim = EpochSimulator(
        disturb_config(), migrate=False, track_data=True
    )
    result = sim.run(_hammer_trace(4))
    assert result.swaps_triggered == 0
    assert sim.shadow.reads + sim.shadow.writes > 0
    assert sim.shadow.replayed_accesses == 0
