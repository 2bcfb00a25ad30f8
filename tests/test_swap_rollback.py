"""A failed swap must leave the translation table exactly as it was.

The engine rolls a torn plan back in place from an undo record that
covers only what the plan's table updates can write. These tests walk
each design through a sequence of real swaps (so the table holds
migrated, ghost and parked pages, not just the boot mapping) and, at
every state, fail the next swap every way it can fail: an injected
abort at each copy step, a Live fill torn after some sub-blocks, and a
table update torn after each prefix of its ops. After every failure the
whole ``state_dict()`` must equal the pre-swap one, and so must the
pre-swap table the data-safe recovery planner was given.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.config import MigrationConfig, ResilienceConfig
from repro.errors import TranslationTableError
from repro.migration import engine as engine_mod
from repro.migration.algorithms import CopyStep, TableUpdate
from repro.migration.engine import MigrationEngine
from repro.units import MB

ALGOS = ("N", "N-1", "live")
N_SWAPS = 8


def assert_same_state(want: dict, got: dict) -> None:
    assert want.keys() == got.keys()
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(value, got[key], err_msg=key)
        else:
            assert value == got[key], key


@contextmanager
def torn_update(index: int, keep: int):
    """The ``index``-th table update applies ``keep`` ops, then fails."""
    original = TableUpdate.apply
    seen = [0]

    def apply(update, table):
        if seen[0] == index:
            for method, args in update.ops[:keep]:
                getattr(table, method)(*args)
            raise TranslationTableError("torn table update")
        seen[0] += 1
        original(update, table)

    TableUpdate.apply = apply
    try:
        yield
    finally:
        TableUpdate.apply = original


class Driver:
    """One engine plus a seeded hot-page / cold-slot schedule."""

    def __init__(self, amap, algo, *, data_safe):
        self.engine = MigrationEngine(
            amap,
            MigrationConfig(
                algorithm=algo, macro_page_bytes=1 * MB, swap_interval=100
            ),
            resilience=ResilienceConfig(
                data_safe_abort=data_safe, max_consecutive_failures=10**6
            ),
        )
        self.rng = np.random.default_rng(1)

    def pick(self) -> None:
        table = self.engine.table
        off = [
            p for p in range(self.engine.amap.ghost_page)
            if not table.onpkg[p] and p not in table.reserved_pages
        ]
        self.hot = int(self.rng.choice(off))
        self.touch_order = self.rng.permutation(table.n_slots).astype(np.int64)

    def attempt(self):
        """One epoch that makes the picked pages the swap candidates."""
        now = self.engine.busy_until + 1_000
        n = self.engine.table.n_slots
        self.engine.observe_epoch(
            slots=self.touch_order,
            slot_times=np.arange(now - 900, now - 900 + n, dtype=np.int64),
            offpkg_pages=np.full(5, self.hot, dtype=np.int64),
            off_times=np.arange(now - 10, now - 5, dtype=np.int64),
            off_subblocks=np.full(5, 1, dtype=np.int64),
        )
        return self.engine.maybe_swap(now)


@contextmanager
def aborted(engine, step: int, subblocks: int = 0):
    """The swap aborts at copy ``step`` (after ``subblocks`` of a fill)."""
    engine.inject_abort(step, subblocks=subblocks)
    yield


def failure_modes(algo: str, plan) -> list:
    """``(name, arm)`` for every way ``plan`` can fail, abort at copy
    step 0 first; ``arm(engine)`` is a context manager to run it in."""
    copies = sum(isinstance(s, CopyStep) for s in plan.steps)
    ops = [len(s.ops) for s in plan.steps if isinstance(s, TableUpdate)]
    modes = []
    for step in range(copies):
        modes.append((f"abort@{step}", lambda e, k=step: aborted(e, k)))
        if algo == "live":
            modes.append((f"abort@{step}+3sb",
                          lambda e, k=step: aborted(e, k, subblocks=3)))
    for j, n_ops in enumerate(ops):
        for keep in range(n_ops + 1):
            modes.append((f"torn@{j}:{keep}",
                          lambda e, j=j, keep=keep: torn_update(j, keep)))
    return modes


@pytest.mark.parametrize("data_safe", [True, False], ids=["recover", "bare"])
@pytest.mark.parametrize("algo", ALGOS)
def test_every_failed_swap_restores_the_whole_table(
    algo, data_safe, tiny_amap, monkeypatch
):
    handed, plans = [], []
    real_recovery = engine_mod.recovery_plan

    def recovery_plan(pre_table, executed, **kwargs):
        handed.append(pre_table.state_dict())
        return real_recovery(pre_table, executed, **kwargs)

    monkeypatch.setattr(engine_mod, "recovery_plan", recovery_plan)
    builder = "build_basic_swap_steps" if algo == "N" else "build_swap_steps"
    real_build = getattr(engine_mod, builder)

    def build(*args):
        plans.append(real_build(*args))
        return plans[-1]

    monkeypatch.setattr(engine_mod, builder, build)

    driver = Driver(tiny_amap, algo, data_safe=data_safe)
    engine = driver.engine
    failures = 0
    cases = set()
    for _ in range(N_SWAPS):
        driver.pick()
        modes = [("abort@0", lambda e: aborted(e, 0))]
        plan_seen = False
        while modes:
            name, arm = modes.pop(0)
            before = engine.table.state_dict()
            handed.clear()
            with arm(engine):
                decision = driver.attempt()
            if not plan_seen:
                # the first attempt reveals the plan; queue its other
                # failure modes
                plan_seen = True
                modes = failure_modes(algo, plans[-1])[1:]
                cases.add(plans[-1].case)
            assert not decision.triggered, name
            assert "swap failed" in decision.reason, name
            assert_same_state(before, engine.table.state_dict())
            if data_safe:
                (pre,) = handed
                assert_same_state(before, pre)
            else:
                assert not handed
            engine.table.audit()
            failures += 1
        # then let the swap through, moving the table to a new state
        assert driver.attempt().triggered
        engine.table.check_invariants()
    assert engine.swaps_failed == failures
    assert not engine.quarantined
    # the walk reaches four of the Fig 8 cases in every design
    assert len(cases) >= 4, cases
