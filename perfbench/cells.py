"""The benchmark's three workloads, each a pass of timed cells.

A *pass* runs a workload once, start to finish, through the public
simulator API (``HeterogeneousMainMemory`` / ``EpochSimulator`` built
from ``migration_config``). A *cell* is the unit the benchmark times:

* ``fig11-grid``: one simulation of the Fig 11 fast grid (81 per pass);
* ``stream-long``: one 100k-access chunk fed to ``run_into`` (80);
* ``guarded``: one 25k-access epoch-aligned chunk of one simulation
  (16 per simulation, 96 per pass).

Every cell is checked as it completes; a cell that raises or fails a
check is counted as failed. Each pass also yields a fingerprint of the
simulated statistics of all its simulations, which must not depend on
host timing or tracing.
"""

from __future__ import annotations

import hashlib
import re
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core.hetero_memory import HeterogeneousMainMemory
from repro.core.simulator import SimulationResult
from repro.experiments.common import migration_config, scaled_footprint
from repro.stats.report import format_cycles
from repro.units import KB
from repro.workloads.registry import generate_trace, get_workload

ALGORITHMS = ("N", "N-1", "live")

#: the seed the published fast-mode numbers were produced with
DEFAULT_SEED = 0

#: fast-mode experiment log holding the published Fig 11 numbers
PUBLISHED = Path(__file__).resolve().parent.parent / "experiment_output_fast.txt"


_KERNEL_DATA = np.random.default_rng(0).integers(0, 1 << 30, 1 << 16)


def speed_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work: the
    host-speed probe that host-time metrics are scaled by."""
    t0 = perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i
    np.sort(_KERNEL_DATA)
    return perf_counter() - t0


@dataclass
class Cell:
    label: str
    seconds: float
    accesses: int
    ok: bool


@dataclass
class PassResult:
    """What one pass of a workload did and measured."""

    cells: list[Cell] = field(default_factory=list)
    #: (label, result) per simulation, in run order
    results: list[tuple[str, SimulationResult]] = field(default_factory=list)
    #: failed correctness checks, one message each
    problems: list[str] = field(default_factory=list)
    #: speed-kernel timings, one before each cell of an untraced pass
    kernel: list[float] = field(default_factory=list)
    #: the pass's host time, speed-kernel timings excluded
    wall_s: float = 0.0

    @property
    def accesses(self) -> int:
        return sum(c.accesses for c in self.cells)

    @property
    def failed(self) -> int:
        return sum(not c.ok for c in self.cells)

    @property
    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for label, res in self.results:
            h.update(label.encode())
            h.update(result_digest(res))
        return h.hexdigest()[:16]

    def totals(self) -> dict[str, float]:
        """Simulated statistics summed (rates weighted) over simulations."""
        rs = [r for _, r in self.results]
        n = sum(r.n_accesses for r in rs)
        on = sum(r.onpkg_accesses for r in rs)
        off = sum(r.offpkg_accesses for r in rs)
        return {
            "n_accesses": n,
            "latency_cycles": sum(r.total_latency for r in rs) / n if n else 0.0,
            "onpkg_fraction": on / n if n else 0.0,
            "swaps_triggered": sum(r.swaps_triggered for r in rs),
            "swaps_suppressed_busy": sum(r.swaps_suppressed_busy for r in rs),
            "swaps_suppressed_cold": sum(r.swaps_suppressed_cold for r in rs),
            "migrated_bytes": sum(r.migrated_bytes for r in rs),
            "onpkg_row_hit_rate": (
                sum(r.onpkg_row_hit_rate * r.onpkg_accesses for r in rs) / on
                if on else 0.0
            ),
            "offpkg_row_hit_rate": (
                sum(r.offpkg_row_hit_rate * r.offpkg_accesses for r in rs) / off
                if off else 0.0
            ),
            "fused_epochs": sum(r.fused_epochs for r in rs),
            "stepwise_epochs": sum(r.stepwise_epochs for r in rs),
        }


def result_digest(res: SimulationResult) -> bytes:
    """Bytes that change whenever any simulated statistic changes."""
    scalars = (
        res.n_accesses, res.total_latency, res.onpkg_accesses,
        res.offpkg_accesses, res.swaps_triggered, res.swaps_suppressed_busy,
        res.swaps_suppressed_cold, res.swaps_suppressed_qos,
        res.migrated_bytes, res.cross_boundary_migrated_bytes,
        res.fused_epochs, res.stepwise_epochs, res.duration_cycles,
        res.data_violations, repr(res.onpkg_row_hit_rate),
        repr(res.offpkg_row_hit_rate),
    )
    return repr(scalars).encode() + np.asarray(
        res.epoch_latency, dtype=np.float64
    ).tobytes()


class _Recorder:
    """Times cells, runs their checks and opens spans when traced.

    An untraced pass times the speed kernel before every cell, so that
    its samples follow the host's speed through the whole run; a traced
    pass leaves it out so that its spans partition the pass.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.out = PassResult()

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    @contextmanager
    def whole_pass(self):
        """The pass's root span; its wall time is taken inside it."""
        with self.span("bench.pass"):
            t0 = perf_counter()
            try:
                yield
            finally:
                self.out.wall_s = perf_counter() - t0 - sum(self.out.kernel)

    def cell(self, label: str, accesses: int, fn, check):
        """Run ``fn()`` as one timed cell; ``check(value)`` returns the
        list of failed checks. Returns ``fn``'s value, or None if it
        raised."""
        value = None
        problems: list[str] = []
        if self.tracer is None:
            self.out.kernel.append(speed_kernel())
        t0 = perf_counter()
        with self.span("bench.cell"):
            try:
                value = fn()
            except Exception as exc:  # a failing cell must not end the run
                traceback.print_exc(file=sys.stderr)
                problems.append(f"raised {type(exc).__name__}: {exc}")
        seconds = perf_counter() - t0
        if not problems:
            problems = check(value)
        self.out.problems.extend(f"{label}: {p}" for p in problems)
        self.out.cells.append(Cell(label, seconds, accesses, not problems))
        return value

    def fail(self, label: str, accesses: int, problem: str) -> None:
        """Count a cell that could not be run at all as failed."""
        self.out.problems.append(f"{label}: {problem}")
        self.out.cells.append(Cell(label, 0.0, accesses, False))


def _split_checks(res: SimulationResult, n: int) -> list[str]:
    """``onpkg + offpkg == n_accesses == n`` for a result (or delta)."""
    if res.onpkg_accesses + res.offpkg_accesses == res.n_accesses == n:
        return []
    return [
        f"onpkg {res.onpkg_accesses} + offpkg {res.offpkg_accesses}, "
        f"n_accesses {res.n_accesses}, trace {n}"
    ]


_COUNTERS = ("n_accesses", "onpkg_accesses", "offpkg_accesses",
             "fused_epochs", "stepwise_epochs", "data_violations")


def _delta(before: tuple, res: SimulationResult) -> SimulationResult:
    d = SimulationResult()
    for name, old in zip(_COUNTERS, before):
        setattr(d, name, getattr(res, name) - old)
    return d


def _snapshot(res: SimulationResult) -> tuple:
    return tuple(getattr(res, name) for name in _COUNTERS)


def load_published(path: Path = PUBLISHED) -> dict[tuple, str]:
    """Published fast-mode Fig 11 cells:
    ``(workload, page_kb, interval, algorithm) -> printed latency``."""
    table: dict[tuple, str] = {}
    interval = None
    for line in path.read_text().splitlines():
        m = re.match(r"Fig 11 .*swap interval = (\d+) accesses", line)
        if m:
            interval = int(m.group(1))
            continue
        if interval is None:
            continue
        cols = [c.strip() for c in line.split("|")]
        if len(cols) == 5 and cols[1].endswith("KB"):
            for algo, printed in zip(ALGORITHMS, cols[2:]):
                table[(cols[0], int(cols[1][:-2]), interval, algo)] = printed
        elif line.startswith("[fig11 done"):
            break
    return table


@dataclass(frozen=True)
class Fig11Grid:
    """The Fig 11 fast grid: 3 workloads x 3 pages x 3 intervals x 3
    designs; each workload's trace is generated once per pass and
    shared by its 27 cells."""

    name = "fig11-grid"
    n: int = 400_000
    workloads: tuple = ("FT.C", "MG.C", "pgbench")
    pages: tuple = (4 * KB, 256 * KB, 4096 * KB)
    intervals: tuple = (1_000, 10_000, 100_000)

    def configs(self, seed: int) -> dict:
        return {
            (page, interval, algo): migration_config(
                algorithm=algo, macro_page_bytes=page, swap_interval=interval
            )
            for interval in self.intervals
            for page in self.pages
            for algo in ALGORITHMS
        }

    def published(self, seed: int) -> dict | None:
        """Reference numbers, when this pass reproduces the published run
        (seed 0, 400k accesses; any subset of the grid)."""
        if seed != DEFAULT_SEED or self.n != 400_000:
            return None
        return load_published()

    def run_pass(self, seed: int, tracer=None) -> PassResult:
        rec = _Recorder(tracer)
        with rec.whole_pass():
            configs = self.configs(seed)
            published = self.published(seed)
            for wl in self.workloads:
                with rec.span("trace.generate"):
                    trace = generate_trace(
                        wl, self.n, seed, footprint_bytes=scaled_footprint(wl)
                    )
                for interval in self.intervals:
                    for page in self.pages:
                        for algo in ALGORITHMS:
                            key = (wl, page // KB, interval, algo)
                            cfg = configs[(page, interval, algo)]

                            def check(res, key=key, n=len(trace)):
                                problems = _split_checks(res, n)
                                if res.stepwise_epochs:
                                    problems.append(
                                        f"{res.stepwise_epochs} stepwise epochs"
                                    )
                                if published is not None:
                                    got = format_cycles(res.average_latency)
                                    if got != published.get(key):
                                        problems.append(
                                            f"latency {got}, published "
                                            f"{published.get(key)}"
                                        )
                                return problems

                            label = "/".join(map(str, key))
                            res = rec.cell(
                                label, len(trace),
                                lambda cfg=cfg: HeterogeneousMainMemory(cfg).run(trace),
                                check,
                            )
                            if res is not None:
                                rec.out.results.append((label, res))
        return rec.out


@dataclass(frozen=True)
class StreamLong:
    """One long pgbench run (Live, 64KB pages, 10k-access epochs)
    streamed through ``EpochSimulator.run_into`` in epoch-aligned
    chunks; a cell simulates one chunk, generated just before it."""

    name = "stream-long"
    n: int = 8_000_000
    chunk: int = 100_000
    workload: str = "pgbench"

    def configs(self, seed: int) -> dict:
        return {"live": migration_config(
            algorithm="live", macro_page_bytes=64 * KB, swap_interval=10_000
        )}

    def run_pass(self, seed: int, tracer=None) -> PassResult:
        rec = _Recorder(tracer)
        with rec.whole_pass():
            cfg = self.configs(seed)["live"]
            if self.chunk % cfg.migration.swap_interval:
                raise ValueError("chunks must hold whole epochs")
            system = HeterogeneousMainMemory(cfg)
            result = SimulationResult()
            stream = get_workload(
                self.workload, scaled_footprint(self.workload)
            ).stream(self.n, seed, chunk_accesses=self.chunk)
            n_chunks = -(-self.n // self.chunk)
            for i in range(n_chunks):
                size = min(self.chunk, self.n - i * self.chunk)

                with rec.span("trace.generate"):
                    chunk = next(stream, None)
                got = 0 if chunk is None else len(chunk)
                if got != size:
                    rec.fail(f"chunk{i}", size,
                             f"stream gave {got} accesses, expected {size}")
                    break

                def step(chunk=chunk):
                    before = _snapshot(result)
                    system.simulator.run_into(chunk, result)
                    return _delta(before, result)

                def check(delta, size=size):
                    problems = _split_checks(delta, size)
                    if delta.stepwise_epochs:
                        problems.append(f"{delta.stepwise_epochs} stepwise epochs")
                    return problems

                if rec.cell(f"chunk{i}", size, step, check) is None:
                    break  # the stream cannot go on past a failed chunk
            else:
                if next(stream, None) is not None:
                    rec.out.problems.append("stream yields more than n accesses")
                rec.out.results.append((f"{self.workload}/live", result))
        return rec.out


@dataclass(frozen=True)
class Guarded:
    """pgbench and MG.C x N/N-1/Live with the shadow memory and RAS on,
    which forces the stepwise epoch loop; each simulation is fed in
    epoch-aligned chunks so a pass holds enough cells for a tail."""

    name = "guarded"
    n: int = 400_000
    chunk: int = 25_000
    workloads: tuple = ("pgbench", "MG.C")

    def configs(self, seed: int) -> dict:
        return {
            algo: migration_config(
                algorithm=algo, macro_page_bytes=64 * KB, swap_interval=1_000
            ).with_ras(
                enabled=True, seed=seed, ce_base_rate=0.002,
                scrub_interval_epochs=4,
            )
            for algo in ALGORITHMS
        }

    def run_pass(self, seed: int, tracer=None) -> PassResult:
        rec = _Recorder(tracer)
        with rec.whole_pass():
            configs = self.configs(seed)
            for wl in self.workloads:
                with rec.span("trace.generate"):
                    trace = generate_trace(
                        wl, self.n, seed, footprint_bytes=scaled_footprint(wl)
                    )
                for algo in ALGORITHMS:
                    cfg = configs[algo]
                    if self.chunk % cfg.migration.swap_interval:
                        raise ValueError("chunks must hold whole epochs")
                    system = HeterogeneousMainMemory(cfg, track_data=True)
                    result = SimulationResult()
                    label = f"{wl}/{algo}"
                    for start in range(0, len(trace), self.chunk):
                        chunk = trace[start:start + self.chunk]

                        def step(chunk=chunk):
                            before = _snapshot(result)
                            system.simulator.run_into(chunk, result)
                            return _delta(before, result)

                        def check(delta, size=len(chunk)):
                            problems = _split_checks(delta, size)
                            if delta.fused_epochs:
                                problems.append(f"{delta.fused_epochs} fused epochs")
                            if delta.data_violations:
                                problems.append(
                                    f"{delta.data_violations} data violations"
                                )
                            return problems

                        if rec.cell(f"{label}@{start}", len(chunk), step,
                                    check) is None:
                            break
                    else:
                        rec.out.results.append((label, result))
        return rec.out


WORKLOADS = {w.name: w for w in (Fig11Grid, StreamLong, Guarded)}
