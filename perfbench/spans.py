"""Outside-in layer tracing for the benchmark's traced run.

:func:`installed` wraps the simulator's public entry points at class
level for the duration of a ``with`` block; every call then records a
span (name, start, end, parent) in a :class:`Tracer`. Nothing under
``src/`` changes: the wrappers live here and are removed on exit.

:func:`layer_metrics` folds one pass's spans into per-layer numbers. A
layer's *self* time is its spans' time minus the time their child spans
cover, so the self times of all layers sum to the pass's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

#: (module, class, method, span name) of every traced entry point
ENTRY_POINTS = (
    ("repro.core.simulator", "EpochSimulator", "run_into", "core.run_into"),
    ("repro.memctrl.heterogeneous", "HeterogeneousController", "resolve_into",
     "memctrl.resolve_into"),
    ("repro.memctrl.heterogeneous", "HeterogeneousController",
     "service_resolved", "memctrl.service_resolved"),
    ("repro.memctrl.heterogeneous", "HeterogeneousController", "service_chunk",
     "memctrl.service_chunk"),
    ("repro.migration.engine", "MigrationEngine", "observe_epoch",
     "migration.observe_epoch"),
    ("repro.migration.engine", "MigrationEngine", "maybe_swap",
     "migration.maybe_swap"),
    ("repro.dram.fastmodel", "FastDevice", "service_segmented",
     "dram.service_segmented"),
    ("repro.dram.fastmodel", "FastDevice", "service", "dram.service"),
    ("repro.datamodel.shadow", "ShadowMemory", "process", "datamodel.process"),
    ("repro.ras.controller", "RasController", "end_epoch", "ras.end_epoch"),
)

#: span name -> the per-layer self-time metric it is charged to
SELF_TIME = {
    "bench.pass": "bench.harness_self_s",
    "bench.cell": "bench.harness_self_s",
    "trace.generate": "trace.generate_s",
    "core.run_into": "core.run_into_self_s",
    "memctrl.resolve_into": "memctrl.resolve_into_s",
    "memctrl.service_resolved": "memctrl.service_resolved_self_s",
    "memctrl.service_chunk": "memctrl.service_chunk_s",
    "migration.observe_epoch": "migration.observe_epoch_s",
    "migration.maybe_swap": "migration.maybe_swap_s",
    "dram.service_segmented": "dram.service_segmented_s",
    # a device service call outside a fused flush (stepwise loop, scrub);
    # inside a flush it is charged to dram.service_segmented_s below
    "dram.service": "dram.service_s",
    "datamodel.process": "datamodel.process_s",
    "ras.end_epoch": "ras.end_epoch_s",
}


class Tracer:
    """In-memory span recorder for one single-threaded pass.

    A span is ``[name, start, end, parent, value]``; ``parent`` is the
    index of the enclosing span (-1 for a root) and ``value`` what the
    traced call returned when a count needs it (a swap decision).
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)


def _traced(method, name: str, tracer: Tracer):
    keep_value = name == "migration.maybe_swap"

    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = method(*args, **kwargs)
        finally:
            tracer.close(idx)
        if keep_value:
            tracer.spans[idx][4] = bool(out.triggered)
        return out

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Route every :data:`ENTRY_POINTS` call through ``tracer``."""
    originals = []
    try:
        for module, cls_name, method, name in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[method]
            originals.append((cls, method, original))
            setattr(cls, method, _traced(original, name, tracer))
        yield tracer
    finally:
        for cls, method, original in reversed(originals):
            setattr(cls, method, original)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times and counts of one pass's spans."""
    n = len(spans)
    child_time = [0.0] * n
    children = [0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            children[parent] += 1

    out = dict.fromkeys(sorted(set(SELF_TIME.values())), 0.0)
    counts = dict.fromkeys(
        ("memctrl.resolve_into_calls", "migration.observe_epoch_calls",
         "migration.swaps", "dram.flushes", "dram.flush_fallbacks",
         "dram.replayed_segments"), 0,
    )
    for i, (name, start, end, parent, value) in enumerate(spans):
        metric = SELF_TIME[name]
        if name == "dram.service" and parent >= 0 and (
            spans[parent][0] == "dram.service_segmented"
        ):
            metric = "dram.service_segmented_s"
        out[metric] += end - start - child_time[i]
        if name == "memctrl.resolve_into":
            counts["memctrl.resolve_into_calls"] += 1
        elif name == "migration.observe_epoch":
            counts["migration.observe_epoch_calls"] += 1
        elif name == "migration.maybe_swap":
            counts["migration.swaps"] += value
        elif name == "dram.service_segmented":
            counts["dram.flushes"] += 1
            # a flush that replays more than one segment through
            # service() threw its fused pass away
            if children[i] > 1:
                counts["dram.flush_fallbacks"] += 1
                counts["dram.replayed_segments"] += children[i]
    out.update(counts)
    swaps, flushes = counts["migration.swaps"], counts["dram.flushes"]
    out["migration.maybe_swap_ms_per_swap"] = (
        1e3 * out["migration.maybe_swap_s"] / swaps if swaps else 0.0
    )
    out["dram.fused_flush_ratio"] = (
        (flushes - counts["dram.flush_fallbacks"]) / flushes if flushes else 0.0
    )
    return out


def self_time_total(metrics: dict[str, float]) -> float:
    """Sum of the self-time metrics (equals the traced pass's wall time)."""
    return sum(metrics[m] for m in set(SELF_TIME.values()))


def write_spans(path: Path, passes: list[list[list]]) -> None:
    """One JSON line per span: pass index, name, start, end, parent."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for k, spans in enumerate(passes):
            for name, start, end, parent, _ in spans:
                fh.write(json.dumps([k, name, start, end, parent]) + "\n")
