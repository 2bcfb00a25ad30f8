"""End-to-end and per-layer benchmark of the heterogeneous-memory simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig11-grid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Runs one workload (see ``perfbench/NOTES.md``) in this process as a
closed loop: whole passes, one simulation at a time, until ``--seconds``
would be exceeded (at least one pass). ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics. Host times are scaled to a reference
host speed, measured by a speed kernel timed before every untraced cell
(NOTES.md, "Host noise"). Every metric is printed by name with its
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 0 only when every correctness check passed. ``--workload all`` runs
each workload in its own fresh process.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("fig11-grid", "stream-long", "guarded")

#: fresh processes timed for setup_s, and speed-kernel timings before each
SETUP_PROBES = 9
SETUP_KERNELS = 10

#: metric names and units, as BENCHMARK.json declares them
SPEC = ROOT / "BENCHMARK.json"

#: the speed kernel's time on the reference host (see NOTES.md, "Host
#: noise"); host-time metrics are reported as if measured there
KERNEL_REF_S = 1e-3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import and configure, print the clock, exit")
    return p.parse_args(argv)


def load_cells():
    """Import the workloads from this checkout's ``src/`` (never from an
    installed copy); the import itself is part of set-up."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no simulator sources under {src}")
    sys.path.insert(0, str(src))
    import cells
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}")
    return cells


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its first simulation call."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    # perf_counter is the system-wide monotonic clock, so the child's
    # reading is comparable with ours
    return float(proc.stdout.split()[-1]) - t0


def is_host_time(name: str) -> bool:
    """Whether a metric is a host time (or rate) rather than a count or
    a simulated statistic."""
    return name == "accesses_per_s" or name.endswith(("_s", "_s.p50", "_s.tail",
                                                      "_ms_per_swap"))


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    return max(0, int(100 - 1000 / n)) if n else 0


def end_to_end(passes, setup: list[float]) -> tuple[dict, list[str]]:
    cells = [c.seconds for p in passes for c in p.cells]
    per_pass = len(passes[0].cells)
    pct = tail_percentile(per_pass)
    tail = float(statistics.quantiles(cells, n=100, method="inclusive")[pct - 1]) \
        if pct else max(cells)
    beyond = sum(c > tail for c in cells)
    values = {
        "accesses_per_s": statistics.median(p.accesses / p.wall_s for p in passes),
        "cell_s.p50": statistics.median(cells),
        "cell_s.tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
        "sim_latency_cycles": passes[0].totals()["latency_cycles"],
    }
    notes = [
        f"cell_s.tail is p{pct} over {len(cells)} cells "
        f"({per_pass} per pass, {beyond} beyond it)",
        f"setup_s is the median of {len(setup)} fresh processes",
        "pass wall times: " + " ".join(f"{p.wall_s:.3f}" for p in passes),
    ]
    return values, notes


def per_layer(untraced, traced, spans) -> tuple[dict, list[str], list[str]]:
    layers = [spans.layer_metrics(t) for t in traced["spans"]]
    values = {
        name: (statistics.median(m[name] for m in layers)
               if is_host_time(name) else layers[0][name])
        for name in layers[0]
    }
    totals = traced["passes"][0].totals()
    values["core.fused_epochs"] = totals["fused_epochs"]
    values["core.stepwise_epochs"] = totals["stepwise_epochs"]
    for key in ("onpkg_fraction", "swaps_triggered", "swaps_suppressed_busy",
                "swaps_suppressed_cold", "migrated_bytes",
                "onpkg_row_hit_rate", "offpkg_row_hit_rate"):
        values[f"sim.{key}"] = totals[key]
    values["trace_overhead_s"] = (
        statistics.median(p.wall_s for p in traced["passes"])
        - statistics.median(p.wall_s for p in untraced)
    )
    problems = []
    for k, (m, p) in enumerate(zip(layers, traced["passes"])):
        total = spans.self_time_total(m)
        if abs(total - p.wall_s) > 1e-4 or min(
            m[name] for name in set(spans.SELF_TIME.values())
        ) < -1e-9:
            problems.append(
                f"traced pass {k}: self times sum to {total:.6f} s, "
                f"wall {p.wall_s:.6f} s"
            )
    notes = [f"{len(traced['passes'])} traced and {len(untraced)} untraced "
             f"passes; self times sum to the traced wall time"]
    return values, notes, problems


def measure(wl, seed: int, seconds: float, trace: bool, spans=None) -> dict:
    """Whole passes until another one would overrun ``seconds``; with
    ``trace``, pairs of an untraced and a traced pass, in alternating
    order so that warm-up does not bias ``trace_overhead_s``."""
    untraced, traced = [], {"passes": [], "spans": []}

    def traced_pass():
        tracer = spans.Tracer()
        gc.collect()
        with spans.installed(tracer):
            traced["passes"].append(wl.run_pass(seed, tracer))
        traced["spans"].append(tracer.spans)

    t_start = perf_counter()
    while True:
        traced_first = trace and len(untraced) % 2 == 1
        if traced_first:
            traced_pass()
        gc.collect()
        untraced.append(wl.run_pass(seed))
        if trace and not traced_first:
            traced_pass()
        elapsed = perf_counter() - t_start
        per_round = elapsed / len(untraced)
        if elapsed + per_round > seconds:
            return {"untraced": untraced, "traced": traced}


def run_all(args) -> int:
    """Each workload in its own fresh process."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        code = max(code, subprocess.run(cmd, timeout=600).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cells = load_cells()
    wl = cells.WORKLOADS[args.workload]()
    if args.setup_probe:
        wl.configs(args.seed)
        print(perf_counter())
        return 0

    spans = importlib.import_module("spans") if args.trace else None
    setup, setup_kernel = [], []
    for _ in range(0 if args.trace else SETUP_PROBES):
        setup_kernel += [cells.speed_kernel() for _ in range(SETUP_KERNELS)]
        setup.append(probe_setup(args.workload, args.seed))
    runs = measure(wl, args.seed, args.seconds, bool(args.trace), spans)
    passes = runs["untraced"] + runs["traced"]["passes"]
    problems = [p for r in passes for p in r.problems]
    prints = {r.fingerprint for r in passes}
    if len(prints) != 1:
        problems.append(f"passes disagree on the fingerprint: {sorted(prints)}")

    if args.trace:
        values, notes, more = per_layer(runs["untraced"], runs["traced"], spans)
        problems += more
        spans.write_spans(
            HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl",
            runs["traced"]["spans"],
        )
    else:
        values, notes = end_to_end(passes, setup)
    # one speed factor for the run; set-up, timed before the passes,
    # gets its own from the kernel timings taken between its probes
    kernel = [k for r in runs["untraced"] for k in r.kernel]
    factor = statistics.median(kernel) / KERNEL_REF_S
    factors = {name: factor for name in values if is_host_time(name)}
    if setup_kernel:
        factors["setup_s"] = statistics.median(setup_kernel) / KERNEL_REF_S
    notes.append(
        f"host speed factor {factor:.4f} (set-up: "
        f"{factors.get('setup_s', factor):.4f}): median speed-kernel time "
        f"/ {KERNEL_REF_S * 1e3:g} ms; host times are divided by it and "
        f"rates multiplied. Unscaled: " + ", ".join(
            f"{name} {values[name]:.6g}" for name in factors
        )
    )
    values = {
        name: (v * factors[name] if name == "accesses_per_s"
               else v / factors[name] if name in factors else v)
        for name, v in values.items()
    }
    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }

    attempted = sum(len(r.cells) for r in passes)
    failed = sum(r.failed for r in passes)
    correct = not problems and failed == 0
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  passes {len(passes)}")
    print(f"fingerprint {passes[0].fingerprint}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    notes.append(f"error_rate = {failed}/{attempted} = {failed / attempted:g}")
    for line in notes:
        print(f"  ({line})")
    for line in problems[:20]:
        print(f"  FAILED CHECK: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
