"""CI perf-smoke: fail when simulator throughput regresses.

Re-measures every path in ``bench_throughput.measure`` and compares
against the committed ``BENCH_throughput.json`` snapshot (schema 2). A
path that falls more than ``--tolerance`` under the recorded best-of
accesses/sec fails the check.

Raw accesses/sec varies with host speed, so the migration-active path
also asserts a machine-independent invariant inside the benchmark: no
epoch was flushed on its own (``stepwise_epochs == 0``), so a
flush-coverage regression fails the measurement itself.

Usage::

    python benchmarks/check_throughput.py [--baseline BENCH_throughput.json]
"""

import argparse
import json
import os
import sys

from bench_throughput import measure


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        default=os.path.join(os.path.dirname(__file__), "BENCH_throughput.json"),
    )
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional drop vs baseline (default 0.30)")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    fresh = measure(baseline["accesses"], args.rounds)

    failures = []
    for name, ref in sorted(baseline["paths"].items()):
        ref_aps = ref["accesses_per_sec"]
        now_aps = fresh[name]["accesses_per_sec"]
        if now_aps >= ref_aps * (1.0 - args.tolerance):
            status = "ok"
        else:
            status = "REGRESSED"
            failures.append(
                f"{name}: {now_aps / 1e6:.3f} M accesses/s is more than "
                f"{args.tolerance:.0%} below the baseline {ref_aps / 1e6:.3f} M/s"
            )
        print(f"{name:34s} baseline {ref_aps / 1e6:8.3f} M/s   "
              f"now {now_aps / 1e6:8.3f} M/s   {status}")

    if failures:
        print("\nperf-smoke FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperf-smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
