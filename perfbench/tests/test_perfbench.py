"""Tests of the benchmark itself, on shortened versions of its workloads.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cells
import run
import spans
from repro.core.hetero_memory import HeterogeneousMainMemory
from repro.core.simulator import SimulationResult
from repro.units import KB

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent

SHORT = {
    "fig11-grid": cells.Fig11Grid(
        n=50_000, workloads=("MG.C",), pages=(4 * KB, 4096 * KB),
        intervals=(1_000, 10_000),
    ),
    "stream-long": cells.StreamLong(n=300_000),
    "guarded": cells.Guarded(n=50_000, workloads=("pgbench",)),
}


def traced_pass(wl, seed=0):
    tracer = spans.Tracer()
    with spans.installed(tracer):
        out = wl.run_pass(seed, tracer)
    return out, spans.layer_metrics(tracer.spans)


# -- correctness checks ------------------------------------------------------

def test_published_table_covers_the_fig11_grid():
    table = cells.load_published()
    grid = cells.Fig11Grid()
    assert set(table) == {
        (wl, page // KB, interval, algo)
        for wl in grid.workloads for page in grid.pages
        for interval in grid.intervals for algo in cells.ALGORITHMS
    }
    assert table[("FT.C", 4096, 1_000, "N")] == "2.18M"


def test_full_length_cells_reproduce_published_numbers():
    wl = cells.Fig11Grid(workloads=("pgbench",), pages=(4096 * KB,),
                         intervals=(100_000,))
    out = wl.run_pass(cells.DEFAULT_SEED)
    assert len(out.cells) == 3
    assert out.failed == 0 and out.problems == []


def test_a_published_mismatch_fails_its_cell(monkeypatch):
    table = {key: "1.0" for key in cells.load_published()}
    monkeypatch.setattr(cells, "load_published", lambda: table)
    wl = cells.Fig11Grid(workloads=("pgbench",), pages=(4096 * KB,),
                         intervals=(100_000,))
    out = wl.run_pass(cells.DEFAULT_SEED)
    assert out.failed == 3
    assert all("published 1.0" in p for p in out.problems)


@pytest.mark.parametrize("name", sorted(SHORT))
def test_short_passes_pass_every_check(name):
    wl = SHORT[name]
    out = wl.run_pass(0)
    assert out.failed == 0 and out.problems == []
    totals = out.totals()
    assert totals["n_accesses"] == out.accesses
    if name == "guarded":
        assert totals["fused_epochs"] == 0
        assert all(r.data_violations == 0 for _, r in out.results)
    else:
        assert totals["stepwise_epochs"] == 0


def test_a_raising_cell_counts_as_failed(monkeypatch):
    def broken(self, trace):
        raise RuntimeError("injected")

    monkeypatch.setattr(HeterogeneousMainMemory, "run", broken)
    out = SHORT["fig11-grid"].run_pass(0)
    assert out.failed == len(out.cells) == 12
    assert out.results == []


def test_split_check_catches_lost_accesses():
    res = SimulationResult(n_accesses=10, onpkg_accesses=4, offpkg_accesses=5)
    assert cells._split_checks(res, 10)
    res.offpkg_accesses = 6
    assert cells._split_checks(res, 10) == []
    assert cells._split_checks(res, 11)


# -- determinism and seed plumbing -------------------------------------------

@pytest.mark.parametrize("name", sorted(SHORT))
def test_fingerprint_repeats_and_follows_the_seed(name):
    wl = SHORT[name]
    first = wl.run_pass(0).fingerprint
    assert wl.run_pass(0).fingerprint == first
    assert wl.run_pass(1).fingerprint != first


def test_guarded_chunking_matches_an_unchunked_run():
    one_chunk = cells.Guarded(n=50_000, chunk=50_000, workloads=("pgbench",))
    assert one_chunk.run_pass(0).fingerprint == \
        SHORT["guarded"].run_pass(0).fingerprint


# -- tracing only observes ---------------------------------------------------

@pytest.mark.parametrize("name", sorted(SHORT))
def test_traced_pass_matches_untraced_and_partitions_wall_time(name):
    wl = SHORT[name]
    untraced = wl.run_pass(0)
    traced, layers = traced_pass(wl)
    assert traced.fingerprint == untraced.fingerprint
    assert spans.self_time_total(layers) == pytest.approx(traced.wall_s, abs=1e-4)
    assert min(layers[m] for m in set(spans.SELF_TIME.values())) >= 0


def test_only_untraced_passes_time_the_speed_kernel():
    wl = SHORT["guarded"]
    untraced = wl.run_pass(0)
    assert len(untraced.kernel) == len(untraced.cells)
    assert all(k > 0 for k in untraced.kernel)
    traced, _ = traced_pass(wl)
    assert traced.kernel == []


def test_wrappers_are_removed_after_the_traced_pass():
    before = {
        (mod, cls, meth): getattr(importlib.import_module(mod), cls).__dict__[meth]
        for mod, cls, meth, _ in spans.ENTRY_POINTS
    }
    traced_pass(SHORT["stream-long"])
    for (mod, cls, meth), original in before.items():
        assert getattr(importlib.import_module(mod), cls).__dict__[meth] is original


def test_fig11_grid_has_device_fallbacks_and_stream_long_none():
    _, grid = traced_pass(SHORT["fig11-grid"])
    assert grid["dram.flush_fallbacks"] > 0
    assert grid["dram.replayed_segments"] > grid["dram.flush_fallbacks"]
    assert 0 < grid["dram.fused_flush_ratio"] < 1
    _, stream = traced_pass(SHORT["stream-long"])
    assert stream["dram.flushes"] > 0
    assert stream["dram.flush_fallbacks"] == 0
    assert stream["dram.fused_flush_ratio"] == 1


def test_guarded_layers_are_the_stepwise_ones():
    _, layers = traced_pass(SHORT["guarded"])
    assert layers["dram.flushes"] == 0
    for name in ("datamodel.process_s", "ras.end_epoch_s",
                 "memctrl.service_chunk_s", "dram.service_s"):
        assert layers[name] > 0


# -- the command -------------------------------------------------------------

def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(81) == 87
    assert run.tail_percentile(80) == 87
    assert run.tail_percentile(96) == 89
    for n in (11, 50, 81, 96, 1000):
        p = run.tail_percentile(n)
        assert n * (100 - p) / 100 >= 10 > n * (100 - p - 1) / 100


def test_host_time_metrics_are_the_scaled_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scaled = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]
              if run.is_host_time(m["name"])}
    assert scaled == {
        m["name"] for m in spec["end_to_end"] + spec["per_layer"]
        if m["unit"] in ("s", "ms", "1/s")
    }


def _command(cwd, *args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable] + spec["command"][1:] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_declared_metric(trace):
    proc = _command(ROOT, "--workload", "guarded", "--seed", "3",
                    "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    human = "\n".join(proc.stdout.splitlines()[:-1])
    for name, m in result["metrics"].items():
        assert f"{name} " in human and m["unit"] in human


def test_command_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _command(tmp_path, "--workload", "fig11-grid", "--seed", "0",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
