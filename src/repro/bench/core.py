"""Single-run performance benchmarks for the simulation hot path.

Times the kernels this library spends its life in — the out-of-order
pipeline loop, the controlled-cache decay machinery, the synthetic trace
generator, and the transistor-level leakage solves — and writes a
machine-readable ``BENCH.json`` so perf changes have a tracked trajectory
(``docs/PERFORMANCE.md`` explains how to read it).

Two kinds of numbers come out:

* **Absolute scenario times** (seconds, min-of-N): comparable against the
  committed ``benchmarks/bench_baseline.json`` only on a similar machine.
  ``speedup_vs_baseline`` is the headline "≥3x on a warm store-miss figure
  point" metric.
* **The in-process reference speedup**: the same technique run executed
  through the optimised fast paths and through ``reference=True`` (the
  cycle-by-cycle loop, eager decay scans and stdlib RNG the golden tests
  compare against), back to back in one process.  The ratio is
  machine-independent, which is what CI gates on.

Timing protocol: every scenario gets one untimed warmup iteration (which
also warms the analytic memo layers), then N timed iterations with the
scenario's ``between`` hook (untimed) restoring cold state — e.g. dropping
memoised simulation summaries so the baseline and technique simulations
re-run, while leakage models stay warm.  Minimum of N is reported: scheduling noise only
ever adds time.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

BENCH_SCHEMA = 1

# Default repeat counts; min-of-N absorbs scheduler noise.
DEFAULT_REPEATS = 5
QUICK_REPEATS = 3

# CI gate: fail when the in-process reference speedup drops below
# (1 - tolerance) x the committed baseline's speedup.
DEFAULT_TOLERANCE = 0.25

# CI gate: the vectorised leakage kernels must stay at least this much
# faster than the scalar reference loop (an absolute floor, not a
# relative-to-baseline one — the ratio is machine-independent).
BATCH_SPEEDUP_FLOOR = 10.0

# CI gate: enabling observability (telemetry recorders included) may slow
# a simulation run by at most this fraction.  Absolute, like the batch
# floor — the enabled/disabled ratio transfers across machines.
OBS_OVERHEAD_CEILING = 0.03

# The gate reads the median of this many off/on pair ratios: on a shared
# 2-vCPU host one min-of-3 leg can catch a stall the other misses, which
# moved the old ratio by up to +-20 %, far past the 3 % it must resolve.
# A multiple of 3, so each of the three legs runs in each position of a
# pair equally often.
OBS_OVERHEAD_PAIRS = 24

_N_OPS = 20_000  # the standard figure-point run length


@dataclass(frozen=True)
class Scenario:
    """One timed kernel.

    Attributes:
        name: Stable key in ``BENCH.json`` (and the baseline file).
        description: What the number means, one line.
        ops_per_iteration: Micro-ops simulated (or generated) per
            iteration, for the ops/s column; 0 when the unit is not ops.
        run: One timed iteration.
        between: Un-timed state reset between iterations (may be None).
        quick: Included in ``--quick`` (CI smoke) runs.
    """

    name: str
    description: str
    ops_per_iteration: int
    run: Callable[[], object]
    between: Callable[[], object] | None = None
    quick: bool = False


def _figure_point_scenario(
    name: str,
    benchmark: str,
    technique_name: str,
    l2_latency: int,
    *,
    quick: bool = False,
) -> Scenario:
    from repro.experiments.runner import (
        clear_simulation_cache,
        figure_point,
        technique_by_name,
    )

    technique = technique_by_name(technique_name)

    def run() -> None:
        figure_point(benchmark, technique, l2_latency=l2_latency)

    return Scenario(
        name=name,
        description=(
            f"warm figure point: {benchmark}/{technique_name} at "
            f"L2={l2_latency} (baseline + technique simulation; analytic "
            f"layers warm)"
        ),
        # A figure point simulates the baseline and the technique run.
        ops_per_iteration=2 * _N_OPS,
        run=run,
        between=clear_simulation_cache,
        quick=quick,
    )


def _run_once_scenario(
    name: str,
    benchmark: str,
    technique_name: str | None,
    l2_latency: int,
) -> Scenario:
    from repro.cpu.config import MachineConfig
    from repro.experiments.runner import run_once, technique_by_name

    machine = MachineConfig().with_l2_latency(l2_latency)
    technique = (
        technique_by_name(technique_name) if technique_name else None
    )
    label = technique_name or "baseline"

    def run() -> None:
        run_once(benchmark, technique=technique, machine=machine)

    return Scenario(
        name=name,
        description=(
            f"one simulation run: {benchmark}/{label} at L2={l2_latency} "
            f"(pipeline + cache hierarchy + decay, no analytic reduction)"
        ),
        ops_per_iteration=_N_OPS,
        run=run,
    )


def _trace_gen_scenario(name: str, benchmark: str, n_ops: int) -> Scenario:
    from repro.workloads.generator import TraceGenerator

    def run() -> None:
        deque(TraceGenerator(benchmark, seed=1).ops(n_ops), maxlen=0)

    return Scenario(
        name=name,
        description=f"synthetic trace generation: {n_ops} {benchmark} micro-ops",
        ops_per_iteration=n_ops,
        run=run,
        quick=True,
    )


def _leakage_solve_scenario(name: str, cell: str) -> Scenario:
    from repro.experiments.runner import clear_caches
    from repro.leakage.kdesign import kdesign_surface

    def run() -> None:
        kdesign_surface(cell, "70nm")

    return Scenario(
        name=name,
        description=(
            f"cold k_design surface fit for {cell} (9 operating points x "
            f"exhaustive input DC solves; all analytic memos cleared)"
        ),
        ops_per_iteration=0,
        run=run,
        between=clear_caches,
    )


def build_scenarios() -> tuple[Scenario, ...]:
    """The benchmark suite.  Order is report order."""
    return (
        # The headline: mcf is the store-miss-heavy workload, L2=17 the
        # paper's slowest memory system — the worst case for the cycle loop.
        _figure_point_scenario(
            "figure_point_mcf_gated_l2_17", "mcf", "gated-vss", 17, quick=True
        ),
        _figure_point_scenario(
            "figure_point_gcc_gated_l2_11", "gcc", "gated-vss", 11
        ),
        _figure_point_scenario(
            "figure_point_mcf_drowsy_l2_17", "mcf", "drowsy", 17
        ),
        _run_once_scenario("run_once_mcf_base_l2_17", "mcf", None, 17),
        _run_once_scenario("run_once_mcf_gated_l2_17", "mcf", "gated-vss", 17),
        _trace_gen_scenario("trace_gen_mcf_50k", "mcf", 50_000),
        _leakage_solve_scenario("leakage_solve_nand2_surface", "nand2"),
    )


SCENARIOS = build_scenarios


def time_scenario(scenario: Scenario, repeats: int) -> dict:
    """Warm up once, then time ``repeats`` iterations (min-of-N)."""
    perf_counter = time.perf_counter
    scenario.run()  # warmup; also warms analytic memo layers
    if scenario.between is not None:
        scenario.between()
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        scenario.run()
        times.append(perf_counter() - t0)
        if scenario.between is not None:
            scenario.between()
    seconds = min(times)
    result = {
        "seconds": seconds,
        "median_seconds": statistics.median(times),
        "repeats": repeats,
    }
    if scenario.ops_per_iteration:
        result["ops_per_s"] = scenario.ops_per_iteration / seconds
    return result


def reference_comparison(*, repeats: int = 3, n_ops: int = _N_OPS) -> dict:
    """Optimised vs. reference slow path, in one process.

    Both paths produce bit-identical results (the golden equivalence tests
    assert it); this measures only the speed gap.  Because numerator and
    denominator run on the same machine seconds apart, the ratio transfers
    across machines — it is the number CI gates on.
    """
    from repro.cpu.config import MachineConfig
    from repro.experiments.runner import run_once, technique_by_name

    machine = MachineConfig().with_l2_latency(17)
    technique = technique_by_name("gated-vss")
    perf_counter = time.perf_counter

    def one(reference: bool) -> float:
        t0 = perf_counter()
        run_once(
            "mcf",
            technique=technique,
            machine=machine,
            n_ops=n_ops,
            reference=reference,
        )
        return perf_counter() - t0

    one(False)
    one(True)  # warm both paths
    optimised = min(one(False) for _ in range(repeats))
    reference = min(one(True) for _ in range(repeats))
    return {
        "scenario": "run_once mcf/gated-vss L2=17",
        "n_ops": n_ops,
        "optimised_seconds": optimised,
        "reference_seconds": reference,
        "speedup": reference / optimised,
    }


def batch_comparison(*, repeats: int = 5) -> dict:
    """Vectorised batch leakage kernels vs. the scalar Python loop.

    Two scenarios, each timed through the batch path and the scalar
    reference path back to back in one process (so the ratio transfers
    across machines):

    * ``variation_mean`` — one variation-averaged 6T retention-leakage
      evaluation (the 200-sample population that used to be a per-sample
      Python loop);
    * ``t_sweep_100`` — unit leakage over a dense 100-point temperature
      grid (the Sultan-et-al. linearity-study axis).

    Both paths agree to <=1e-12 relative (the golden equivalence matrix
    asserts it); this measures only the speed gap.  CI gates each ratio
    against the absolute :data:`BATCH_SPEEDUP_FLOOR`.
    """
    from repro.leakage import batch
    from repro.leakage.bsim3 import leakage_vs_temperature
    from repro.leakage.cells import SRAMCellModel
    from repro.tech.nodes import PAPER_VDD, get_node
    from repro.tech.variation import VariationSpec

    node = get_node("70nm")
    cell = SRAMCellModel(node=node)
    variation = VariationSpec()
    temps_k = [300.0 + 0.9 * i for i in range(100)]
    perf_counter = time.perf_counter

    def timed(fn) -> float:
        fn()  # warmup (also warms the memoised sample population)
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
        return min(times)

    scenarios: dict[str, dict] = {}

    batch_s = timed(
        lambda: cell.subthreshold_current(
            vdd=PAPER_VDD, temp_k=383.0, variation=variation
        )
    )
    scalar_s = timed(
        lambda: cell.subthreshold_current(
            vdd=PAPER_VDD, temp_k=383.0, variation=variation, reference=True
        )
    )
    scenarios["variation_mean"] = {
        "description": (
            "variation-averaged 6T retention leakage, 200-sample "
            "population (70nm, 383 K)"
        ),
        "batch_seconds": batch_s,
        "scalar_seconds": scalar_s,
        "speedup": scalar_s / batch_s,
    }

    batch_s = timed(
        lambda: batch.leakage_vs_temperature(node, temps_k, vdd=PAPER_VDD)
    )
    scalar_s = timed(
        lambda: leakage_vs_temperature(node, temps_k, vdd=PAPER_VDD)
    )
    scenarios["t_sweep_100"] = {
        "description": "unit leakage over a 100-point temperature grid (70nm)",
        "batch_seconds": batch_s,
        "scalar_seconds": scalar_s,
        "speedup": scalar_s / batch_s,
    }
    return scenarios


def obs_overhead_comparison(*, n_ops: int = _N_OPS) -> dict:
    """Simulation run with observability on vs. off, in one process.

    The enabled leg pays for everything a campaign pays for: counters,
    spans, AND the per-run timeseries recorders (line-state sampling in
    the decay tick, windowed IPC in the pipeline loop).  No log file is
    attached — file I/O is per-campaign, not per-cycle, so it is not part
    of the hot-path overhead this guards.  A third leg additionally feeds
    the live-monitoring metrics registry with exactly the per-run calls
    the scheduler makes (started/finished/cache-hit), so the ``repro
    watch`` plumbing can never creep into the hot path unnoticed.

    Measured as :data:`OBS_OVERHEAD_PAIRS` pairs: each times the run with
    observability off, on, and on with the registry fed, in CPU time of
    this process (time spent descheduled on a shared host is no cost of
    telemetry) and from a collected heap, rotating the three legs through
    every position so drift within a pair hits each leg alike.  ``overhead_frac`` and
    ``registry_overhead_frac`` are the medians of the per-pair ratios to
    the off leg; CI gates both against :data:`OBS_OVERHEAD_CEILING`.  The
    ``*_seconds`` fields are per-leg medians, for the record.
    """
    from repro import obs
    from repro.cpu.config import MachineConfig
    from repro.experiments.runner import run_once, technique_by_name
    from repro.obs import metrics as obs_metrics

    machine = MachineConfig().with_l2_latency(17)
    technique = technique_by_name("gated-vss")
    perf_counter = time.perf_counter
    process_time = time.process_time

    def one(enabled: bool, registry: bool = False) -> float:
        if enabled:
            obs.enable()
        if registry:
            obs_metrics.reset_registry()
        # Start every leg from a collected heap: otherwise a full
        # collection lands on whichever run crosses the allocation
        # threshold and swings that pair's ratio by up to ~10 %.
        gc.collect()
        try:
            t0 = process_time()
            wall0 = perf_counter()
            if registry:
                # The scheduler's per-run registry feed, verbatim: one
                # started/finished pair around the run plus a cache-hit
                # tick — the full per-run cost of live monitoring.
                obs_metrics.record_run_started()
            run_once(
                "mcf", technique=technique, machine=machine, n_ops=n_ops
            )
            if registry:
                obs_metrics.record_run_finished(
                    wall_s=perf_counter() - wall0, cpu_s=0.0, max_rss_kb=0.0
                )
                obs_metrics.record_cache_hit("store")
            return process_time() - t0
        finally:
            if registry:
                obs_metrics.reset_registry()
            if enabled:
                obs.reset()

    legs = ((False, False), (True, False), (True, True))  # off, on, registry
    for leg in legs:
        one(*leg)  # warm every path
    times: dict[tuple[bool, bool], list[float]] = {leg: [] for leg in legs}
    overheads, registry_overheads = [], []
    for i in range(OBS_OVERHEAD_PAIRS):
        order = legs[i % 3:] + legs[:i % 3]
        pair = {leg: one(*leg) for leg in order}
        for leg, seconds in pair.items():
            times[leg].append(seconds)
        disabled = pair[legs[0]]
        overheads.append(pair[legs[1]] / disabled - 1.0)
        registry_overheads.append(pair[legs[2]] / disabled - 1.0)
    median = statistics.median
    return {
        "scenario": "run_once mcf/gated-vss L2=17",
        "n_ops": n_ops,
        "pairs": OBS_OVERHEAD_PAIRS,
        "disabled_seconds": median(times[legs[0]]),
        "enabled_seconds": median(times[legs[1]]),
        "registry_seconds": median(times[legs[2]]),
        "overhead_frac": median(overheads),
        "registry_overhead_frac": median(registry_overheads),
    }


def run_bench(
    *,
    quick: bool = False,
    repeats: int | None = None,
    baseline: dict | None = None,
    progress: Callable[[str], object] | None = None,
) -> dict:
    """Run the suite and return the ``BENCH.json`` report dict.

    ``baseline`` is a previously written report (or the committed
    ``benchmarks/bench_baseline.json``); matching scenarios gain a
    ``speedup_vs_baseline`` field.
    """
    if repeats is None:
        repeats = QUICK_REPEATS if quick else DEFAULT_REPEATS
    say = progress or (lambda _msg: None)
    base_scenarios = (baseline or {}).get("scenarios", {})

    scenarios = [s for s in build_scenarios() if s.quick or not quick]
    report: dict = {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "repeats": repeats,
        "scenarios": {},
    }
    for scenario in scenarios:
        say(f"bench: {scenario.name} ...")
        entry = time_scenario(scenario, repeats)
        entry["description"] = scenario.description
        base = base_scenarios.get(scenario.name, {}).get("seconds")
        if base:
            entry["baseline_seconds"] = base
            entry["speedup_vs_baseline"] = base / entry["seconds"]
        report["scenarios"][scenario.name] = entry
        say(
            f"  {entry['seconds']:.4f}s"
            + (
                f"  ({entry['speedup_vs_baseline']:.2f}x vs baseline)"
                if "speedup_vs_baseline" in entry
                else ""
            )
        )

    say("bench: reference comparison (optimised vs slow path) ...")
    report["reference"] = reference_comparison(
        repeats=min(repeats, 3), n_ops=_N_OPS
    )
    say(f"  {report['reference']['speedup']:.2f}x over the reference path")

    say("bench: batch leakage kernels (vectorised vs scalar loop) ...")
    report["batch"] = batch_comparison(repeats=repeats)
    for name, entry in report["batch"].items():
        say(f"  {name}: {entry['speedup']:.1f}x over the scalar loop")

    say("bench: observability overhead (telemetry on vs off) ...")
    report["obs_overhead"] = obs_overhead_comparison()
    say(
        f"  {report['obs_overhead']['overhead_frac'] * 100.0:+.2f}% with "
        f"telemetry enabled, "
        f"{report['obs_overhead']['registry_overhead_frac'] * 100.0:+.2f}% "
        f"with the metrics registry fed too (medians of "
        f"{OBS_OVERHEAD_PAIRS} pairs)"
    )

    return report


def check_regression(
    report: dict, baseline: dict, *, tolerance: float = DEFAULT_TOLERANCE
) -> list[str]:
    """Return failure messages (empty = pass).

    Gates on the machine-independent in-process reference speedup, not on
    absolute wall times — CI runners differ wildly in raw speed but the
    optimised/reference ratio is stable.
    """
    failures: list[str] = []
    base_ref = (baseline.get("reference") or {}).get("speedup")
    cur_ref = (report.get("reference") or {}).get("speedup")
    if base_ref and cur_ref:
        floor = base_ref * (1.0 - tolerance)
        if cur_ref < floor:
            failures.append(
                f"reference speedup regressed: {cur_ref:.2f}x < "
                f"{floor:.2f}x (baseline {base_ref:.2f}x - {tolerance:.0%})"
            )
    elif base_ref and not cur_ref:
        failures.append("report is missing the reference comparison")

    # The batch-kernel gate is absolute: vectorised leakage kernels must
    # beat the scalar loop by BATCH_SPEEDUP_FLOOR regardless of baseline.
    batch_entries = report.get("batch")
    if batch_entries is None:
        if baseline.get("batch"):
            failures.append("report is missing the batch-kernel comparison")
    else:
        for name, entry in batch_entries.items():
            speedup = entry.get("speedup")
            if speedup is not None and speedup < BATCH_SPEEDUP_FLOOR:
                failures.append(
                    f"batch kernel {name}: {speedup:.1f}x < "
                    f"{BATCH_SPEEDUP_FLOOR:.0f}x floor over the scalar loop"
                )

    # The observability gate is absolute too, and only applies when the
    # report measured it (older baselines/reports simply lack the key).
    overhead = (report.get("obs_overhead") or {}).get("overhead_frac")
    if overhead is not None and overhead > OBS_OVERHEAD_CEILING:
        failures.append(
            f"observability overhead {overhead:.1%} exceeds the "
            f"{OBS_OVERHEAD_CEILING:.0%} ceiling (telemetry must stay off "
            f"the disabled hot path)"
        )
    registry_overhead = (report.get("obs_overhead") or {}).get(
        "registry_overhead_frac"
    )
    if (
        registry_overhead is not None
        and registry_overhead > OBS_OVERHEAD_CEILING
    ):
        failures.append(
            f"metrics-registry overhead {registry_overhead:.1%} exceeds "
            f"the {OBS_OVERHEAD_CEILING:.0%} ceiling (live-monitoring "
            f"feeds must stay off the hot path)"
        )
    return failures


def write_report(report: dict, path: str) -> None:
    """Write ``BENCH.json`` (stable key order, trailing newline)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
