"""Machine-independent performance gates for the simulation hot path.

Each gate times two variants of the same work back to back in one
process, so its ratio transfers across machines, and writes it to a
machine-readable ``BENCH.json`` (``docs/PERFORMANCE.md`` explains how to
read it):

* **the reference speedup**: the same technique run executed through
  the optimised fast paths and through ``reference=True`` (the
  cycle-by-cycle loop, eager decay scans and stdlib RNG the golden tests
  compare against), gated against the committed
  ``benchmarks/bench_baseline.json``;
* **the batch speedup**: the variation-averaged leakage evaluation,
  vectorised vs the scalar loop, gated against an absolute floor;
* **the observability overhead**: a run with telemetry on vs off, gated
  against an absolute ceiling.

Absolute end-to-end and per-layer times come from ``perfbench/run.py``.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from typing import Callable

BENCH_SCHEMA = 1

# Default repeat count; min-of-N absorbs scheduler noise.
DEFAULT_REPEATS = 5

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

    One scenario, ``variation_mean``: a variation-averaged 6T
    retention-leakage evaluation (the 200-sample population that used to
    be a per-sample Python loop), timed through the batch path and the
    scalar reference path back to back in one process (so the ratio
    transfers across machines).

    Both paths agree to <=1e-12 relative (the golden equivalence matrix
    asserts it); this measures only the speed gap.  CI gates the ratio
    against the absolute :data:`BATCH_SPEEDUP_FLOOR`.
    """
    from repro.leakage.cells import SRAMCellModel
    from repro.tech.nodes import PAPER_VDD, get_node
    from repro.tech.variation import VariationSpec

    cell = SRAMCellModel(node=get_node("70nm"))
    variation = VariationSpec()
    perf_counter = time.perf_counter

    def timed(fn) -> float:
        fn()  # warmup (also warms the memoised sample population)
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
        return min(times)

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
    return {
        "variation_mean": {
            "description": (
                "variation-averaged 6T retention leakage, 200-sample "
                "population (70nm, 383 K)"
            ),
            "batch_seconds": batch_s,
            "scalar_seconds": scalar_s,
            "speedup": scalar_s / batch_s,
        }
    }


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
    repeats: int = DEFAULT_REPEATS,
    progress: Callable[[str], object] | None = None,
) -> dict:
    """Run the three gated comparisons; returns the ``BENCH.json`` dict."""
    say = progress or (lambda _msg: None)
    report: dict = {"schema": BENCH_SCHEMA, "repeats": repeats}

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
