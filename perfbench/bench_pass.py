"""One benchmark pass in a fresh interpreter: a cold pass, warm passes, checks.

Started by ``run.py`` from the root of the checkout, with ``PYTHONPATH``
pointing at its ``src``.  Importing the program and preparing the workload
is the set-up the parent times; this process reports readiness through
``<work>/ready`` (a ``time.monotonic()`` stamp, a clock every process on
the host shares), then

1. runs the workload cold into an empty ``ResultStore``, in a process
   whose memos are still empty;
2. runs it warm against the same store, pass after pass for ``WARM_S``
   seconds (with ``--warm-from``, on a campaign workload, a second
   interpreter also runs warm passes against the earlier pass's store
   while the cold pass stands between figure batches: ``WarmHelper``);
3. checks the outputs (every warm pass equals the cold one; with
   ``--check-sample``, a fixed sample re-executed in-process from empty
   memos equals what the scheduler delivered; at seed 1 the committed
   ``results/*.json`` fields equal the regenerated ones);
4. writes ``<work>/result.json``.

With ``--trace 1`` the pass records spans around the layer entry points
(see ``tracing.py``) and adds the per-layer metrics to the result.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from repro import obs
from repro.exec import ExecutionMetrics, ResultStore, RunSpec, Scheduler, SchedulerError
from repro.experiments import campaign
from repro.experiments.runner import clear_caches
from repro.experiments.validate import validate_campaign
from repro.workloads.profiles import BENCHMARK_NAMES

import tracing

# The figure builders run_campaign calls, by their names in its module.
FIGURE_BUILDERS = (
    "figure_3_4", "figure_5_6", "figure_7", "figure_8_9", "figure_10_11",
    "figure_12_13",
)

# Part of the surrogate scenario's 144-point cube in `repro bench`: gcc/drowsy
# at decay intervals 1024 and 16384 x the fastest and slowest L2 latency x
# every temperature and supply.  The whole cube is a 47 s cold pass on a
# 2-vCPU host; 24 points take about 11 s, so a benchmark run holds three
# passes.  The subset keeps the cube's sharing: 20 of 24 points share a
# simulation (120 of 144 in the whole cube).  The longest interval, 32768,
# is left out because its cost depends on the seed: a gcc/drowsy run there
# takes 0.2-1.3 s by seed against 0.2-0.4 s at every other interval, so
# with it the cube's cold time would follow the seed more than the code.
# reproduce-full-gcc still runs 32768 at every seed (Figs 12/13).
CUBE_INTERVALS = (1024, 16384)
CUBE_L2 = (5, 17)
CUBE_TEMPS_C = (60.0, 85.0, 110.0)
CUBE_VDDS = (0.85, 0.95)

# A warm pass takes milliseconds (sweep-cube) to tens of milliseconds
# (reproduce-full-gcc, a fifth of it fsync).  On a shared 2-vCPU host the
# median of a one-second stretch of warm passes moves by 15-25 % from one
# stretch to the next, with slow spells of up to half a minute, so warm
# passes are spread over the run and run.py reports the median of all of
# them.  Each cold pass is followed by warm passes for WARM_S seconds (at
# least MIN_WARM_PASSES).  A reproduce-full-gcc cold pass takes half a run,
# so during the second one a WarmHelper also runs warm passes for SLICE_S
# seconds after each figure batch.
WARM_S = 2.0
MIN_WARM_PASSES = 5
SLICE_S = 0.6


class RecordingScheduler(Scheduler):
    """A Scheduler that remembers every batch it was asked for.

    ``run_campaign`` builds its own scheduler, so the benchmark installs
    this class as the campaign module's ``Scheduler`` and finds the
    instance as ``RecordingScheduler.latest``.
    """

    latest: "RecordingScheduler | None" = None
    # Called after each delivered batch, while no pool is running.
    after_batch = None

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.requested: list[RunSpec] = []
        self.delivered: list[tuple[RunSpec, object]] = []
        self.failed_batches: list[tuple[list[RunSpec], list[RunSpec]]] = []
        RecordingScheduler.latest = self

    def run(self, specs, progress=None):
        self.requested.extend(specs)
        try:
            results = super().run(specs, progress)
        except SchedulerError:
            # The batch is lost; the points that never reached the store
            # are the ones that kept failing.
            failing = [s for s in specs if self.store.peek(s) is None]
            self.failed_batches.append((list(specs), failing))
            raise
        self.delivered.extend(zip(specs, results))
        if RecordingScheduler.after_batch is not None:
            RecordingScheduler.after_batch()
        return results


class WarmHelper:
    """Warm passes in a second interpreter, against an earlier pass's store.

    The helper is this script with ``--warm-helper``.  Each line
    ``<seconds>`` on its stdin asks for warm passes for that long; it
    answers with one JSON line: the pass times, the points requested and
    not delivered, the digests of what was delivered, and failed checks.
    """

    def __init__(self, args, source: Path) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, __file__, "--workload", args.workload,
                "--seed", str(args.seed), "--work", str(source), "--warm-helper",
            ],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._read()  # "ready"
        self.paused_s = 0.0
        self.replies: list[dict] = []

    def _read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"warm helper exited with {self.proc.wait()}")
        return line

    def slice(self) -> None:
        p0 = time.perf_counter()
        self.proc.stdin.write(f"{SLICE_S}\n")
        self.proc.stdin.flush()
        self.replies.append(json.loads(self._read()))
        self.paused_s += time.perf_counter() - p0

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        if code != 0:
            raise RuntimeError(f"warm helper exited with {code}")


def warm_helper(cfg, work: Path) -> int:
    """The ``--warm-helper`` side of WarmHelper."""
    replies = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)  # anything the program prints stays off the reply channel
    out, store_root = work / "out", work / "store"
    # The earlier pass checked these against its cold pass.
    reference = _artefact_hashes(out)
    cfg["run"](cfg, out, store_root)  # first-use costs, untimed
    replies.write("ready\n")
    replies.flush()
    for line in sys.stdin:
        # As before every timed stretch: flush what the paused cold pass
        # wrote, so that the timed fsyncs do not pay for it.
        os.sync()
        reply = dict(times=[], requested=0, undelivered=0, digests=[], problems=[])
        while not reply["times"] or sum(reply["times"]) < float(line):
            w0 = time.perf_counter()
            warm = cfg["run"](cfg, out, store_root)
            reply["times"].append(time.perf_counter() - w0)
            reply["requested"] += len(warm.requested)
            reply["undelivered"] += sum(len(batch) for batch, _ in warm.failed_batches)
            reply["digests"].append(_digest(warm.delivered))
            if _artefact_hashes(out) != reference:
                reply["problems"].append("warm helper: artefacts differ from cold")
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


def bind_seed(seed: int) -> None:
    """Route every campaign figure batch through a RecordingScheduler, with
    ``seed`` in its RunSpecs: the seed reaches the program only there."""
    for name in FIGURE_BUILDERS:
        setattr(campaign, name, functools.partial(getattr(campaign, name), seed=seed))
    campaign.Scheduler = RecordingScheduler


def cube_specs(seed: int) -> list[RunSpec]:
    return [
        RunSpec(
            benchmark="gcc",
            technique="drowsy",
            l2_latency=l2,
            temp_c=temp_c,
            decay_interval=interval,
            vdd=vdd,
            seed=seed,
        )
        for interval in CUBE_INTERVALS
        for l2 in CUBE_L2
        for temp_c in CUBE_TEMPS_C
        for vdd in CUBE_VDDS
    ]


def campaign_pass(cfg, out: Path, store_root: Path) -> RecordingScheduler:
    """The paper campaign through ``run_campaign``, as ``repro reproduce`` runs it."""
    try:
        campaign.run_campaign(
            out, benchmarks=cfg["benchmarks"], jobs=cfg["jobs"], cache_dir=store_root
        )
    except SchedulerError:
        pass  # the RecordingScheduler holds the failed batch
    return RecordingScheduler.latest


def quick_pass(cfg, out: Path, store_root: Path) -> RecordingScheduler:
    """``repro reproduce --quick``'s figure batches, serial, event log on.

    ``run_campaign`` stops at the first figure whose batch fails, and at
    4 000 ops some points fail (README.md), so this pass calls the campaign's
    figure builders itself and continues past a failed one.  It renders no
    artefacts.
    """
    out.mkdir(parents=True, exist_ok=True)
    scheduler = RecordingScheduler(
        max_workers=cfg["jobs"], store=ResultStore(store_root), metrics=ExecutionMetrics()
    )
    obs.enable(out / "events.jsonl")
    try:
        for name in FIGURE_BUILDERS:
            try:
                getattr(campaign, name)(
                    n_ops=campaign.QUICK_N_OPS, benchmarks=cfg["benchmarks"],
                    scheduler=scheduler,
                )
            except SchedulerError:
                continue
    finally:
        obs.disable()
    return scheduler


def sweep_pass(cfg, out: Path, store_root: Path) -> RecordingScheduler:
    """One ``Scheduler.run`` batch of the cube, as ``repro sweep`` runs it."""
    scheduler = RecordingScheduler(
        max_workers=cfg["jobs"], store=ResultStore(store_root), metrics=ExecutionMetrics()
    )
    scheduler.run(cfg["specs"])
    return scheduler


WORKLOADS = {
    # The paper campaign as `make reproduce` runs it: 242 points, 77-112 s
    # cold on a 2-vCPU host, too long for a benchmark run.  Run it by name
    # at seed 1 to compare every committed results/*.json field and grade
    # the paper claims.
    "reproduce-full": dict(run=campaign_pass, jobs=2, benchmarks=BENCHMARK_NAMES),
    # The same campaign for gcc alone (22 points): every figure batch and
    # every layer, pool dispatch included, in about 25 s cold.
    "reproduce-full-gcc": dict(run=campaign_pass, jobs=2, benchmarks=("gcc",)),
    "reproduce-quick": dict(run=quick_pass, jobs=1, benchmarks=BENCHMARK_NAMES),
    "sweep-cube": dict(run=sweep_pass, jobs=1),
}


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _label(spec: RunSpec) -> str:
    return (
        f"{spec.benchmark}/{spec.technique} L2={spec.l2_latency} "
        f"T={spec.temp_c:g} interval={spec.decay_interval} vdd={spec.vdd:g}"
    )


def _artefacts(out: Path) -> list[Path]:
    """The rendered artefacts of a campaign, without the observability files."""
    return [
        p for p in sorted(out.glob("*"))
        if p.suffix in (".txt", ".json") and not p.name.startswith("metrics.")
    ]


def _artefact_hashes(out: Path) -> dict[str, str]:
    # campaign_metrics.json holds timings.
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in _artefacts(out) if p.name != "campaign_metrics.json"
    }


def sharing(specs: list[RunSpec]) -> tuple[float, float]:
    """(shared-simulation fraction, exact-duplicate fraction) of a request.

    A point shares a simulation when another requested point differs from
    it only in temperature or supply; an exact duplicate has the same
    content hash as an earlier point.
    """
    distinct = {s.content_hash(): s for s in specs}
    sims = {
        tuple(sorted((k, v) for k, v in s.to_dict().items() if k not in ("temp_c", "vdd")))
        for s in distinct.values()
    }
    n = len(specs)
    return (len(distinct) - len(sims)) / n, (n - len(distinct)) / n


def reference_check(root: Path, out: Path, benchmarks) -> list[str]:
    """Committed ``results/*.json`` fields that differ from the regenerated
    ones.  Rows are compared for the benchmarks this campaign ran; the
    averages and Table 3 only when it ran all of them."""
    problems = []
    whole = tuple(benchmarks) == tuple(BENCHMARK_NAMES)
    committed_files = sorted((root / "results").glob("*.json"))
    if not committed_files:
        return ["no committed results/*.json to compare against"]
    for path in committed_files:
        fresh_path = out / path.name
        if not fresh_path.exists():
            problems.append(f"{path.name}: not regenerated")
            continue
        committed = json.loads(path.read_text())
        fresh = json.loads(fresh_path.read_text())
        fresh_rows = {row["benchmark"]: row for row in fresh["rows"]}
        for row in committed["rows"]:
            if row["benchmark"] not in benchmarks:
                continue
            for tech, fields in row.items():
                if tech == "benchmark":
                    continue
                got = fresh_rows.get(row["benchmark"], {}).get(tech, {})
                for key, value in fields.items():
                    if got.get(key) != value:
                        problems.append(
                            f"{path.name} {row['benchmark']}/{tech}.{key}: "
                            f"{got.get(key)!r} != committed {value!r}"
                        )
        if whole:
            for section in ("averages", "table_3"):
                for key, value in committed.get(section, {}).items():
                    if fresh.get(section, {}).get(key) != value:
                        problems.append(f"{path.name} {section}.{key} differs")
    return problems


def _digest(delivered) -> str:
    h = hashlib.sha256()
    for key, result in sorted(
        {s.content_hash(): r for s, r in delivered}.items()
    ):
        h.update(key.encode())
        h.update(json.dumps(asdict(result), sort_keys=True).encode())
    return h.hexdigest()


def _obs_files(out: Path) -> tuple[int, int]:
    events = sum(
        len(p.read_bytes().splitlines()) for p in out.glob("events.jsonl*")
    )
    size = sum(
        p.stat().st_size
        for pattern in ("events.jsonl*", "timeseries.jsonl*", "metrics.*")
        for p in out.glob(pattern)
    )
    return events, size


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--check-sample", action="store_true",
                    help="re-execute a fixed sample of points after the timed passes")
    ap.add_argument("--spans", type=Path, default=None,
                    help="traced passes: write every span here")
    ap.add_argument("--warm-from", type=Path, default=None,
                    help="an earlier pass's work directory, for warm slices")
    ap.add_argument("--warm-helper", action="store_true",
                    help="serve warm passes of --work for a WarmHelper")
    args = ap.parse_args(argv)

    cfg = dict(WORKLOADS[args.workload])
    bind_seed(args.seed)
    if cfg["run"] is sweep_pass:
        cfg["specs"] = cube_specs(args.seed)
    if args.warm_helper:
        return warm_helper(cfg, args.work)
    work = args.work
    rec = None
    if args.trace:
        rec = tracing.Recorder(work / "trace")
        rec.trace_dir.mkdir(parents=True)
        tracing.install(rec)
    (work / "ready").write_text(repr(time.monotonic()))
    if args.setup_only:
        return 0

    helper = None
    if args.warm_from is not None and cfg["run"] is campaign_pass:
        helper = WarmHelper(args, args.warm_from)
        RecordingScheduler.after_batch = helper.slice
    try:
        return _measure(args, cfg, work, rec, helper)
    finally:
        if helper is not None:
            helper.close()


def _measure(args, cfg, work: Path, rec, helper) -> int:
    """The timed passes and the checks of one pass process; see main."""
    out, store_root = work / "out", work / "store"
    traced_obs = args.trace and cfg["run"] is sweep_pass
    if traced_obs:
        # The counters the trace reads exist only while repro.obs is on;
        # no log is attached, so the workload still writes no events.
        obs.enable()
    counters0 = obs.counters()

    # Flush writes still pending from earlier passes (or the cold pass,
    # below), so the timed store fsyncs do not pay for them.
    os.sync()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    cold = cfg["run"](cfg, out, store_root)
    t1 = time.perf_counter()
    # The helper is not reaped yet, so its CPU time is not in cold_cpu.
    cold_cpu = _cpu_s() - cpu0
    RecordingScheduler.after_batch = None
    paused = helper.paused_s if helper is not None else 0.0
    cold_artefacts = _artefact_hashes(out)
    export_bytes = sum(p.stat().st_size for p in _artefacts(out))
    cold_by_hash = {s.content_hash(): r for s, r in cold.delivered}
    problems: list[str] = []  # failed checks
    bad_points: set[str] = set()  # delivered points among them
    requested, failed_batches = len(cold.requested), list(cold.failed_batches)
    warm_first = None
    warm_times: list[float] = []
    # A warm re-run is a new process in practice: drop the memos the cold
    # pass filled (traces, warmups, baselines, leakage models) and their
    # garbage, so the warm passes neither reuse them nor trace them in GC.
    clear_caches()
    gc.collect()
    os.sync()
    while len(warm_times) < MIN_WARM_PASSES or sum(warm_times) < WARM_S:
        w0 = time.perf_counter()
        warm = cfg["run"](cfg, out, store_root)
        warm_times.append(time.perf_counter() - w0)
        if warm_first is None:
            # The per-layer metrics cover the cold and the first warm pass.
            warm_first = warm
            export_bytes += sum(p.stat().st_size for p in _artefacts(out))
            obs_files = _obs_files(out) if out.exists() else (0, 0)
            counters = {
                k: v - counters0.get(k, 0) for k, v in obs.counters().items()
            }
            n_spans = len(rec.spans) if args.trace else 0
        # Check each warm pass as it ends, so memory stays that of one pass.
        requested += len(warm.requested)
        failed_batches += warm.failed_batches
        for spec, result in warm.delivered:
            if cold_by_hash.get(spec.content_hash(), result) != result:
                problems.append(f"warm != cold at {_label(spec)}")
                bad_points.add(_label(spec))
        if cold_artefacts != _artefact_hashes(out):
            problems.append(f"warm pass {len(warm_times)} artefacts differ from cold")
    if traced_obs:
        obs.disable()
    digest = _digest(cold.delivered)
    helper_undelivered = 0
    for reply in helper.replies if helper is not None else ():
        # The helper's warm passes are warm passes of this run too; they
        # served the earlier pass's store, which holds the same results.
        warm_times += reply["times"]
        requested += reply["requested"]
        helper_undelivered += reply["undelivered"]
        problems += reply["problems"]
        if set(reply["digests"]) != {digest}:
            problems.append("warm helper delivered other results than this cold pass")
    peak_rss_mb = _peak_rss_mb()

    # --- output checks (outside every timed region) ---
    c0 = time.perf_counter()
    if cfg["run"] is campaign_pass and failed_batches:
        problems.append("run_campaign stopped at a failed figure batch")
    if args.check_sample:
        # Re-execute a fixed sample from empty memos, so that a wrong memo
        # key or a corrupted memo cannot agree with itself.
        clear_caches()
        gc.collect()
        distinct = list({s.content_hash(): (s, r) for s, r in cold.delivered}.values())
        for spec, result in (distinct[len(distinct) // 2], distinct[-1]):
            if spec.execute() != result:
                problems.append(f"RunSpec.execute() != delivered at {_label(spec)}")
                bad_points.add(_label(spec))
    claims = None
    if args.seed == 1 and cfg["run"] is campaign_pass:
        problems += reference_check(Path.cwd(), out, cfg["benchmarks"])
        if tuple(cfg["benchmarks"]) == tuple(BENCHMARK_NAMES):
            graded = validate_campaign(out)
            claims = [sum(c.passed for c in graded), len(graded)]
            if claims[0] != claims[1]:
                problems.append(f"paper claims: {claims[0]}/{claims[1]} passed")
    check_s = time.perf_counter() - c0

    undelivered = helper_undelivered + sum(len(batch) for batch, _ in failed_batches)
    failing = sorted({_label(s) for _, bad in failed_batches for s in bad})
    shared, duplicate = sharing(cold.requested)
    result = {
        "cold_s": t1 - t0 - paused,
        "paused_s": paused,
        "cold_cpu_s": cold_cpu,
        "warm_times": warm_times,
        "peak_rss_mb": peak_rss_mb,
        "check_s": check_s,
        "requested": requested,
        "undelivered": undelivered,
        "failing_points": failing,
        "problems": problems,
        "bad_points": len(bad_points),
        "digest": digest,
        "shared_sim_frac": shared,
        "duplicate_frac": duplicate,
        "claims": claims,
    }
    if args.trace:
        layers, result["layer_self_s"] = tracing.layer_metrics(
            rec.spans[:n_spans],
            rec.trace_dir,
            counters,
            cold_window=(t0, t1),
            pools=rec.pools,
            retries=cold.metrics.retries + warm_first.metrics.retries,
            obs_files=obs_files,
            export_bytes=export_bytes,
            pool_used=cfg["jobs"] > 1,
            spans_out=args.spans,
        )
        layers["workload.shared_sim_frac"] = shared
        layers["workload.duplicate_frac"] = duplicate
        result["layers"] = layers
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
