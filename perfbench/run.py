"""End-to-end benchmark of the reproduction: cold and warm campaign passes.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload reproduce-full-gcc --seed 1 --seconds 50 --trace 0

Each pass runs in a fresh interpreter (``bench_pass.py``): the program is
imported from ``src/``, the workload runs cold into an empty result store
and then warm against it, and the outputs are checked.  Passes repeat
until the run is as near to ``--seconds`` as whole passes allow (at least
``MIN_PASSES``); the end-to-end metrics are medians over passes, ``warm_s``
over every warm pass of the run.  The first pass also re-executes a fixed
sample of points from empty memos.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of the traced ones, plus
the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` counts
figure points requested over every pass (cold and warm), ``failed`` the
ones not delivered or failing a check.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PASS_SCRIPT = HERE / "bench_pass.py"

# A run must end within 180 s: no pass may outlive this.
PASS_TIMEOUT_S = 170.0
# Traced passes leave their spans here, one JSON object a line.
TRACE_DIR = Path(".perfbench-work") / "traces"
# setup_s is the median of at least this many fresh-interpreter set-ups.
MIN_SETUP_SAMPLES = 3
# No median rests on a single cold pass, even where a pass is half a run.
MIN_PASSES = 2


class PassFailed(RuntimeError):
    """A pass process exited abnormally or overran its time limit."""


def run_pass(
    root: Path, work: Path, args, trace: bool,
    setup_only: bool = False, check_sample: bool = False,
    warm_from: Path | None = None,
) -> dict:
    """One fresh-interpreter pass; returns its result with ``setup_s``."""
    work.mkdir(parents=True)
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable, str(PASS_SCRIPT),
        "--workload", args.workload, "--seed", str(args.seed),
        "--work", str(work), "--trace", str(int(trace)),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if check_sample:
        cmd.append("--check-sample")
    if warm_from is not None:
        cmd += ["--warm-from", str(warm_from)]
    if trace:
        spans = root / TRACE_DIR / f"{args.workload}-seed{args.seed}-{work.name}.jsonl"
        cmd += ["--spans", str(spans)]
    log_path = work / "pass.log"
    started = time.monotonic()
    with log_path.open("wb") as log:
        proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
            process_group=0,
        )
        try:
            code = proc.wait(timeout=PASS_TIMEOUT_S)
        except BaseException as exc:
            # Take down the pass and any pool workers it started.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise PassFailed(f"pass overran {PASS_TIMEOUT_S:.0f} s") from exc
            raise
    if code != 0:
        tail = log_path.read_text(errors="replace")[-4000:]
        raise PassFailed(f"pass exited with {code}:\n{tail}")
    setup_s = float((work / "ready").read_text()) - started
    if setup_only:
        return {"setup_s": setup_s}
    result = json.loads((work / "result.json").read_text())
    result["setup_s"] = setup_s
    result["wall_s"] = time.monotonic() - started
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="see README.md")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated benchmark still takes its pass (and the pass's pool
    # workers, in their own process group) down with it: see run_pass.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {root / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics each mode reports, with their units.
    spec = json.loads((root / "BENCHMARK.json").read_text())
    # Build step: byte-compile the program once, so no pass pays for it.
    if not compileall.compile_dir(root / "src", quiet=1):
        print("error: the program does not compile", file=sys.stderr)
        return 2

    run_dir = root / ".perfbench-work" / f"{os.getpid()}-{time.time_ns()}"
    start = time.monotonic()
    deadline = start + args.seconds
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    try:
        while True:
            trace = bool(args.trace) and len(traced) < len(plain)
            # In an untraced run each pass after the first may pause its
            # cold pass for warm passes against the previous pass's store
            # (bench_pass.WarmHelper), so warm passes span the whole run.
            index = len(plain) + len(traced)
            res = run_pass(
                root, run_dir / f"pass-{index}", args, trace,
                check_sample=not (plain or traced),
                warm_from=run_dir / f"pass-{index - 1}" if plain and not args.trace else None,
            )
            (traced if trace else plain).append(res)
            if not trace:
                setups.append(res["setup_s"])
            done = plain + traced
            print(
                f"pass {len(done)} ({'traced' if trace else 'untraced'}): "
                f"setup {res['setup_s']:.3f} s, cold {res['cold_s']:.3f} s "
                f"(cpu {res['cold_cpu_s']:.3f} s, {res['paused_s']:.3f} s of warm "
                f"slices taken out), warm "
                f"{statistics.median(res['warm_times']):.3f} s "
                f"(min {min(res['warm_times']):.3f}, max {max(res['warm_times']):.3f}, "
                f"{len(res['warm_times'])} passes), "
                f"peak rss {res['peak_rss_mb']:.1f} MB",
                flush=True,
            )
            if len(done) < MIN_PASSES:
                continue
            # Stop where the run ends nearest to the deadline.
            typical = statistics.median(r["wall_s"] - r["check_s"] for r in done)
            if time.monotonic() + typical / 2 > deadline:
                break
        while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(
                run_pass(root, run_dir / f"setup-{len(setups)}", args, False, True)["setup_s"]
            )
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # traces of earlier traced runs stay

    passes = plain + traced
    attempted = sum(r["requested"] for r in passes)
    failed = sum(r["undelivered"] + r["bad_points"] for r in passes)
    problems = [p for r in passes for p in r["problems"]]
    digests = {r["digest"] for r in passes}
    if len(digests) != 1:
        problems.append(f"delivered results differ between passes: {sorted(digests)}")

    first = passes[0]
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced "
          f"and {len(traced)} traced passes")
    print(f"delivered-results digest: {first['digest']}")
    print(f"shared-simulation share: {first['shared_sim_frac']:.4f} of points share "
          f"a simulation except for T/Vdd; {first['duplicate_frac']:.4f} are exact "
          f"duplicates")
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    for point in first["failing_points"]:
        print(f"failing point (batch not delivered): {point}")
    if first["claims"] is not None:
        print(f"paper claims: {first['claims'][0]}/{first['claims'][1]} passed")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        layers = {}
        for key in traced[0]["layers"]:
            values = [r["layers"][key] for r in traced]
            layers[key] = None if None in values else statistics.median(values)
        cold_plain = statistics.median(r["cold_s"] for r in plain)
        cold_traced = statistics.median(r["cold_s"] for r in traced)
        layers["trace.cold_s"] = cold_traced
        layers["trace.overhead_frac"] = (cold_traced - cold_plain) / cold_plain
        print(f"spans: {root / TRACE_DIR}")
        print("self time by layer, all processes (first traced pass):")
        for layer, self_s in sorted(
            traced[0]["layer_self_s"].items(), key=lambda kv: -kv[1]
        ):
            print(f"  {layer:16s} {self_s:10.3f} s")
        metrics = {}
        for entry in spec["per_layer"]:
            key, unit = entry["name"], entry["unit"]
            value = layers.get(key)
            if value is None:
                print(f"unmeasured: {key}")
                metrics[key] = {"value": None, "unit": unit, "unmeasured": True}
            else:
                metrics[key] = {"value": value, "unit": unit}
    else:
        samples = {
            "setup_s": setups,
            "warm_s": [t for r in plain for t in r["warm_times"]],
        }
        metrics = {
            m["name"]: {
                "value": statistics.median(
                    samples.get(m["name"]) or [r[m["name"]] for r in plain]
                ),
                "unit": m["unit"],
            }
            for m in spec["end_to_end"]
        }

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
