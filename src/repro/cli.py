"""Command-line interface: regenerate the paper's artefacts from a shell.

Usage (installed as the ``repro-paper`` console script, or via
``python -m repro.cli``)::

    repro-paper tables                 # Tables 1 and 2
    repro-paper figure 3_4             # Figures 3/4 (110C, L2=5)
    repro-paper figure 12_13 -j 4      # best-interval study + Table 3, parallel
    repro-paper run gcc gated-vss --l2 5 --temp 110
    repro-paper sweep gzip drowsy      # decay-interval sweep
    repro-paper reproduce -j 4         # the whole campaign, 4 workers
    repro-paper store stats results/.cache
    repro-paper store gc results/.cache --max-bytes 256M --max-age 7d
    repro-paper watch results/         # live terminal dashboard
    repro-paper report results/ --live # auto-refreshing live.html

Figure regeneration runs full simulations; expect seconds (``run``) to
minutes (``figure 12_13``).  ``figure``, ``sweep`` and ``reproduce``
accept ``-j/--jobs`` (worker processes; identical results at any count)
and ``--cache`` (a persistent result store that skips already-run
points; ``reproduce`` keeps one under ``<out>/.cache`` automatically).
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.core import DEFAULT_REPEATS
from repro.experiments.figures import (
    figure_3_4,
    figure_5_6,
    figure_7,
    figure_8_9,
    figure_10_11,
    figure_12_13,
    table_1,
    table_2,
    table_3,
)
from repro.experiments.reporting import (
    render_best_intervals,
    render_comparison,
    render_interval_table,
    render_machine_table,
    render_settling_table,
    render_table,
)
from repro.experiments.runner import (
    SWEEP_INTERVALS,
    figure_point,
    technique_by_name,
)
from repro.experiments.sweeps import interval_sweep
from repro.leakctl.base import TECHNIQUE_NAMES
from repro.leakctl.controlled import MIN_DECAY_INTERVAL
from repro.workloads.generator import TraceGenerator
from repro.workloads.profiles import BENCHMARK_NAMES
from repro.workloads.tracefile import trace_length, write_trace

_FIGURES = {
    "3_4": figure_3_4,
    "5_6": figure_5_6,
    "7": figure_7,
    "8_9": figure_8_9,
    "10_11": figure_10_11,
}


def _make_scheduler(args):
    """Build the scheduler requested by ``-j/--jobs`` (and ``--cache``)."""
    from repro.exec import ResultStore, Scheduler

    store = None
    if getattr(args, "cache", None):
        try:
            store = ResultStore(args.cache)
        except NotADirectoryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(2) from None
    return Scheduler(
        max_workers=args.jobs,
        store=store,
        timeout_s=getattr(args, "timeout", None),
    )


def _int_at_least(low: int):
    """An argparse ``type=`` for integers ``>= low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_nonneg_int = _int_at_least(0)
_decay_interval = _int_at_least(MIN_DECAY_INTERVAL)


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}"
        ) from None


def _positive_float(text: str) -> float:
    value = _float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value:g}")
    return value


def _comma_list(item):
    """An argparse ``type=`` for a comma-separated list of ``item``s."""

    def parse(text: str) -> tuple:
        return tuple(item(part) for part in text.split(","))

    return parse


def _add_exec_flags(parser) -> None:
    parser.add_argument(
        "-j", "--jobs", type=_positive_int, default=1,
        help="simulation worker processes (1 = serial; results identical)",
    )
    parser.add_argument(
        "--cache",
        help="persistent result-store directory (skips already-run points)",
    )
    parser.add_argument(
        "--timeout", type=_positive_float, default=None,
        help="per-job timeout budget in seconds (stragglers re-run serially)",
    )


def _add_point_args(parser) -> None:
    """The benchmark and technique positionals of a figure-point command."""
    parser.add_argument("benchmark", choices=BENCHMARK_NAMES)
    parser.add_argument("technique", choices=TECHNIQUE_NAMES)


def _cmd_tables(_args) -> int:
    print(render_settling_table(table_1()))
    print()
    print(render_machine_table(table_2()))
    return 0


def _cmd_figure(args) -> int:
    from repro.experiments.export import (
        best_interval_figure_to_dict,
        figure_to_dict,
        save_json,
    )

    name = args.name
    if name == "12_13":
        with _make_scheduler(args) as scheduler:
            fig = figure_12_13(n_ops=args.ops, scheduler=scheduler)
        print(render_best_intervals(fig))
        print()
        print(render_interval_table(table_3(fig)))
        if args.json:
            save_json(best_interval_figure_to_dict(fig), args.json)
            print(f"JSON written to {args.json}")
        return 0
    try:
        builder = _FIGURES[name]
    except KeyError:
        known = ", ".join([*_FIGURES, "12_13"])
        print(f"unknown figure {name!r}; known: {known}", file=sys.stderr)
        return 2
    with _make_scheduler(args) as scheduler:
        fig = builder(n_ops=args.ops, scheduler=scheduler)
    print(render_comparison(fig))
    if args.json:
        save_json(figure_to_dict(fig), args.json)
        print(f"JSON written to {args.json}")
    return 0


def _cmd_run(args) -> int:
    technique = technique_by_name(args.technique)
    result = figure_point(
        args.benchmark,
        technique,
        l2_latency=args.l2,
        temp_c=args.temp,
        decay_interval=args.interval,
        adaptive=args.adaptive,
        n_ops=args.ops,
        target=args.target,
    )
    rows = [
        ["net savings", f"{result.net_savings_pct:.2f} %"],
        ["gross savings", f"{result.gross_savings_pct:.2f} %"],
        ["performance loss", f"{result.perf_loss_pct:.2f} %"],
        ["turnoff ratio", f"{result.turnoff_ratio:.3f}"],
        ["induced misses", str(result.induced_misses)],
        ["slow hits", str(result.slow_hits)],
        ["true misses", str(result.true_misses)],
        ["baseline cycles", str(result.baseline_cycles)],
        ["technique cycles", str(result.technique_cycles)],
    ]
    title = (
        f"{args.benchmark} / {technique.name} on {args.target} @ L2={args.l2}, "
        f"{args.temp:g} C, interval={args.interval}"
    )
    print(title)
    print(render_table(["metric", "value"], rows))
    if args.power:
        from repro.experiments.runner import simulation_summary
        from repro.tech.nodes import PAPER_VDD

        # The technique run figure_point just simulated, from its memo.
        summary = simulation_summary(
            args.benchmark,
            technique,
            l2_latency=args.l2,
            decay_interval=args.interval,
            adaptive=args.adaptive,
            n_ops=args.ops,
            target=args.target,
        )
        report = summary.accountant(PAPER_VDD).power_report()
        print()
        print("dynamic power breakdown (W):")
        print(
            render_table(
                ["structure", "watts"],
                [[k, f"{v:8.3f}"] for k, v in report.items()],
            )
        )
    return 0


def _cmd_sweep(args) -> int:
    technique = technique_by_name(args.technique)
    with _make_scheduler(args) as scheduler:
        results = interval_sweep(
            args.benchmark,
            technique,
            intervals=args.intervals,
            l2_latency=args.l2,
            temp_c=args.temp,
            n_ops=args.ops,
            scheduler=scheduler,
            temps_c=args.temps,
        )
    with_temp = args.temps is not None
    rows = [
        ([f"{r.temp_c:5.1f}"] if with_temp else [])
        + [
            str(r.decay_interval),
            f"{r.net_savings_pct:7.2f}",
            f"{r.perf_loss_pct:6.2f}",
            f"{r.turnoff_ratio:5.3f}",
            str(r.induced_misses),
            str(r.slow_hits),
        ]
        for r in results
    ]
    print(f"decay-interval sweep: {args.benchmark} / {technique.name}")
    print(
        render_table(
            (["T (C)"] if with_temp else [])
            + ["interval", "net sav %", "loss %", "turnoff", "induced", "slow"],
            rows,
        )
    )
    best = max(results, key=lambda r: r.net_savings_pct)
    print(f"best interval: {best.decay_interval} ({best.net_savings_pct:.2f} %)")
    return 0


def _cmd_validate(args) -> int:
    from repro.experiments.validate import (
        ValidationError,
        render_validation,
        validate_campaign,
    )

    try:
        claims = validate_campaign(args.results)
    except ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(render_validation(claims))
    return 0 if all(c.passed for c in claims) else 1


def _cmd_gen_trace(args) -> int:
    ops = TraceGenerator(args.benchmark, seed=args.seed).ops(args.ops)
    count = write_trace(args.path, ops)
    print(f"wrote {count} micro-ops to {args.path} "
          f"({trace_length(args.path)} per header)")
    return 0


def _cmd_bench(args) -> int:
    import json
    import os

    from repro.bench import check_regression, run_bench
    from repro.bench.core import write_report

    baseline = None
    baseline_path = args.baseline
    if baseline_path is None:
        default = os.path.join("benchmarks", "bench_baseline.json")
        baseline_path = default if os.path.exists(default) else ""
    if baseline_path:
        try:
            with open(baseline_path, encoding="utf-8") as fh:
                baseline = json.load(fh)
        except OSError as exc:
            print(f"error reading baseline: {exc}", file=sys.stderr)
            return 2
    report = run_bench(repeats=args.repeats, progress=print)
    write_report(report, args.output)
    print(f"report written to {args.output}")
    if args.check:
        if baseline is None:
            print("error: --check needs a baseline file", file=sys.stderr)
            return 2
        failures = check_regression(report, baseline, tolerance=args.tolerance)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(
            f"regression gate passed "
            f"({report['reference']['speedup']:.2f}x over reference path)"
        )
    return 0


def _cmd_profile(args) -> int:
    import cProfile
    import pstats

    technique = technique_by_name(args.technique)
    kwargs = dict(
        l2_latency=args.l2,
        temp_c=args.temp,
        decay_interval=args.interval,
        n_ops=args.ops,
    )
    if args.warm:
        # Untimed first pass: the profile then shows the simulation hot
        # path instead of one-off analytic derivations.
        figure_point(args.benchmark, technique, **kwargs)
        from repro.experiments.runner import clear_simulation_cache

        clear_simulation_cache()
    profiler = cProfile.Profile()
    profiler.enable()
    figure_point(args.benchmark, technique, **kwargs)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    return 0


def _cmd_reproduce(args) -> int:
    from repro.experiments.campaign import run_campaign

    benchmarks = tuple(args.benchmarks.split(",")) if args.benchmarks else None
    result = run_campaign(
        args.out,
        quick=args.quick,
        benchmarks=benchmarks,
        progress=print,
        jobs=args.jobs,
        cache_dir=args.cache,
        timeout_s=args.timeout,
        observe=not args.no_obs,
    )
    print()
    print(result.summary())
    if not args.no_obs:
        print(f"event log: {args.out}/events.jsonl "
              f"(browse with 'repro-paper trace {args.out}')")
    return 0


def _open_store(root):
    from repro.exec import ResultStore

    try:
        return ResultStore(root)
    except NotADirectoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _size_arg(text: str) -> int:
    from repro.exec.lifecycle import parse_size

    try:
        return parse_size(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _duration_arg(text: str) -> float:
    from repro.exec.lifecycle import parse_duration

    try:
        return parse_duration(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_store_stats(args) -> int:
    import json

    from repro.exec.lifecycle import store_report

    report = store_report(_open_store(args.root))
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    rows = [
        ["entries", str(report.entries)],
        ["total bytes", str(report.total_bytes)],
        ["generation", str(report.generation)],
        ["live pins", str(report.pins)],
        ["live claims", str(report.claims)],
        ["quarantined", str(report.quarantined)],
        [".tmp orphans", str(report.tmp_orphans)],
    ]
    for name, value in sorted(report.counters.items()):
        rows.append([f"lifetime {name}", f"{value:g}"])
    print(f"result store: {report.root}")
    print(render_table(["metric", "value"], rows))
    if report.shards:
        print()
        print("per-shard breakdown:")
        print(
            render_table(
                ["shard", "entries", "bytes"],
                [
                    [shard, str(count), str(size)]
                    for shard, (count, size) in sorted(report.shards.items())
                ],
            )
        )
    return 0


def _cmd_store_gc(args) -> int:
    from repro.exec.lifecycle import collect_garbage

    if args.max_bytes is None and args.max_age is None:
        print(
            "error: gc needs a budget; pass --max-bytes and/or --max-age",
            file=sys.stderr,
        )
        return 2
    report = collect_garbage(
        _open_store(args.root),
        max_bytes=args.max_bytes,
        max_age_s=args.max_age,
        dry_run=args.dry_run,
    )
    print(report.summary())
    return 0


def _cmd_store_compact(args) -> int:
    from repro.exec.lifecycle import compact_store

    print(compact_store(_open_store(args.root)).summary())
    return 0


def _cmd_store_prune(args) -> int:
    from repro.exec.lifecycle import sweep_orphans

    report = sweep_orphans(_open_store(args.root), tmp_age_s=args.tmp_age)
    print(report.summary())
    return 0


def _cmd_trace(args) -> int:
    from repro.obs.views import iter_campaign_events, render_trace

    try:
        events = iter_campaign_events(args.campaign)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_trace(events, limit=args.limit or None, phase=args.phase))
    return 0


def _cmd_stats(args) -> int:
    import json

    from repro.obs.views import (
        aggregate,
        iter_campaign_events,
        render_stats,
        summary_to_dict,
    )

    try:
        events = iter_campaign_events(args.campaign)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = aggregate(events)
    if args.format == "json":
        print(json.dumps(summary_to_dict(summary), indent=2, sort_keys=True))
    else:
        print(render_stats(summary))
    return 0


def _cmd_watch(args) -> int:
    from repro.obs.watch import watch_campaign

    return watch_campaign(
        args.campaign,
        interval=args.interval,
        once=args.once,
        as_json=args.json,
    )


def _cmd_report(args) -> int:
    import os

    if args.live:
        from repro.obs.live import live_report

        return live_report(
            args.campaign, interval=args.interval, once=args.once
        )
    if args.once:
        print("error: --once only applies with --live", file=sys.stderr)
        return 2

    from repro.obs.report import build_report

    try:
        html = build_report(args.campaign)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    output = args.output
    if output is None:
        campaign = args.campaign
        output = (
            os.path.join(campaign, "report.html")
            if os.path.isdir(campaign)
            else os.path.join(os.path.dirname(campaign) or ".", "report.html")
        )
    with open(output, "w", encoding="utf-8") as fh:
        fh.write(html)
    print(f"report written to {output}")
    return 0


def _cmd_diff(args) -> int:
    from repro.obs.diff import diff_campaigns, render_diff

    try:
        diff = diff_campaigns(args.campaign_a, args.campaign_b)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_diff(diff, threshold=args.threshold))
    if args.fail_on_regression and diff.has_regressions(args.threshold):
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-paper",
        description="Regenerate artefacts from the DATE 2004 leakage-control paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables 1 and 2").set_defaults(
        func=_cmd_tables
    )

    fig = sub.add_parser("figure", help="regenerate a figure pair")
    fig.add_argument("name", help="3_4, 5_6, 7, 8_9, 10_11 or 12_13")
    fig.add_argument("--ops", type=int, default=20_000, help="micro-ops per run")
    fig.add_argument("--json", help="also write the figure data as JSON")
    _add_exec_flags(fig)
    fig.set_defaults(func=_cmd_figure)

    run = sub.add_parser("run", help="one benchmark under one technique")
    _add_point_args(run)
    run.add_argument("--l2", type=int, default=11, help="L2 latency (cycles)")
    run.add_argument("--temp", type=float, default=110.0, help="temperature (C)")
    run.add_argument(
        "--interval", type=_decay_interval, default=4096, help="decay interval"
    )
    run.add_argument("--adaptive", action="store_true", help="online adaptation")
    run.add_argument(
        "--target",
        choices=("l1d", "l1i", "l2"),
        default="l1d",
        help="which cache the technique controls (extension: l1i / l2)",
    )
    run.add_argument(
        "--power", action="store_true",
        help="also print the Wattch-style dynamic power breakdown",
    )
    run.add_argument("--ops", type=int, default=20_000)
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="decay-interval sweep")
    _add_point_args(sweep)
    sweep.add_argument("--l2", type=int, default=11)
    sweep.add_argument("--temp", type=float, default=85.0)
    sweep.add_argument(
        "--temps", type=_comma_list(_float),
        help="comma-separated temperature grid (C), replacing --temp: one "
        "exactly reduced point per (interval, temperature)",
    )
    sweep.add_argument(
        "--intervals", type=_comma_list(_decay_interval),
        default=SWEEP_INTERVALS,
        help="comma-separated decay intervals (default: the standard grid)",
    )
    sweep.add_argument("--ops", type=int, default=20_000)
    _add_exec_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    rep = sub.add_parser(
        "reproduce", help="regenerate every paper artefact into a directory"
    )
    rep.add_argument("--out", default="results", help="output directory")
    rep.add_argument(
        "--quick", action="store_true",
        help="small runs (fast smoke pass; verdicts may wobble)",
    )
    rep.add_argument(
        "--benchmarks",
        help="comma-separated benchmark subset (default: all 11)",
    )
    rep.add_argument(
        "--no-obs", action="store_true",
        help="skip the <out>/events.jsonl observability event log",
    )
    _add_exec_flags(rep)
    rep.set_defaults(func=_cmd_reproduce)

    trace = sub.add_parser(
        "trace", help="browse a campaign's observability event log"
    )
    trace.add_argument(
        "campaign",
        help="campaign output directory (or an events.jsonl path directly)",
    )
    trace.add_argument(
        "--limit", type=_nonneg_int, default=40,
        help="show at most N events (most recent; default 40, 0 = all)",
    )
    trace.add_argument(
        "--phase", default=None,
        help="only events from one campaign phase",
    )
    trace.set_defaults(func=_cmd_trace)

    stats = sub.add_parser(
        "stats", help="aggregate statistics from a campaign's event log"
    )
    stats.add_argument(
        "campaign",
        help="campaign output directory (or an events.jsonl path directly)",
    )
    stats.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format; 'json' emits the machine-readable summary "
        "shared with 'watch --json' and the live status page",
    )
    stats.set_defaults(func=_cmd_stats)

    watch = sub.add_parser(
        "watch",
        help="live terminal dashboard tailing a campaign's event log",
    )
    watch.add_argument(
        "campaign",
        help="campaign output directory (or an events.jsonl path directly)",
    )
    watch.add_argument(
        "--interval", type=_positive_float, default=1.0,
        help="redraw interval in seconds (default 1.0)",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (exit 2 if no event log yet)",
    )
    watch.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable state snapshot instead of the "
        "dashboard (one JSON object per frame)",
    )
    watch.set_defaults(func=_cmd_watch)

    storep = sub.add_parser(
        "store",
        help="result-store lifecycle: stats, gc (LRU eviction), compact, "
        "prune",
    )
    ssub = storep.add_subparsers(dest="store_command", required=True)

    sstats = ssub.add_parser(
        "stats",
        help="size, per-shard breakdown and lifetime hit/miss counters",
    )
    sstats.add_argument("root", help="store directory (e.g. results/.cache)")
    sstats.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    sstats.set_defaults(func=_cmd_store_stats)

    sgc = ssub.add_parser(
        "gc",
        help="evict least-recently-used entries to fit a size/age budget "
        "(pinned/claimed entries are never evicted)",
    )
    sgc.add_argument("root", help="store directory")
    sgc.add_argument(
        "--max-bytes", type=_size_arg, default=None,
        help="size budget (accepts suffixes: 512, 64K, 10M, 1G)",
    )
    sgc.add_argument(
        "--max-age", type=_duration_arg, default=None,
        help="evict entries unused for longer than this (30s, 15m, 12h, 7d)",
    )
    sgc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be evicted without removing anything",
    )
    sgc.set_defaults(func=_cmd_store_gc)

    scompact = ssub.add_parser(
        "compact",
        help="drop empty shard directories and re-anchor the index to disk",
    )
    scompact.add_argument("root", help="store directory")
    scompact.set_defaults(func=_cmd_store_compact)

    sprune = ssub.add_parser(
        "prune",
        help="sweep orphaned .tmp files, dead claims and dead manifests",
    )
    sprune.add_argument("root", help="store directory")
    sprune.add_argument(
        "--tmp-age", type=_duration_arg, default=3600.0,
        help=".tmp files older than this are litter (default 1h)",
    )
    sprune.set_defaults(func=_cmd_store_prune)

    report = sub.add_parser(
        "report",
        help="render a campaign as one self-contained HTML report",
    )
    report.add_argument(
        "campaign",
        help="campaign output directory (or an events.jsonl path directly)",
    )
    report.add_argument(
        "--output", default=None,
        help="HTML output path (default: <campaign>/report.html)",
    )
    report.add_argument(
        "--live", action="store_true",
        help="instead of a one-shot report, keep an auto-refreshing "
        "live.html next to the event log, atomically rewritten until the "
        "campaign finishes",
    )
    report.add_argument(
        "--interval", type=_positive_float, default=2.0,
        help="live rewrite interval in seconds (default 2.0; --live only)",
    )
    report.add_argument(
        "--once", action="store_true",
        help="write the live page once and exit (--live only)",
    )
    report.set_defaults(func=_cmd_report)

    diff = sub.add_parser(
        "diff",
        help="compare two campaigns aligned by spec hash",
    )
    diff.add_argument("campaign_a", help="baseline campaign directory")
    diff.add_argument("campaign_b", help="candidate campaign directory")
    diff.add_argument(
        "--threshold", type=_positive_float, default=0.10,
        help="fractional increase flagged as a regression (default 0.10)",
    )
    diff.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit non-zero when any regression is flagged",
    )
    diff.set_defaults(func=_cmd_diff)

    bench = sub.add_parser(
        "bench", help="run the hot-path performance gates, write BENCH.json"
    )
    bench.add_argument(
        "--repeats", type=_positive_int, default=DEFAULT_REPEATS,
        help="timed iterations per comparison (min-of-N is reported)",
    )
    bench.add_argument(
        "--output", default="BENCH.json", help="report path (JSON)"
    )
    bench.add_argument(
        "--baseline", default=None,
        help="baseline report to compare against "
             "(default: benchmarks/bench_baseline.json if present)",
    )
    bench.add_argument(
        "--check", action="store_true",
        help="exit non-zero when the in-process reference speedup "
             "regresses vs the baseline",
    )
    bench.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional regression for --check (default 0.25)",
    )
    bench.set_defaults(func=_cmd_bench)

    prof = sub.add_parser(
        "profile", help="cProfile one figure point (hot-path diagnosis)"
    )
    _add_point_args(prof)
    prof.add_argument("--l2", type=int, default=11, help="L2 latency (cycles)")
    prof.add_argument("--temp", type=float, default=110.0)
    prof.add_argument("--interval", type=_decay_interval, default=4096)
    prof.add_argument("--ops", type=int, default=20_000)
    prof.add_argument(
        "--sort", default="cumulative",
        help="pstats sort key (cumulative, tottime, calls, ...)",
    )
    prof.add_argument(
        "--limit", type=int, default=25, help="rows of profile output"
    )
    prof.add_argument(
        "--cold", dest="warm", action="store_false",
        help="profile the cold path too (include analytic derivations)",
    )
    prof.set_defaults(func=_cmd_profile)

    val = sub.add_parser(
        "validate", help="grade a reproduce output directory against the paper"
    )
    val.add_argument("results", help="directory written by 'reproduce'")
    val.set_defaults(func=_cmd_validate)

    gen = sub.add_parser("gen-trace", help="write a synthetic trace to a file")
    gen.add_argument("benchmark", choices=BENCHMARK_NAMES)
    gen.add_argument("path")
    gen.add_argument("--ops", type=int, default=50_000)
    gen.add_argument("--seed", type=int, default=1)
    gen.set_defaults(func=_cmd_gen_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
