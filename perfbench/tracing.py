"""Span tracing the benchmark installs around the program's layer entry points.

The program itself is not modified: :func:`install` wraps public entry
points (and the scheduler's pool entry functions) with spans recorded by
one in-memory :class:`Recorder`.  Each span keeps its name, start, end,
parent and trace id (the ``RunSpec.content_hash()`` of the figure point it
serves, ``"campaign"`` outside any point).  Pool workers are forked from
the traced process, so they inherit the wrappers; each worker appends its
spans and its ``repro.obs`` counter deltas to ``worker-<pid>.jsonl`` in
the trace directory after every task, and :func:`layer_metrics` folds the
main process's and the workers' records into the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

# Span name -> layer (a module of the program).  Self time of every span
# is charged to its layer; time inside no span is "unattributed".
LAYER_OF = {
    "workloads.gen": "workloads",
    "runner.figure_point": "runner",
    "runner.run_once": "runner",
    "cpu.pipeline": "cpu",
    "leakctl.reduce": "leakctl",
    "leakage.solve": "leakage",
    "exec.store.get": "exec.store",
    "exec.store.put": "exec.store",
    "exec.scheduler.run": "exec.scheduler",
    "exec.execute": "exec.scheduler",
    "obs.emit": "obs",
    "experiments.figure": "experiments",
    "experiments.export": "experiments",
}


class Recorder:
    """In-memory span list of one process.

    A span is ``[name, start, end, parent_index, trace_id, attrs]``.  A
    forked pool worker inherits the main process's list; the first span it opens
    notices the new pid and starts an empty list of its own.
    """

    def __init__(self, trace_dir: Path) -> None:
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.main_pid = self.pid
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trace_id = "campaign"
        self.flushed = 0
        self.pools = 0

    def _own(self) -> None:
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.stack = []
            self.trace_id = "campaign"
            self.flushed = 0

    def open(self, name: str, attrs: dict | None = None) -> int:
        self._own()
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), None, parent, self.trace_id, attrs or {}]
        )
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self.stack and self.stack[-1] == index:
            self.stack.pop()

    def span(self, name: str, attrs: dict | None = None) -> "_Span":
        return _Span(self, name, attrs)

    def flush_worker(self, counters: dict) -> None:
        """Append this worker's new spans and counter deltas to its file."""
        self._own()
        if os.getpid() == self.main_pid:
            return
        record = {"spans": self.spans[self.flushed:], "counters": counters}
        path = self.trace_dir / f"worker-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.flushed = len(self.spans)


class _Span:
    __slots__ = ("rec", "name", "attrs", "index")

    def __init__(self, rec: Recorder, name: str, attrs: dict | None) -> None:
        self.rec, self.name, self.attrs = rec, name, attrs

    def __enter__(self) -> "_Span":
        self.index = self.rec.open(self.name, self.attrs)
        return self

    def __exit__(self, *exc: object) -> None:
        self.rec.close(self.index)


def _counter_delta(before: dict, after: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def install(rec: Recorder) -> None:
    """Wrap each layer's entry points with spans recorded by ``rec``."""
    from repro import obs
    from repro.circuits.solver import LeakageSolver
    from repro.cpu.pipeline import Pipeline
    from repro.exec import ExecutionMetrics, RunSpec, ResultStore, Scheduler
    from repro.exec import scheduler as sched_mod
    from repro.experiments import campaign, runner
    from repro.obs import core as obs_core
    from repro.obs import metrics as obs_metrics
    from repro.workloads.generator import TraceGenerator

    def wrap(owner, attr, name, attrs_of=None, after=None):
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            index = rec.open(name, attrs_of(*args, **kwargs) if attrs_of else None)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(rec.spans[index][5], result, *args)
                return result
            finally:
                rec.close(index)

        setattr(owner, attr, traced)

    # workloads: generation is lazy, so materialise inside the span.
    gen_ops = TraceGenerator.ops

    def ops(self, n_ops):
        with rec.span("workloads.gen", {"ops": n_ops}):
            return iter(list(gen_ops(self, n_ops)))

    TraceGenerator.ops = ops

    def run_once_attrs(benchmark, **kw):
        technique = kw.get("technique")
        machine = kw["machine"]
        key = (
            benchmark,
            None if technique is None else technique.name,
            machine.l2_latency,
            None if technique is None else kw.get("decay_interval"),
            str(kw.get("policy")), kw.get("adaptive"), kw.get("n_ops"),
            kw.get("warmup_ops"), kw.get("seed"), kw.get("target", "l1d"),
            kw.get("engine", "ooo"),
        )
        return {"baseline": technique is None, "sim_key": repr(key)}

    wrap(runner, "run_once", "runner.run_once", run_once_attrs)
    wrap(runner, "figure_point", "runner.figure_point")
    wrap(runner, "net_savings", "leakctl.reduce")

    def pipeline_after(attrs, stats, *args):
        attrs["ops"] = stats.committed
        attrs["cycles"] = stats.cycles

    wrap(Pipeline, "run", "cpu.pipeline", after=pipeline_after)
    wrap(LeakageSolver, "solve", "leakage.solve")

    # experiments: what run_campaign calls by name in its module.
    for attr in (
        "table_1", "table_2", "table_3", "figure_3_4", "figure_5_6",
        "figure_7", "figure_8_9", "figure_10_11", "figure_12_13",
    ):
        wrap(campaign, attr, "experiments.figure")
    for attr in (
        "render_settling_table", "render_machine_table", "render_comparison",
        "render_best_intervals", "render_interval_table", "figure_to_dict",
        "best_interval_figure_to_dict", "save_json",
    ):
        wrap(campaign, attr, "experiments.export")
    wrap(ExecutionMetrics, "write", "experiments.export")

    def get_after(attrs, result, *args):
        attrs["hit"] = result is not None

    def put_after(attrs, path, *args):
        attrs["bytes"] = os.path.getsize(path)

    wrap(ResultStore, "get", "exec.store.get", after=get_after)
    wrap(ResultStore, "put", "exec.store.put", after=put_after)
    wrap(
        Scheduler, "run", "exec.scheduler.run",
        lambda self, specs, *a, **k: {"workers": self.max_workers, "jobs": len(specs)},
    )

    spec_execute = RunSpec.execute

    def execute(self):
        previous, rec.trace_id = rec.trace_id, self.content_hash()
        try:
            with rec.span("exec.execute"):
                return spec_execute(self)
        finally:
            rec.trace_id = previous

    RunSpec.execute = execute

    # The pool pickles its entry function by name, so the wrappers are the
    # module-level worker_* functions below, reading the recorder and the
    # originals from module state.
    global _REC, _EXECUTE_SPEC, _EXECUTE_SPEC_OBSERVED
    _REC = rec
    _EXECUTE_SPEC = sched_mod.execute_spec
    _EXECUTE_SPEC_OBSERVED = sched_mod.execute_spec_observed
    sched_mod.execute_spec = worker_execute_spec
    sched_mod.execute_spec_observed = worker_execute_spec_observed

    pool_cls = sched_mod.ProcessPoolExecutor

    def counting_pool(*args, **kwargs):
        rec.pools += 1
        return pool_cls(*args, **kwargs)

    sched_mod.ProcessPoolExecutor = counting_pool

    # obs: only emits that reach an attached log are the layer's work.
    def log_guarded(fn):
        def traced(*args, **kwargs):
            if obs_core.log_path() is None:
                return fn(*args, **kwargs)
            with rec.span("obs.emit"):
                return fn(*args, **kwargs)

        return traced

    obs_core.emit = obs.emit = log_guarded(obs_core.emit)
    obs_core.emit_series = obs.emit_series = log_guarded(obs_core.emit_series)
    wrap(obs_metrics, "write_registry_snapshot", "obs.emit")


_REC: Recorder | None = None
_EXECUTE_SPEC = None
_EXECUTE_SPEC_OBSERVED = None


def _task(original, spec):
    from repro import obs

    before = obs.counters()
    try:
        return original(spec)
    finally:
        _REC.flush_worker(_counter_delta(before, obs.counters()))


def worker_execute_spec(spec):
    return _task(_EXECUTE_SPEC, spec)


def worker_execute_spec_observed(spec):
    return _task(_EXECUTE_SPEC_OBSERVED, spec)


def _load_workers(trace_dir: Path) -> tuple[dict[int, list[list]], dict]:
    """Span list of every worker by pid, and their summed counter deltas."""
    lists, counters = {}, {}
    for path in sorted(Path(trace_dir).glob("worker-*.jsonl")):
        spans: list[list] = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            # Chunks arrive in order, so list positions equal the worker's
            # own span indexes and parent links stay valid.
            spans.extend(record["spans"])
            for key, value in record["counters"].items():
                counters[key] = counters.get(key, 0) + value
        lists[int(path.stem.split("-")[1])] = spans
    return lists, counters


def write_spans(path: Path, processes: dict[int, list[list]]) -> None:
    """Write every span, one JSON object a line, tagged with its pid."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for pid, spans in processes.items():
            for i, (name, start, end, parent, trace_id, attrs) in enumerate(spans):
                handle.write(json.dumps({
                    "pid": pid, "id": i, "name": name, "start": start,
                    "end": end, "parent": parent, "trace_id": trace_id,
                    "attrs": attrs,
                }) + "\n")


def _self_times(spans: list[list]) -> list[float]:
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def _frac(num: float, den: float) -> float | None:
    return num / den if den else None


def layer_metrics(
    main_spans: list[list],
    trace_dir: Path,
    counters: dict,
    cold_window: tuple[float, float],
    pools: int,
    retries: int,
    obs_files: tuple[int, int],
    export_bytes: int,
    pool_used: bool,
    spans_out: Path | None = None,
) -> tuple[dict[str, float | None], dict[str, float]]:
    """Fold main-process and worker spans plus counters into per-layer metrics.

    Returns the metrics and the self time of each layer summed over every
    process.  A metric of ``None`` could not be collected (for example
    worker spans that never reached the trace directory).
    """
    workers, worker_counters = _load_workers(trace_dir)
    if spans_out is not None:
        write_spans(spans_out, {os.getpid(): main_spans, **workers})
    worker_lists = list(workers.values())
    counters = dict(counters)
    for key, value in worker_counters.items():
        counters[key] = counters.get(key, 0) + value
    missing_workers = pool_used and not workers

    rows = []  # (name, duration, self time, attrs) over every process
    for spans in [main_spans, *worker_lists]:
        for s, self_s in zip(spans, _self_times(spans)):
            rows.append((s[0], s[2] - s[1], self_s, s[5]))

    def total(name: str, field: int = 2) -> float:
        return sum(r[field] for r in rows if r[0] == name)

    def count(name: str, pred=lambda a: True) -> int:
        return sum(1 for r in rows if r[0] == name and pred(r[3]))

    def c(name: str) -> float:
        return counters.get(name, 0)

    gens = [r for r in rows if r[0] == "workloads.gen"]
    gen_s = sum(r[1] for r in gens)
    sims = [r for r in rows if r[0] == "runner.run_once"]
    pipes = [r for r in rows if r[0] == "cpu.pipeline"]
    # A pipeline span's parent is the run_once span that built it.
    by_kind = {True: [0.0, 0], False: [0.0, 0]}
    for spans in [main_spans, *worker_lists]:
        for s in spans:
            if s[0] == "cpu.pipeline" and s[3] is not None:
                kind = by_kind[bool(spans[s[3]][5].get("baseline"))]
                kind[0] += s[2] - s[1]
                kind[1] += s[5].get("ops", 0)
    sim_ops = sum(r[3].get("ops", 0) for r in pipes)
    pipeline_s = total("cpu.pipeline")
    gets = [r for r in rows if r[0] == "exec.store.get"]
    puts = [r for r in rows if r[0] == "exec.store.put"]
    sched_capacity = sum(
        r[1] * r[3].get("workers", 1) for r in rows if r[0] == "exec.scheduler.run"
    )

    def ns_per_op(kind) -> float | None:
        return None if not kind[1] else kind[0] * 1e9 / kind[1]

    tech_ns, base_ns = ns_per_op(by_kind[False]), ns_per_op(by_kind[True])

    # Unattributed: main-process time inside the cold window in no span.
    c0, c1 = cold_window
    covered = sum(
        min(s[2], c1) - max(s[1], c0)
        for s in main_spans
        if s[3] is None and s[2] > c0 and s[1] < c1
    )
    self_by_layer: dict[str, float] = {}
    for name, _dur, self_s, _attrs in rows:
        layer = LAYER_OF[name]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + self_s
    metrics = {
        "workloads.gen_s": gen_s,
        "workloads.traces": len(gens),
        "workloads.ops_per_s": _frac(sum(r[3]["ops"] for r in gens), gen_s),
        "runner.build_s": total("runner.run_once"),
        "runner.warmup_replays": c("runner.warmup_replayed"),
        "runner.warmup_restores": c("runner.warmup_restored"),
        "runner.sims": len(sims),
        "runner.baseline_sims": count("runner.run_once", lambda a: a["baseline"]),
        "runner.sim_distinct_frac": _frac(
            len({r[3]["sim_key"] for r in sims}), len(sims)
        ),
        "cpu.pipeline_s": pipeline_s,
        "cpu.sim_ops": sim_ops,
        "cpu.sim_cycles": sum(r[3].get("cycles", 0) for r in pipes),
        "cpu.ns_per_op": _frac(pipeline_s * 1e9, sim_ops),
        "cpu.skipped_cycle_frac": _frac(
            c("pipeline.skipped_cycles"), c("pipeline.cycles")
        ),
        "leakctl.decay_ns_per_op": (
            None if tech_ns is None or base_ns is None else tech_ns - base_ns
        ),
        "leakctl.deactivations": c("controlled.deactivations"),
        "leakctl.wakeups": c("controlled.wakeups"),
        "leakctl.reduce_s": total("leakctl.reduce"),
        "leakage.solve_s": total("leakage.solve"),
        "leakage.solver_memo_hit_frac": _frac(
            c("solver.memo_hits"), c("solver.memo_hits") + c("solver.memo_misses")
        ),
        "leakage.kdesign_memo_hit_frac": _frac(
            c("kdesign.memo_hits"),
            c("kdesign.memo_hits") + c("kdesign.memo_misses"),
        ),
        "exec.store.get_s": sum(r[1] for r in gets),
        "exec.store.gets": len(gets),
        "exec.store.hit_frac": _frac(sum(r[3]["hit"] for r in gets), len(gets)),
        "exec.store.put_s": sum(r[1] for r in puts),
        "exec.store.puts": len(puts),
        "exec.store.bytes": sum(r[3]["bytes"] for r in puts),
        "exec.scheduler.self_s": total("exec.scheduler.run"),
        "exec.scheduler.pools": pools,
        "exec.scheduler.worker_busy_frac": _frac(
            total("exec.execute", 1), sched_capacity
        ),
        "exec.scheduler.retries": retries,
        "obs.emit_s": total("obs.emit", 1),
        "obs.events": obs_files[0],
        "obs.bytes": obs_files[1],
        "experiments.export_s": total("experiments.export", 1),
        "experiments.export_bytes": export_bytes,
        "trace.unattributed_frac": _frac((c1 - c0) - covered, c1 - c0),
    }
    if missing_workers:
        # Pool work ran but no worker trace arrived: every number that
        # depends on worker spans or counters is unknown, not zero.
        for key in metrics:
            if key.split(".")[0] in ("workloads", "runner", "cpu", "leakctl", "leakage"):
                metrics[key] = None
        metrics["exec.scheduler.worker_busy_frac"] = None
    return metrics, self_by_layer
