"""The full reproduction campaign: every artefact, one call.

``run_campaign(out_dir)`` regenerates the paper's Tables 1-3 and Figures
1/3-13, writes each as both a rendered text table and JSON, and returns a
summary. This is the programmatic equivalent of running the whole
benchmark harness, exposed so a user can reproduce the paper with::

    repro-paper reproduce --out results/

or::

    from repro.experiments.campaign import run_campaign
    run_campaign("results/")

Figures 3-11 take ~30-90 s each and the Figure-12/13 sweep several
minutes; pass ``quick=True`` to shrink the runs for a smoke-level pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.exec import ExecutionMetrics, ResultStore, Scheduler
from repro.experiments.export import (
    best_interval_figure_to_dict,
    figure_to_dict,
    save_json,
)
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
)

QUICK_N_OPS = 4000
FULL_N_OPS = 20_000


@dataclass
class CampaignResult:
    """What the campaign produced and where."""

    out_dir: Path
    artefacts: dict[str, Path] = field(default_factory=dict)
    verdicts: dict[str, str] = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    def summary(self) -> str:
        lines = [f"reproduction campaign -> {self.out_dir}"]
        for name in sorted(self.artefacts):
            lines.append(f"  {name}: {self.artefacts[name].name}")
        for name, verdict in self.verdicts.items():
            lines.append(f"  verdict[{name}]: {verdict}")
        return "\n".join(lines)


def run_campaign(
    out_dir: str | Path,
    *,
    quick: bool = False,
    benchmarks: tuple[str, ...] | None = None,
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    timeout_s: float | None = None,
    observe: bool = True,
) -> CampaignResult:
    """Regenerate every paper artefact into ``out_dir``.

    Every simulation goes through a :class:`~repro.exec.Scheduler` backed
    by a persistent :class:`~repro.exec.ResultStore` under
    ``<out_dir>/.cache`` (override with ``cache_dir``): a warm re-run
    costs only the store lookups, and ``jobs > 1`` spreads cold runs over
    a process pool.  Runs are seed-deterministic, so the artefacts are
    identical at any job count.  Execution statistics land in
    ``campaign_metrics.json``, and (with ``observe``, the default) a
    structured event log in ``<out_dir>/events.jsonl`` — browse it with
    ``repro-paper trace <out_dir>`` / ``repro-paper stats <out_dir>``.

    Args:
        out_dir: Directory for the text/JSON artefacts (created if needed).
        quick: Use small runs (smoke level; verdicts may wobble).
        benchmarks: Optional benchmark subset (defaults to all 11).
        progress: Optional callback receiving one line per artefact.
        jobs: Simulation worker processes (1 = in-process serial).
        cache_dir: Result-store location (default ``<out_dir>/.cache``).
        timeout_s: Optional per-job timeout for the scheduler.
        observe: Write the observability event log.  If :mod:`repro.obs`
            is already enabled (a caller-owned log), the campaign logs
            into that instead of opening its own.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_ops = QUICK_N_OPS if quick else FULL_N_OPS
    extra = {} if benchmarks is None else {"benchmarks": benchmarks}
    result = CampaignResult(out_dir=out)

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    store = ResultStore(Path(cache_dir) if cache_dir is not None else out / ".cache")
    metrics = ExecutionMetrics()
    scheduler = Scheduler(
        max_workers=jobs,
        store=store,
        metrics=metrics,
        progress=note,
        timeout_s=timeout_s,
    )

    owned_obs = observe and not obs.is_enabled()
    if owned_obs:
        obs.enable(out / "events.jsonl")
        # A campaign that owns its log also owns the metrics registry:
        # start from zero so the snapshots describe this campaign only.
        obs_metrics.reset_registry()
    started = time.time()
    status = "failed"
    try:
        # Closing the scheduler reaps its pool workers before we return.
        with scheduler:
            outcome = _run_campaign_body(
                out, n_ops, extra, result, note, store, metrics, scheduler,
                jobs=jobs,
            )
        status = "ok"
        return outcome
    finally:
        if owned_obs:
            obs.emit("counters", counters=obs.counters(), spans=obs.span_stats())
            # The terminal event: tailers use it to distinguish "done"
            # from "stalled" without ever polling our pid.  Emitted from
            # here — not the scheduler, which finishes once per *batch* —
            # and last, so a tailed state stays terminal once it folds.
            obs.emit(
                "campaign_finished",
                status=status,
                jobs_total=metrics.jobs_total,
                runs_executed=metrics.jobs_executed,
                cache_hits=metrics.cache_hits,
                failures=metrics.failures,
                retries=metrics.retries,
                timeouts=metrics.timeouts,
                wall_s=time.time() - started,
            )
            obs_metrics.write_registry_snapshot(out)
            obs.disable()


def _run_campaign_body(
    out: Path,
    n_ops: int,
    extra: dict,
    result: CampaignResult,
    note: Callable[[str], None],
    store: ResultStore,
    metrics: ExecutionMetrics,
    scheduler: Scheduler,
    *,
    jobs: int,
) -> CampaignResult:

    def emit(name: str, text: str, payload: dict | None = None) -> None:
        path = out / f"{name}.txt"
        path.write_text(text + "\n")
        result.artefacts[name] = path
        if payload is not None:
            save_json(payload, out / f"{name}.json")
        note(f"wrote {name}")

    with metrics.phase("tables"), obs.phase("tables"):
        emit("tab1_settling", render_settling_table(table_1()))
        emit("tab2_machine", render_machine_table(table_2()))

    figure_builders = [
        ("fig03_04_l2_5", figure_3_4),
        ("fig05_06_l2_8", figure_5_6),
        ("fig07_l2_11_85c", figure_7),
        ("fig08_09_l2_11_110c", figure_8_9),
        ("fig10_11_l2_17", figure_10_11),
    ]
    for name, builder in figure_builders:
        note(f"running {name} ...")
        with metrics.phase(name), obs.phase(name):
            fig = builder(n_ops=n_ops, scheduler=scheduler, **extra)
        emit(name, render_comparison(fig), figure_to_dict(fig))
        winner = (
            "gated-vss"
            if fig.avg_gated_savings > fig.avg_drowsy_savings
            else "drowsy"
        )
        result.verdicts[name] = (
            f"{winner} (drowsy {fig.avg_drowsy_savings:.1f} % vs "
            f"gated {fig.avg_gated_savings:.1f} %, gated wins "
            f"{fig.gated_win_count}/{len(fig.rows)})"
        )

    note("running fig12_13 interval sweep (the long one) ...")
    with metrics.phase("fig12_13_best_interval"), obs.phase(
        "fig12_13_best_interval"
    ):
        best = figure_12_13(n_ops=n_ops, scheduler=scheduler, **extra)
    emit(
        "fig12_13_best_interval",
        render_best_intervals(best),
        best_interval_figure_to_dict(best),
    )
    emit("tab3_best_intervals", render_interval_table(table_3(best)))

    metrics_path = metrics.write(
        out / "campaign_metrics.json",
        extra={"jobs": jobs, "result_store": store.stats.to_dict()},
    )
    result.artefacts["campaign_metrics"] = metrics_path
    result.metrics = metrics.to_dict()
    note(f"execution: {metrics.summary()}")

    (out / "SUMMARY.txt").write_text(result.summary() + "\n")
    return result
