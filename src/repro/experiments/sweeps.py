"""Parameter sweeps: decay intervals and L2 latencies.

The decay-interval sweep is the paper's Section 5.4 oracle: "for both
drowsy and gated-Vss, we identify the best decay interval for each
benchmark" (Figures 12/13, Table 3).  The L2-latency sweep is the paper's
main axis (Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.config import PAPER_L2_LATENCIES
from repro.exec import RunSpec, Scheduler
from repro.experiments.runner import (
    DEFAULT_N_OPS,
    DEFAULT_SEED,
    SWEEP_INTERVALS,
    figure_point,
    technique_by_name,
)
from repro.leakctl.base import TechniqueConfig
from repro.leakctl.energy import NetSavingsResult


def _spec_compatible(technique: TechniqueConfig) -> bool:
    """Whether ``technique`` is addressable by name in a :class:`RunSpec`.

    Ablated variants (overridden settling times, tags kept awake, ...)
    are not — caching them under the plain name would poison the result
    store — so they always take the direct :func:`figure_point` path.
    """
    try:
        return technique == technique_by_name(technique.name)
    except KeyError:
        return False


def _figure_points(
    benchmark: str,
    technique: TechniqueConfig,
    points: list[dict],
    scheduler: Scheduler | None,
) -> list[NetSavingsResult]:
    """One figure point per keyword dict of ``points``, in order.

    With a ``scheduler`` the points are submitted as one batch (parallel,
    cached); without one — or for ablated techniques a :class:`RunSpec`
    cannot describe — each point runs in-process.  Either way a point is
    one memoised simulation pair reduced exactly at its own (T, Vdd).
    """
    if scheduler is not None and _spec_compatible(technique):
        return scheduler.run(
            [
                RunSpec(benchmark=benchmark, technique=technique.name, **point)
                for point in points
            ]
        )
    return [figure_point(benchmark, technique, **point) for point in points]


def interval_sweep(
    benchmark: str,
    technique: TechniqueConfig,
    *,
    intervals: tuple[int, ...] = SWEEP_INTERVALS,
    l2_latency: int = 11,
    temp_c: float = 85.0,
    n_ops: int = DEFAULT_N_OPS,
    seed: int = DEFAULT_SEED,
    scheduler: Scheduler | None = None,
    temps_c: tuple[float, ...] | None = None,
) -> list[NetSavingsResult]:
    """Net-savings results across the decay-interval grid.

    ``temps_c``, when given, replaces ``temp_c`` with a temperature axis:
    one figure point per (interval, T), ordered interval-major.  Points
    that differ only in temperature share one simulation.
    """
    temps = (temp_c,) if temps_c is None else temps_c
    return _figure_points(
        benchmark,
        technique,
        [
            dict(
                l2_latency=l2_latency,
                temp_c=t,
                decay_interval=interval,
                n_ops=n_ops,
                seed=seed,
            )
            for interval in intervals
            for t in temps
        ],
        scheduler,
    )


@dataclass(frozen=True)
class BestInterval:
    """The oracle pick for one (benchmark, technique)."""

    benchmark: str
    technique: str
    interval: int
    result: NetSavingsResult


def best_interval(
    benchmark: str,
    technique: TechniqueConfig,
    *,
    intervals: tuple[int, ...] = SWEEP_INTERVALS,
    l2_latency: int = 11,
    temp_c: float = 85.0,
    n_ops: int = DEFAULT_N_OPS,
    seed: int = DEFAULT_SEED,
    scheduler: Scheduler | None = None,
) -> BestInterval:
    """Best decay interval by net energy savings (the paper's criterion)."""
    results = interval_sweep(
        benchmark,
        technique,
        intervals=intervals,
        l2_latency=l2_latency,
        temp_c=temp_c,
        n_ops=n_ops,
        seed=seed,
        scheduler=scheduler,
    )
    winner = max(results, key=lambda r: r.net_savings_pct)
    return BestInterval(
        benchmark=benchmark,
        technique=technique.name,
        interval=winner.decay_interval,
        result=winner,
    )


@dataclass(frozen=True)
class ReplicationSummary:
    """Mean and spread of a figure point across trace seeds.

    Each seed regenerates the benchmark's stochastic stream from scratch,
    so the spread measures how much of a result is workload noise rather
    than technique behaviour.
    """

    benchmark: str
    technique: str
    seeds: tuple[int, ...]
    net_savings_mean: float
    net_savings_std: float
    perf_loss_mean: float
    perf_loss_std: float

    @property
    def n(self) -> int:
        return len(self.seeds)


def replicate(
    benchmark: str,
    technique: TechniqueConfig,
    *,
    seeds: tuple[int, ...] = (1, 2, 3),
    l2_latency: int = 11,
    temp_c: float = 110.0,
    n_ops: int = DEFAULT_N_OPS,
    **kwargs,
) -> ReplicationSummary:
    """Run one figure point across several trace seeds.

    Use to attach error bars to any comparison, or to check that a
    verdict is not an artefact of one particular stochastic trace.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    savings = []
    losses = []
    for seed in seeds:
        result = figure_point(
            benchmark,
            technique,
            l2_latency=l2_latency,
            temp_c=temp_c,
            n_ops=n_ops,
            seed=seed,
            **kwargs,
        )
        savings.append(result.net_savings_pct)
        losses.append(result.perf_loss_pct)

    def mean(xs):
        return sum(xs) / len(xs)

    def std(xs):
        m = mean(xs)
        return (sum((x - m) ** 2 for x in xs) / len(xs)) ** 0.5

    return ReplicationSummary(
        benchmark=benchmark,
        technique=technique.name,
        seeds=tuple(seeds),
        net_savings_mean=mean(savings),
        net_savings_std=std(savings),
        perf_loss_mean=mean(losses),
        perf_loss_std=std(losses),
    )


def l2_latency_sweep(
    benchmark: str,
    technique: TechniqueConfig,
    *,
    latencies: tuple[int, ...] = PAPER_L2_LATENCIES,
    temp_c: float = 110.0,
    decay_interval: int | None = None,
    n_ops: int = DEFAULT_N_OPS,
    seed: int = DEFAULT_SEED,
    scheduler: Scheduler | None = None,
    temps_c: tuple[float, ...] | None = None,
) -> list[NetSavingsResult]:
    """Net-savings results across the paper's L2-latency grid.

    ``temps_c``, when given, replaces ``temp_c`` with a temperature axis:
    one figure point per (latency, T), ordered latency-major.
    """
    kwargs = {} if decay_interval is None else {"decay_interval": decay_interval}
    temps = (temp_c,) if temps_c is None else temps_c
    return _figure_points(
        benchmark,
        technique,
        [
            dict(l2_latency=latency, temp_c=t, n_ops=n_ops, seed=seed, **kwargs)
            for latency in latencies
            for t in temps
        ],
        scheduler,
    )


def temperature_sweep(
    benchmark: str,
    technique: TechniqueConfig,
    *,
    temps_c: tuple[float, ...],
    l2_latency: int = 11,
    decay_interval: int | None = None,
    n_ops: int = DEFAULT_N_OPS,
    seed: int = DEFAULT_SEED,
) -> list[NetSavingsResult]:
    """Net-savings results across a temperature grid.

    One :func:`figure_point` per temperature: the baseline and technique
    simulations run once, and each temperature is an exact reduction of
    them.
    """
    kwargs = {} if decay_interval is None else {"decay_interval": decay_interval}
    return [
        figure_point(
            benchmark,
            technique,
            l2_latency=l2_latency,
            temp_c=t,
            n_ops=n_ops,
            seed=seed,
            **kwargs,
        )
        for t in temps_c
    ]
