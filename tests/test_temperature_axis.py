"""The temperature axis: every swept temperature is an exact figure point.

Temperature never enters a simulation, so a sweep over T runs each
simulation once and reduces it at every temperature.  Each sweep below
must return exactly what :func:`figure_point` returns at the same
(point, T) — dataclass ``==``, every float bit — and must simulate once
per swept point plus the baselines, which ``_simulated.cache_info()``
counts.  The test suite clears the memo before every test, so the counts
are absolute.
"""

from __future__ import annotations

import pytest

from repro.exec import ExecutionMetrics, ResultStore, Scheduler
from repro.experiments import runner
from repro.experiments.runner import figure_point, technique_by_name
from repro.experiments.sensitivity import TemperaturePoint, temperature_sensitivity
from repro.experiments.sweeps import (
    interval_sweep,
    l2_latency_sweep,
    temperature_sweep,
)
from repro.leakctl.base import drowsy_technique, gated_vss_technique

N_OPS = 4_000
TEMPS = (45.0, 85.0, 124.0)
INTERVALS = (1024, 8192)
LATENCIES = (5, 17)


@pytest.fixture(params=["drowsy", "gated-vss"])
def technique(request):
    return technique_by_name(request.param)


def _interval_points(technique):
    return [
        figure_point(
            "gcc", technique, decay_interval=interval, temp_c=t, n_ops=N_OPS
        )
        for interval in INTERVALS
        for t in TEMPS
    ]


def _latency_points(technique):
    return [
        figure_point("gcc", technique, l2_latency=latency, temp_c=t, n_ops=N_OPS)
        for latency in LATENCIES
        for t in TEMPS
    ]


SWEEPS = {
    # name: (sweep call, the figure points it must equal, simulations)
    "interval": (
        lambda technique, **kw: interval_sweep(
            "gcc", technique, intervals=INTERVALS, temps_c=TEMPS,
            n_ops=N_OPS, **kw,
        ),
        _interval_points,
        len(INTERVALS) + 1,  # one baseline serves every interval
    ),
    "l2_latency": (
        lambda technique, **kw: l2_latency_sweep(
            "gcc", technique, latencies=LATENCIES, temps_c=TEMPS,
            n_ops=N_OPS, **kw,
        ),
        _latency_points,
        2 * len(LATENCIES),  # a baseline per latency
    ),
}


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
class TestSweepTemperatureAxis:
    def test_in_process_equals_figure_point(self, sweep, technique):
        run, points, sims = SWEEPS[sweep]
        got = run(technique)
        assert runner._simulated.cache_info().misses == sims
        assert runner._simulated.cache_info().currsize == sims

        assert got == points(technique)
        # The figure points were all memo hits: one simulation per point.
        assert runner._simulated.cache_info().misses == sims

    def test_scheduler_stores_every_temperature(self, sweep, technique, tmp_path):
        run, points, sims = SWEEPS[sweep]
        with Scheduler(max_workers=1, store=ResultStore(tmp_path)) as sched:
            got = run(technique, scheduler=sched)
        assert runner._simulated.cache_info().misses == sims
        assert got == points(technique)
        assert len(ResultStore(tmp_path)) == len(got)

        metrics = ExecutionMetrics()
        with Scheduler(
            max_workers=1, store=ResultStore(tmp_path), metrics=metrics
        ) as fresh:
            again = run(technique, scheduler=fresh)
        assert again == got
        assert metrics.jobs_executed == 0
        assert metrics.cache_hits == len(got)


def test_temperature_sweep_equals_figure_point(technique):
    got = temperature_sweep("gcc", technique, temps_c=TEMPS, n_ops=N_OPS)
    assert runner._simulated.cache_info().misses == 2
    assert got == [
        figure_point("gcc", technique, temp_c=t, n_ops=N_OPS) for t in TEMPS
    ]
    assert runner._simulated.cache_info().misses == 2


def test_temperature_sensitivity_equals_figure_point():
    got = temperature_sensitivity("gcc", temps_c=TEMPS, n_ops=N_OPS)
    assert runner._simulated.cache_info().misses == 3  # base, drowsy, gated

    def net(technique, t):
        return figure_point(
            "gcc", technique, l2_latency=5, temp_c=t, n_ops=N_OPS
        ).net_savings_pct

    assert got == [
        TemperaturePoint(
            temp_c=t,
            drowsy_net_pct=net(drowsy_technique(), t),
            gated_net_pct=net(gated_vss_technique(), t),
        )
        for t in TEMPS
    ]
    assert runner._simulated.cache_info().misses == 3


def test_temperature_sweep_orders_and_grows():
    temps = (45.0, 85.0, 125.0)
    results = temperature_sweep(
        "mcf", drowsy_technique(), temps_c=temps, n_ops=4_000
    )
    assert tuple(r.temp_c for r in results) == temps
    # Leakage grows with T, so net savings do too.
    savings = [r.net_savings_pct for r in results]
    assert savings == sorted(savings)


def test_interval_sweep_temps_axis():
    results = interval_sweep(
        "mcf",
        drowsy_technique(),
        intervals=(2048, 8192),
        n_ops=4_000,
        temps_c=(85.0, 110.0),
    )
    assert [(r.decay_interval, r.temp_c) for r in results] == [
        (2048, 85.0),
        (2048, 110.0),
        (8192, 85.0),
        (8192, 110.0),
    ]
