"""Tests for the experiment runner and figure machinery (fast, small runs)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cpu.config import MachineConfig
from repro.experiments.figures import table_1, table_2
from repro.experiments.reporting import (
    render_comparison,
    render_interval_table,
    render_machine_table,
    render_settling_table,
    render_table,
)
from repro.experiments.runner import (
    figure_point,
    run_once,
    technique_by_name,
)
from repro.leakctl.base import (
    DecayPolicy,
    drowsy_technique,
    gated_vss_technique,
)

FAST = dict(n_ops=3000, seed=1)


class TestRunOnce:
    def test_baseline_run_completes(self, machine):
        out = run_once("gcc", technique=None, machine=machine, **FAST)
        assert out.stats.committed == 3000
        assert out.stats.cycles > 0
        assert out.standby is None

    def test_technique_run_records_standby(self, machine):
        out = run_once(
            "gcc", technique=drowsy_technique(), machine=machine, **FAST
        )
        assert out.standby is not None
        assert out.standby.total_cycles == out.stats.cycles
        assert out.controlled.standby_population_check()

    def test_warmup_trains_predictor_and_caches(self, machine):
        cold = run_once(
            "gcc", technique=None, machine=machine, n_ops=3000, warmup_ops=0
        )
        warm = run_once(
            "gcc", technique=None, machine=machine, n_ops=3000, warmup_ops=20000
        )
        assert warm.stats.mispredict_rate < cold.stats.mispredict_rate
        assert (
            warm.hierarchy.l1d_stats.miss_rate < cold.hierarchy.l1d_stats.miss_rate
        )

    def test_gated_runs_and_counts_induced(self, machine):
        out = run_once(
            "gcc",
            technique=gated_vss_technique(),
            machine=machine,
            n_ops=6000,
            decay_interval=512,
        )
        assert out.standby.induced_misses > 0

    def test_adaptive_flag_uses_adaptive_cache(self, machine):
        from repro.leakctl.adaptive import AdaptiveControlledCache

        out = run_once(
            "gcc",
            technique=gated_vss_technique(),
            machine=machine,
            adaptive=True,
            **FAST,
        )
        assert isinstance(out.controlled, AdaptiveControlledCache)

    def test_technique_by_name(self):
        assert technique_by_name("drowsy").state_preserving
        assert not technique_by_name("gated").state_preserving
        assert technique_by_name("gated-vss").kind.value == "gated-vss"
        assert technique_by_name("rbb").rbb_bias > 0
        with pytest.raises(KeyError):
            technique_by_name("quantum")


class TestFigurePoint:
    def test_result_fields_coherent(self):
        r = figure_point(
            "perl", drowsy_technique(), l2_latency=5, temp_c=110.0, **FAST
        )
        assert r.benchmark == "perl"
        assert r.technique == "drowsy"
        assert r.l2_latency == 5
        assert r.leak_baseline_j > 0
        assert 0.0 <= r.turnoff_ratio <= 1.0
        assert r.gross_savings_pct >= r.net_savings_pct - 1e-9

    def test_baseline_memoised_across_points(self):
        from repro.experiments import runner

        figure_point("gcc", drowsy_technique(), l2_latency=5, **FAST)
        info = runner._simulated.cache_info()
        assert (info.hits, info.misses) == (0, 2)
        figure_point("gcc", gated_vss_technique(), l2_latency=5, **FAST)
        info = runner._simulated.cache_info()
        # The baseline is shared; only the new technique run simulates.
        assert (info.hits, info.misses) == (1, 3)

    def test_deterministic(self):
        a = figure_point("twolf", drowsy_technique(), l2_latency=8, **FAST)
        b = figure_point("twolf", drowsy_technique(), l2_latency=8, **FAST)
        assert a.net_savings_pct == b.net_savings_pct
        assert a.technique_cycles == b.technique_cycles

    def test_temperature_affects_energy_not_timing(self):
        hot = figure_point("gap", drowsy_technique(), temp_c=110.0, **FAST)
        cool = figure_point("gap", drowsy_technique(), temp_c=85.0, **FAST)
        assert hot.technique_cycles == cool.technique_cycles
        assert hot.leak_baseline_j > cool.leak_baseline_j

    def test_dvs_hook_scales_leakage_at_stake(self):
        """The DVS extension: a lower supply shrinks the leakage budget
        (DIBL + V*I) that the techniques compete over."""
        nominal = figure_point("gap", gated_vss_technique(), vdd=0.9, **FAST)
        scaled = figure_point("gap", gated_vss_technique(), vdd=0.7, **FAST)
        assert scaled.leak_baseline_j < 0.7 * nominal.leak_baseline_j
        # Timing is unaffected (frequency scaling is not modelled).
        assert scaled.technique_cycles == nominal.technique_cycles


def _reference_figure_point(
    benchmark,
    technique,
    *,
    l2_latency,
    temp_c,
    decay_interval=4096,
    policy=DecayPolicy.NOACCESS,
    adaptive=False,
    vdd=0.9,
    target="l1d",
    n_ops,
):
    """A figure point without any memo: simulate both runs at ``vdd`` and
    hand their live accountants to :func:`net_savings`."""
    from repro.experiments.runner import _leakage_model_cached
    from repro.leakctl.energy import net_savings
    from repro.tech.nodes import PAPER_FREQUENCY_HZ

    machine = MachineConfig().with_l2_latency(l2_latency)
    base = run_once(
        benchmark, technique=None, machine=machine, n_ops=n_ops, vdd=vdd
    )
    tech = run_once(
        benchmark,
        technique=technique,
        machine=machine,
        decay_interval=decay_interval,
        policy=policy,
        adaptive=adaptive,
        n_ops=n_ops,
        vdd=vdd,
        target=target,
    )
    return net_savings(
        benchmark=benchmark,
        technique=technique,
        decay_interval=decay_interval,
        l2_latency=l2_latency,
        temp_c=temp_c,
        model=_leakage_model_cached(temp_c, vdd, target),
        frequency_hz=PAPER_FREQUENCY_HZ,
        baseline_cycles=base.stats.cycles,
        baseline_accountant=base.accountant,
        technique_cycles=tech.stats.cycles,
        technique_accountant=tech.accountant,
        standby_stats=tech.standby,
        controlled_target=target,
    )


class TestSharedSimulations:
    """One simulation per T/Vdd-free key, reduced exactly per point."""

    N_OPS = 1500

    def test_reduction_equals_unshared_reference(self):
        """Points sharing simulations equal the unmemoised algebra
        exactly — a memo key that drops an input, or counts re-priced in
        another order, breaks dataclass equality somewhere here."""
        from repro.experiments import runner

        grid = [
            dict(technique=technique_by_name(name), decay_interval=interval,
                 l2_latency=l2, temp_c=temp_c, vdd=vdd)
            for name in ("drowsy", "gated-vss", "rbb")
            for interval in (1024, 4096)
            for l2 in (5, 17)
            for temp_c in (85.0, 110.0)
            for vdd in (0.85, 0.95)
        ]
        # Each differs from a grid point in exactly one simulation input.
        drowsy_5 = dict(decay_interval=4096, l2_latency=5, temp_c=85.0,
                        vdd=0.95)
        grid += [
            dict(drowsy_5, technique=drowsy_technique(), adaptive=True),
            dict(drowsy_5, technique=drowsy_technique(), target="l2"),
            dict(drowsy_5, technique=drowsy_technique(),
                 policy=DecayPolicy.SIMPLE),
            dict(drowsy_5, technique=replace(drowsy_technique(),
                                             decay_tags=False)),
        ]
        for point in grid:
            kwargs = dict(point, n_ops=self.N_OPS)
            assert figure_point("gcc", **kwargs) == _reference_figure_point(
                "gcc", **kwargs
            ), point
        # 3 techniques x 2 intervals x 2 L2, 4 one-input variants, and
        # one baseline per L2 latency.
        assert runner._simulated.cache_info().misses == 12 + 4 + 2

    def test_cube_simulates_once_per_key(self, monkeypatch):
        from repro.exec import RunSpec, Scheduler
        from repro.experiments import runner
        from repro.experiments.runner import (
            clear_caches,
            clear_simulation_cache,
        )

        real_run_once = runner.run_once
        sims = []

        def counting_run_once(benchmark, **kwargs):
            sims.append(kwargs["technique"] is None)
            return real_run_once(benchmark, **kwargs)

        monkeypatch.setattr(runner, "run_once", counting_run_once)
        specs = [
            RunSpec(benchmark="gcc", technique="drowsy", decay_interval=interval,
                    l2_latency=l2, temp_c=temp_c, vdd=vdd, n_ops=self.N_OPS)
            for interval in (1024, 4096)
            for l2 in (5, 17)
            for temp_c in (60.0, 85.0, 110.0)
            for vdd in (0.85, 0.95)
        ]
        results = Scheduler().run(specs)
        # One technique run per (interval, L2), one baseline per L2.
        assert sims.count(False) == 4
        assert sims.count(True) == 2
        # Re-execute every point from an empty simulation memo (and the
        # first from empty memos throughout), so a shared summary cannot
        # agree with itself.
        clear_caches()
        for spec, result in zip(specs, results):
            clear_simulation_cache()
            assert spec.execute() == result


class TestWarmupMemo:
    """One functional warmup per trace, shared across L2 latencies."""

    def test_one_warmup_serves_every_l2_latency(self):
        """Counted like fsspec's ``test_block_cache_lru``, from empty
        memos.  The warmup reads the cache geometries and predictor sizes
        but no latency, so its snapshot is keyed without one: the first
        run misses and replays the warmup, then a technique run at the
        same L2 latency and a baseline at another one both restore it.
        Restoring must be invisible: the L2-17 run equals one whose
        warmup was replayed."""
        from repro.experiments import runner

        l2_5 = MachineConfig().with_l2_latency(5)
        l2_17 = MachineConfig().with_l2_latency(17)
        warmups, traces = runner._WARMUP_MEMO, runner._TRACE_MEMO
        runner.clear_caches()
        # Hit and miss counters survive clear(); count from here.
        base = warmups.cache_info()

        def seen():
            info = warmups.cache_info()
            return info.misses - base.misses, info.hits - base.hits, info.currsize

        # miss
        run_once("gcc", technique=None, machine=l2_5, **FAST)
        assert seen() == (1, 0, 1)
        # hit: the technique run at the same latency
        run_once("gcc", technique=drowsy_technique(), machine=l2_5, **FAST)
        assert seen() == (1, 1, 1)
        # hit: the baseline at another latency
        restored = run_once("gcc", technique=None, machine=l2_17, **FAST)
        assert seen() == (1, 2, 1)
        assert traces.cache_info().currsize == 1

        runner.clear_caches()
        replayed = run_once("gcc", technique=None, machine=l2_17, **FAST)
        assert seen() == (2, 2, 1)
        assert restored.stats == replayed.stats
        assert list(restored.accountant.counts.items()) == list(
            replayed.accountant.counts.items()
        )
        assert restored.accountant.cycles == replayed.accountant.cycles


class TestTablesAndReporting:
    def test_table_1_matches_paper(self):
        t = table_1()
        assert t["Low leak mode to high"] == {"drowsy": 3, "gated-vss": 3}
        assert t["High leak to low"] == {"drowsy": 3, "gated-vss": 30}

    def test_table_2_contains_paper_parameters(self):
        t = table_2()
        assert t["Instruction window"] == "80-RUU, 40-LSQ"
        assert "64 KB, 2-way LRU" in t["L1 D-cache"]
        assert "2 MB" in t["L2"]
        assert "100 cycles" == t["Memory"]

    def test_render_table_alignment(self):
        out = render_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len({len(l) for l in lines}) == 1  # rectangular

    def test_render_settling_and_machine(self):
        assert "30" in render_settling_table(table_1())
        assert "80-RUU" in render_machine_table(table_2())

    def test_render_interval_table(self):
        text = render_interval_table({"gcc": {"drowsy": 512, "gated-vss": 4096}})
        assert "gcc" in text and "4096" in text

    def test_render_comparison_smoke(self):
        from repro.experiments.figures import comparison_figure

        fig = comparison_figure(
            l2_latency=5,
            temp_c=110.0,
            title="smoke",
            benchmarks=("gcc",),
            n_ops=2000,
        )
        text = render_comparison(fig)
        assert "gcc" in text and "AVERAGE" in text


class TestReplication:
    def test_replicate_summarises_across_seeds(self):
        from repro.experiments.sweeps import replicate

        summary = replicate(
            "gcc", drowsy_technique(), seeds=(1, 2), l2_latency=5,
            n_ops=3000,
        )
        assert summary.n == 2
        assert summary.net_savings_std >= 0.0
        assert summary.technique == "drowsy"

    def test_replicate_needs_seeds(self):
        from repro.experiments.sweeps import replicate

        with pytest.raises(ValueError):
            replicate("gcc", drowsy_technique(), seeds=())

    def test_single_seed_zero_spread(self):
        from repro.experiments.sweeps import replicate

        summary = replicate(
            "gzip", gated_vss_technique(), seeds=(4,), l2_latency=5,
            n_ops=3000,
        )
        assert summary.net_savings_std == 0.0
        assert summary.perf_loss_std == 0.0


class TestOccupancyTelemetry:
    def test_occupancy_trace_records_at_ticks(self, machine):
        from repro.cache.cache import Cache
        from repro.leakctl.controlled import ControlledCache

        ctl = ControlledCache(
            Cache("l1d", machine.l1d_geometry),
            drowsy_technique(),
            decay_interval=512,
        )
        ctl.record_occupancy()
        ctl.advance(5000)
        trace = ctl.occupancy_trace
        assert len(trace) == 5000 // 128  # one sample per global tick
        cycles = [c for c, _ in trace]
        assert cycles == sorted(cycles)
        # Everything idle: the population ramps up and saturates.
        assert trace[-1][1] == machine.l1d_geometry.n_lines

    def test_occupancy_off_by_default(self, machine):
        from repro.cache.cache import Cache
        from repro.leakctl.controlled import ControlledCache

        ctl = ControlledCache(
            Cache("l1d", machine.l1d_geometry),
            drowsy_technique(),
            decay_interval=512,
        )
        ctl.advance(2000)
        assert ctl.occupancy_trace == []
