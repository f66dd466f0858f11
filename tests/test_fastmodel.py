"""Tests for the fast analytical-timing engine and its cross-validation."""

from __future__ import annotations

import pytest

from repro.cpu.config import MachineConfig
from repro.experiments.runner import figure_point, run_once
from repro.leakctl.base import drowsy_technique, gated_vss_technique


class TestFastEngine:
    def test_unknown_engine_rejected(self, machine):
        with pytest.raises(ValueError, match="engine"):
            run_once("gcc", technique=None, machine=machine, engine="warp",
                     n_ops=100)

    def test_runs_and_commits_everything(self, machine):
        out = run_once(
            "gcc", technique=None, machine=machine, engine="fast", n_ops=5000
        )
        assert out.stats.committed == 5000
        assert out.stats.cycles > 0

    def test_deterministic(self, machine):
        a = run_once("gzip", technique=None, machine=machine, engine="fast",
                     n_ops=4000)
        b = run_once("gzip", technique=None, machine=machine, engine="fast",
                     n_ops=4000)
        assert a.stats.cycles == b.stats.cycles
        assert a.accountant.total_energy() == pytest.approx(
            b.accountant.total_energy()
        )

    def test_cache_state_identical_to_reference(self, machine):
        """Both engines drive the same hierarchy: miss counts must agree."""
        slow = run_once("twolf", technique=None, machine=machine, n_ops=8000)
        fast = run_once(
            "twolf", technique=None, machine=machine, engine="fast", n_ops=8000
        )
        assert fast.hierarchy.l1d_stats.accesses == slow.hierarchy.l1d_stats.accesses
        assert fast.hierarchy.l1d_stats.misses == slow.hierarchy.l1d_stats.misses

    def test_cycle_estimate_within_band(self, machine):
        """The analytical estimate tracks the reference within ~30 %."""
        for bench in ("gcc", "gzip", "perl"):
            slow = run_once(bench, technique=None, machine=machine)
            fast = run_once(bench, technique=None, machine=machine, engine="fast")
            ratio = fast.stats.cycles / slow.stats.cycles
            assert 0.7 < ratio < 1.3, (bench, ratio)

    def test_much_faster_on_memory_bound_workloads(self, machine):
        """mcf's 200k reference cycles cost the fast engine nothing extra:
        wall time scales with ops, not cycles."""
        import time

        # Untimed warmers: both engines share the memoised trace and warm
        # machine state, so the timed calls compare engine speed alone
        # rather than who pays the one-off trace/warmup construction.
        run_once("mcf", technique=None, machine=machine, engine="fast")
        run_once("mcf", technique=None, machine=machine)

        # Min-of-3 per engine: scheduling noise on a loaded machine only
        # ever adds time, and a single-shot comparison flakes under load.
        def timed(**kwargs) -> float:
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                run_once("mcf", technique=None, machine=machine, **kwargs)
                best = min(best, time.perf_counter() - t0)
            return best

        assert timed(engine="fast") < timed()


class TestCrossValidation:
    """The fast engine must agree with the reference on the paper's verdicts."""

    BENCHES = ("gcc", "gzip", "twolf", "perl")

    def _avg(self, engine: str, l2: int, technique) -> float:
        total = 0.0
        for bench in self.BENCHES:
            r = figure_point(
                bench, technique, l2_latency=l2, temp_c=110.0, engine=engine
            )
            total += r.net_savings_pct
        return total / len(self.BENCHES)

    def test_gated_wins_fast_l2_in_both_engines(self):
        dr = self._avg("fast", 5, drowsy_technique())
        gv = self._avg("fast", 5, gated_vss_technique())
        assert gv > dr

    def test_drowsy_wins_slow_l2_in_both_engines(self):
        dr = self._avg("fast", 17, drowsy_technique())
        gv = self._avg("fast", 17, gated_vss_technique())
        assert dr > gv

    def test_savings_levels_track_reference(self):
        for technique in (drowsy_technique(), gated_vss_technique()):
            fast = self._avg("fast", 11, technique)
            ref = self._avg("ooo", 11, technique)
            assert fast == pytest.approx(ref, abs=10.0)
