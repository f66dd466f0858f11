"""Tests for the observability subsystem (``repro.obs``).

The contract under test: disabled (the default) the layer is inert —
no-op spans, dropped counters, no file I/O anywhere on the hot paths —
and enabled it records counters, hierarchical spans, and a structured
JSONL event log without changing a single simulation result.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.memo import LRUMemo
from repro.obs.core import _NULL_SPAN
from repro.obs.events import EVENT_SCHEMA_VERSION, EventLog, read_events
from repro.obs.views import (
    aggregate,
    load_campaign_events,
    render_stats,
    render_trace,
    resolve_events_path,
)


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with the layer disabled and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestDisabledIsInert:
    def test_disabled_by_default(self):
        assert not obs.is_enabled()

    def test_span_is_shared_noop_singleton(self):
        # Zero-overhead contract: no allocation per disabled span.
        assert obs.span("anything") is _NULL_SPAN
        with obs.span("anything"):
            pass
        assert obs.span_stats() == {}

    def test_incr_drops_counts(self):
        obs.incr("x", 5)
        assert obs.counters() == {}

    def test_emit_drops_events(self, tmp_path):
        obs.emit("run_started", spec="abc")  # must not raise
        assert obs.log_path() is None

    def test_phase_is_noop(self):
        with obs.phase("tables"):
            obs.incr("y")
        assert obs.counters() == {}


class TestCountersAndSpans:
    def test_counters_accumulate(self):
        obs.enable()
        obs.incr("a")
        obs.incr("a", 2)
        obs.incr("b", 0.5)
        assert obs.counters() == {"a": 3, "b": 0.5}

    def test_spans_nest_into_slash_paths(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        stats = obs.span_stats()
        assert stats["outer"]["count"] == 1
        assert stats["outer/inner"]["count"] == 2
        assert stats["outer"]["total_s"] >= stats["outer/inner"]["total_s"]

    def test_reset_clears_everything(self):
        obs.enable()
        obs.incr("a")
        with obs.span("s"):
            pass
        obs.reset()
        assert obs.counters() == {}
        assert obs.span_stats() == {}

    def test_disable_then_incr_is_dropped(self):
        obs.enable()
        obs.incr("a")
        obs.disable()
        obs.incr("a")
        assert obs.counters() == {"a": 1}


class TestEventLog:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.write("run_started", None, {"spec": "abc", "slot": 0})
        log.write("run_finished", "fig1", {"spec": "abc", "wall_s": 0.5})
        log.close()
        events = list(read_events(path))
        assert events[0]["event"] == "log_opened"
        assert events[0]["schema_version"] == EVENT_SCHEMA_VERSION
        assert events[1]["event"] == "run_started"
        assert events[1]["spec"] == "abc"
        assert events[2]["phase"] == "fig1"
        assert all("t" in e and "pid" in e for e in events)

    def test_torn_lines_are_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.write("run_started", None, {"spec": "abc"})
        log.close()
        with path.open("a") as fh:
            fh.write('{"event": "run_finis')  # torn write
        events = list(read_events(path))
        assert [e["event"] for e in events] == ["log_opened", "run_started"]

    def test_enable_attaches_log_and_emit_writes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        obs.enable(path)
        assert obs.log_path() == str(path)
        obs.emit("cache_hit", spec="abc", source="store")
        with obs.phase("tables"):
            obs.emit("run_started", spec="def")
        obs.disable()
        events = list(read_events(path))
        kinds = [e["event"] for e in events]
        assert kinds == [
            "log_opened",
            "cache_hit",
            "phase_started",
            "run_started",
            "phase_finished",
        ]
        # Events inside a phase are stamped with it.
        assert events[3]["phase"] == "tables"
        finish = events[4]
        assert finish["wall_s"] >= 0.0

    def test_enable_without_log_still_counts(self):
        obs.enable()
        assert obs.log_path() is None
        obs.emit("run_started", spec="x")  # no log attached: dropped
        obs.incr("a")
        assert obs.counters() == {"a": 1}


class TestViews:
    def _write_log(self, path):
        log = EventLog(path)
        log.write("phase_started", "fig1", {"name": "fig1"})
        log.write("run_started", "fig1", {"spec": "a" * 64, "slot": 0})
        log.write(
            "run_finished",
            "fig1",
            {"spec": "a" * 64, "slot": 0, "wall_s": 1.5, "cpu_s": 1.4,
             "max_rss_kb": 1000.0, "worker": 1234},
        )
        log.write("cache_hit", "fig1", {"spec": "b" * 64, "source": "store"})
        log.write("run_retried", "fig1", {"spec": "c" * 64, "attempt": 1})
        log.write("phase_finished", "fig1", {"name": "fig1", "wall_s": 2.0})
        log.write(
            "counters", None,
            {"counters": {"solver.memo_hits": 7},
             "spans": {"x/y": {"count": 2, "total_s": 0.1}}},
        )
        log.close()

    def test_resolve_accepts_dir_and_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write_log(path)
        assert resolve_events_path(tmp_path) == path
        assert resolve_events_path(path) == path
        with pytest.raises(FileNotFoundError, match="no event log"):
            resolve_events_path(tmp_path / "nowhere")

    def test_aggregate(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write_log(path)
        summary = aggregate(load_campaign_events(path))
        phase = summary.phases["fig1"]
        assert phase.runs_started == 1
        assert phase.runs_finished == 1
        assert phase.cache_hits == 1
        assert phase.retries == 1
        assert phase.wall_s == 2.0
        assert phase.run_wall_s == 1.5
        assert summary.max_rss_kb == 1000.0
        assert summary.counters["solver.memo_hits"] == 7
        assert summary.spans["x/y"]["count"] == 2
        assert summary.slowest_runs[0]["spec"] == "a" * 64

    def test_render_trace_and_stats(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write_log(path)
        events = load_campaign_events(path)
        trace = render_trace(events, limit=5)
        assert "run_finished" in trace
        assert "clipped" in trace
        stats = render_stats(aggregate(events))
        assert "runs executed" in stats
        assert "solver.memo_hits" in stats
        assert "x/y" in stats


class TestFailurePaths:
    """The degraded campaigns: failures, retries, timeouts, torn logs."""

    def _write_failure_log(self, path):
        log = EventLog(path)
        log.write("phase_started", "fig1", {"name": "fig1"})
        log.write("run_started", "fig1", {"spec": "a" * 64, "slot": 0})
        log.write(
            "run_failed",
            "fig1",
            {"spec": "a" * 64, "error": "ValueError: boom"},
        )
        log.write("run_retried", "fig1", {"spec": "a" * 64, "attempt": 2})
        log.write("run_timeout", "fig1", {"spec": "b" * 64, "timeout_s": 60})
        log.write(
            "run_requeued",
            "fig1",
            {"spec": "b" * 64, "reason": "pool timeout"},
        )
        log.write(
            "run_finished",
            "fig1",
            {"spec": "a" * 64, "slot": 0, "wall_s": 0.2},
        )
        log.close()
        with path.open("a") as fh:
            fh.write('{"event": "run_finis')  # torn final line (crash)
        return path

    def test_aggregate_counts_every_failure_kind(self, tmp_path):
        path = self._write_failure_log(tmp_path / "events.jsonl")
        summary = aggregate(read_events(path))
        phase = summary.phases["fig1"]
        assert phase.failures == 1
        assert phase.retries == 1
        assert phase.timeouts == 1
        assert phase.requeues == 1
        assert phase.runs_finished == 1  # the torn duplicate is dropped
        assert summary.events_total == 8  # log_opened + 7 intact events

    def test_requeue_is_not_double_counted_as_retry(self, tmp_path):
        """Regression: abandoned pool jobs used to emit run_retried with
        attempt=0 on top of their run_timeout, so `repro stats` reported
        them as both timeouts and retries.  A requeue is its own bucket,
        matching the ExecutionMetrics accounting."""
        path = self._write_failure_log(tmp_path / "events.jsonl")
        summary = aggregate(read_events(path))
        phase = summary.phases["fig1"]
        # The timed-out spec ("b") contributes one timeout and one
        # requeue — and exactly zero retries (those belong to "a").
        assert (phase.timeouts, phase.requeues, phase.retries) == (1, 1, 1)

    def test_render_trace_surfaces_failure_detail(self, tmp_path):
        path = self._write_failure_log(tmp_path / "events.jsonl")
        trace = render_trace(read_events(path))
        assert "run_failed" in trace
        assert "ValueError: boom" in trace
        assert "attempt 2" in trace
        assert "run_timeout" in trace
        assert "run_requeued" in trace
        assert "pool timeout" in trace

    def test_render_stats_counts_failures(self, tmp_path):
        path = self._write_failure_log(tmp_path / "events.jsonl")
        stats = render_stats(aggregate(read_events(path)))
        assert "failures" in stats
        assert "timeouts" in stats
        assert "requeued" in stats


class TestEventLogRotation:
    def test_existing_log_rotates_to_dot_one(self, tmp_path):
        """Re-running a campaign into the same directory must not clobber
        the previous evidence: the old log moves to ``events.jsonl.1``."""
        path = tmp_path / "events.jsonl"
        first = EventLog(path)
        first.write("run_started", None, {"spec": "old" * 21 + "x"})
        first.close()
        second = EventLog(path)
        second.write("run_started", None, {"spec": "new" * 21 + "x"})
        second.close()
        rotated = tmp_path / "events.jsonl.1"
        assert rotated.is_file()
        old_events = list(read_events(rotated))
        new_events = list(read_events(path))
        assert old_events[1]["spec"].startswith("old")
        assert new_events[1]["spec"].startswith("new")

    def test_third_run_keeps_exactly_one_generation(self, tmp_path):
        path = tmp_path / "events.jsonl"
        for generation in ("g1", "g2", "g3"):
            log = EventLog(path)
            log.write("run_started", None, {"spec": generation})
            log.close()
        assert list(read_events(path))[1]["spec"] == "g3"
        assert list(read_events(tmp_path / "events.jsonl.1"))[1]["spec"] == "g2"
        assert not (tmp_path / "events.jsonl.2").exists()


class TestTimeseriesStaysOutOfResults:
    def test_store_bytes_identical_with_obs_on(self, tmp_path):
        """The telemetry channel must not leak into the content-addressed
        result store: stored payload bytes are identical with obs off and
        on, and never mention the timeseries."""
        from repro.exec.scheduler import Scheduler
        from repro.exec.spec import RunSpec
        from repro.exec.store import ResultStore
        from repro.experiments.runner import clear_caches

        spec = RunSpec(benchmark="gcc", technique="drowsy", n_ops=1500)

        clear_caches()
        store_off = ResultStore(tmp_path / "off")
        Scheduler(store=store_off).run([spec])

        clear_caches()
        obs.enable(tmp_path / "events.jsonl")
        store_on = ResultStore(tmp_path / "on")
        Scheduler(store=store_on).run([spec])
        obs.disable()

        key = spec.content_hash()
        blob_off = (tmp_path / "off" / key[:2] / f"{key}.json").read_bytes()
        blob_on = (tmp_path / "on" / key[:2] / f"{key}.json").read_bytes()
        assert blob_off == blob_on
        assert b"timeseries" not in blob_on
        # ... while the telemetry itself went to the sidecar file.
        assert (tmp_path / "timeseries.jsonl").is_file()


class TestBitIdentityWithObsEnabled:
    def test_figure_point_identical_and_counters_populated(self, tmp_path):
        """Acceptance: the instrumented hot paths yield bit-identical
        results with observability on, and the counters actually move."""
        from dataclasses import fields

        from repro.experiments.runner import (
            clear_caches,
            figure_point,
            technique_by_name,
        )
        from repro.leakctl.energy import NetSavingsResult

        kwargs = dict(l2_latency=5, n_ops=1500)
        tech = technique_by_name("drowsy")
        clear_caches()
        plain = figure_point("gcc", tech, **kwargs)
        clear_caches()
        obs.enable(tmp_path / "events.jsonl")
        observed = figure_point("gcc", tech, **kwargs)
        counters = obs.counters()
        spans = obs.span_stats()
        obs.disable()
        for f in fields(NetSavingsResult):
            assert getattr(plain, f.name) == getattr(observed, f.name), f.name
        assert counters["runner.runs"] >= 2  # baseline + technique
        assert counters["runner.figure_points"] == 1
        assert counters["pipeline.runs"] >= 2
        assert counters["pipeline.cycles"] > 0
        assert counters["solver.memo_misses"] > 0
        assert "runner.pipeline_run" in spans


class TestLRUMemo:
    def test_bounded_with_lru_eviction(self):
        memo = LRUMemo(maxsize=2)
        memo["a"] = 1
        memo["b"] = 2
        assert memo.get("a") == 1  # refresh a; b is now LRU
        memo["c"] = 3
        assert len(memo) == 2
        assert memo.evictions == 1
        assert memo.get("b") is None
        assert memo.get("a") == 1
        assert memo.get("c") == 3

    def test_contains_and_clear(self):
        memo = LRUMemo(maxsize=4)
        memo["k"] = "v"
        assert "k" in memo
        memo.clear()
        assert "k" not in memo
        assert len(memo) == 0

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            LRUMemo(maxsize=0)

    def test_cache_info_counts_hits_misses_and_size(self):
        memo = LRUMemo(maxsize=2)

        def fetch(key):
            if memo.get(key) is None:
                memo[key] = key.upper()

        # miss
        fetch("a")
        assert memo.cache_info() == (0, 1, 2, 1)
        # hit
        fetch("a")
        assert memo.cache_info() == (1, 1, 2, 1)
        # miss
        fetch("b")
        assert memo.cache_info().misses == 2
        assert memo.cache_info().currsize == 2
        # miss & evict
        fetch("c")
        info = memo.cache_info()
        assert (info.hits, info.misses, info.maxsize, info.currsize) == (1, 3, 2, 2)
        assert memo.evictions == 1

    def test_analytic_memos_report_cache_info(self, node70):
        """A repeated DC solve, k_design derivation and residual fraction
        each miss once, then hit."""
        from repro.circuits.library import (
            _RESIDUAL_MEMO,
            gated_residual_fraction,
            nand2,
        )
        from repro.circuits.solver import _SOLVE_MEMO, LeakageSolver
        from repro.leakage.kdesign import _KDESIGN_MEMO, derive_kdesign

        def twice(memo, call):
            before = memo.cache_info()
            call()
            call()
            after = memo.cache_info()
            return after.hits - before.hits, after.misses - before.misses

        solver = LeakageSolver(node70, vdd=0.85)
        assert twice(
            _SOLVE_MEMO, lambda: solver.solve(nand2(), {"x": 0, "y": 1})
        ) == (1, 1)
        assert twice(
            _KDESIGN_MEMO, lambda: derive_kdesign(nand2(), node70, vdd=0.9)
        ) == (1, 1)
        assert twice(
            _RESIDUAL_MEMO, lambda: gated_residual_fraction(node70, vdd=0.9)
        ) == (1, 1)

    def test_hot_path_memos_are_bounded(self):
        """The PR-2 memo dicts that grew without bound are now LRU-capped."""
        from repro.circuits.library import _RESIDUAL_MEMO
        from repro.circuits.solver import _SOLVE_MEMO
        from repro.leakage.kdesign import _KDESIGN_MEMO

        for memo in (_SOLVE_MEMO, _KDESIGN_MEMO, _RESIDUAL_MEMO):
            assert isinstance(memo, LRUMemo)
            assert memo.maxsize >= 256


class TestResetAll:
    def test_reset_all_empties_every_analytic_memo(self):
        """One switch clears the solver, kdesign, and residual memos (and
        the kdesign surface-fit cache riding on them) together."""
        from repro.circuits.library import _RESIDUAL_MEMO
        from repro.circuits.solver import _SOLVE_MEMO
        from repro.leakage.kdesign import _KDESIGN_MEMO, kdesign_surface
        from repro.memo import reset_all

        # Populate all three layers through their public entry point.
        kdesign_surface("nand2", "70nm")
        assert len(_SOLVE_MEMO) > 0
        assert len(_KDESIGN_MEMO) > 0
        assert kdesign_surface.cache_info().currsize > 0
        _RESIDUAL_MEMO["probe"] = 1.0
        assert len(_RESIDUAL_MEMO) > 0

        reset_all()
        assert len(_SOLVE_MEMO) == 0
        assert len(_KDESIGN_MEMO) == 0
        assert len(_RESIDUAL_MEMO) == 0
        assert kdesign_surface.cache_info().currsize == 0

    def test_new_memos_register_automatically(self):
        from repro.memo import reset_all

        memo = LRUMemo(maxsize=4)
        memo["k"] = "v"
        reset_all()
        assert len(memo) == 0

    def test_register_reset_runs_auxiliary_callable(self):
        from repro.memo import register_reset, reset_all

        calls = []
        fn = lambda: calls.append(1)  # noqa: E731
        register_reset(fn)
        register_reset(fn)  # idempotent by identity
        reset_all()
        assert calls == [1]

    def test_clear_caches_routes_through_reset_all(self):
        """runner.clear_caches must leave the analytic layer fully empty."""
        from repro.circuits.solver import _SOLVE_MEMO
        from repro.experiments.runner import clear_caches
        from repro.leakage.kdesign import _KDESIGN_MEMO, kdesign_surface

        kdesign_surface("nand2", "70nm")
        assert len(_SOLVE_MEMO) > 0
        clear_caches()
        assert len(_SOLVE_MEMO) == 0
        assert len(_KDESIGN_MEMO) == 0
        assert kdesign_surface.cache_info().currsize == 0


class TestCampaignEventLog:
    def test_fresh_reproduce_writes_trace_with_runs_and_hits(self, tmp_path):
        """Acceptance: ``repro trace`` on a fresh campaign shows per-run
        events (including cache hits on the warm rerun) and the per-phase
        breakdown."""
        from repro.experiments.campaign import run_campaign

        out = tmp_path / "res"
        run_campaign(out, quick=True, benchmarks=("gcc",))
        assert not obs.is_enabled()  # campaign owns and closes its log
        events = load_campaign_events(out)
        kinds = {e["event"] for e in events}
        assert "run_started" in kinds
        assert "run_finished" in kinds
        assert "phase_finished" in kinds
        assert "counters" in kinds
        summary = aggregate(events)
        assert summary.runs_finished > 0
        assert "fig12_13_best_interval" in summary.phases
        assert summary.counters.get("pipeline.runs", 0) > 0
        # The fig12_13 sweep re-requests points already in the store, so a
        # single campaign already produces cache hits.
        assert summary.cache_hits > 0
        trace = render_trace(events, limit=10)
        assert "per-phase breakdown" in trace

    def test_no_obs_flag_writes_no_log(self, tmp_path):
        from repro.experiments.campaign import run_campaign

        out = tmp_path / "res"
        run_campaign(out, quick=True, benchmarks=("gcc",), observe=False)
        assert not (out / "events.jsonl").exists()
