"""Tests for the parallel execution subsystem (specs and scheduler).

Covers the determinism contract the content-addressed store relies on:
a RunSpec survives pickling across process boundaries and produces
bit-identical results whether executed in-process, in a subprocess, or
through a parallel scheduler.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

import pytest

from repro.exec import ExecutionMetrics, ResultStore, RunSpec, Scheduler
from repro.exec import scheduler as sched_mod
from repro.exec.scheduler import SchedulerError, execute_spec
from repro.leakctl.energy import NetSavingsResult

FAST = dict(l2_latency=5, n_ops=1500)


def assert_results_identical(a: NetSavingsResult, b: NetSavingsResult) -> None:
    for f in fields(NetSavingsResult):
        assert getattr(a, f.name) == getattr(b, f.name), f.name


# Pool entry points for the pool-lifetime tests.  They must be module-level
# so the pool can pickle them by name; each behaves like ``execute_spec``
# in the coordinating process, where the scheduler's serial passes run.

# Where a wedged worker records its pid (set by the test before the fork).
_WEDGE_DIR: str | None = None


def _worker_pid(spec: RunSpec) -> int:
    return os.getpid()


def _exit_in_worker(spec: RunSpec) -> NetSavingsResult:
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return spec.execute()


def _wedge_in_worker(spec: RunSpec) -> NetSavingsResult:
    if multiprocessing.parent_process() is not None:
        Path(_WEDGE_DIR, str(os.getpid())).touch()
        time.sleep(60)
    return spec.execute()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _wait_gone(pids: set[int], timeout_s: float) -> set[int]:
    """Poll until every pid has exited and been reaped; returns the rest."""
    deadline = time.monotonic() + timeout_s
    while True:
        alive = {pid for pid in pids if _alive(pid)}
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.05)


@pytest.fixture
def pools(monkeypatch):
    """Every ProcessPoolExecutor the scheduler builds, in order."""
    real = sched_mod.ProcessPoolExecutor
    built: list = []

    def counting_pool(*args, **kwargs):
        pool = real(*args, **kwargs)
        built.append(pool)
        return pool

    monkeypatch.setattr(sched_mod, "ProcessPoolExecutor", counting_pool)
    return built


class TestRunSpec:
    def test_pickle_round_trip(self):
        spec = RunSpec(benchmark="gcc", technique="drowsy", **FAST)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    def test_json_round_trip(self):
        spec = RunSpec(
            benchmark="mcf", technique="gated-vss", temp_c=85.0,
            decay_interval=2048, adaptive=True, seed=7, **FAST,
        )
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown RunSpec fields"):
            RunSpec.from_dict({"benchmark": "gcc", "technique": "drowsy",
                               "warp_factor": 9})

    def test_validates_enumerated_fields(self):
        with pytest.raises(ValueError, match="technique"):
            RunSpec(benchmark="gcc", technique="quantum")
        with pytest.raises(ValueError, match="policy"):
            RunSpec(benchmark="gcc", technique="drowsy", policy="eager")
        with pytest.raises(ValueError, match="target"):
            RunSpec(benchmark="gcc", technique="drowsy", target="l3")

    def test_execute_matches_figure_point(self):
        from repro.experiments.runner import figure_point, technique_by_name

        spec = RunSpec(benchmark="gcc", technique="drowsy", **FAST)
        direct = figure_point(
            "gcc", technique_by_name("drowsy"),
            l2_latency=FAST["l2_latency"], n_ops=FAST["n_ops"],
        )
        assert_results_identical(spec.execute(), direct)


class TestCrossProcessDeterminism:
    def test_subprocess_result_identical_to_in_process(self):
        """The same spec, run in a worker process and in-process, yields
        bit-identical NetSavingsResult fields — the property that makes
        parallel campaigns equivalent to serial ones."""
        spec = RunSpec(benchmark="gzip", technique="gated-vss", **FAST)
        local = spec.execute()
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(execute_spec, spec).result(timeout=300)
        assert_results_identical(local, remote)


class TestScheduler:
    def _specs(self):
        return [
            RunSpec(benchmark=b, technique=t, **FAST)
            for b in ("gcc", "gzip")
            for t in ("drowsy", "gated-vss")
        ]

    def test_serial_matches_direct_execution(self):
        specs = self._specs()
        results = Scheduler(max_workers=1).run(specs)
        for spec, result in zip(specs, results):
            assert result.benchmark == spec.benchmark
            assert result.technique == spec.technique

    def test_parallel_matches_serial(self):
        specs = self._specs()
        serial = Scheduler(max_workers=1).run(specs)
        parallel = Scheduler(max_workers=2).run(specs)
        for a, b in zip(serial, parallel):
            assert_results_identical(a, b)

    def test_duplicate_specs_executed_once(self, tmp_path):
        spec = RunSpec(benchmark="gcc", technique="drowsy", **FAST)
        store = ResultStore(tmp_path / "store")
        results = Scheduler(max_workers=1, store=store).run([spec, spec, spec])
        assert store.stats.writes == 1
        assert_results_identical(results[0], results[1])
        assert_results_identical(results[0], results[2])

    def test_store_makes_second_batch_all_hits(self, tmp_path):
        specs = self._specs()
        store = ResultStore(tmp_path / "store")
        first = Scheduler(max_workers=1, store=store).run(specs)
        warm_store = ResultStore(tmp_path / "store")
        second = Scheduler(max_workers=1, store=warm_store).run(specs)
        assert warm_store.stats.hit_rate == 1.0
        for a, b in zip(first, second):
            assert_results_identical(a, b)

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        from repro.exec import scheduler as sched_mod

        def broken_pool(*args, **kwargs):
            raise OSError("no /dev/shm in this sandbox")

        monkeypatch.setattr(sched_mod, "ProcessPoolExecutor", broken_pool)
        specs = self._specs()[:2]
        results = Scheduler(max_workers=4).run(specs)
        assert len(results) == 2
        assert results[0].benchmark == specs[0].benchmark

    def test_transient_failure_is_retried(self, monkeypatch):
        from repro.exec import scheduler as sched_mod

        real = sched_mod.execute_spec
        calls = {"n": 0}

        def flaky(spec):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("worker died")
            return real(spec)

        monkeypatch.setattr(sched_mod, "execute_spec", flaky)
        spec = RunSpec(benchmark="gcc", technique="drowsy", **FAST)
        results = Scheduler(max_workers=1, retries=2).run([spec])
        assert results[0].benchmark == "gcc"
        assert calls["n"] == 2

    def test_persistent_failure_raises_scheduler_error(self, monkeypatch):
        from repro.exec import scheduler as sched_mod

        def always_broken(spec):
            raise RuntimeError("deterministic bug")

        monkeypatch.setattr(sched_mod, "execute_spec", always_broken)
        spec = RunSpec(benchmark="gcc", technique="drowsy", **FAST)
        with pytest.raises(SchedulerError, match="failed after 1 retries"):
            Scheduler(max_workers=1, retries=1).run([spec])

    def test_metrics_aggregate_batches(self, tmp_path):
        specs = self._specs()
        store = ResultStore(tmp_path / "store")
        metrics = ExecutionMetrics()
        sched = Scheduler(max_workers=1, store=store, metrics=metrics)
        sched.run(specs)
        sched.run(specs)
        assert metrics.jobs_total == 2 * len(specs)
        assert metrics.jobs_executed == len(specs)
        assert metrics.cache_hits == len(specs)
        assert 0.0 < metrics.hit_rate < 1.0
        payload = metrics.to_dict()
        assert payload["jobs_total"] == 2 * len(specs)
        assert payload["throughput_runs_per_s"] > 0

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            Scheduler(max_workers=0)
        with pytest.raises(ValueError):
            Scheduler(retries=-1)
        with pytest.raises(ValueError, match="timeout_s"):
            Scheduler(timeout_s=0)
        with pytest.raises(ValueError, match="timeout_s"):
            Scheduler(timeout_s=-5.0)
        with pytest.raises(ValueError, match="heartbeat_s"):
            Scheduler(heartbeat_s=0)


class TestPoolTimeout:
    def test_hanging_job_is_abandoned_not_retried(self, monkeypatch):
        """A job that outlives the batch budget is abandoned (its pool is
        shut down with cancel_futures) and re-run serially exactly once,
        counted as a timeout — never double-counted as a retry."""
        import threading
        from concurrent.futures import ThreadPoolExecutor

        from repro.exec import scheduler as sched_mod

        specs = [
            RunSpec(benchmark=b, technique="drowsy", **FAST)
            for b in ("gcc", "gzip")
        ]
        victim = specs[0].content_hash()
        # Precompute the results so the monkeypatched entry point returns
        # instantly — only the deliberate hang consumes wall time, which
        # keeps the test deterministic under a loaded machine.
        expected = {s.content_hash(): s.execute() for s in specs}
        release = threading.Event()
        calls: list[str] = []

        def hang_once(spec):
            key = spec.content_hash()
            calls.append(key)
            if key == victim and calls.count(victim) == 1:
                release.wait(timeout=60)
            return expected[key]

        # Threads (not processes) so the monkeypatched entry point is the
        # one the pool actually runs.
        monkeypatch.setattr(sched_mod, "ProcessPoolExecutor", ThreadPoolExecutor)
        monkeypatch.setattr(sched_mod, "execute_spec", hang_once)
        try:
            metrics = ExecutionMetrics()
            sched = Scheduler(max_workers=2, timeout_s=1.0, metrics=metrics)
            results = sched.run(specs)
            assert len(results) == 2
            for got, spec in zip(results, specs):
                assert_results_identical(got, expected[spec.content_hash()])
            assert metrics.timeouts == 1
            assert metrics.retries == 0
            assert metrics.failures == 0
            # Victim ran twice (hung attempt + serial pass), peer once.
            assert calls.count(victim) == 2
            assert calls.count(specs[1].content_hash()) == 1
        finally:
            release.set()

    def test_pool_timeout_metrics_serialised(self):
        metrics = ExecutionMetrics()
        metrics.timeouts += 3
        assert metrics.to_dict()["timeouts"] == 3


class TestPoolLifetime:
    """One pool per Scheduler: built by the first batch with two or more
    misses, reused by later batches, reaped by close(), and replaced after
    it was abandoned or broken."""

    def _specs(self):
        return [
            RunSpec(benchmark=b, technique=t, **FAST)
            for b in ("gcc", "gzip")
            for t in ("drowsy", "gated-vss")
        ]

    def test_batches_share_one_pool(self, pools, monkeypatch):
        monkeypatch.setattr(sched_mod, "execute_spec", _worker_pid)
        specs = self._specs()
        with Scheduler(max_workers=2) as sched:
            pids = set(sched.run(specs[:2])) | set(sched.run(specs[2:]))
        assert len(pools) == 1
        assert len(pids) <= 2 and os.getpid() not in pids
        assert not any(_alive(pid) for pid in pids)  # reaped by __exit__

    def test_store_hits_build_no_pool(self, pools, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = self._specs()
        Scheduler(max_workers=1, store=store).run(specs)
        with Scheduler(max_workers=2, store=store) as sched:
            sched.run(specs)
        assert pools == []

    def test_close_reaps_workers(self, pools, monkeypatch):
        monkeypatch.setattr(sched_mod, "execute_spec", _worker_pid)
        sched = Scheduler(max_workers=2)
        pids = set(sched.run(self._specs()))
        assert pids and all(_alive(pid) for pid in pids)  # kept between batches
        sched.close()
        assert not any(_alive(pid) for pid in pids)
        sched.close()  # idempotent
        assert len(pools) == 1

    def test_broken_pool_is_replaced(self, pools, monkeypatch):
        specs = self._specs()
        serial = Scheduler(max_workers=1).run(specs)
        metrics = ExecutionMetrics()
        with Scheduler(max_workers=2, metrics=metrics) as sched:
            # Every worker dies on its first job: the pool breaks, and its
            # jobs are retried serially.
            monkeypatch.setattr(sched_mod, "execute_spec", _exit_in_worker)
            broken = sched.run(specs)
            # A worker can die before the last submit; the batch then
            # replaces the pool once more, and that one breaks too.
            built = len(pools)
            monkeypatch.setattr(sched_mod, "execute_spec", execute_spec)
            healed = sched.run(specs)
        assert built >= 1 and len(pools) == built + 1
        assert metrics.retries == len(specs) and metrics.failures == 0
        for a, b, c in zip(serial, broken, healed):
            assert_results_identical(a, b)
            assert_results_identical(a, c)

    def test_pool_whose_idle_worker_died_is_replaced(self, pools, monkeypatch):
        monkeypatch.setattr(sched_mod, "execute_spec", _worker_pid)
        metrics = ExecutionMetrics()
        with Scheduler(max_workers=2, metrics=metrics) as sched:
            pids = set(sched.run(self._specs()))
            os.kill(next(iter(pids)), signal.SIGKILL)
            # The pool notices, marks itself broken, then reaps its workers.
            assert _wait_gone(pids, timeout_s=10.0) == set()
            again = set(sched.run(self._specs()))
        assert len(pools) == 2
        assert not again & pids
        assert metrics.retries == 0 and metrics.failures == 0

    def test_abandoned_pool_workers_are_killed(
        self, pools, monkeypatch, tmp_path
    ):
        """A job wedged past the batch budget does not outlive the batch:
        its worker is killed, and the next batch gets a fresh pool."""
        specs = self._specs()[:2]
        monkeypatch.setattr(f"{__name__}._WEDGE_DIR", str(tmp_path))
        monkeypatch.setattr(sched_mod, "execute_spec", _wedge_in_worker)
        metrics = ExecutionMetrics()
        # Budget: 1 s per job x 2 jobs; every worker job sleeps 60 s.
        sched = Scheduler(max_workers=2, timeout_s=1.0, metrics=metrics)
        try:
            started = time.monotonic()
            abandoned = sched.run(specs)
            assert time.monotonic() - started < 30.0
            assert metrics.timeouts == len(specs)
            wedged = {int(path.name) for path in tmp_path.iterdir()}
            assert wedged
            assert _wait_gone(wedged, timeout_s=5.0) == set()
            monkeypatch.setattr(sched_mod, "execute_spec", execute_spec)
            again = sched.run(specs)
        finally:
            sched.close()
        assert len(pools) == 2
        serial = Scheduler(max_workers=1).run(specs)
        for a, b, c in zip(serial, abandoned, again):
            assert_results_identical(a, b)
            assert_results_identical(a, c)


class TestCampaignIntegration:
    def test_artefacts_identical_at_j1_and_j2(self, tmp_path, monkeypatch):
        """Every artefact of a whole campaign is byte-equal at -j1 and -j2,
        although pool workers carry their memos from batch to batch."""
        from repro.experiments.campaign import run_campaign

        def artefacts(jobs: int) -> dict[str, bytes]:
            # The same relative out dir, so SUMMARY.txt's header matches.
            (tmp_path / f"j{jobs}").mkdir()
            monkeypatch.chdir(tmp_path / f"j{jobs}")
            run_campaign("out", quick=True, benchmarks=("gcc",), jobs=jobs)
            # campaign_metrics.json holds timings, and so does metrics.json,
            # the observability registry snapshot (not an artefact).
            return {
                path.name: path.read_bytes()
                for path in Path("out").iterdir()
                if path.suffix in (".txt", ".json")
                and path.name not in ("campaign_metrics.json", "metrics.json")
            }

        serial, parallel = artefacts(1), artefacts(2)
        assert "SUMMARY.txt" in serial and "fig12_13_best_interval.json" in serial
        assert serial.keys() == parallel.keys()
        for name in serial:
            assert serial[name] == parallel[name], name

    def test_warm_campaign_rerun_hits_store(self, tmp_path):
        """Acceptance: a second reproduce into the same out dir is served
        almost entirely from the result store."""
        from repro.experiments.campaign import run_campaign

        out = tmp_path / "res"
        cold = run_campaign(out, quick=True, benchmarks=("gcc",))
        assert cold.metrics["jobs_executed"] > 0
        assert (out / "campaign_metrics.json").exists()

        warm = run_campaign(out, quick=True, benchmarks=("gcc",))
        assert warm.metrics["hit_rate"] >= 0.9
        assert warm.metrics["jobs_executed"] == 0
        # Same artefact payloads either way.
        for name, path in warm.artefacts.items():
            if path.suffix == ".txt":
                assert path.read_text() == cold.artefacts[name].read_text()
