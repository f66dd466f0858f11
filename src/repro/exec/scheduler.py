"""Batch scheduler: execute RunSpecs on a process pool, through the store.

The scheduler turns a list of :class:`~repro.exec.spec.RunSpec` jobs into
results, in order, with five behaviours layered on top of plain execution:

1. **Store first** — every spec is looked up in the (optional)
   :class:`~repro.exec.store.ResultStore`; only misses are executed, and
   fresh results are persisted as they arrive.
2. **Deduplication** — identical specs in one batch are executed once and
   fanned out to every requesting slot.
3. **Parallelism** — misses run on a ``ProcessPoolExecutor`` with a
   configurable worker count and an optional per-job timeout.  Runs are
   seed-deterministic, so parallel results are bit-identical to serial.
   One pool serves the scheduler's whole lifetime: it is built by the
   first batch with two or more misses and shut down by :meth:`close`
   (or leaving a ``with`` block), so workers keep their content-keyed
   memos (k_design surfaces, traces, warmup snapshots, baselines,
   leakage models) from one batch to the next.  Every such memo is a
   pure function of its key, so what a worker remembers never changes a
   result.
4. **Resilience** — a pool that cannot start (sandboxed /dev/shm, missing
   semaphores) degrades to serial execution.  Jobs whose worker raised
   are retried serially, a bounded number of times, before the batch
   fails.  Jobs the pool *abandoned* at the batch timeout never produced
   a result anywhere, so they get one serial first-execution pass that is
   accounted as a timeout, not a retry — the same job is never counted
   in both buckets (the event log mirrors this: abandoned jobs emit
   ``run_requeued``, failed jobs emit ``run_retried``).  The abandoned
   pool is shut down with ``cancel_futures=True`` and its workers are
   killed, so neither queued nor wedged work runs behind our back; a pool
   broken by a dead worker is dropped too, and the next batch builds a
   fresh one.
5. **Observability** — with :mod:`repro.obs` enabled, every run start /
   finish / failure / retry / cache hit lands in the campaign event log
   (with worker pid, wall/CPU time and peak RSS measured in the worker),
   and the pool wait loop emits periodic heartbeats naming straggler
   jobs.  Disabled (the default), none of this code runs.
6. **Store lifecycle** (:mod:`repro.exec.lifecycle`) — when a store is
   attached, each batch pins every spec hash it references in a
   :class:`~repro.exec.lifecycle.CampaignManifest` (so a concurrent
   ``repro store gc`` never evicts entries under an in-progress
   campaign), and misses go through
   :class:`~repro.exec.lifecycle.SingleFlight` claim files: if another
   scheduler — any process on this machine — is already computing the
   same spec hash, this one waits and reads the committed result instead
   of duplicating the work.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Sequence

from repro import obs as _obs
from repro.obs import metrics as _metrics
from repro.obs import timeseries as _ts
from repro.exec.lifecycle import CampaignManifest, SingleFlight
from repro.exec.metrics import ExecutionMetrics
from repro.exec.spec import RunSpec
from repro.exec.store import ResultStore
from repro.leakctl.energy import NetSavingsResult

try:  # POSIX only; telemetry degrades gracefully without it
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

DEFAULT_HEARTBEAT_S = 30.0


class SchedulerError(RuntimeError):
    """A job kept failing after every retry."""


def execute_spec(spec: RunSpec) -> NetSavingsResult:
    """Process-pool entry point: run one spec (module-level, picklable)."""
    return spec.execute()


def execute_spec_observed(spec: RunSpec) -> tuple[NetSavingsResult, dict]:
    """Pool entry point with telemetry: ``(result, meta)``.

    ``meta`` carries the worker pid, wall and CPU seconds, and the
    worker's peak RSS in kB — measured *in the worker* and shipped back
    with the result, so the coordinating process can log it without any
    cross-process event plumbing.  If the run published a time-series
    recorder (see :mod:`repro.obs.timeseries`), its serialised payload
    rides along under ``meta["timeseries"]`` — in the metadata, never in
    the result, so results stay bit-identical with obs on or off.  The
    execution itself is untouched.
    """
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    result = spec.execute()
    meta = {
        "worker": os.getpid(),
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "max_rss_kb": (
            float(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)
            if _resource is not None
            else 0.0
        ),
    }
    recorder = _ts.take_published()
    if recorder is not None and len(recorder):
        meta["timeseries"] = recorder.to_payload()
    return result, meta


class Scheduler:
    """Executes batches of RunSpecs; serial by default, parallel on demand.

    A parallel scheduler owns a worker pool from its first batch with two
    or more misses until :meth:`close`; use it as a context manager so the
    workers are reaped when the caller is done::

        with Scheduler(max_workers=4, store=store) as sched:
            results = sched.run(specs)

    Workers fork when the pool is built, so they keep the :mod:`repro.obs`
    state of that moment (whether runs record time series) for its life.

    Args:
        max_workers: Process count.  1 (default) never forks — the whole
            batch runs in-process, which is also the fallback path.
        store: Optional persistent result store consulted before and
            updated after every execution.
        timeout_s: Per-job budget; must be positive.  A batch whose
            stragglers exceed the aggregate budget (``timeout_s * jobs``)
            abandons the pool (cancelling everything still queued and
            killing its workers) and runs the abandoned jobs serially.
        retries: How many serial retry rounds a *failed* job gets.
        metrics: Optional campaign-wide metrics aggregator.
        progress: Default progress callback for :meth:`run` (a per-call
            callback overrides it).
        heartbeat_s: Interval of the straggler heartbeat emitted to the
            observability event log while the pool is draining; must be
            positive.  Irrelevant while :mod:`repro.obs` is disabled.
        single_flight: Cross-process dedup via claim files (default on;
            no effect without a store).  Disable only for stores on
            filesystems where exclusive-create is unreliable.
    """

    def __init__(
        self,
        max_workers: int = 1,
        *,
        store: ResultStore | None = None,
        timeout_s: float | None = None,
        retries: int = 2,
        metrics: ExecutionMetrics | None = None,
        progress: Callable[[str], None] | None = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        single_flight: bool = True,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout_s is not None and not timeout_s > 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        if not heartbeat_s > 0:
            raise ValueError(f"heartbeat_s must be positive, got {heartbeat_s}")
        self.max_workers = max_workers
        self.store = store
        self.timeout_s = timeout_s
        self.retries = retries
        self.metrics = metrics
        self.progress = progress
        self.heartbeat_s = heartbeat_s
        self.single_flight = single_flight
        self._pool: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down and wait for its workers to exit.

        Idempotent; a later :meth:`run` builds a new pool if it needs one.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def run(
        self,
        specs: Sequence[RunSpec],
        progress: Callable[[str], None] | None = None,
    ) -> list[NetSavingsResult]:
        """Execute ``specs``; returns results in the same order.

        Equivalent to calling ``spec.execute()`` in a loop (runs are
        deterministic), but cached, deduplicated, and parallel.
        """
        start = time.perf_counter()
        results: list[NetSavingsResult | None] = [None] * len(specs)
        if progress is None:
            progress = self.progress
        note = progress if progress is not None else (lambda _msg: None)
        observed = _obs.is_enabled()

        # Store lookups + in-batch dedup: map each unique missing hash to
        # every slot that wants it.
        pending: dict[str, list[int]] = {}
        keys: list[str] = []
        cache_hits = 0
        for i, spec in enumerate(specs):
            key = spec.content_hash()
            keys.append(key)
            if key in pending:
                pending[key].append(i)
                continue
            cached = self.store.get(spec) if self.store is not None else None
            if cached is not None:
                results[i] = cached
                cache_hits += 1
                if observed:
                    _obs.emit("cache_hit", spec=key, slot=i, source="store")
                    _metrics.record_cache_hit("store")
            else:
                pending[key] = [i]

        executed = 0
        dedup_waits = 0
        manifest: CampaignManifest | None = None
        claims: SingleFlight | None = None
        foreign: list[str] = []
        if self.store is not None:
            # Pin every referenced hash (hits included) for the duration
            # of the batch: a concurrent `repro store gc` must never
            # evict under an in-progress campaign.
            manifest = CampaignManifest(self.store.root, label="scheduler")
            manifest.add(keys)
            if pending and self.single_flight:
                claims = SingleFlight(self.store)
                foreign = [
                    key for key in pending if not claims.try_claim(key)
                ]
        try:
            foreign_set = set(foreign)
            todo = [
                slots[0]
                for key, slots in pending.items()
                if key not in foreign_set
            ]
            if todo:
                with _obs.span("scheduler.execute"):
                    self._execute_pending(specs, todo, results, note)
                executed = len(todo)
            for key in foreign:
                # Another process claimed this hash first: wait for its
                # committed result instead of duplicating the work.  A
                # vanished or wedged holder hands the claim (and the
                # computation) back to us.
                slot = pending[key][0]
                got = claims.wait_for(
                    specs[slot], key, timeout_s=self.timeout_s
                )
                if got is not None:
                    results[slot] = got
                    dedup_waits += 1
                    if observed:
                        _obs.emit(
                            "cache_hit",
                            spec=key,
                            slot=slot,
                            source="single-flight",
                        )
                        _metrics.record_cache_hit("single-flight")
                else:
                    note(
                        f"single-flight holder for {key[:16]} vanished; "
                        f"computing locally"
                    )
                    with _obs.span("scheduler.execute"):
                        self._execute_pending(specs, [slot], results, note)
                    executed += 1
        finally:
            if claims is not None:
                claims.release_all()
            if manifest is not None:
                manifest.close()
            if self.store is not None:
                self.store.flush_index()
        for key, slots in pending.items():
            for i in slots[1:]:
                results[i] = results[slots[0]]
                cache_hits += 1
                if observed:
                    _obs.emit("cache_hit", spec=key, slot=i, source="batch")
                    _metrics.record_cache_hit("batch")

        wall = time.perf_counter() - start
        if self.metrics is not None:
            self.metrics.record_batch(
                jobs=len(specs),
                cache_hits=cache_hits,
                executed=executed,
                wall_s=wall,
                dedup_waits=dedup_waits,
            )
        if len(specs) > 1:
            rate = executed / wall if wall > 0 else 0.0
            deduped = f", {dedup_waits} deduped" if dedup_waits else ""
            note(
                f"batch: {len(specs)} jobs, {cache_hits} cached{deduped}, "
                f"{executed} executed in {wall:.1f} s ({rate:.2f} runs/s)"
            )
        if observed:
            # Batch boundary: one event for tailers, a registry refresh
            # for scrapers.  The store gauges read index.json once per
            # batch — never per run — so the accounting sidecar stays off
            # the hot path.
            _obs.emit(
                "batch_finished",
                jobs=len(specs),
                cache_hits=cache_hits,
                executed=executed,
                dedup_waits=dedup_waits,
                wall_s=wall,
            )
            _metrics.record_batch_finished(
                jobs=len(specs),
                cache_hits=cache_hits,
                executed=executed,
                wall_s=wall,
            )
            if self.store is not None:
                payload = self.store.index.load()
                entries = payload.get("entries") or {}
                _metrics.record_store_index(
                    entries=len(entries),
                    total_bytes=sum(
                        int(e.get("size") or 0) for e in entries.values()
                    ),
                    generation=int(payload.get("generation") or 0),
                )
            log_path = _obs.log_path()
            if log_path:
                _metrics.write_registry_snapshot(Path(log_path).parent)
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Execution paths
    # ------------------------------------------------------------------

    def _execute_pending(
        self,
        specs: Sequence[RunSpec],
        todo: list[int],
        results: list,
        note: Callable[[str], None],
    ) -> None:
        """Run every slot in ``todo``, with serial retries on failure."""
        if self.max_workers > 1 and len(todo) > 1:
            failed, abandoned = self._run_pool(specs, todo, results, note)
        else:
            failed = self._run_serial(specs, todo, results, note)
            abandoned = []
        if abandoned:
            # Abandoned jobs never produced a result anywhere (their
            # futures were cancelled or their workers outlived the
            # budget), so this serial pass is their *first* execution —
            # accounted as timeouts, not retries, or the same job would
            # be double-counted across the retry rounds below.  The event
            # mirrors the metrics bucket: ``run_requeued``, distinct from
            # ``run_retried``, so ``repro stats`` never reports the same
            # job as both a timeout and a retry.
            if self.metrics is not None:
                self.metrics.timeouts += len(abandoned)
            note(f"re-running {len(abandoned)} abandoned job(s) serially")
            if _obs.is_enabled():
                for i in abandoned:
                    _obs.emit(
                        "run_requeued",
                        spec=specs[i].content_hash(),
                        slot=i,
                        reason="pool timeout",
                    )
                    _metrics.record_run_requeued()
            failed.extend(self._run_serial(specs, abandoned, results, note))
        for attempt in range(self.retries):
            if not failed:
                break
            if self.metrics is not None:
                self.metrics.retries += len(failed)
            note(
                f"retrying {len(failed)} failed job(s) serially "
                f"(attempt {attempt + 1}/{self.retries})"
            )
            if _obs.is_enabled():
                for i, exc in failed:
                    _obs.emit(
                        "run_retried",
                        spec=specs[i].content_hash(),
                        slot=i,
                        attempt=attempt + 1,
                        reason=repr(exc),
                    )
                    _metrics.record_run_retried()
            failed = self._run_serial(
                specs, [i for i, _exc in failed], results, note
            )
        if failed:
            if self.metrics is not None:
                self.metrics.failures += len(failed)
            slots = [i for i, _exc in failed]
            raise SchedulerError(
                f"{len(failed)} job(s) failed after {self.retries} "
                f"retries: slots {slots}, first spec {specs[slots[0]]}"
            ) from failed[0][1]

    def _run_serial(
        self,
        specs: Sequence[RunSpec],
        todo: list[int],
        results: list,
        note: Callable[[str], None],
    ) -> list[tuple[int, BaseException]]:
        observed = _obs.is_enabled()
        failed: list[tuple[int, BaseException]] = []
        step = max(1, len(todo) // 8)
        for n, i in enumerate(todo, start=1):
            key = specs[i].content_hash() if observed else None
            if observed:
                _obs.emit("run_started", spec=key, slot=i, pool=False)
                _metrics.record_run_started()
            try:
                if observed:
                    result, meta = execute_spec_observed(specs[i])
                else:
                    result = execute_spec(specs[i])
            except Exception as exc:
                failed.append((i, exc))
                if observed:
                    _obs.emit("run_failed", spec=key, slot=i, error=repr(exc))
                    _metrics.record_run_failed()
                continue
            if observed:
                series = meta.pop("timeseries", None)
                if series:
                    _obs.emit_series(spec=key, payload=series)
                _obs.emit("run_finished", spec=key, slot=i, **meta)
                _metrics.record_run_finished(
                    wall_s=meta.get("wall_s", 0.0),
                    cpu_s=meta.get("cpu_s", 0.0),
                    max_rss_kb=meta.get("max_rss_kb", 0.0),
                )
            self._commit(specs[i], result, results, i)
            if len(todo) > 1 and (n % step == 0 or n == len(todo)):
                note(f"  jobs {n}/{len(todo)} done")
        return failed

    def _run_pool(
        self,
        specs: Sequence[RunSpec],
        todo: list[int],
        results: list,
        note: Callable[[str], None],
    ) -> tuple[list[tuple[int, BaseException]], list[int]]:
        """Pool execution; returns ``(failed, abandoned_slots)``.

        Runs on the scheduler's pool, built here on first use.  A pool this
        batch abandons is dropped at once (:meth:`_discard_pool`).  A worker
        that dies breaks the pool: its jobs fail with ``BrokenProcessPool``
        (and are retried serially), and the next submission finds the pool
        broken and replaces it.
        """
        try:
            executor = self._executor()
        except (OSError, ValueError, ImportError) as exc:
            note(f"process pool unavailable ({exc!r}); running serially")
            return self._run_serial(specs, todo, results, note), []
        observed = _obs.is_enabled()
        entry = execute_spec_observed if observed else execute_spec
        failed: list[tuple[int, BaseException]] = []
        abandoned: list[int] = []
        done_count = 0
        step = max(1, len(todo) // 8)
        start = time.monotonic()
        budget = None if self.timeout_s is None else self.timeout_s * len(todo)
        deadline = None if budget is None else start + budget
        try:
            try:
                futures = {executor.submit(entry, specs[i]): i for i in todo}
            except BrokenProcessPool:
                # A worker died in an earlier batch, or while the pool sat
                # idle between batches (the OOM killer, a stray signal).
                self._discard_pool()
                executor = self._executor()
                futures = {executor.submit(entry, specs[i]): i for i in todo}
            if observed:
                for i in todo:
                    _obs.emit(
                        "run_started",
                        spec=specs[i].content_hash(),
                        slot=i,
                        pool=True,
                    )
                    _metrics.record_run_started()
            pending = set(futures)
            last_progress = start
            last_beat = start
            while pending:
                timeout = self.heartbeat_s if observed else None
                if deadline is not None:
                    remaining = max(deadline - time.monotonic(), 0.0)
                    timeout = (
                        remaining if timeout is None
                        else min(timeout, remaining)
                    )
                finished, pending = wait(
                    pending, timeout=timeout, return_when=FIRST_COMPLETED
                )
                for future in finished:
                    i = futures.pop(future)
                    try:
                        value = future.result()
                    except Exception as exc:
                        failed.append((i, exc))
                        if observed:
                            _obs.emit(
                                "run_failed",
                                spec=specs[i].content_hash(),
                                slot=i,
                                error=repr(exc),
                            )
                            _metrics.record_run_failed()
                        continue
                    if observed:
                        result, meta = value
                        series = meta.pop("timeseries", None)
                        key = specs[i].content_hash()
                        if series:
                            _obs.emit_series(spec=key, payload=series)
                        _obs.emit("run_finished", spec=key, slot=i, **meta)
                        _metrics.record_run_finished(
                            wall_s=meta.get("wall_s", 0.0),
                            cpu_s=meta.get("cpu_s", 0.0),
                            max_rss_kb=meta.get("max_rss_kb", 0.0),
                        )
                    else:
                        result = value
                    self._commit(specs[i], result, results, i)
                    done_count += 1
                    if done_count % step == 0 or done_count == len(todo):
                        note(f"  jobs {done_count}/{len(todo)} done")
                now = time.monotonic()
                if finished:
                    last_progress = now
                if pending and deadline is not None and now >= deadline:
                    # Stragglers blew the batch budget: abandon the pool
                    # (cancelling everything still queued, killing
                    # possibly-wedged workers) and hand the outstanding
                    # slots back for one serial pass.
                    abandoned = sorted(futures[f] for f in pending)
                    note(
                        f"pool budget of {budget:.0f} s exhausted with "
                        f"{len(abandoned)} job(s) outstanding; "
                        f"re-running serially"
                    )
                    if observed:
                        for i in abandoned:
                            _obs.emit(
                                "run_timeout",
                                spec=specs[i].content_hash(),
                                slot=i,
                                budget_s=budget,
                            )
                            _metrics.record_run_timeout()
                    self._discard_pool()
                    break
                if (
                    pending
                    and observed
                    and (not finished or now - last_beat >= self.heartbeat_s)
                ):
                    # Periodic progress beat: fires when nothing completed
                    # for a whole interval (the straggler case) and at
                    # least once per interval while the pool is draining,
                    # so a live tailer always has a recent done/total
                    # picture even between run events.
                    _obs.emit(
                        "heartbeat",
                        outstanding=[
                            specs[futures[f]].content_hash()[:16]
                            for f in pending
                        ],
                        done=done_count,
                        total=len(todo),
                        in_flight=len(pending),
                        elapsed_s=now - start,
                        stalled_s=now - last_progress,
                    )
                    last_beat = now
        except BaseException:
            self._discard_pool()
            raise
        return failed, abandoned

    def _executor(self) -> ProcessPoolExecutor:
        """The scheduler's worker pool, built on first use."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _discard_pool(self) -> None:
        """Drop the pool without waiting for it, killing its workers.

        ``shutdown(wait=False, cancel_futures=True)`` cancels queued jobs
        but leaves a wedged worker running, and the exit hook of
        :mod:`concurrent.futures` then holds the interpreter until that
        job ends — forever, if it hangs.  Python 3.11 has no public
        ``terminate_workers()``, so the worker processes are read off the
        pool before shutdown forgets them, then sent SIGKILL (a SIGTERM
        handler inherited from the parent would wait for a bytecode
        boundary a job stuck in native code never reaches).  The pool's
        manager thread sees them die and reaps them.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        workers = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for worker in workers:
            worker.kill()

    def _commit(
        self, spec: RunSpec, result: NetSavingsResult, results: list, slot: int
    ) -> None:
        results[slot] = result
        if self.store is not None:
            self.store.put(spec, result)
