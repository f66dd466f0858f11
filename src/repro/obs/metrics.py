"""Campaign metrics registry: labelled counters, gauges and histograms.

Where :mod:`repro.obs.core` counters answer *"how many times did this
code path run over the whole campaign"*, the :class:`MetricsRegistry`
answers the live-operations questions a dashboard or scraper asks:
runs in flight *right now*, cache-hit totals split by source, the
run-wall-time distribution, current worker RSS, store bytes after the
last GC pass.  It is deliberately Prometheus-shaped:

* three metric kinds — :class:`Counter` (monotonic), :class:`Gauge`
  (set/add), :class:`Histogram` (cumulative buckets + sum + count);
* optional label dimensions per metric family
  (``repro_runs_total{outcome="finished"}``);
* two snapshot encodings — the Prometheus text exposition format
  (``render_prometheus``) and a JSON document (``to_dict``) — plus
  :meth:`MetricsRegistry.write_snapshot`, which atomically replaces
  ``metrics.prom`` / ``metrics.json`` next to a campaign's
  ``events.jsonl`` so tailing dashboards (``repro watch``,
  ``repro report --live``) and future HTTP scrapers read one file
  format between them.

The scheduler and store lifecycle feed the module-level registry
(:func:`registry`) through the ``record_*`` helpers below, every call
guarded by ``obs.is_enabled()`` — with observability off (the default)
none of this code runs, preserving the zero-overhead contract.  The
``obs_overhead`` bench scenario times the same helpers, so the <3 %
ceiling covers metrics-registry-enabled runs too.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path
from typing import Any, Iterator, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS_JSON_FILENAME",
    "METRICS_PROM_FILENAME",
    "METRICS_SCHEMA_VERSION",
    "registry",
    "reset_registry",
    "record_batch_finished",
    "record_cache_hit",
    "record_run_failed",
    "record_run_finished",
    "record_run_requeued",
    "record_run_retried",
    "record_run_started",
    "record_run_timeout",
    "record_store_gc",
    "record_store_index",
    "write_registry_snapshot",
]

METRICS_SCHEMA_VERSION = 1

METRICS_PROM_FILENAME = "metrics.prom"
METRICS_JSON_FILENAME = "metrics.json"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, tuned for run wall times (seconds).
DEFAULT_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)


def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus text exposition rules."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt_value(value: float) -> str:
    """Exposition-format number: integers bare, floats via repr."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Base for one metric family: a name, help text and label schema."""

    kind = ""

    __slots__ = ("name", "help", "labelnames", "_values")

    def __init__(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._values: dict[tuple[str, ...], Any] = {}

    def _key(self, labels: dict[str, Any]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _labels_dict(self, key: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.labelnames, key))

    # Subclasses yield (suffix, extra_labels, value) exposition samples.
    def samples(self) -> Iterator[tuple[str, dict[str, str], float]]:
        raise NotImplementedError

    def to_dict(self) -> dict[str, Any]:
        raise NotImplementedError


class Counter(_Metric):
    """Monotonic accumulator (``repro_runs_total{outcome="finished"}``)."""

    kind = "counter"
    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return float(self._values.get(self._key(labels), 0.0))

    def samples(self) -> Iterator[tuple[str, dict[str, str], float]]:
        for key, value in sorted(self._values.items()):
            yield "", self._labels_dict(key), float(value)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "samples": [
                {"labels": self._labels_dict(key), "value": value}
                for key, value in sorted(self._values.items())
            ],
        }


class Gauge(Counter):
    """Point-in-time value; supports :meth:`set`, ``inc``/``dec``, max."""

    kind = "gauge"
    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def set(self, value: float, **labels: Any) -> None:
        self._values[self._key(labels)] = float(value)

    def set_max(self, value: float, **labels: Any) -> None:
        """Keep the running maximum (peak-RSS style gauges)."""
        key = self._key(labels)
        self._values[key] = max(self._values.get(key, value), float(value))


class Histogram(_Metric):
    """Cumulative-bucket histogram with ``_sum`` and ``_count`` samples."""

    kind = "histogram"
    __slots__ = ("buckets",)

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        state = self._values.get(key)
        if state is None:
            state = self._values[key] = {
                "counts": [0] * len(self.buckets),
                "sum": 0.0,
                "count": 0,
            }
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                state["counts"][i] += 1
        state["sum"] += float(value)
        state["count"] += 1

    def samples(self) -> Iterator[tuple[str, dict[str, str], float]]:
        for key, state in sorted(self._values.items()):
            base = self._labels_dict(key)
            for bound, count in zip(self.buckets, state["counts"]):
                yield "_bucket", {**base, "le": _fmt_value(bound)}, float(count)
            yield "_bucket", {**base, "le": "+Inf"}, float(state["count"])
            yield "_sum", base, float(state["sum"])
            yield "_count", base, float(state["count"])

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "samples": [
                {
                    "labels": self._labels_dict(key),
                    "counts": list(state["counts"]),
                    "sum": state["sum"],
                    "count": state["count"],
                }
                for key, state in sorted(self._values.items())
            ],
        }


class MetricsRegistry:
    """A named collection of metric families with two snapshot encodings.

    Families are get-or-create: asking for an existing name returns the
    same object, and asking with a different kind or label schema raises
    — one name, one meaning, for the whole campaign.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    # ------------------------------------------------------------------
    # Family constructors
    # ------------------------------------------------------------------

    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls) or type(existing) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            if existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.labelnames}, not {tuple(labelnames)}"
                )
            return existing
        metric = cls(name, help, labelnames, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def reset(self) -> None:
        self._metrics.clear()

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The text exposition format, one block per family, sorted."""
        out: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                out.append(f"# HELP {name} {metric.help}")
            out.append(f"# TYPE {name} {metric.kind}")
            for suffix, labels, value in metric.samples():
                if labels:
                    body = ",".join(
                        f'{k}="{_escape_label(str(v))}"'
                        for k, v in labels.items()
                    )
                    out.append(
                        f"{name}{suffix}{{{body}}} {_fmt_value(value)}"
                    )
                else:
                    out.append(f"{name}{suffix} {_fmt_value(value)}")
        return "\n".join(out) + ("\n" if out else "")

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "metrics": [
                self._metrics[name].to_dict()
                for name in sorted(self._metrics)
            ],
        }

    def write_snapshot(self, directory: str | Path) -> tuple[Path, Path]:
        """Atomically (re)write ``metrics.prom`` + ``metrics.json``.

        Each file is written to a temp sibling and ``os.replace``d into
        place, so a concurrently tailing dashboard never reads a torn
        snapshot.  Returns the two paths.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        prom = directory / METRICS_PROM_FILENAME
        as_json = directory / METRICS_JSON_FILENAME
        _atomic_write(prom, self.render_prometheus())
        _atomic_write(
            as_json,
            json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n",
        )
        return prom, as_json


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(
        prefix=f".{path.name}-", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The module-level default registry the instrumented layers feed."""
    return _REGISTRY


def reset_registry() -> None:
    """Drop every family from the default registry (campaign start/tests)."""
    _REGISTRY.reset()


# ----------------------------------------------------------------------
# Feed helpers: the scheduler and store call these (guarded by
# obs.is_enabled()), and the obs_overhead bench times exactly the same
# calls, so the overhead gate covers what campaigns actually pay.
# ----------------------------------------------------------------------


def record_run_started() -> None:
    _REGISTRY.gauge(
        "repro_runs_in_flight", "Runs submitted but not yet finished"
    ).inc()


def record_run_finished(
    wall_s: float = 0.0, cpu_s: float = 0.0, max_rss_kb: float = 0.0
) -> None:
    _REGISTRY.gauge(
        "repro_runs_in_flight", "Runs submitted but not yet finished"
    ).dec()
    _REGISTRY.counter(
        "repro_runs_total", "Run outcomes by kind", ("outcome",)
    ).inc(outcome="finished")
    _REGISTRY.histogram(
        "repro_run_wall_seconds", "Per-run wall time distribution"
    ).observe(wall_s)
    _REGISTRY.counter(
        "repro_worker_cpu_seconds_total", "CPU seconds burned in workers"
    ).inc(max(cpu_s, 0.0))
    if max_rss_kb:
        gauge = _REGISTRY.gauge(
            "repro_worker_rss_kb", "Most recent worker peak RSS (kB)"
        )
        gauge.set(max_rss_kb)
        _REGISTRY.gauge(
            "repro_worker_rss_peak_kb", "Campaign-wide peak worker RSS (kB)"
        ).set_max(max_rss_kb)


def _outcome(outcome: str, *, leaves_flight: bool = False) -> None:
    if leaves_flight:
        _REGISTRY.gauge(
            "repro_runs_in_flight", "Runs submitted but not yet finished"
        ).dec()
    _REGISTRY.counter(
        "repro_runs_total", "Run outcomes by kind", ("outcome",)
    ).inc(outcome=outcome)


def record_run_failed() -> None:
    _outcome("failed", leaves_flight=True)


def record_run_retried() -> None:
    _outcome("retried")


def record_run_requeued() -> None:
    _outcome("requeued")


def record_run_timeout() -> None:
    _outcome("timeout", leaves_flight=True)


def record_cache_hit(source: str) -> None:
    _REGISTRY.counter(
        "repro_cache_hits_total",
        "Cache hits by source (store, batch, single-flight)",
        ("source",),
    ).inc(source=source)


def record_batch_finished(
    *, jobs: int, cache_hits: int, executed: int, wall_s: float
) -> None:
    _REGISTRY.counter(
        "repro_batches_total", "Scheduler batches completed"
    ).inc()
    _REGISTRY.counter(
        "repro_batch_jobs_total", "Jobs by disposition", ("disposition",)
    ).inc(jobs, disposition="submitted")
    _REGISTRY.counter(
        "repro_batch_jobs_total", "Jobs by disposition", ("disposition",)
    ).inc(cache_hits, disposition="cached")
    _REGISTRY.counter(
        "repro_batch_jobs_total", "Jobs by disposition", ("disposition",)
    ).inc(executed, disposition="executed")
    _REGISTRY.histogram(
        "repro_batch_wall_seconds",
        "Scheduler batch wall time distribution",
        buckets=(0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0, 1800.0),
    ).observe(wall_s)


def record_store_gc(
    *, evicted: int, evicted_bytes: int, kept: int, pinned: int
) -> None:
    _REGISTRY.counter(
        "repro_store_gc_passes_total", "Store GC passes run"
    ).inc()
    _REGISTRY.counter(
        "repro_store_gc_evicted_total", "Entries evicted by store GC"
    ).inc(evicted)
    _REGISTRY.counter(
        "repro_store_gc_evicted_bytes_total", "Bytes evicted by store GC"
    ).inc(evicted_bytes)
    _REGISTRY.gauge(
        "repro_store_gc_last_kept", "Entries surviving the last GC pass"
    ).set(kept)
    _REGISTRY.gauge(
        "repro_store_gc_last_pinned", "Entries pinned during the last GC pass"
    ).set(pinned)


def record_store_index(
    *, entries: int, total_bytes: int, generation: int
) -> None:
    """Refresh the store gauges from :class:`~repro.exec.store.StoreIndex`
    accounting (called once per scheduler batch, never per run)."""
    _REGISTRY.gauge(
        "repro_store_entries", "Result-store entries on disk"
    ).set(entries)
    _REGISTRY.gauge(
        "repro_store_bytes", "Result-store bytes on disk"
    ).set(total_bytes)
    _REGISTRY.gauge(
        "repro_store_generation", "Result-store GC generation"
    ).set(generation)


def write_registry_snapshot(directory: str | Path) -> None:
    """Best-effort snapshot of the default registry next to the event log.

    Called at batch boundaries with the campaign directory; an unwritable
    directory (read-only CI mount, racing cleanup) must never take the
    campaign down, so OSErrors are swallowed.
    """
    try:
        _REGISTRY.write_snapshot(directory)
    except OSError:
        pass
