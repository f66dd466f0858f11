"""Tests for the live-monitoring metrics registry (``repro.obs.metrics``).

The contract: a process-local Prometheus-style registry — counters,
gauges, histograms, all with optional labels — that snapshots to the
text exposition format and JSON via atomic file replacement, fed by the
scheduler/store helpers without ever touching results.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import metrics as m


@pytest.fixture(autouse=True)
def clean_registry():
    m.reset_registry()
    yield
    m.reset_registry()


class TestCounter:
    def test_unlabelled_counts(self):
        r = m.MetricsRegistry()
        c = r.counter("repro_things_total", "Things")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labelled_series_are_independent(self):
        r = m.MetricsRegistry()
        c = r.counter("repro_hits_total", "Hits", ("source",))
        c.inc(source="store")
        c.inc(3, source="batch")
        assert c.value(source="store") == 1
        assert c.value(source="batch") == 3

    def test_negative_increment_rejected(self):
        r = m.MetricsRegistry()
        c = r.counter("repro_things_total", "Things")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_missing_label_rejected(self):
        r = m.MetricsRegistry()
        c = r.counter("repro_hits_total", "Hits", ("source",))
        with pytest.raises(ValueError):
            c.inc()

    def test_unknown_label_rejected(self):
        r = m.MetricsRegistry()
        c = r.counter("repro_hits_total", "Hits", ("source",))
        with pytest.raises(ValueError):
            c.inc(source="store", extra="nope")

    def test_bad_metric_name_rejected(self):
        r = m.MetricsRegistry()
        with pytest.raises(ValueError):
            r.counter("bad-name", "nope")


class TestGauge:
    def test_set_inc_dec(self):
        r = m.MetricsRegistry()
        g = r.gauge("repro_in_flight", "In flight")
        g.inc()
        g.inc()
        g.dec()
        assert g.value() == 1
        g.set(7)
        assert g.value() == 7

    def test_set_max_keeps_peak(self):
        r = m.MetricsRegistry()
        g = r.gauge("repro_rss_peak_kb", "Peak RSS")
        g.set_max(100)
        g.set_max(40)
        assert g.value() == 100


class TestHistogram:
    def test_observe_buckets_cumulative(self):
        r = m.MetricsRegistry()
        h = r.histogram(
            "repro_wall_seconds", "Wall", buckets=(0.1, 1.0, 10.0)
        )
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        h.observe(50.0)
        text = r.render_prometheus()
        assert 'repro_wall_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_wall_seconds_bucket{le="1"} 2' in text
        assert 'repro_wall_seconds_bucket{le="10"} 3' in text
        assert 'repro_wall_seconds_bucket{le="+Inf"} 4' in text
        assert "repro_wall_seconds_count 4" in text
        assert "repro_wall_seconds_sum 55.55" in text


class TestRegistry:
    def test_same_name_returns_same_metric(self):
        r = m.MetricsRegistry()
        assert r.counter("repro_x_total", "X") is r.counter(
            "repro_x_total", "X"
        )

    def test_kind_mismatch_raises(self):
        r = m.MetricsRegistry()
        r.counter("repro_x_total", "X")
        with pytest.raises(ValueError):
            r.gauge("repro_x_total", "X")

    def test_label_mismatch_raises(self):
        r = m.MetricsRegistry()
        r.counter("repro_x_total", "X", ("a",))
        with pytest.raises(ValueError):
            r.counter("repro_x_total", "X", ("b",))

    def test_prometheus_rendering_and_escaping(self):
        r = m.MetricsRegistry()
        c = r.counter("repro_odd_total", "Quote \" and newline", ("k",))
        c.inc(k='va"l\\ue\n')
        text = r.render_prometheus()
        assert "# HELP repro_odd_total" in text
        assert "# TYPE repro_odd_total counter" in text
        assert 'k="va\\"l\\\\ue\\n"' in text

    def test_to_dict_roundtrips_through_json(self):
        r = m.MetricsRegistry()
        r.counter("repro_x_total", "X").inc(2)
        payload = json.loads(json.dumps(r.to_dict()))
        assert payload["schema"] == m.METRICS_SCHEMA_VERSION
        [metric] = [
            e for e in payload["metrics"] if e["name"] == "repro_x_total"
        ]
        assert metric["type"] == "counter"
        assert metric["samples"][0]["value"] == 2

    def test_write_snapshot_creates_both_files(self, tmp_path):
        r = m.MetricsRegistry()
        r.counter("repro_x_total", "X").inc()
        prom, as_json = r.write_snapshot(tmp_path)
        assert prom.name == m.METRICS_PROM_FILENAME
        assert "repro_x_total 1" in prom.read_text()
        payload = json.loads(as_json.read_text())
        assert payload["schema"] == m.METRICS_SCHEMA_VERSION

    def test_snapshot_leaves_no_temp_litter(self, tmp_path):
        r = m.MetricsRegistry()
        r.counter("repro_x_total", "X").inc()
        r.write_snapshot(tmp_path)
        r.write_snapshot(tmp_path)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestFeedHelpers:
    """The scheduler/store-facing record_* functions on the default registry."""

    def test_run_lifecycle_tracks_in_flight(self):
        m.record_run_started()
        m.record_run_started()
        reg = m.registry()
        assert reg.get("repro_runs_in_flight").value() == 2
        m.record_run_finished(wall_s=0.5, cpu_s=0.4, max_rss_kb=1024.0)
        assert reg.get("repro_runs_in_flight").value() == 1
        assert (
            reg.get("repro_runs_total").value(outcome="finished") == 1
        )
        m.record_run_failed()
        assert reg.get("repro_runs_in_flight").value() == 0
        assert reg.get("repro_runs_total").value(outcome="failed") == 1

    def test_rss_peak_is_monotonic(self):
        m.record_run_started()
        m.record_run_finished(wall_s=0.1, cpu_s=0.1, max_rss_kb=2048.0)
        m.record_run_started()
        m.record_run_finished(wall_s=0.1, cpu_s=0.1, max_rss_kb=512.0)
        reg = m.registry()
        assert reg.get("repro_worker_rss_peak_kb").value() == 2048.0
        assert reg.get("repro_worker_rss_kb").value() == 512.0

    def test_cache_hit_sources(self):
        for source in ("store", "batch", "single-flight", "store"):
            m.record_cache_hit(source)
        c = m.registry().get("repro_cache_hits_total")
        assert c.value(source="store") == 2
        assert c.value(source="single-flight") == 1

    def test_batch_finished_dispositions(self):
        m.record_batch_finished(jobs=10, cache_hits=6, executed=4, wall_s=1.5)
        reg = m.registry()
        jobs = reg.get("repro_batch_jobs_total")
        assert jobs.value(disposition="submitted") == 10
        assert jobs.value(disposition="cached") == 6
        assert jobs.value(disposition="executed") == 4
        assert reg.get("repro_batches_total").value() == 1

    def test_store_gauges(self):
        m.record_store_index(entries=12, total_bytes=4096, generation=3)
        reg = m.registry()
        assert reg.get("repro_store_entries").value() == 12
        assert reg.get("repro_store_bytes").value() == 4096
        assert reg.get("repro_store_generation").value() == 3

    def test_write_registry_snapshot_swallows_bad_directory(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("not a directory")
        # Must not raise even though mkdir/replace will fail.
        m.write_registry_snapshot(target)

    def test_reset_registry_drops_everything(self):
        m.record_run_started()
        m.reset_registry()
        assert m.registry().get("repro_runs_in_flight") is None
