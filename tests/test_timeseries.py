"""Tests for ``repro.obs.timeseries`` — the bounded-memory recorder.

The contract: a :class:`Series` is a pure function of its sample stream
(deterministic, diffable), never stores more than ``capacity`` values no
matter how long the run, and downsampling loses resolution but not mass
(sums are conserved exactly; means stay means).  The recorder plumbing —
publish slot, JSONL persistence, rotation, torn-line tolerance — is what
``repro report``/``repro diff`` stand on.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.timeseries import (
    DEFAULT_CAPACITY,
    SERIES_SCHEMA_VERSION,
    TIMESERIES_FILENAME,
    RunRecorder,
    Series,
    TimeseriesLog,
    publish,
    read_timeseries,
    resolve_timeseries_path,
    take_published,
)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    take_published()  # drain any leftover slot
    yield
    obs.disable()
    obs.reset()
    take_published()


class TestSeries:
    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="kind"):
            Series("x", kind="median")
        with pytest.raises(ValueError, match="capacity"):
            Series("x", capacity=3)
        with pytest.raises(ValueError, match="capacity"):
            Series("x", capacity=0)
        with pytest.raises(ValueError, match="base_window"):
            Series("x", base_window=0)

    def test_below_capacity_stores_raw_samples(self):
        s = Series("x", kind="mean", base_window=8, capacity=4)
        s.append(1.0)
        s.append(3.0)
        assert s.values == [1.0, 3.0]
        assert s.level == 0
        assert s.window == 8
        assert s.n_samples == 2

    def test_mean_downsampling_is_exact(self):
        # 8 samples into capacity 4: one downsampling pass, pairwise means.
        s = Series("x", kind="mean", capacity=4)
        for v in [1.0, 3.0, 5.0, 7.0]:
            s.append(v)
        assert s.level == 1  # the pass runs as capacity is reached
        assert s.values == [2.0, 6.0]
        for v in [9.0, 11.0, 13.0, 15.0]:
            s.append(v)
        # Hitting capacity again triggers a second pass: level 2, each
        # stored value the exact mean of 4 consecutive samples.
        assert s.level == 2
        assert s.values == [4.0, 12.0]
        assert s.n_samples == 8

    def test_sum_downsampling_conserves_mass(self):
        s = Series("x", kind="sum", capacity=8)
        total = 0.0
        for i in range(1000):
            s.append(float(i % 7))
            total += float(i % 7)
        d = s.to_dict()
        recovered = sum(d["values"]) + d.get("tail", 0.0)
        assert recovered == pytest.approx(total, rel=0, abs=1e-9)

    def test_memory_stays_bounded(self):
        s = Series("x", kind="mean", capacity=16)
        for i in range(100_000):
            s.append(float(i))
        assert len(s.values) < 16
        assert s.n_samples == 100_000
        assert s.window == s.base_window << s.level

    def test_deterministic_across_identical_streams(self):
        def build():
            s = Series("x", kind="sum", base_window=4, capacity=32)
            for i in range(10_000):
                s.append(float((i * 2654435761) % 97))
            return s.to_dict()

        assert build() == build()

    def test_partial_tail_serialises(self):
        s = Series("x", kind="mean", capacity=4)
        for v in [1.0, 3.0, 5.0, 7.0]:
            s.append(v)  # level 1 now; accumulator needs 2 samples
        s.append(100.0)
        d = s.to_dict()
        assert d["tail"] == 100.0
        assert d["tail_windows"] == 1
        assert d["n_samples"] == 5

    def test_mean_of_means_matches_global_mean(self):
        # Power-of-two merging keeps every stored value an equal-weight
        # mean, so the mean of values equals the mean of all samples.
        s = Series("x", kind="mean", capacity=8)
        samples = [float((i * 31) % 11) for i in range(4096)]
        for v in samples:
            s.append(v)
        assert sum(s.values) / len(s.values) == pytest.approx(
            sum(samples) / len(samples)
        )

    def test_from_values_roundtrip(self):
        s = Series.from_values("derived", [1.0, 2.0], kind="sum", window=64)
        d = s.to_dict()
        assert d["values"] == [1.0, 2.0]
        assert d["window"] == 64
        assert d["kind"] == "sum"


class TestRunRecorder:
    def test_series_get_or_create(self):
        rec = RunRecorder()
        a = rec.series("cache.frac_live", kind="mean", base_window=1024)
        again = rec.series("cache.frac_live")
        assert a is again
        assert len(rec) == 1
        assert rec.get("cache.frac_live") is a
        assert rec.names() == ["cache.frac_live"]

    def test_capacity_flows_to_series(self):
        rec = RunRecorder(capacity=8)
        assert rec.series("x").capacity == 8

    def test_payload_schema(self):
        rec = RunRecorder()
        rec.series("x", kind="sum").append(1.0)
        payload = rec.to_payload()
        assert payload["schema"] == SERIES_SCHEMA_VERSION
        assert payload["series"][0]["name"] == "x"

    def test_publish_slot_is_drain_once(self):
        rec = RunRecorder()
        publish(rec)
        assert take_published() is rec
        assert take_published() is None


class TestInstrumentedRun:
    def test_run_once_records_physics_series(self):
        """A real simulation with obs enabled fills the cache and cpu
        series; with obs disabled no recorder is created at all."""
        from repro.cpu.config import MachineConfig
        from repro.experiments.runner import run_once, technique_by_name

        technique = technique_by_name("drowsy")
        machine = MachineConfig()
        plain = run_once("gcc", technique=technique, machine=machine, n_ops=1500)
        assert plain.recorder is None

        obs.enable()
        observed = run_once(
            "gcc", technique=technique, machine=machine, n_ops=1500
        )
        obs.disable()
        rec = observed.recorder
        assert rec is not None
        names = set(rec.names())
        assert "cache.frac_live" in names
        assert "cache.induced_misses" in names
        assert "cpu.ipc" in names
        live = rec.get("cache.frac_live")
        assert live.n_samples > 0
        assert all(0.0 <= v <= 1.0 for v in live.values)
        ipc = rec.get("cpu.ipc")
        assert all(v >= 0.0 for v in ipc.values)
        # Both runs simulated the same trace either way.
        assert observed.stats.cycles == plain.stats.cycles
        assert observed.stats.committed == plain.stats.committed


class TestTimeseriesLog:
    def test_roundtrip_and_rotation(self, tmp_path):
        path = tmp_path / TIMESERIES_FILENAME
        rec = RunRecorder()
        rec.series("x", kind="sum").append(2.5)
        log = TimeseriesLog(path)
        log.write("a" * 64, "fig1", rec.to_payload())
        log.close()
        records = list(read_timeseries(path))
        assert len(records) == 1
        assert records[0]["spec"] == "a" * 64
        assert records[0]["phase"] == "fig1"
        assert records[0]["series"][0]["name"] == "x"

        second = TimeseriesLog(path)
        second.write("b" * 64, "fig1", rec.to_payload())
        second.close()
        rotated = tmp_path / (TIMESERIES_FILENAME + ".1")
        assert rotated.is_file()
        assert list(read_timeseries(rotated))[0]["spec"] == "a" * 64
        assert list(read_timeseries(path))[0]["spec"] == "b" * 64

    def test_torn_lines_are_skipped(self, tmp_path):
        path = tmp_path / TIMESERIES_FILENAME
        log = TimeseriesLog(path)
        log.write("a" * 64, "", RunRecorder().to_payload())
        log.close()
        with path.open("a") as fh:
            fh.write('{"spec": "bbbb", "series": [tor')
        assert [r["spec"] for r in read_timeseries(path)] == ["a" * 64]

    def test_resolve_accepts_dir_and_file(self, tmp_path):
        path = tmp_path / TIMESERIES_FILENAME
        TimeseriesLog(path).close()
        assert resolve_timeseries_path(tmp_path) == path
        assert resolve_timeseries_path(path) == path
        with pytest.raises(FileNotFoundError, match="no timeseries log"):
            resolve_timeseries_path(tmp_path / "nowhere")


class TestEndToEndEmission:
    def test_scheduler_writes_one_line_per_executed_spec(self, tmp_path):
        from repro.exec.scheduler import Scheduler
        from repro.exec.spec import RunSpec
        from repro.experiments.runner import clear_caches

        clear_caches()
        obs.enable(tmp_path / "events.jsonl")
        specs = [
            RunSpec(benchmark="gcc", technique="drowsy", n_ops=1500),
            RunSpec(benchmark="gcc", technique="gated-vss", n_ops=1500),
        ]
        with obs.phase("fig"):
            Scheduler().run(specs)
        obs.disable()
        path = tmp_path / TIMESERIES_FILENAME
        records = list(read_timeseries(path))
        assert {r["spec"] for r in records} == {
            s.content_hash() for s in specs
        }
        assert all(r["phase"] == "fig" for r in records)
        for record in records:
            names = {s["name"] for s in record["series"]}
            assert "cache.frac_live" in names
            assert "leak.total_j" in names
            assert "cpu.ipc" in names
            for series in record["series"]:
                assert len(series["values"]) <= DEFAULT_CAPACITY

    def test_leakage_split_sums_to_total(self, tmp_path):
        from repro.exec.scheduler import Scheduler
        from repro.exec.spec import RunSpec
        from repro.experiments.runner import clear_caches

        clear_caches()
        obs.enable(tmp_path / "events.jsonl")
        # Short decay interval so lines actually reach standby (GIDL and
        # the standby-power terms are zero while every line stays live).
        Scheduler().run(
            [
                RunSpec(
                    benchmark="gcc",
                    technique="rbb",
                    n_ops=4000,
                    decay_interval=512,
                )
            ]
        )
        obs.disable()
        (record,) = read_timeseries(tmp_path / TIMESERIES_FILENAME)
        by_name = {s["name"]: s for s in record["series"]}

        def total(name):
            d = by_name[name]
            return sum(d["values"]) + d.get("tail", 0.0)

        whole = total("leak.total_j")
        assert whole > 0
        # Both decompositions tile the same energy.
        structure = sum(total(n) for n in ("leak.data_j", "leak.tag_j", "leak.edge_j"))
        mechanism = sum(total(n) for n in ("leak.sub_j", "leak.gate_j", "leak.gidl_j"))
        assert structure == pytest.approx(whole, rel=1e-9)
        assert mechanism == pytest.approx(whole, rel=1e-9)
        # RBB is the one technique with a GIDL component.
        assert total("leak.gidl_j") > 0

    def test_points_sharing_a_simulation_each_get_their_series(
        self, tmp_path
    ):
        """Two operating points of one simulation: each record carries the
        run's series, and the leakage series is derived per temperature."""
        from repro.exec.scheduler import Scheduler
        from repro.exec.spec import RunSpec

        specs = [
            RunSpec(benchmark="gcc", technique="drowsy", n_ops=1500,
                    decay_interval=512, temp_c=temp_c)
            for temp_c in (60.0, 110.0)
        ]
        # Memoise the simulation with obs off first: that recorder-less
        # summary must not serve the observed points below.
        specs[0].execute()
        obs.enable(tmp_path / "events.jsonl")
        Scheduler().run(specs)
        obs.disable()
        records = {
            r["spec"]: {s["name"]: s for s in r["series"]}
            for r in read_timeseries(tmp_path / TIMESERIES_FILENAME)
        }
        assert set(records) == {s.content_hash() for s in specs}
        for series in records.values():
            assert {"cache.frac_live", "cpu.ipc", "leak.total_j"} <= set(series)
        cool, hot = (records[s.content_hash()] for s in specs)
        assert cool["cache.frac_live"] == hot["cache.frac_live"]
        assert cool["leak.total_j"]["values"] != hot["leak.total_j"]["values"]
