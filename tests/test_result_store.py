"""Tests for the content-addressed result store.

The satellite contract: stable hashing (same spec, same key; any field
change, new key), atomic writes that survive simulated partial writes,
and schema-version mismatches that degrade to a clean re-run, never a
crash or a wrong hit.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.exec import ResultStore, RunSpec
from repro.exec.store import STORE_SCHEMA_VERSION
from repro.leakctl.energy import NetSavingsResult


def make_result(**overrides) -> NetSavingsResult:
    base = dict(
        benchmark="gcc",
        technique="drowsy",
        decay_interval=4096,
        l2_latency=11,
        temp_c=110.0,
        baseline_cycles=10_000,
        technique_cycles=10_100,
        leak_baseline_j=1.0e-3,
        leak_technique_j=4.0e-4,
        dyn_baseline_j=2.0e-3,
        dyn_technique_j=2.1e-3,
        clock_baseline_j=1.0e-3,
        clock_technique_j=1.05e-3,
        turnoff_ratio=0.6,
        induced_misses=12,
        slow_hits=34,
        true_misses=56,
        accesses=7890,
        uncontrolled_power_w=0.5,
    )
    base.update(overrides)
    return NetSavingsResult(**base)


@pytest.fixture
def spec():
    return RunSpec(benchmark="gcc", technique="drowsy", l2_latency=11)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


class TestContentHash:
    def test_same_spec_same_key(self, spec):
        assert spec.content_hash() == RunSpec(
            benchmark="gcc", technique="drowsy", l2_latency=11
        ).content_hash()

    def test_any_field_change_changes_key(self, spec):
        baseline = spec.content_hash()
        seen = {baseline}
        for variant in (
            dataclasses.replace(spec, benchmark="gzip"),
            dataclasses.replace(spec, technique="gated-vss"),
            dataclasses.replace(spec, l2_latency=17),
            dataclasses.replace(spec, temp_c=85.0),
            dataclasses.replace(spec, decay_interval=2048),
            dataclasses.replace(spec, policy="simple"),
            dataclasses.replace(spec, adaptive=True),
            dataclasses.replace(spec, n_ops=5000),
            dataclasses.replace(spec, seed=2),
            dataclasses.replace(spec, vdd=0.7),
            dataclasses.replace(spec, target="l1i"),
        ):
            key = variant.content_hash()
            assert key not in seen, variant
            seen.add(key)

    def test_code_version_salts_key(self, spec, monkeypatch):
        from repro.exec import spec as spec_mod

        before = spec.content_hash()
        monkeypatch.setattr(spec_mod, "CODE_VERSION", "999-test")
        assert spec.content_hash() != before


class TestRoundTrip:
    def test_put_get(self, store, spec):
        result = make_result()
        store.put(spec, result)
        assert store.get(spec) == result
        assert store.stats.hits == 1
        assert store.stats.writes == 1

    def test_missing_entry_is_a_miss(self, store, spec):
        assert store.get(spec) is None
        assert store.stats.misses == 1
        assert store.stats.invalid == 0

    def test_entries_are_sharded_by_key_prefix(self, store, spec):
        store.put(spec, make_result())
        path = store.path_for(spec)
        assert path.exists()
        assert path.parent.name == spec.content_hash()[:2]
        assert len(store) == 1

    def test_different_spec_does_not_hit(self, store, spec):
        store.put(spec, make_result())
        other = dataclasses.replace(spec, seed=99)
        assert store.get(other) is None


class TestCorruptionHandling:
    def test_partial_write_is_a_clean_miss(self, store, spec):
        """A torn/partial file (as a non-atomic writer could leave) must
        read as a miss, not a crash or a bogus hit."""
        store.put(spec, make_result())
        path = store.path_for(spec)
        full = path.read_text()
        path.write_text(full[: len(full) // 2])
        assert store.get(spec) is None
        assert store.stats.invalid == 1
        # And the slot is recoverable by a fresh put.
        store.put(spec, make_result())
        assert store.get(spec) is not None

    def test_schema_version_mismatch_is_a_clean_miss(self, store, spec):
        store.put(spec, make_result())
        path = store.path_for(spec)
        payload = json.loads(path.read_text())
        payload["schema_version"] = STORE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert store.get(spec) is None
        assert store.stats.invalid == 1

    def test_key_mismatch_is_a_clean_miss(self, store, spec):
        """An entry filed under the wrong hash (e.g. hand-copied) never
        serves as a hit."""
        store.put(spec, make_result())
        path = store.path_for(spec)
        payload = json.loads(path.read_text())
        payload["spec_hash"] = "0" * 64
        path.write_text(json.dumps(payload))
        assert store.get(spec) is None

    def test_result_field_drift_is_a_clean_miss(self, store, spec):
        """Entries written by an older NetSavingsResult layout re-run
        instead of exploding in the constructor."""
        store.put(spec, make_result())
        path = store.path_for(spec)
        payload = json.loads(path.read_text())
        del payload["result"]["accesses"]
        payload["result"]["obsolete_field"] = 1
        path.write_text(json.dumps(payload))
        assert store.get(spec) is None
        assert store.stats.invalid == 1

    def test_no_temp_files_left_behind(self, store, spec):
        store.put(spec, make_result())
        leftovers = list(store.root.rglob("*.tmp"))
        assert leftovers == []

    def test_atomic_write_failure_cleans_up(self, store, spec, monkeypatch):
        import os as os_mod

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.exec.store.os.replace", broken_replace)
        with pytest.raises(OSError):
            store.put(spec, make_result())
        monkeypatch.undo()
        assert list(store.root.rglob("*.tmp")) == []
        assert store.get(spec) is None

    def test_put_fsyncs_before_rename(self, store, spec, monkeypatch):
        """Durability: the temp file is flushed to disk before it is
        renamed into place, so a power cut cannot promote a torn file."""
        order: list[str] = []
        real_fsync = os.fsync
        real_replace = os.replace

        def spy_fsync(fd):
            order.append("fsync")
            return real_fsync(fd)

        def spy_replace(src, dst):
            order.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr("repro.exec.store.os.fsync", spy_fsync)
        monkeypatch.setattr("repro.exec.store.os.replace", spy_replace)
        store.put(spec, make_result())
        assert "fsync" in order and "replace" in order
        assert order.index("fsync") < order.index("replace")


class TestQuarantine:
    def test_corrupt_shard_is_quarantined(self, store, spec):
        """A corrupt entry is moved aside (inspectable, never a repeat
        offender) and the slot recovers with a fresh put."""
        store.put(spec, make_result())
        path = store.path_for(spec)
        path.write_text("not json {")
        assert store.get(spec) is None
        assert not path.exists()
        assert store.stats.quarantined == 1
        quarantined = list((store.root / "quarantine").iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].name.startswith(path.name)
        assert quarantined[0].read_text() == "not json {"
        # The shard tree is clean again: re-put then hit.
        store.put(spec, make_result())
        assert store.get(spec) is not None
        assert store.stats.quarantined == 1

    def test_schema_mismatch_is_quarantined(self, store, spec):
        store.put(spec, make_result())
        path = store.path_for(spec)
        payload = json.loads(path.read_text())
        payload["schema_version"] = STORE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert store.get(spec) is None
        assert store.stats.quarantined == 1
        assert not path.exists()

    def test_quarantined_entries_do_not_count_as_stored(self, store, spec):
        store.put(spec, make_result())
        store.path_for(spec).write_text("garbage")
        assert store.get(spec) is None
        assert len(store) == 0

    def test_repeated_corruption_keeps_all_evidence(self, store, spec):
        for _ in range(2):
            store.put(spec, make_result())
            store.path_for(spec).write_text("garbage")
            assert store.get(spec) is None
        assert store.stats.quarantined == 2
        assert len(list((store.root / "quarantine").iterdir())) == 2

    def test_quarantine_failure_is_still_a_miss(self, store, spec, monkeypatch):
        """A read-only quarantine dir must not break the campaign — the
        entry still reads as a miss."""
        store.put(spec, make_result())
        store.path_for(spec).write_text("garbage")

        def broken_replace(src, dst):
            raise OSError("read-only filesystem")

        monkeypatch.setattr("repro.exec.store.os.replace", broken_replace)
        assert store.get(spec) is None
        assert store.stats.invalid == 1
        assert store.stats.quarantined == 0


class TestTransientReadErrors:
    """Regression: any OSError on read used to be treated as corruption
    and quarantined the shard — permanently evicting a healthy entry over
    an EACCES/EMFILE/NFS hiccup.  Transient errors are plain misses."""

    def _flaky_read_text(self, monkeypatch, victim, exc):
        from pathlib import Path

        real = Path.read_text

        def flaky(self, *args, **kwargs):
            if self.name == victim.name:
                raise exc
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", flaky)

    @pytest.mark.parametrize(
        "exc",
        [
            PermissionError(13, "Permission denied"),
            OSError(24, "Too many open files"),
            OSError(5, "Input/output error"),
        ],
        ids=["EACCES", "EMFILE", "EIO"],
    )
    def test_transient_error_is_plain_miss_entry_survives(
        self, store, spec, monkeypatch, exc
    ):
        store.put(spec, make_result())
        path = store.path_for(spec)
        self._flaky_read_text(monkeypatch, path, exc)
        assert store.get(spec) is None
        assert store.stats.read_errors == 1
        assert store.stats.invalid == 0
        assert store.stats.quarantined == 0
        # The healthy entry is still in place ...
        assert path.exists()
        monkeypatch.undo()
        # ... and the very next lookup hits it.
        assert store.get(spec) is not None
        assert store.stats.hits == 1

    def test_corruption_still_quarantines(self, store, spec):
        """The fix must not soften real corruption handling."""
        store.put(spec, make_result())
        store.path_for(spec).write_text("not json {")
        assert store.get(spec) is None
        assert store.stats.invalid == 1
        assert store.stats.quarantined == 1
        assert store.stats.read_errors == 0

    def test_peek_never_touches_stats_or_quarantine(self, store, spec):
        assert store.peek(spec) is None
        store.put(spec, make_result())
        assert store.peek(spec) is not None
        store.path_for(spec).write_text("garbage")
        assert store.peek(spec) is None
        assert store.path_for(spec).exists()  # peek never quarantines
        assert store.stats.lookups == 0


class TestDurability:
    def test_new_shard_creation_fsyncs_store_root(self, store, spec, monkeypatch):
        """Regression: the shard directory was fsynced but the store root
        was not, so a power cut after creating a brand-new shard could
        drop the whole shard's directory entry."""
        from repro.exec.store import ResultStore

        synced = []
        monkeypatch.setattr(
            ResultStore, "_fsync_dir", staticmethod(synced.append)
        )
        store.put(spec, make_result())
        shard = store.path_for(spec).parent
        assert synced == [shard, store.root]
        # Re-putting into the now-existing shard skips the root fsync.
        synced.clear()
        store.put(spec, make_result())
        assert synced == [shard]

    def test_len_and_disk_usage_ignore_tmp_orphans(self, store, spec):
        store.put(spec, make_result())
        entries, used = store.disk_usage()
        assert entries == len(store) == 1
        shard = store.path_for(spec).parent
        (shard / ".deadbeef-orphan.tmp").write_text("x" * 10_000)
        (store.root / ".stray.tmp").write_text("y" * 10_000)
        assert len(store) == 1
        assert store.disk_usage() == (entries, used)
