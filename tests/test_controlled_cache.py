"""Tests for the leakage-controlled D-cache (techniques, decay, integration)."""

from __future__ import annotations

import pytest

from repro.cache.blocks import LineMode
from repro.cache.cache import Cache
from repro.leakage.structures import CacheGeometry
from repro.leakctl.base import (
    DecayPolicy,
    TechniqueKind,
    drowsy_technique,
    gated_vss_technique,
    rbb_technique,
)
from repro.leakctl.controlled import ControlledCache
from repro.power.wattch import EnergyAccountant, default_power_config

TINY = CacheGeometry(size_bytes=8 * 64 * 2, assoc=2, line_bytes=64)  # 8 sets
INTERVAL = 1024


def make_cache(technique, *, policy=DecayPolicy.NOACCESS, interval=INTERVAL,
               with_accountant=False):
    acct = (
        EnergyAccountant(config=default_power_config()) if with_accountant else None
    )
    cache = ControlledCache(
        Cache("l1d", TINY),
        technique,
        decay_interval=interval,
        policy=policy,
        accountant=acct,
    )
    return cache, acct


def addr(cache: ControlledCache, set_idx: int, tag: int) -> int:
    return cache.cache.line_addr_of(set_idx, tag)


def touch(cache: ControlledCache, a: int, cycle: int, *, is_write=False):
    """Access and, as the memory hierarchy would, fill on a miss."""
    out = cache.access(a, is_write=is_write, cycle=cycle)
    if not out.hit:
        cache.fill(a, is_write=is_write, cycle=cycle)
    return out


class TestTechniqueConfigs:
    def test_table_1_settling_times(self):
        dr = drowsy_technique()
        gv = gated_vss_technique()
        assert dr.wake_cycles == 3 and dr.sleep_cycles == 3
        assert gv.wake_cycles == 3 and gv.sleep_cycles == 30

    def test_state_preservation_flags(self):
        assert drowsy_technique().state_preserving
        assert not gated_vss_technique().state_preserving
        assert rbb_technique().state_preserving

    def test_drowsy_live_tags_faster_slow_hit(self):
        assert drowsy_technique(decay_tags=False).slow_hit_cycles < (
            drowsy_technique(decay_tags=True).slow_hit_cycles
        )

    def test_with_overrides(self):
        tweaked = gated_vss_technique().with_overrides(sleep_cycles=10)
        assert tweaked.sleep_cycles == 10
        assert tweaked.kind is TechniqueKind.GATED_VSS

    def test_standby_fraction_dispatch(self, node70, hot_temp_k):
        from repro.leakage.structures import CacheLeakageModel, L1D_GEOMETRY

        model = CacheLeakageModel(
            geometry=L1D_GEOMETRY, node=node70, vdd=0.9, temp_k=hot_temp_k
        )
        f_drowsy = drowsy_technique().standby_fraction(model)
        f_gated = gated_vss_technique().standby_fraction(model)
        f_rbb = rbb_technique().standby_fraction(model)
        assert f_gated < f_drowsy < 1.0
        # RBB at 70 nm: GIDL-limited, not better than drowsy (the paper's
        # reason for leaving RBB out).
        assert f_rbb > f_gated

    def test_standby_fraction_override(self, node70, hot_temp_k):
        from repro.leakage.structures import CacheLeakageModel, L1D_GEOMETRY

        model = CacheLeakageModel(
            geometry=L1D_GEOMETRY, node=node70, vdd=0.9, temp_k=hot_temp_k
        )
        t = drowsy_technique().with_overrides(standby_fraction_override=0.42)
        assert t.standby_fraction(model) == 0.42


class TestDecayMachinery:
    def test_line_decays_after_full_interval_idle(self):
        cache, _ = make_cache(drowsy_technique())
        a = addr(cache, 0, 1)
        touch(cache, a, 0)
        # Global ticks at interval/4; the 2-bit counter saturates after 4
        # ticks, so decay happens between 1x and 1.25x interval after the
        # last access.
        cache.advance(INTERVAL - 1)
        set_idx, _, way = cache.cache.probe(a)
        assert cache.cache.lines[set_idx][way].mode is LineMode.ACTIVE
        cache.advance(INTERVAL + INTERVAL // 4 + 1)
        assert cache.cache.lines[set_idx][way].mode is not LineMode.ACTIVE

    def test_access_resets_decay_counter(self):
        cache, _ = make_cache(drowsy_technique())
        a = addr(cache, 0, 1)
        touch(cache, a, 0)
        # Touch the line every half interval: it must never decay.
        for t in range(INTERVAL // 2, 10 * INTERVAL, INTERVAL // 2):
            out = cache.access(a, is_write=False, cycle=t)
            assert out.hit
            assert out.extra_latency == 0

    def test_invalid_lines_decay_too(self):
        cache, _ = make_cache(gated_vss_technique())
        cache.advance(2 * INTERVAL)
        assert cache.n_standby == TINY.n_lines

    def test_simple_policy_blankets_everything(self):
        cache, _ = make_cache(
            drowsy_technique(), policy=DecayPolicy.SIMPLE, interval=512
        )
        a = addr(cache, 0, 1)
        touch(cache, a, 0)
        cache.advance(513)
        # Even the just-touched line went drowsy (no per-line history).
        set_idx, _, way = cache.cache.probe(a)
        assert cache.cache.lines[set_idx][way].mode is not LineMode.ACTIVE

    def test_population_invariant(self):
        cache, _ = make_cache(gated_vss_technique())
        for i in range(40):
            touch(cache, addr(cache, i % 8, i % 3), i * 200,
                  is_write=(i % 4 == 0))
        cache.advance(20000)
        assert cache.standby_population_check()

    def test_too_small_interval_rejected(self):
        with pytest.raises(ValueError):
            make_cache(drowsy_technique(), interval=4)


class TestDrowsyBehaviour:
    def test_slow_hit_wakes_line_with_penalty(self):
        cache, _ = make_cache(drowsy_technique())
        a = addr(cache, 0, 1)
        touch(cache, a, 0)
        cache.advance(3 * INTERVAL)
        out = cache.access(a, is_write=False, cycle=3 * INTERVAL)
        assert out.hit  # state preserved!
        assert out.extra_latency == drowsy_technique().slow_hit_cycles
        assert cache.stats.slow_hits == 1
        # Line is awake again.
        set_idx, _, way = cache.cache.probe(a)
        assert cache.cache.lines[set_idx][way].mode is LineMode.ACTIVE

    def test_drowsy_preserves_dirty_data(self):
        cache, acct = make_cache(drowsy_technique(), with_accountant=True)
        a = addr(cache, 1, 1)
        touch(cache, a, 0, is_write=True)
        cache.advance(3 * INTERVAL)
        assert cache.stats.decay_writebacks == 0
        out = cache.access(a, is_write=False, cycle=3 * INTERVAL)
        assert out.hit
        set_idx, _, way = cache.cache.probe(a)
        assert cache.cache.lines[set_idx][way].dirty

    def test_true_miss_pays_tag_wake(self):
        cache, acct = make_cache(drowsy_technique(), with_accountant=True)
        a = addr(cache, 2, 1)
        touch(cache, a, 0)
        cache.advance(3 * INTERVAL)
        out = cache.access(addr(cache, 2, 9), is_write=False, cycle=3 * INTERVAL)
        assert not out.hit
        assert not out.induced
        assert out.extra_latency == drowsy_technique().wake_cycles
        assert cache.stats.tag_wake_misses == 1
        assert acct.counts["tag_wake"] == 1

    def test_live_tags_skip_tag_wake_on_miss(self):
        cache, _ = make_cache(drowsy_technique(decay_tags=False))
        a = addr(cache, 2, 1)
        touch(cache, a, 0)
        cache.advance(3 * INTERVAL)
        out = cache.access(addr(cache, 2, 9), is_write=False, cycle=3 * INTERVAL)
        assert out.extra_latency == 0


class TestGatedBehaviour:
    def test_induced_miss_classified(self):
        cache, _ = make_cache(gated_vss_technique())
        a = addr(cache, 0, 1)
        touch(cache, a, 0)
        cache.advance(3 * INTERVAL)
        out = cache.access(a, is_write=False, cycle=3 * INTERVAL)
        assert not out.hit  # state lost!
        assert out.induced
        assert cache.stats.induced_misses == 1
        assert cache.stats.true_misses == 1  # only the initial cold install

    def test_true_miss_not_induced(self):
        cache, _ = make_cache(gated_vss_technique())
        out = cache.access(addr(cache, 0, 7), is_write=False, cycle=0)
        assert not out.hit and not out.induced
        assert cache.stats.true_misses == 1

    def test_dirty_line_writes_back_at_decay(self):
        cache, acct = make_cache(gated_vss_technique(), with_accountant=True)
        a = addr(cache, 1, 1)
        touch(cache, a, 0, is_write=True)
        cache.advance(3 * INTERVAL)
        assert cache.stats.decay_writebacks == 1
        assert acct.counts["l2_writeback"] == 1

    def test_ghost_cleared_by_refill(self):
        cache, _ = make_cache(gated_vss_technique())
        a = addr(cache, 0, 1)
        touch(cache, a, 0)
        cache.advance(3 * INTERVAL)
        t = 3 * INTERVAL
        out = cache.access(a, is_write=False, cycle=t)
        assert out.induced
        cache.fill(a, is_write=False, cycle=t + 10)
        # Immediately touching it again is now a plain hit.
        out2 = cache.access(a, is_write=False, cycle=t + 20)
        assert out2.hit

    def test_all_standby_miss_counts_tag_skip(self):
        cache, _ = make_cache(gated_vss_technique())
        cache.advance(3 * INTERVAL)  # everything (invalid) decayed
        out = cache.access(addr(cache, 4, 3), is_write=False, cycle=3 * INTERVAL)
        assert cache.stats.tag_skip_misses == 1
        assert out.tag_check_saving == 0  # default: no saving vs baseline

    def test_tag_skip_saving_ablation(self):
        tech = gated_vss_technique().with_overrides(miss_tag_skip_saving=1)
        cache, _ = make_cache(tech)
        cache.advance(3 * INTERVAL)
        out = cache.access(addr(cache, 4, 3), is_write=False, cycle=3 * INTERVAL)
        assert out.tag_check_saving == 1

    def test_fill_during_settle_reports_wait(self):
        """Refill landing in a still-settling way reports when the rail is
        ready (the gated-Vss 30-cycle sensitivity)."""
        cache, _ = make_cache(gated_vss_technique())
        a = addr(cache, 5, 1)
        b = addr(cache, 5, 2)
        touch(cache, a, 0)
        touch(cache, b, 1)
        # Counters saturate on the 4th global tick: lines touched at ~0
        # deactivate exactly at the tick at cycle == INTERVAL, and the
        # gated settle runs for sleep_cycles after that.
        decay_at = INTERVAL
        probe_at = decay_at + 2  # mid-settle (sleep is 30 cycles)
        cache.advance(probe_at)
        assert cache.n_standby > 0
        out = cache.access(addr(cache, 5, 3), is_write=False, cycle=probe_at)
        assert out.fill_ready_cycle >= decay_at + gated_vss_technique().sleep_cycles


class TestLeakageIntegration:
    def test_turnoff_ratio_exact_for_deterministic_scenario(self):
        """One line active whole run, everything else decays at a known
        cycle: the integral must match the closed form."""
        tech = drowsy_technique()
        cache, _ = make_cache(tech)
        a = addr(cache, 0, 1)
        end = 16 * INTERVAL
        # Touch 'a' every interval/2 so it never decays.
        touch(cache, a, 0)
        for t in range(INTERVAL // 2, end, INTERVAL // 2):
            cache.access(a, is_write=False, cycle=t)
        cache.finalize(end)
        ratio = cache.stats.turnoff_ratio(TINY.n_lines)
        # 15 of 16 lines decay at ~1.25x interval and stay off; minus
        # settle debit.  Expected ratio ~ (15/16) * (end - decay)/end.
        decay_at = INTERVAL + INTERVAL // 4
        expected = (TINY.n_lines - 1) / TINY.n_lines * (end - decay_at) / end
        assert ratio == pytest.approx(expected, rel=0.05)

    def test_standby_cycles_never_exceed_capacity(self):
        cache, _ = make_cache(gated_vss_technique())
        cache.advance(50 * INTERVAL)
        cache.finalize(50 * INTERVAL)
        assert cache.stats.standby_line_cycles <= TINY.n_lines * 50 * INTERVAL

    def test_wakeups_and_transitions_counted(self):
        cache, acct = make_cache(drowsy_technique(), with_accountant=True)
        a = addr(cache, 0, 1)
        touch(cache, a, 0)
        cache.advance(3 * INTERVAL)
        cache.access(a, is_write=False, cycle=3 * INTERVAL)
        assert cache.stats.wakeups >= 1
        assert cache.stats.deactivations >= 1
        assert acct.counts["mode_transition"] >= 2

    def test_counter_tick_energy_counted(self):
        cache, acct = make_cache(drowsy_technique(), with_accountant=True)
        cache.advance(INTERVAL)
        assert acct.counts["decay_counter_tick"] >= TINY.n_lines


class TestExpiryHeapBound:
    """Regression: the lazy-decay expiry heap must stay bounded.

    Every counter reset re-arms its line's expiry at ``tick_index + 4``.
    A hot line is reset many times within one tick period, and each of
    those resets names the same expiry, so only the first pushes a heap
    entry; an entry only retires once its tick has passed.  Every queued
    expiry thus lies in (tick_index, tick_index + 4], at most one entry
    per line per value, so the heap never holds more than 4 entries per
    line, however many accesses the trace makes."""

    @staticmethod
    def _bounded_touch(cache, a, cycle, **kwargs):
        """``touch``, then check the heap against its structural bound."""
        touch(cache, a, cycle, **kwargs)
        assert len(cache._expiry_heap) <= 4 * TINY.n_lines

    def _touch_heavy(self, cache, *, rounds=4000):
        # Hammer two hot lines with frequent re-arms plus background
        # traffic, advancing slowly enough that almost no entry retires.
        hot = [addr(cache, 0, 1), addr(cache, 1, 1)]
        cycle = 0
        for i in range(rounds):
            cycle += 7
            self._bounded_touch(
                cache, hot[i % 2], cycle, is_write=(i % 16 == 0)
            )
            if i % 8 == 0:
                self._bounded_touch(cache, addr(cache, i % 8, i % 2), cycle + 1)
        return cycle

    def test_heap_stays_bounded_under_touch_heavy_trace(self):
        """4,000 rounds at 7 cycles apart span about 110 tick periods of
        256 cycles, with some 4,500 accesses to 16 lines: before the
        duplicate re-arms were dropped, the heap grew with the access
        count.  Checked after every access."""
        cache, _ = make_cache(drowsy_technique())
        self._touch_heavy(cache, rounds=4000)
        assert cache._lazy

    def test_heap_bound_is_reached_when_every_line_rearms_every_tick(self):
        """The worst case: all 16 lines of the tiny cache are touched once
        in every tick period.  Each tick then pushes one new entry per
        line while the entries of the three previous ticks are still
        queued, so the heap sits exactly at 4 x n_lines = 64 entries and
        never above."""
        cache, _ = make_cache(drowsy_technique())
        lines = [
            addr(cache, set_idx, tag)
            for set_idx in range(TINY.n_sets)
            for tag in range(TINY.assoc)
        ]
        period = INTERVAL // 4
        peak = 0
        for tick in range(1, 40):
            for offset, a in enumerate(lines):
                self._bounded_touch(cache, a, tick * period + offset)
                peak = max(peak, len(cache._expiry_heap))
        assert peak == 4 * TINY.n_lines
        # Every line was touched within its interval: nothing decayed.
        assert cache.stats.deactivations == 0

    def test_bounded_heap_preserves_decay_results(self):
        """Bit-identity: the lazy heap, bounded by dropping duplicate
        re-arms, decays exactly the lines, at exactly the ticks, that the
        reference full-array scan does."""
        fast, _ = make_cache(drowsy_technique())
        ref = ControlledCache(
            Cache("l1d", TINY),
            drowsy_technique(),
            decay_interval=INTERVAL,
            policy=DecayPolicy.NOACCESS,
            reference=True,
        )
        assert fast._lazy and not ref._lazy
        for cache in (fast, ref):
            end = self._touch_heavy(cache, rounds=2500)
            # Let part of the population decay, touch again, decay again.
            cache.advance(end + 3 * INTERVAL)
            touch(cache, addr(cache, 0, 1), end + 3 * INTERVAL)
            cache.advance(end + 6 * INTERVAL)
            cache.finalize(end + 6 * INTERVAL)
        for set_idx in range(TINY.n_sets):
            for way in range(TINY.assoc):
                a = fast.cache.lines[set_idx][way]
                b = ref.cache.lines[set_idx][way]
                assert a.mode is b.mode, (set_idx, way)
                assert a.tag == b.tag and a.valid == b.valid
        assert fast.n_standby == ref.n_standby
        for name in (
            "hits", "slow_hits", "induced_misses", "true_misses",
            "deactivations", "wakeups", "decay_writebacks",
            "standby_line_cycles",
        ):
            assert getattr(fast.stats, name) == getattr(ref.stats, name), name


class TestBankGranularity:
    """Paper Section 2.3: decay 'can be done at various granularities'."""

    def test_bank_must_divide_set_count(self):
        with pytest.raises(ValueError, match="bank_sets"):
            ControlledCache(
                Cache("l1d", TINY),
                drowsy_technique(),
                decay_interval=INTERVAL,
                bank_sets=3,
            )
        with pytest.raises(ValueError, match="bank_sets"):
            ControlledCache(
                Cache("l1d", TINY),
                drowsy_technique(),
                decay_interval=INTERVAL,
                bank_sets=0,
            )

    def test_hot_line_keeps_whole_bank_awake(self):
        cache = ControlledCache(
            Cache("l1d", TINY),
            drowsy_technique(),
            decay_interval=INTERVAL,
            bank_sets=4,
        )
        hot = addr(cache, 0, 1)
        touch(cache, hot, 0)
        # Keep set 0 hot; sets 1-3 share its bank and must stay awake,
        # sets 4-7 form the other bank and decay.
        for t in range(INTERVAL // 2, 6 * INTERVAL, INTERVAL // 2):
            cache.access(hot, is_write=False, cycle=t)
        cache.advance(6 * INTERVAL)
        assert cache.n_standby == 4 * TINY.assoc  # only the cold bank

    def test_bank_decays_when_fully_idle(self):
        cache = ControlledCache(
            Cache("l1d", TINY),
            gated_vss_technique(),
            decay_interval=INTERVAL,
            bank_sets=4,
        )
        touch(cache, addr(cache, 0, 1), 0)
        touch(cache, addr(cache, 5, 1), 0)
        cache.advance(3 * INTERVAL)
        assert cache.n_standby == TINY.n_lines  # everything idle -> all down

    def test_touch_wakes_whole_bank(self):
        cache = ControlledCache(
            Cache("l1d", TINY),
            drowsy_technique(),
            decay_interval=INTERVAL,
            bank_sets=4,
        )
        a = addr(cache, 0, 1)
        touch(cache, a, 0)
        cache.advance(3 * INTERVAL)
        assert cache.n_standby == TINY.n_lines
        out = cache.access(a, is_write=False, cycle=3 * INTERVAL)
        assert out.hit
        # The whole 4-set bank (8 lines) woke; the other bank stayed down.
        assert cache.n_standby == 4 * TINY.assoc
        assert cache.standby_population_check()

    def test_coarser_banks_lower_turnoff(self):
        """The quantified reason row granularity won: coarse banks almost
        never find a fully-idle moment under scattered accesses."""
        import random

        results = {}
        for banks in (1, 4):
            cache = ControlledCache(
                Cache("l1d", TINY),
                drowsy_technique(),
                decay_interval=INTERVAL,
                bank_sets=banks,
            )
            rng = random.Random(9)
            cycle = 0
            for _ in range(400):
                cycle += rng.randrange(20, 120)
                touch(cache, addr(cache, rng.randrange(8), rng.randrange(2)),
                      cycle)
            cache.finalize(cycle)
            results[banks] = cache.stats.turnoff_ratio(TINY.n_lines)
        assert results[4] <= results[1]
