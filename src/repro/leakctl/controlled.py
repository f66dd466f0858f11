"""The leakage-controlled L1 data cache.

Composes the plain cache mechanisms with a decay policy and a technique
model.  This is where the paper's behavioural asymmetries live:

* **drowsy** standby preserves data: an access to a standby line is a
  *slow hit* (wake tags + data, >= 3 cycles with drowsy tags); a *true
  miss* in a set with standby tags must first wake those tags before the
  L2 access can begin — the drowsy disadvantage on the common case;
* **gated-Vss** standby loses data: deactivation writes back a dirty line
  and invalidates it; an access that would have hit becomes an *induced
  miss* served by the L2; a true miss whose candidate ways are all in
  standby skips the tag check and starts the L2 access early — the gated
  advantage on the common case.

Leakage is integrated exactly as a piecewise-constant function of the
standby population: `standby_line_cycles` accumulates lazily on every
population change, with the Table-1 settling time charged at full (active)
leakage by debiting ``sleep_cycles`` at deactivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

from repro import obs as _obs
from repro.cache.blocks import LineMode
from repro.cache.cache import Cache, Victim
from repro.leakctl.base import DecayPolicy, TechniqueConfig, TechniqueKind
from repro.power.wattch import EnergyAccountant


@dataclass(frozen=True)
class AccessOutcome:
    """Result of a controlled-cache lookup, before any L2 involvement.

    Attributes:
        hit: Data served from L1 (normal hit or drowsy slow hit).
        extra_latency: Cycles added on top of the base L1 hit latency
            (slow-hit wakeups, settle waits, tag wakes on misses).
        induced: The miss was induced by decay (data was resident and
            would have hit).  Only possible for non-state-preserving
            techniques.
        tag_check_saving: Cycles saved on this miss because every candidate
            way was in (information-free) gated standby.
        victim: Dirty line displaced by the fill, if the caller fills.
    """

    hit: bool
    extra_latency: int = 0
    induced: bool = False
    tag_check_saving: int = 0
    fill_ready_cycle: int = 0


MIN_DECAY_INTERVAL = 8
"""Smallest decay interval (cycles) a :class:`ControlledCache` accepts."""

# Shared result for the overwhelmingly common penalty-free hit (the
# dataclass is frozen, so one instance serves every such access).
_FAST_HIT = AccessOutcome(hit=True)

# Line modes as module globals: the access path tests them per op, and a
# global load costs ~13 ns against ~150 ns for an Enum class attribute.
_ACTIVE = LineMode.ACTIVE
_GOING_STANDBY = LineMode.GOING_STANDBY


@dataclass
class StandbyStats:
    """Leakage-integration and event statistics for one run."""

    standby_line_cycles: float = 0.0
    total_cycles: int = 0
    accesses: int = 0
    hits: int = 0
    slow_hits: int = 0
    true_misses: int = 0
    induced_misses: int = 0
    deactivations: int = 0
    wakeups: int = 0
    decay_writebacks: int = 0
    tag_wake_misses: int = 0
    tag_skip_misses: int = 0

    def turnoff_ratio(self, n_lines: int) -> float:
        """Average fraction of lines in standby over the run."""
        if self.total_cycles <= 0:
            return 0.0
        # Every wake happens at or after the line's settle deadline, so each
        # closed standby episode contributes >= 0 to the integral; a negative
        # total means the lazy accumulation went wrong, not a boundary case
        # to clamp away.
        assert self.standby_line_cycles >= 0, (
            f"standby integral went negative: {self.standby_line_cycles}"
        )
        return self.standby_line_cycles / (n_lines * self.total_cycles)


class ControlledCache:
    """L1 D-cache wrapped with a leakage-control technique.

    Args:
        cache: The underlying plain cache (geometry + LRU + tags).
        technique: Which leakage-control technique to apply.
        decay_interval: Idle time (cycles) after which a line decays.
        policy: ``noaccess`` (per-line counters) or ``simple`` (blanket).
        accountant: Dynamic-energy accountant to charge technique costs to.
        decay_writeback_event: Energy event charged when a dirty line is
            written back at decay — ``"l2_writeback"`` for an L1 under
            control (the default), ``"mem_access"`` when the controlled
            cache is the L2 itself (its victims go to memory).
        reference: Force the original full-array-scan decay machinery
            instead of the expiry-heap fast path.  The two are
            bit-identical; the slow path exists so equivalence tests can
            prove that at runtime.
        bank_sets: Decay granularity in *sets* (paper Section 2.3: control
            "can be done at various granularities").  1 (default) is the
            per-row/per-line granularity of the paper; larger values gang
            ``bank_sets`` contiguous sets behind one sleep rail — the bank
            deactivates only when every line in it has sat idle the full
            interval, and touching anything in a standby bank wakes the
            whole bank.
    """

    def __init__(
        self,
        cache: Cache,
        technique: TechniqueConfig,
        *,
        decay_interval: int,
        policy: DecayPolicy = DecayPolicy.NOACCESS,
        accountant: EnergyAccountant | None = None,
        decay_writeback_event: str = "l2_writeback",
        bank_sets: int = 1,
        reference: bool = False,
    ) -> None:
        if decay_interval < MIN_DECAY_INTERVAL:
            raise ValueError(f"decay interval too small: {decay_interval}")
        if bank_sets < 1 or cache.geometry.n_sets % bank_sets:
            raise ValueError(
                f"bank_sets must divide the set count "
                f"({cache.geometry.n_sets}), got {bank_sets}"
            )
        self.cache = cache
        self.technique = technique
        self.decay_interval = decay_interval
        self.policy = policy
        self.accountant = accountant
        self.decay_writeback_event = decay_writeback_event
        self.bank_sets = bank_sets
        # Optional occupancy telemetry: (cycle, n_standby) samples taken at
        # every global decay tick when enabled via record_occupancy().
        self._occupancy_trace: list[tuple[int, int]] | None = None
        # Optional bounded time-series telemetry (see attach_recorder).
        self._ts_recorder = None
        g = cache.geometry
        # Ghost tags let gated-Vss classify induced misses (and stand in for
        # the "tags used to facilitate adaptivity" of Section 5.3).
        self._ghost_tags: list[list[int | None]] = [
            [None] * g.assoc for _ in range(g.n_sets)
        ]
        self._n_standby = 0
        self._last_integrate_cycle = 0
        self._tick_period = max(decay_interval // 4, 1)
        if policy is DecayPolicy.SIMPLE:
            self._tick_period = decay_interval
        self._next_tick = self._tick_period
        self.stats = StandbyStats()
        # Lazy noaccess decay: instead of scanning every line at every
        # global tick, each counter reset schedules the line's saturation
        # tick (reset + 4 increments of the 2-bit counter) on an expiry
        # heap.  Ticks are identified by their *processing order* — the
        # number of ticks the advance() loop has handled — not by cycle,
        # which makes the scheme exactly equivalent to the scan even when
        # fills happen "in the past" (the L2 writeback path passes cycle 0)
        # or when the adaptive controller rewrites the tick period.
        # Stale heap entries (the line was touched again, or is already in
        # standby) are detected against _line_expiry and skipped.
        self._lazy = (
            not reference
            and policy is DecayPolicy.NOACCESS
            and bank_sets == 1
        )
        self._tick_index = 0
        self._line_expiry: list[list[int]] = [
            [4] * g.assoc for _ in range(g.n_sets)
        ]
        self._expiry_heap: list[tuple[int, int, int]] = [
            (4, set_idx, way)
            for set_idx in range(g.n_sets)
            for way in range(g.assoc)
        ]
        # The first cycle at which advance() has work: lets the per-access
        # path skip the call while no tick is due.
        self._advance_due = self._next_tick

    # ------------------------------------------------------------------
    # Leakage integration
    # ------------------------------------------------------------------

    def _integrate(self, cycle: int) -> None:
        if cycle > self._last_integrate_cycle:
            self.stats.standby_line_cycles += self._n_standby * (
                cycle - self._last_integrate_cycle
            )
            self._last_integrate_cycle = cycle

    def finalize(self, cycle: int) -> None:
        """Close the integration at the end of the run."""
        self.advance(cycle)
        self._integrate(cycle)
        self.stats.total_cycles = cycle
        if _obs.is_enabled():
            stats = self.stats
            _obs.incr("controlled.runs")
            _obs.incr("controlled.accesses", stats.accesses)
            _obs.incr("controlled.deactivations", stats.deactivations)
            _obs.incr("controlled.wakeups", stats.wakeups)

    # ------------------------------------------------------------------
    # Decay machinery
    # ------------------------------------------------------------------

    def record_occupancy(self) -> None:
        """Start sampling the standby population at every global tick.

        The trace is available as :attr:`occupancy_trace` — one
        ``(cycle, lines_in_standby)`` pair per decay tick — and is the
        hook for plotting turnoff dynamics outside this package.
        """
        if self._occupancy_trace is None:
            self._occupancy_trace = []

    @property
    def occupancy_trace(self) -> list[tuple[int, int]]:
        """Sampled ``(cycle, n_standby)`` pairs (see record_occupancy)."""
        return list(self._occupancy_trace or ())

    def attach_recorder(self, recorder) -> None:
        """Record bounded time series of the cache's standby dynamics.

        One sample per global decay tick (base window = the tick period in
        cycles): the live/drowsy/off line-population split, plus the
        decay-induced misses and mode transitions that landed in each
        tick.  Standby lines count as drowsy for state-preserving
        techniques and as off for gated-Vss; the inapplicable series stays
        at zero so the report can plot a uniform state split.  Purely
        additive — attaching a recorder never alters decay behaviour.
        """
        window = self._tick_period
        self._ts_recorder = recorder
        self._ts_live = recorder.series(
            "cache.frac_live", kind="mean", base_window=window
        )
        drowsy = recorder.series(
            "cache.frac_drowsy", kind="mean", base_window=window
        )
        off = recorder.series(
            "cache.frac_off", kind="mean", base_window=window
        )
        if self.technique.state_preserving:
            self._ts_standby, self._ts_zero = drowsy, off
        else:
            self._ts_standby, self._ts_zero = off, drowsy
        self._ts_induced = recorder.series(
            "cache.induced_misses", kind="sum", base_window=window
        )
        self._ts_wakeups = recorder.series(
            "cache.wakeups", kind="sum", base_window=window
        )
        self._ts_deact = recorder.series(
            "cache.deactivations", kind="sum", base_window=window
        )
        self._ts_prev = (0, 0, 0)

    def _ts_sample(self) -> None:
        """Append one decay tick's worth of samples to every series."""
        frac = self._n_standby / self.cache.geometry.n_lines
        self._ts_live.append(1.0 - frac)
        self._ts_standby.append(frac)
        self._ts_zero.append(0.0)
        stats = self.stats
        prev = self._ts_prev
        self._ts_induced.append(stats.induced_misses - prev[0])
        self._ts_wakeups.append(stats.wakeups - prev[1])
        self._ts_deact.append(stats.deactivations - prev[2])
        self._ts_prev = (
            stats.induced_misses, stats.wakeups, stats.deactivations
        )

    def advance(self, cycle: int) -> None:
        """Process all global-counter expiries up to ``cycle`` (lazy)."""
        while self._next_tick <= cycle:
            self._integrate(self._next_tick)
            if self._lazy:
                self._noaccess_tick_lazy(self._next_tick)
            elif self.policy is DecayPolicy.NOACCESS:
                self._noaccess_tick(self._next_tick)
            else:
                self._simple_tick(self._next_tick)
            if self._occupancy_trace is not None:
                self._occupancy_trace.append((self._next_tick, self._n_standby))
            if self._ts_recorder is not None:
                self._ts_sample()
            self._next_tick += self._tick_period
        self._advance_due = self._next_tick

    def _schedule_expiry(self, set_idx: int, way: int) -> None:
        """(Re)arm a line's decay after a counter reset (lazy path only).

        A line re-armed again within the same tick already has its entry
        queued (an entry retires only once its tick has passed), so no
        duplicate is pushed: it could only pop to find the line already
        decayed.  Every queued expiry therefore lies in (tick_index,
        tick_index + 4] with at most one entry per line per value, which
        bounds the heap at 4 x n_lines however touch-heavy the trace.
        """
        expiry = self._tick_index + 4
        row = self._line_expiry[set_idx]
        if row[way] != expiry:
            row[way] = expiry
            heappush(self._expiry_heap, (expiry, set_idx, way))

    def _noaccess_tick_lazy(self, cycle: int) -> None:
        """One global tick under the expiry heap: O(expiries), not O(lines).

        Pops lines whose 2-bit counter would have saturated by this tick.
        The heap orders entries (tick, set, way), the same order the scan
        visits them, so the two paths deactivate identically.
        """
        if self.accountant is not None:
            self.accountant.add(
                "decay_counter_tick", self.cache.geometry.n_lines
            )
        self._tick_index += 1
        tick = self._tick_index
        heap = self._expiry_heap
        lines = self.cache.lines
        expiry = self._line_expiry
        while heap and heap[0][0] <= tick:
            exp, set_idx, way = heappop(heap)
            if expiry[set_idx][way] != exp:
                continue  # superseded by a later counter reset
            if lines[set_idx][way].mode is not _ACTIVE:
                continue  # already in standby
            self._deactivate(set_idx, way, cycle)

    def _noaccess_tick(self, cycle: int) -> None:
        n_lines = self.cache.geometry.n_lines
        if self.accountant is not None:
            self.accountant.add("decay_counter_tick", n_lines)
        if self.bank_sets == 1:
            for set_idx, ways in enumerate(self.cache.lines):
                for way, line in enumerate(ways):
                    if line.mode is not _ACTIVE:
                        continue
                    # Invalid lines hold nothing worth keeping powered:
                    # they decay through the same counters (a freshly-
                    # evicted or never-filled row is idle by definition).
                    if line.decay_counter >= 3:
                        self._deactivate(set_idx, way, cycle)
                    else:
                        line.decay_counter += 1
            return
        # Bank granularity: a bank goes down only when every active line
        # in it has a saturated counter.
        n_sets = self.cache.geometry.n_sets
        for bank_start in range(0, n_sets, self.bank_sets):
            bank = range(bank_start, bank_start + self.bank_sets)
            all_idle = True
            any_active = False
            for set_idx in bank:
                for line in self.cache.lines[set_idx]:
                    if line.mode is _ACTIVE:
                        any_active = True
                        if line.decay_counter < 3:
                            all_idle = False
            if any_active and all_idle:
                for set_idx in bank:
                    for way, line in enumerate(self.cache.lines[set_idx]):
                        if line.mode is _ACTIVE:
                            self._deactivate(set_idx, way, cycle)
            else:
                for set_idx in bank:
                    for line in self.cache.lines[set_idx]:
                        if (
                            line.mode is _ACTIVE
                            and line.decay_counter < 3
                        ):
                            line.decay_counter += 1

    def _wake_bank_of(self, set_idx: int, cycle: int) -> None:
        """Wake every standby line sharing the set's bank rail."""
        if self.bank_sets == 1:
            return
        bank_start = (set_idx // self.bank_sets) * self.bank_sets
        for s in range(bank_start, bank_start + self.bank_sets):
            for way, line in enumerate(self.cache.lines[s]):
                if line.mode is not _ACTIVE:
                    self._wake(s, way, cycle)

    def _simple_tick(self, cycle: int) -> None:
        for set_idx, ways in enumerate(self.cache.lines):
            for way, line in enumerate(ways):
                if line.mode is _ACTIVE:
                    self._deactivate(set_idx, way, cycle)

    def _deactivate(self, set_idx: int, way: int, cycle: int) -> None:
        line = self.cache.lines[set_idx][way]
        tech = self.technique
        line.mode = _GOING_STANDBY
        line.mode_ready_cycle = cycle + tech.sleep_cycles
        self._n_standby += 1
        # The settle period leaks at full power: debit it from the standby
        # integral so [decay, wake] - sleep_cycles is counted as standby.
        self.stats.standby_line_cycles -= tech.sleep_cycles
        self.stats.deactivations += 1
        if self.accountant is not None:
            self.accountant.add("mode_transition")
        if not tech.state_preserving and line.valid:
            # Gated-Vss: contents are lost.  Write back dirty data first,
            # remember the tag so a later touch is classified as induced.
            if line.dirty:
                self.stats.decay_writebacks += 1
                if self.accountant is not None:
                    self.accountant.add(self.decay_writeback_event)
            self._ghost_tags[set_idx][way] = line.tag
            line.valid = False
            line.dirty = False

    def _wake(self, set_idx: int, way: int, cycle: int) -> None:
        line = self.cache.lines[set_idx][way]
        if line.mode is _ACTIVE:
            return
        self._integrate(cycle)
        line.mode = _ACTIVE
        line.decay_counter = 0
        if self._lazy:
            self._schedule_expiry(set_idx, way)
        self._n_standby -= 1
        self.stats.wakeups += 1
        if self.accountant is not None:
            self.accountant.add("mode_transition")

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def access(self, addr: int, *, is_write: bool, cycle: int) -> AccessOutcome:
        """Look up ``addr``; on a miss the caller must go to L2 then fill.

        Returns the outcome with the technique's latency adjustments; does
        not itself perform the fill (the memory hierarchy knows the L2
        timing and energy).
        """
        if self._advance_due <= cycle:
            self.advance(cycle)
        stats = self.stats
        last = self._last_integrate_cycle
        if cycle > last:  # _integrate(cycle), inlined
            stats.standby_line_cycles += self._n_standby * (cycle - last)
            self._last_integrate_cycle = cycle
        cache = self.cache
        cstats = cache.stats
        stats.accesses += 1
        cstats.accesses += 1
        # Probe, inlined (per-op hot path of every controlled run).
        line_addr = addr >> cache._offset_bits
        set_idx = line_addr & cache._set_mask
        tag = line_addr >> cache._index_bits
        way = None
        for w, line in enumerate(cache.lines[set_idx]):
            if line.valid and line.tag == tag:
                way = w
                break
        tech = self.technique

        if way is not None:
            extra = 0
            if line.mode is not _ACTIVE:
                # Wait out a settle in progress, then pay the wake penalty.
                if line.mode is _GOING_STANDBY and cycle < line.mode_ready_cycle:
                    extra += line.mode_ready_cycle - cycle
                extra += tech.slow_hit_cycles
                self._wake(set_idx, way, cycle + extra)
                self._wake_bank_of(set_idx, cycle + extra)
                stats.slow_hits += 1
            else:
                line.decay_counter = 0
                if self._lazy:
                    self._schedule_expiry(set_idx, way)
                stats.hits += 1
            cstats.hits += 1
            order = cache.lru[set_idx]
            order.remove(way)
            order.insert(0, way)
            if is_write:
                line.dirty = True
            if extra == 0:
                return _FAST_HIT
            return AccessOutcome(hit=True, extra_latency=extra)

        # Miss path.
        self.cache.stats.misses += 1
        induced = False
        if not tech.state_preserving:
            ghost_way = self._find_ghost(set_idx, tag)
            if ghost_way is not None:
                induced = True
                self.stats.induced_misses += 1
                self._ghost_tags[set_idx][ghost_way] = None
        if not induced:
            self.stats.true_misses += 1

        extra = 0
        saving = 0
        standby_ways = [
            w
            for w, line in enumerate(self.cache.lines[set_idx])
            if line.mode is not _ACTIVE
        ]
        if tech.state_preserving and tech.decay_tags and standby_ways:
            # Drowsy: standby tags must be woken (not the data) before the
            # miss is confirmed and the L2 access can start.
            extra += tech.wake_cycles
            self.stats.tag_wake_misses += 1
            if self.accountant is not None:
                self.accountant.add("tag_wake")
        if not tech.state_preserving:
            active_valid = any(
                line.valid and line.mode is _ACTIVE
                for line in self.cache.lines[set_idx]
            )
            if not active_valid:
                # Every candidate way is information-free: no tag check is
                # needed at all (vs drowsy's mandatory tag wake above).
                saving = tech.miss_tag_skip_saving
                self.stats.tag_skip_misses += 1

        # If the way the fill will land in is still settling into standby
        # (gated-Vss's 30-cycle sleep), the refill must wait for the rail —
        # the reason gated-Vss is "more sensitive to small decay intervals".
        victim_way = self.cache.choose_victim(set_idx)
        victim_line = self.cache.lines[set_idx][victim_way]
        fill_ready = 0
        if (
            victim_line.mode is _GOING_STANDBY
            and victim_line.mode_ready_cycle > cycle
        ):
            fill_ready = victim_line.mode_ready_cycle + tech.wake_cycles

        return AccessOutcome(
            hit=False,
            extra_latency=extra,
            induced=induced,
            tag_check_saving=saving,
            fill_ready_cycle=fill_ready,
        )

    def _find_ghost(self, set_idx: int, tag: int) -> int | None:
        for way, ghost in enumerate(self._ghost_tags[set_idx]):
            if ghost == tag:
                return way
        return None

    def fill(self, addr: int, *, is_write: bool, cycle: int) -> Victim | None:
        """Install the line after the L2 returned data.

        The victim way is woken if it was in standby (replacement writes
        require a powered row); state-preserving victims may carry dirty
        data that must be written back (returned to the caller).
        """
        self._integrate(cycle)
        set_idx, tag = self.cache.slice_addr(addr)
        way = self.cache.choose_victim(set_idx)
        line = self.cache.lines[set_idx][way]
        if line.mode is not _ACTIVE:
            self._wake(set_idx, way, cycle)
            self._wake_bank_of(set_idx, cycle)
        self._ghost_tags[set_idx][way] = None
        victim: Victim | None = None
        if line.valid and line.dirty:
            victim = Victim(
                addr=self.cache.line_addr_of(set_idx, line.tag), dirty=True
            )
            self.cache.stats.writebacks += 1
        line.tag = tag
        line.valid = True
        line.dirty = is_write
        line.decay_counter = 0
        if self._lazy:
            self._schedule_expiry(set_idx, way)
        self.cache.touch(set_idx, way)
        return victim

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_standby(self) -> int:
        """Lines currently in (or settling into) standby."""
        return self._n_standby

    def standby_population_check(self) -> bool:
        """Invariant: the incremental count matches a full scan."""
        scan = sum(
            1
            for ways in self.cache.lines
            for line in ways
            if line.mode is not _ACTIVE
        )
        return scan == self._n_standby
