"""Online feedback-controlled decay intervals (paper Section 5.4, ref [31]).

The paper's Figures 12/13 use an *oracle* best-per-benchmark interval from
an offline sweep (see :mod:`repro.experiments.sweeps`); Section 5.4 lists
the authors' own formal feedback-control technique [31] as a practical way
to get there: "using the tags to identify induced misses and requiring
only a small state machine to periodically update the counter containing
the decay interval".

This module implements that state machine as an extension, using the
control signal of Zhou et al.'s *adaptive mode control* (the paper's
ref [33]): the ratio of standby penalties to total misses — induced
misses over all misses for gated-Vss (identified via the ghost tags, the
stand-in for keeping tags awake), slow hits over slow hits + misses for
drowsy.  A high ratio means decay itself is manufacturing most of the
misses (lines are decaying too eagerly: double the interval); a low ratio
means almost all misses would have happened anyway and leakage is being
left on the table (halve it).  Normalising by the miss stream — rather
than by accesses — is what keeps the controller from over-reacting on
memory-bound programs like mcf, where plentiful true misses both hide and
out-number the induced ones.
"""

from __future__ import annotations

from repro.cache.cache import Cache
from repro.leakctl.base import DecayPolicy, TechniqueConfig
from repro.leakctl.controlled import ControlledCache
from repro.power.wattch import EnergyAccountant


class AdaptiveControlledCache(ControlledCache):
    """A :class:`ControlledCache` whose decay interval self-tunes.

    Args:
        cache: The underlying plain cache.
        technique: Leakage-control technique.
        decay_interval: Initial interval (also clamped into
            [min_interval, max_interval]).
        window: Adaptation period in cycles.
        hi_rate: Penalty-to-miss ratio above which the interval doubles.
        lo_rate: Penalty-to-miss ratio below which the interval halves.
        min_interval / max_interval: Clamp bounds for the search.
    """

    def __init__(
        self,
        cache: Cache,
        technique: TechniqueConfig,
        *,
        decay_interval: int,
        policy: DecayPolicy = DecayPolicy.NOACCESS,
        accountant: EnergyAccountant | None = None,
        window: int = 4096,
        hi_rate: float = 0.55,
        lo_rate: float = 0.25,
        min_interval: int = 256,
        max_interval: int = 65536,
        decay_writeback_event: str = "l2_writeback",
        reference: bool = False,
    ) -> None:
        if not 0.0 <= lo_rate < hi_rate:
            raise ValueError(f"need 0 <= lo_rate < hi_rate, got {lo_rate}, {hi_rate}")
        super().__init__(
            cache,
            technique,
            decay_interval=max(min(decay_interval, max_interval), min_interval),
            policy=policy,
            accountant=accountant,
            decay_writeback_event=decay_writeback_event,
            reference=reference,
        )
        self.window = window
        self.hi_rate = hi_rate
        self.lo_rate = lo_rate
        self.min_interval = min_interval
        self.max_interval = max_interval
        self._next_adapt = window
        self._last_penalties = 0
        self._last_misses = 0
        self.interval_history: list[tuple[int, int]] = [(0, self.decay_interval)]
        self._advance_due = min(self._next_tick, self._next_adapt)

    def advance(self, cycle: int) -> None:
        super().advance(cycle)
        while self._next_adapt <= cycle:
            self._adapt(self._next_adapt)
            self._next_adapt += self.window
        self._advance_due = min(self._next_tick, self._next_adapt)

    def _penalty_count(self) -> int:
        if self.technique.state_preserving:
            return self.stats.slow_hits
        return self.stats.induced_misses

    def _miss_like_count(self) -> int:
        """Events the penalty ratio is normalised by: the miss stream."""
        s = self.stats
        if self.technique.state_preserving:
            return s.slow_hits + s.true_misses + s.induced_misses
        return s.true_misses + s.induced_misses

    def _adapt(self, cycle: int) -> None:
        penalties = self._penalty_count() - self._last_penalties
        misses = self._miss_like_count() - self._last_misses
        self._last_penalties = self._penalty_count()
        self._last_misses = self._miss_like_count()
        if misses + penalties < 8:
            # Too few events to judge this window; hold the interval.
            return
        ratio = penalties / misses if misses else 1.0
        new_interval = self.decay_interval
        if ratio > self.hi_rate:
            new_interval = min(self.decay_interval * 2, self.max_interval)
        elif ratio < self.lo_rate:
            new_interval = max(self.decay_interval // 2, self.min_interval)
        if new_interval != self.decay_interval:
            self.decay_interval = new_interval
            self._tick_period = (
                new_interval
                if self.policy is DecayPolicy.SIMPLE
                else max(new_interval // 4, 1)
            )
            self._next_tick = cycle + self._tick_period
            self.interval_history.append((cycle, new_interval))
