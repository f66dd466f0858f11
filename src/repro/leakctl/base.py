"""Leakage-control technique definitions (paper Sections 2.1-2.3).

The paper implements "a generic abstraction for modeling leakage control
techniques based on putting individual lines into standby mode", covering
gated-Vss, drowsy cache and reverse body bias.  :class:`TechniqueConfig`
is that abstraction: a technique is a bundle of

* whether standby preserves state (drowsy/RBB yes, gated-Vss no);
* settling times between modes (paper Table 1);
* the penalty for touching a standby line (drowsy slow hit vs gated
  induced miss);
* how tags behave (decayed with the line by default, per Section 2.3);
* how the standby leakage residual is obtained from the circuit level.

Decay *policies* (when to put a line into standby) are orthogonal:
``noaccess`` uses the global counter + per-line 2-bit counters of the
cache-decay paper; ``simple`` periodically blankets the whole cache
(the drowsy paper's cheaper policy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from repro.leakage.gate import gidl_multiplier
from repro.leakage.structures import CacheLeakageModel
from repro.tech.constants import thermal_voltage


class TechniqueKind(Enum):
    """The three techniques the paper's abstraction covers."""

    DROWSY = "drowsy"
    GATED_VSS = "gated-vss"
    RBB = "rbb"


# Paper Table 1: settling times in cycles.
DROWSY_WAKE_CYCLES = 3
DROWSY_SLEEP_CYCLES = 3
GATED_WAKE_CYCLES = 3
GATED_SLEEP_CYCLES = 30

RBB_BASE_GIDL_FRACTION = 0.005
"""GIDL floor at zero body bias, as a fraction of active cell leakage."""

L2_CELL_VTH_SHIFT = 0.10
"""Threshold uplift (V) of the leakage-optimised L2 cells relative to the
fast low-Vt L1 arrays.  exp(-0.1 / (n*vt)) at 110 C is ~0.12 — consistent
with :data:`repro.leakctl.energy.L2_HIGH_VT_LEAKAGE_FACTOR`."""


@dataclass(frozen=True)
class TechniqueConfig:
    """One leakage-control technique, as seen by the simulator.

    Attributes:
        kind: Which technique.
        state_preserving: Standby keeps data (drowsy/RBB) or loses it
            (gated-Vss).
        wake_cycles: Low-leak -> high-leak settle (Table 1, both 3).
        sleep_cycles: High-leak -> low-leak settle (drowsy 3, gated 30).
        decay_tags: Tags go to standby with the line (paper default True;
            Section 5.3 discusses the tags-awake variant).
        slow_hit_cycles: Extra latency of a hit on a standby line for
            state-preserving techniques.  With decayed tags this is >= 3
            (wake tags, check, wake data); with live tags 1-2.
        rbb_bias: Reverse body bias magnitude (V), RBB only.
        standby_fraction_override: Force the standby leakage residual
            instead of deriving it from the circuit level (for ablations).
        miss_tag_skip_saving: Cycles a gated-Vss miss saves over the
            baseline when every candidate way is in (information-free)
            standby.  The paper's argument is that gated is faster than
            *drowsy* on such misses (drowsy pays the tag wake; gated pays
            nothing) — that asymmetry is modelled unconditionally — so
            the additional saving versus the baseline defaults to 0 and
            is exposed for ablation only.
    """

    kind: TechniqueKind
    state_preserving: bool
    wake_cycles: int
    sleep_cycles: int
    decay_tags: bool = True
    slow_hit_cycles: int = 3
    rbb_bias: float = 0.0
    standby_fraction_override: float | None = None
    miss_tag_skip_saving: int = 0

    @property
    def name(self) -> str:
        return self.kind.value

    def standby_fraction(self, model: CacheLeakageModel) -> float:
        """Residual standby leakage as a fraction of active-line power.

        Derived from the transistor level (see :mod:`repro.circuits.library`)
        at the cache model's operating point, unless overridden.
        """
        if self.standby_fraction_override is not None:
            return self.standby_fraction_override
        if self.kind is TechniqueKind.DROWSY:
            return model.drowsy_fraction
        if self.kind is TechniqueKind.GATED_VSS:
            return model.gated_fraction
        # RBB: the raised threshold suppresses subthreshold leakage but the
        # GIDL floor grows exponentially with the bias (paper Section 3.2) —
        # the reason RBB loses its appeal at 70 nm.
        delta_vth = model.node.body_effect_gamma * self.rbb_bias
        n = model.node.subthreshold_swing_n
        vt = thermal_voltage(model.temp_k)
        sub = math.exp(-delta_vth / (n * vt))
        gidl = RBB_BASE_GIDL_FRACTION * gidl_multiplier(model.node, self.rbb_bias)
        return min(sub + gidl, 1.0)

    def with_overrides(self, **kwargs) -> "TechniqueConfig":
        """Variant with selected fields replaced (ablation helper)."""
        return replace(self, **kwargs)


def drowsy_technique(
    *, decay_tags: bool = True, slow_hit_cycles: int | None = None
) -> TechniqueConfig:
    """The drowsy-cache technique (paper Section 2.2).

    With decayed ("drowsy") tags a slow hit takes at least 3 cycles; with
    live tags only the data must be woken (1-2 cycles) but the tag leakage
    can no longer be reclaimed.
    """
    if slow_hit_cycles is None:
        slow_hit_cycles = 3 if decay_tags else 2
    return TechniqueConfig(
        kind=TechniqueKind.DROWSY,
        state_preserving=True,
        wake_cycles=DROWSY_WAKE_CYCLES,
        sleep_cycles=DROWSY_SLEEP_CYCLES,
        decay_tags=decay_tags,
        slow_hit_cycles=slow_hit_cycles,
    )


def gated_vss_technique(*, decay_tags: bool = True) -> TechniqueConfig:
    """The gated-Vss technique (paper Section 2.1).

    Standby lines lose their contents: touching one is an induced miss
    served by the L2.  Decayed tags carry no information, so misses to
    sets whose ways are all in standby skip the tag check entirely —
    the paper's "gated-Vss is actually faster on true misses".
    """
    return TechniqueConfig(
        kind=TechniqueKind.GATED_VSS,
        state_preserving=False,
        wake_cycles=GATED_WAKE_CYCLES,
        sleep_cycles=GATED_SLEEP_CYCLES,
        decay_tags=decay_tags,
        slow_hit_cycles=0,
    )


def rbb_technique(*, bias: float = 0.5, decay_tags: bool = True) -> TechniqueConfig:
    """Reverse body bias / ABB-MTCMOS (paper Section 2, modelled extension).

    State-preserving like drowsy, but with slower transitions and a
    GIDL-limited residual.  The paper chose not to simulate RBB; we include
    it so the three-way abstraction of Section 2.3 is complete.
    """
    return TechniqueConfig(
        kind=TechniqueKind.RBB,
        state_preserving=True,
        wake_cycles=5,
        sleep_cycles=10,
        decay_tags=decay_tags,
        slow_hit_cycles=5,
        rbb_bias=bias,
    )


_FACTORIES = {
    "drowsy": drowsy_technique,
    "gated-vss": gated_vss_technique,
    "gated": gated_vss_technique,
    "rbb": rbb_technique,
}

TECHNIQUE_NAMES: tuple[str, ...] = tuple(_FACTORIES)
"""Every name :func:`technique_by_name` resolves ("gated" is gated-Vss)."""


def technique_by_name(name: str) -> TechniqueConfig:
    """Resolve a technique name used by the CLI-ish entry points."""
    try:
        return _FACTORIES[name]()
    except KeyError:
        known = ", ".join(sorted(_FACTORIES))
        raise KeyError(f"unknown technique {name!r}; known: {known}") from None


class DecayPolicy(Enum):
    """When lines are sent to standby (paper Section 2.3).

    NOACCESS: global counter counts to interval/4; each expiry increments
    every line's 2-bit counter (reset by accesses); a line whose counter
    saturates has been idle for the whole decay interval and is deactivated.
    SIMPLE: every ``interval`` cycles all lines are blanketed into standby
    regardless of access history (no per-line counters).
    """

    NOACCESS = "noaccess"
    SIMPLE = "simple"
