"""Wattch-style dynamic-energy accounting.

Wattch attributes per-access energies to microarchitectural structures and
scales clock power with activity (the cc3 conditional-clocking model).  The
simulator increments event counters as it runs; this module turns the
counters into joules.

Two properties matter for the paper's net-savings metric:

* identical committed work produces (nearly) identical event energy in the
  baseline and technique runs, so the *difference* isolates the technique's
  dynamic costs: extra L2 accesses, tag wakeups, decay counters, mode
  transitions — costs #1-#3 of Section 2.3;
* stall cycles burn only the conditional-clocking floor, so the cost of
  extra runtime (cost #4) is ``delta_cycles * clock_floor`` rather than a
  full active cycle — matching Wattch's behaviour for pipeline stalls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.leakage.structures import (
    CacheGeometry,
    L1D_GEOMETRY,
    L1I_GEOMETRY,
    L2_GEOMETRY,
)
from repro.power.cacti import (
    ArrayEnergies,
    cache_access_energies,
    counter_increment_energy,
    mode_transition_energy,
)
from repro.tech.nodes import PAPER_VDD, TechnologyNode, get_node


@dataclass(frozen=True)
class PowerConfig:
    """Per-event dynamic energies (J) and clock model for one design point.

    Build via :func:`default_power_config` which derives the cache energies
    from the CACTI-style model; the remaining per-structure constants are
    Wattch-calibre estimates for a 4-wide 21264-class core.
    """

    node: TechnologyNode
    vdd: float
    frequency_hz: float
    l1d: ArrayEnergies
    l1i: ArrayEnergies
    l2: ArrayEnergies
    e_memory_access: float = 6.0e-9
    e_window_dispatch: float = 0.20e-9
    e_window_issue: float = 0.25e-9
    e_window_commit: float = 0.10e-9
    e_regfile_read: float = 0.12e-9
    e_regfile_write: float = 0.15e-9
    e_alu: float = 0.10e-9
    e_imul: float = 0.40e-9
    e_fpalu: float = 0.25e-9
    e_fpmul: float = 0.50e-9
    e_bpred: float = 0.08e-9
    e_btb: float = 0.10e-9
    e_lsq: float = 0.15e-9
    e_counter_tick: float = 0.0  # filled from geometry at build time
    e_mode_transition: float = 0.0
    e_tag_wake: float = 0.0  # waking a drowsy tag group for a check
    e_clock_active: float = 2.2e-9
    clock_floor: float = 0.15
    issue_width: int = 4


def default_power_config(
    node: str | TechnologyNode = "70nm",
    *,
    vdd: float = PAPER_VDD,
    frequency_hz: float = 5.6e9,
    l1d_geometry: CacheGeometry = L1D_GEOMETRY,
    l1i_geometry: CacheGeometry = L1I_GEOMETRY,
    l2_geometry: CacheGeometry = L2_GEOMETRY,
) -> PowerConfig:
    """Build the paper's 70 nm / 0.9 V / 5600 MHz power configuration."""
    tech = get_node(node) if isinstance(node, str) else node
    l1d = cache_access_energies(l1d_geometry, tech, vdd)
    l1i = cache_access_energies(l1i_geometry, tech, vdd, access_bytes=16)
    l2 = cache_access_energies(l2_geometry, tech, vdd, access_bytes=64)
    return PowerConfig(
        node=tech,
        vdd=vdd,
        frequency_hz=frequency_hz,
        l1d=l1d,
        l1i=l1i,
        l2=l2,
        e_counter_tick=counter_increment_energy(tech, vdd),
        e_mode_transition=mode_transition_energy(l1d_geometry, tech, vdd),
        e_tag_wake=l1d.tag_check,
    )


# Mapping of event name -> PowerConfig attribute (or cache sub-energy).
_EVENT_TABLE = {
    "l1d_read": ("l1d", "read"),
    "l1d_write": ("l1d", "write"),
    "l1d_tag_check": ("l1d", "tag_check"),
    "l1d_fill": ("l1d", "line_fill"),
    "l1d_writeback": ("l1d", "read"),
    "l1i_read": ("l1i", "read"),
    "l1i_fill": ("l1i", "line_fill"),
    "l2_access": ("l2", "read"),
    "l2_fill": ("l2", "line_fill"),
    "l2_writeback": ("l2", "write"),
    "mem_access": "e_memory_access",
    "window_dispatch": "e_window_dispatch",
    "window_issue": "e_window_issue",
    "window_commit": "e_window_commit",
    "regfile_read": "e_regfile_read",
    "regfile_write": "e_regfile_write",
    "alu": "e_alu",
    "imul": "e_imul",
    "fpalu": "e_fpalu",
    "fpmul": "e_fpmul",
    "bpred": "e_bpred",
    "btb": "e_btb",
    "lsq": "e_lsq",
    "decay_counter_tick": "e_counter_tick",
    "mode_transition": "e_mode_transition",
    "tag_wake": "e_tag_wake",
}


class EventCounts(dict):
    """Event name -> count; an absent event reads as 0 and is not stored.

    A plain dict subclass rather than ``collections.Counter``: Counter
    defines ``__delitem__`` in Python, which routes every store through a
    slot wrapper and makes ``counts[event] += 1`` two to three times
    slower.  Keys stay in first-occurrence order, which is the order
    :meth:`EnergyAccountant.structure_energy` sums in.
    """

    __slots__ = ()

    def __missing__(self, event: str) -> int:
        return 0


@dataclass
class EnergyAccountant:
    """Accumulates event counts and converts them to energy.

    The pipeline calls :meth:`add` per event and :meth:`add_cycle` per cycle
    with that cycle's issue count (for the conditional-clocking model).
    """

    config: PowerConfig
    counts: EventCounts = field(default_factory=EventCounts)
    cycles: int = 0
    issued_total: int = 0

    def add(self, event: str, n: int = 1) -> None:
        if event not in _EVENT_TABLE:
            raise KeyError(f"unknown energy event {event!r}")
        self.counts[event] += n

    def add_cycle(self, issued: int = 0) -> None:
        self.cycles += 1
        self.issued_total += issued

    def event_energy(self, event: str) -> float:
        """Per-event energy (J) for one occurrence of ``event``."""
        spec = _EVENT_TABLE[event]
        if isinstance(spec, tuple):
            array, field_name = spec
            return getattr(getattr(self.config, array), field_name)
        return getattr(self.config, spec)

    def clock_energy(self) -> float:
        """Clock-tree energy (J): floor per cycle + activity-scaled part."""
        cfg = self.config
        floor = cfg.clock_floor * cfg.e_clock_active * self.cycles
        active = (
            (1.0 - cfg.clock_floor)
            * cfg.e_clock_active
            * (self.issued_total / cfg.issue_width)
        )
        return floor + active

    def structure_energy(self) -> float:
        """Total per-event energy (J) across all structures."""
        return sum(self.counts[e] * self.event_energy(e) for e in self.counts)

    def total_energy(self) -> float:
        """Total dynamic energy (J): events + clock."""
        return self.structure_energy() + self.clock_energy()

    def breakdown(self) -> dict[str, float]:
        """Per-event energy breakdown (J), plus the clock entry."""
        out = {e: self.counts[e] * self.event_energy(e) for e in sorted(self.counts)}
        out["clock"] = self.clock_energy()
        return out

    def average_power(self) -> float:
        """Mean dynamic power (W) over the run."""
        if self.cycles == 0:
            return 0.0
        seconds = self.cycles / self.config.frequency_hz
        return self.total_energy() / seconds

    def power_report(self) -> dict[str, float]:
        """Structure-level dynamic-power breakdown (W) over the run.

        Groups the per-event energies into Wattch-style structure buckets
        (caches, core front end, execution, memory, clock) — the view a
        power architect reads first.
        """
        if self.cycles == 0:
            return {}
        groups = {
            "l1_dcache": ("l1d_read", "l1d_write", "l1d_tag_check",
                          "l1d_fill", "l1d_writeback", "tag_wake"),
            "l1_icache": ("l1i_read", "l1i_fill"),
            "l2": ("l2_access", "l2_fill", "l2_writeback"),
            "memory": ("mem_access",),
            "front_end": ("bpred", "btb", "window_dispatch"),
            "execute": ("window_issue", "window_commit", "regfile_read",
                        "regfile_write", "alu", "imul", "fpalu", "fpmul",
                        "lsq"),
            "leakage_control": ("decay_counter_tick", "mode_transition"),
        }
        seconds = self.cycles / self.config.frequency_hz
        report = {}
        for name, events in groups.items():
            energy = sum(
                self.counts[e] * self.event_energy(e)
                for e in events
                if e in self.counts
            )
            report[name] = energy / seconds
        report["clock"] = self.clock_energy() / seconds
        report["total"] = self.total_energy() / seconds
        return report
