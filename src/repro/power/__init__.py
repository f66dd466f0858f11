"""Wattch-style dynamic power modelling (CACTI-ish arrays + accounting)."""

from repro.power.cacti import (
    ArrayEnergies,
    cache_access_energies,
    counter_increment_energy,
    mode_transition_energy,
)
from repro.power.wattch import (
    EnergyAccountant,
    EventCounts,
    PowerConfig,
    default_power_config,
)

__all__ = [
    "ArrayEnergies",
    "cache_access_energies",
    "counter_increment_energy",
    "mode_transition_energy",
    "PowerConfig",
    "EnergyAccountant",
    "EventCounts",
    "default_power_config",
]
