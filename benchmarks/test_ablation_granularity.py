"""Ablation: decay granularity (paper Section 2.3).

"Most dynamic leakage-control techniques partition a structure into
active and passive portions.  This can be done at various granularities;
most recent work has done this at the granularity of rows."  This
ablation quantifies *why*: ganging multiple sets behind one sleep rail
shrinks the hardware but a bank only sleeps when every line in it is
simultaneously idle — under realistically scattered access streams the
turnoff ratio collapses with bank size, taking the savings with it.

Each run drives the cycle-level pipeline directly, because the bank size
is a :class:`ControlledCache` knob that no figure point exposes.
"""

from __future__ import annotations

import itertools

from conftest import one_shot
from repro.cache.cache import Cache
from repro.cache.hierarchy import MemoryHierarchy
from repro.cpu.config import MachineConfig
from repro.cpu.pipeline import Pipeline
from repro.experiments.reporting import render_table
from repro.experiments.runner import _functional_warmup
from repro.leakctl.base import drowsy_technique, gated_vss_technique
from repro.leakctl.controlled import ControlledCache
from repro.power.wattch import EnergyAccountant, default_power_config
from repro.workloads.generator import TraceGenerator

BANK_SIZES = (1, 2, 4, 16, 64)
BENCHES = ("gcc", "gzip", "twolf")


def run_granularity_study():
    machine = MachineConfig()
    rows = []
    turnoff = {}
    for technique in (drowsy_technique(), gated_vss_technique()):
        for banks in BANK_SIZES:
            ratios = []
            penalties = 0
            for bench in BENCHES:
                acct = EnergyAccountant(config=default_power_config())
                ctl = ControlledCache(
                    Cache("l1d", machine.l1d_geometry),
                    technique,
                    decay_interval=4096,
                    accountant=acct,
                    bank_sets=banks,
                )
                hier = MemoryHierarchy(machine, acct, l1d=ctl)
                pipe = Pipeline(machine, hier, acct)
                stream = TraceGenerator(bench, seed=1).ops(50_000)
                _functional_warmup(
                    hier, pipe, itertools.islice(stream, 30_000), machine
                )
                pipe.run(stream)
                ratios.append(
                    ctl.stats.turnoff_ratio(machine.l1d_geometry.n_lines)
                )
                penalties += ctl.stats.slow_hits + ctl.stats.induced_misses
            mean_ratio = sum(ratios) / len(ratios)
            turnoff[(technique.name, banks)] = mean_ratio
            rows.append(
                [
                    technique.name,
                    str(banks),
                    f"{mean_ratio:6.3f}",
                    str(penalties),
                ]
            )
    text = "Ablation: decay granularity (bank size in sets, avg of 3 benchmarks)\n"
    text += render_table(
        ["technique", "bank sets", "turnoff ratio", "standby penalties"], rows
    )
    return text, turnoff


def test_granularity_ablation(benchmark, archive):
    text, turnoff = one_shot(benchmark, run_granularity_study)
    archive("ablation_granularity", text)

    for tech in ("drowsy", "gated-vss"):
        ratios = [turnoff[(tech, b)] for b in BANK_SIZES]
        # Turnoff falls monotonically with bank size...
        assert all(a >= b - 1e-9 for a, b in zip(ratios, ratios[1:])), tech
        # ...and collapses (not just shrinks) by 16-set banks: the
        # quantified case for row-granularity control.
        assert turnoff[(tech, 16)] < 0.25 * turnoff[(tech, 1)], tech
