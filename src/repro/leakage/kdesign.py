"""Dual-``k_design`` derivation (paper Section 3.1.2, Equations 3-8).

Butts and Sohi's single ``k_design`` assumes N and P transistors are nearly
identical; HotLeakage found they differ too much and uses two factors,
``k_n`` and ``k_p``.  For a cell they are derived by enumerating every input
combination, splitting the combinations into those that turn off the
pull-down network (leakage ``I_kn``, output high) and those that turn off
the pull-up network (``I_kp``, output low), and normalising:

    k_n = (I_1n + I_2n + ...) / (N * n_n * I_n)        (Eq. 5)
    k_p = (I_1p + I_2p + ...) / (N * n_p * I_p)        (Eq. 6)

with ``N`` the number of input combinations, ``n_n``/``n_p`` the NMOS/PMOS
counts and ``I_n``/``I_p`` the unit leakages of Equation 2.  The per-cell
leakage is then reconstructed architecturally as

    I_cell = n_n * k_n * I_n + n_p * k_p * I_p          (Eq. 3)

The transistor-level currents come from :class:`repro.circuits.LeakageSolver`
(our stand-in for the paper's Cadence runs).  As the paper reports, the
derived ``k_n``/``k_p`` are nearly independent of threshold voltage and vary
approximately linearly with temperature and supply voltage, so we also fit
and cache that linear surface per (cell, node).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro import obs as _obs
from repro.circuits.library import STANDARD_CELLS
from repro.circuits.netlist import Netlist
from repro.circuits.solver import LeakageSolver
from repro.leakage.bsim3 import unit_leakage
from repro.memo import LRUMemo, register_reset
from repro.tech.constants import ROOM_TEMP_K, quantise_temp
from repro.tech.nodes import TechnologyNode, get_node

# Memoised per-cell k_design tables keyed by (netlist fingerprint, node,
# Vdd, quantised T).  The input-combination DC solves underneath are also
# memoised (:mod:`repro.circuits.solver`); this table skips even the combo
# enumeration when an identical derivation is requested again.  Keys
# quantise the temperature to a 1 µK grid (see ``quantise_temp``).  LRU
# bound: cells x operating points of a full sweep is a few dozen keys.
_KDESIGN_MEMO = LRUMemo(maxsize=512)


@dataclass(frozen=True)
class KDesign:
    """Derived design factors for one cell at one (Vdd, T) point."""

    cell: str
    kn: float
    kp: float
    n_nmos: int
    n_pmos: int

    def cell_current(self, i_n: float, i_p: float) -> float:
        """Reconstruct the average cell leakage per Equation 3."""
        return self.n_nmos * self.kn * i_n + self.n_pmos * self.kp * i_p


def derive_kdesign(
    netlist: Netlist,
    node: TechnologyNode,
    *,
    vdd: float | None = None,
    temp_k: float = ROOM_TEMP_K,
) -> KDesign:
    """Derive ``k_n``/``k_p`` for a cell by exhaustive input enumeration.

    Combinations are classified by the solved output level: output high
    means the pull-down network is off (its leakage contributes to ``k_n``),
    output low means the pull-up network is off (``k_p``), mirroring the
    paper's NAND2 worked example.

    Raises:
        ValueError: If the netlist declares no inputs or no output node.
    """
    if not netlist.inputs:
        raise ValueError(f"cell {netlist.name!r} declares no inputs")
    if not netlist.output:
        raise ValueError(f"cell {netlist.name!r} declares no output node")

    vdd = node.vdd0 if vdd is None else vdd
    memo_key = (
        netlist.name,
        tuple(netlist.transistors),
        netlist.inputs,
        netlist.output,
        node,
        vdd,
        quantise_temp(temp_k),
    )
    cached = _KDESIGN_MEMO.get(memo_key)
    if cached is not None:
        _obs.incr("kdesign.memo_hits")
        return cached
    _obs.incr("kdesign.memo_misses")
    solver = LeakageSolver(node, vdd=vdd, temp_k=temp_k)
    n_nmos, n_pmos = netlist.count_devices()

    sum_in = 0.0
    sum_ip = 0.0
    combos = list(itertools.product((0, 1), repeat=len(netlist.inputs)))
    for combo in combos:
        result = solver.solve(netlist, dict(zip(netlist.inputs, combo)))
        leak = max(result.supply_current, result.ground_current, 0.0)
        output_high = result.voltages[netlist.output] > vdd / 2.0
        if output_high:
            sum_in += leak
        else:
            sum_ip += leak

    n_combos = len(combos)
    i_n = unit_leakage(node, vdd=vdd, temp_k=temp_k, pmos=False)
    i_p = unit_leakage(node, vdd=vdd, temp_k=temp_k, pmos=True)
    kn = sum_in / (n_combos * n_nmos * i_n) if n_nmos else 0.0
    kp = sum_ip / (n_combos * n_pmos * i_p) if n_pmos else 0.0
    result = KDesign(cell=netlist.name, kn=kn, kp=kp, n_nmos=n_nmos, n_pmos=n_pmos)
    _KDESIGN_MEMO[memo_key] = result
    return result


@dataclass(frozen=True)
class KDesignSurface:
    """Linear fit k(T, Vdd) = k0 + aT*(T - 300) + aV*(Vdd - Vdd0).

    The paper observes k_n and k_p are linear in temperature and supply
    voltage; this surface lets the architectural model recompute k_design
    dynamically (for DVS or thermal transients) without re-running the
    transistor-level enumeration.
    """

    cell: str
    n_nmos: int
    n_pmos: int
    kn0: float
    kn_dt: float
    kn_dv: float
    kp0: float
    kp_dt: float
    kp_dv: float
    ref_temp_k: float
    ref_vdd: float

    def kn(self, temp_k: float, vdd: float) -> float:
        return max(
            self.kn0
            + self.kn_dt * (temp_k - self.ref_temp_k)
            + self.kn_dv * (vdd - self.ref_vdd),
            0.0,
        )

    def kp(self, temp_k: float, vdd: float) -> float:
        return max(
            self.kp0
            + self.kp_dt * (temp_k - self.ref_temp_k)
            + self.kp_dv * (vdd - self.ref_vdd),
            0.0,
        )

    def at(self, temp_k: float, vdd: float) -> KDesign:
        return KDesign(
            cell=self.cell,
            kn=self.kn(temp_k, vdd),
            kp=self.kp(temp_k, vdd),
            n_nmos=self.n_nmos,
            n_pmos=self.n_pmos,
        )


@lru_cache(maxsize=64)
def kdesign_surface(cell_name: str, node_name: str) -> KDesignSurface:
    """Fit (and cache) the linear k_design surface for a standard cell.

    Args:
        cell_name: One of :data:`repro.circuits.library.STANDARD_CELLS`.
        node_name: A technology preset name, e.g. ``"70nm"``.
    """
    try:
        builder = STANDARD_CELLS[cell_name]
    except KeyError:
        known = ", ".join(sorted(STANDARD_CELLS))
        raise KeyError(f"unknown cell {cell_name!r}; known: {known}") from None
    node = get_node(node_name)
    netlist = builder()

    temps = (300.0, 340.0, 383.15)
    vdds = (0.8 * node.vdd0, 0.9 * node.vdd0, node.vdd0)
    rows = []
    kns = []
    kps = []
    for t in temps:
        for v in vdds:
            kd = derive_kdesign(netlist, node, vdd=v, temp_k=t)
            rows.append((1.0, t - ROOM_TEMP_K, v - node.vdd0))
            kns.append(kd.kn)
            kps.append(kd.kp)

    design = np.array(rows)
    kn_coef, *_ = np.linalg.lstsq(design, np.array(kns), rcond=None)
    kp_coef, *_ = np.linalg.lstsq(design, np.array(kps), rcond=None)
    n_nmos, n_pmos = netlist.count_devices()
    return KDesignSurface(
        cell=cell_name,
        n_nmos=n_nmos,
        n_pmos=n_pmos,
        kn0=float(kn_coef[0]),
        kn_dt=float(kn_coef[1]),
        kn_dv=float(kn_coef[2]),
        kp0=float(kp_coef[0]),
        kp_dt=float(kp_coef[1]),
        kp_dv=float(kp_coef[2]),
        ref_temp_k=ROOM_TEMP_K,
        ref_vdd=node.vdd0,
    )


# The surface fit rides on top of the k_design memo; a reset_all() that
# cleared one but not the other would leave stale fits pinned.
register_reset(kdesign_surface.cache_clear)
