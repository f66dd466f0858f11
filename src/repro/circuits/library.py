"""Cell library: netlist builders and derived leakage quantities.

Contains the static CMOS cells whose ``k_design`` factors the paper derives
from circuit simulation (inverter, NAND2 — the paper's worked example in
Section 3.1.2 — NAND3, NOR2), the 6T SRAM cell, and the circuit-level
derivations used by the leakage-control models:

* :func:`sram6t_leakage` — closed-form OFF-device sum for the 6T cell (all
  node voltages are known in retention, so no solver is needed);
* :func:`gated_residual_fraction` — residual leakage of a line whose ground
  connection is gated by a high-Vt footer (the gated-Vss sleep transistor),
  solved by current continuity at the virtual-ground node;
* :func:`drowsy_residual_fraction` — residual leakage of a cell whose supply
  has been switched to the drowsy voltage (~1.5x Vth).

These fractions feed the architectural leakage-control models in
:mod:`repro.leakctl`, so the technique comparison inherits its standby
leakage levels from the device model instead of hand-picked constants.
"""

from __future__ import annotations

import math

from repro.circuits.netlist import GND_NODE, VDD_NODE, Netlist, Transistor
from repro.circuits.roots import clamped_root
from repro.leakage.bsim3 import DeviceParams, device_subthreshold_current
from repro.memo import LRUMemo
from repro.tech.constants import ROOM_TEMP_K, quantise_temp
from repro.tech.nodes import TechnologyNode

# Memoised residual fractions.  Both fractions are pure functions of a
# frozen TechnologyNode and a handful of floats; the gated one runs a
# Brent root-find per call.  Keys quantise the temperature to a 1 µK
# grid (see ``quantise_temp``) — the computation itself always uses the
# exact temperature of the first call for a given key.  LRU bound: a
# full sweep touches (technique x node x Vdd x T) ~ dozens of keys.
_RESIDUAL_MEMO = LRUMemo(maxsize=512)

# Typical 6T SRAM sizing (aspect ratios), used across the library.
SRAM_PULLDOWN_WL = 2.0
SRAM_PULLUP_WL = 1.2
SRAM_ACCESS_WL = 1.5

# Default gated-Vss footer: high-Vt, sized to carry a whole row's read
# current, so wide; stack effect comes from the raised virtual ground.
DEFAULT_FOOTER_VTH_SHIFT = 0.15
DEFAULT_FOOTER_WL_PER_CELL = 1.0


def inverter() -> Netlist:
    """Standard-cell inverter."""
    net = Netlist(name="inv", inputs=("a",), output="out")
    net.add(Transistor("mp", "p", gate="a", drain="out", source=VDD_NODE, w_over_l=2.0))
    net.add(Transistor("mn", "n", gate="a", drain="out", source=GND_NODE, w_over_l=1.0))
    return net


def nand2() -> Netlist:
    """Two-input NAND — the paper's k_design worked example (Figure 2)."""
    net = Netlist(name="nand2", inputs=("x", "y"), output="out")
    net.add(Transistor("mp1", "p", gate="x", drain="out", source=VDD_NODE, w_over_l=2.0))
    net.add(Transistor("mp2", "p", gate="y", drain="out", source=VDD_NODE, w_over_l=2.0))
    net.add(Transistor("mn1", "n", gate="x", drain="out", source="mid", w_over_l=2.0))
    net.add(Transistor("mn2", "n", gate="y", drain="mid", source=GND_NODE, w_over_l=2.0))
    return net


def nand3() -> Netlist:
    """Three-input NAND (decoder building block)."""
    net = Netlist(name="nand3", inputs=("x", "y", "z"), output="out")
    for i, inp in enumerate(("x", "y", "z")):
        net.add(
            Transistor(
                f"mp{i}", "p", gate=inp, drain="out", source=VDD_NODE, w_over_l=2.0
            )
        )
    net.add(Transistor("mn0", "n", gate="x", drain="out", source="m1", w_over_l=3.0))
    net.add(Transistor("mn1", "n", gate="y", drain="m1", source="m2", w_over_l=3.0))
    net.add(Transistor("mn2", "n", gate="z", drain="m2", source=GND_NODE, w_over_l=3.0))
    return net


def nor2() -> Netlist:
    """Two-input NOR."""
    net = Netlist(name="nor2", inputs=("x", "y"), output="out")
    net.add(Transistor("mp1", "p", gate="x", drain="mid", source=VDD_NODE, w_over_l=4.0))
    net.add(Transistor("mp2", "p", gate="y", drain="out", source="mid", w_over_l=4.0))
    net.add(Transistor("mn1", "n", gate="x", drain="out", source=GND_NODE, w_over_l=1.0))
    net.add(Transistor("mn2", "n", gate="y", drain="out", source=GND_NODE, w_over_l=1.0))
    return net


def aoi21() -> Netlist:
    """AND-OR-INVERT 2-1: ``out = !((a & b) | c)``.

    A staple of decoder match logic: two series NMOS in parallel with a
    third, mirrored in the PMOS network.
    """
    net = Netlist(name="aoi21", inputs=("a", "b", "c"), output="out")
    # Pull-down: (a AND b) in parallel with c.
    net.add(Transistor("mna", "n", gate="a", drain="out", source="nm", w_over_l=2.0))
    net.add(Transistor("mnb", "n", gate="b", drain="nm", source=GND_NODE, w_over_l=2.0))
    net.add(Transistor("mnc", "n", gate="c", drain="out", source=GND_NODE, w_over_l=1.0))
    # Pull-up: c in series with (a OR b).
    net.add(Transistor("mpc", "p", gate="c", drain="pm", source=VDD_NODE, w_over_l=4.0))
    net.add(Transistor("mpa", "p", gate="a", drain="out", source="pm", w_over_l=4.0))
    net.add(Transistor("mpb", "p", gate="b", drain="out", source="pm", w_over_l=4.0))
    return net


def oai21() -> Netlist:
    """OR-AND-INVERT 2-1: ``out = !((a | b) & c)`` — AOI21's dual."""
    net = Netlist(name="oai21", inputs=("a", "b", "c"), output="out")
    # Pull-down: c in series with (a OR b).
    net.add(Transistor("mnc", "n", gate="c", drain="nm", source=GND_NODE, w_over_l=2.0))
    net.add(Transistor("mna", "n", gate="a", drain="out", source="nm", w_over_l=2.0))
    net.add(Transistor("mnb", "n", gate="b", drain="out", source="nm", w_over_l=2.0))
    # Pull-up: (a AND b) in parallel with c.
    net.add(Transistor("mpa", "p", gate="a", drain="pm", source=VDD_NODE, w_over_l=4.0))
    net.add(Transistor("mpb", "p", gate="b", drain="out", source="pm", w_over_l=4.0))
    net.add(Transistor("mpc", "p", gate="c", drain="out", source=VDD_NODE, w_over_l=4.0))
    return net


def nand4() -> Netlist:
    """Four-input NAND (wide decoder stage): the deepest stack we model."""
    net = Netlist(name="nand4", inputs=("a", "b", "c", "d"), output="out")
    chain = ["out", "m1", "m2", "m3", GND_NODE]
    for i, inp in enumerate(("a", "b", "c", "d")):
        net.add(
            Transistor(
                f"mp{i}", "p", gate=inp, drain="out", source=VDD_NODE, w_over_l=2.0
            )
        )
        net.add(
            Transistor(
                f"mn{i}", "n", gate=inp, drain=chain[i], source=chain[i + 1],
                w_over_l=4.0,
            )
        )
    return net


STANDARD_CELLS = {
    "inv": inverter,
    "nand2": nand2,
    "nand3": nand3,
    "nand4": nand4,
    "nor2": nor2,
    "aoi21": aoi21,
    "oai21": oai21,
}


def sram6t_leakage(
    node: TechnologyNode,
    *,
    vdd: float,
    temp_k: float = ROOM_TEMP_K,
    access_vth_shift: float = 0.0,
    bitline_voltage: float | None = None,
) -> float:
    """Subthreshold leakage current (A) of one 6T SRAM cell in retention.

    In retention every node voltage is known (storage nodes at the rails,
    word line low, bit lines precharged high), so the cell leakage is the
    sum of the three OFF-device currents: the off pull-down NMOS, the off
    pull-up PMOS, and the access NMOS on the '0' storage-node side seeing a
    full-rail drain bias from the precharged bit line.  The cell is
    symmetric in the stored value.

    Args:
        node: Technology preset.
        vdd: Cell supply voltage — pass the drowsy voltage to evaluate
            drowsy retention leakage.
        temp_k: Temperature (K).
        access_vth_shift: Extra threshold on the access transistors (the
            drowsy paper's high-Vt pass gates; 0 for the fair-Vt comparison
            this paper runs).
        bitline_voltage: Bit-line precharge voltage; defaults to ``vdd``.
    """
    bl = vdd if bitline_voltage is None else bitline_voltage
    pulldown = DeviceParams(node=node, pmos=False, w_over_l=SRAM_PULLDOWN_WL)
    pullup = DeviceParams(node=node, pmos=True, w_over_l=SRAM_PULLUP_WL)
    access = DeviceParams(
        node=node, pmos=False, w_over_l=SRAM_ACCESS_WL, vth_shift=access_vth_shift
    )
    i_pd = device_subthreshold_current(pulldown, vgs=0.0, vds=vdd, temp_k=temp_k)
    i_pu = device_subthreshold_current(pullup, vgs=0.0, vds=vdd, temp_k=temp_k)
    # Access device: WL = 0 gate, drain at the bit line, source at the '0'
    # storage node.
    i_ax = device_subthreshold_current(access, vgs=0.0, vds=bl, temp_k=temp_k)
    return i_pd + i_pu + i_ax


def drowsy_supply_voltage(node: TechnologyNode) -> float:
    """The drowsy retention voltage: ~1.5x the NMOS threshold (paper 2.2)."""
    return 1.5 * node.vth_n


def drowsy_residual_fraction(
    node: TechnologyNode,
    *,
    vdd: float,
    temp_k: float = ROOM_TEMP_K,
    drowsy_vdd: float | None = None,
) -> float:
    """Fraction of active-mode leakage *power* retained in drowsy mode.

    Power ratio, not current ratio: both the supply voltage and the leakage
    current drop in drowsy mode.  The current drop is dominated by the DIBL
    effect at the much-reduced drain bias — the paper's "short-channel
    effects" explanation for why drowsy saves so much.
    """
    v_drowsy = drowsy_supply_voltage(node) if drowsy_vdd is None else drowsy_vdd
    if not 0.0 < v_drowsy < vdd:
        raise ValueError(
            f"drowsy voltage {v_drowsy} must lie strictly between 0 and vdd={vdd}"
        )
    memo_key = ("drowsy", node, vdd, quantise_temp(temp_k), v_drowsy)
    cached = _RESIDUAL_MEMO.get(memo_key)
    if cached is not None:
        return cached
    p_active = vdd * sram6t_leakage(node, vdd=vdd, temp_k=temp_k)
    # In drowsy mode the bit lines remain precharged at full Vdd but the
    # access transistor's source node tracks the lowered cell rail; its
    # leakage still sees the full bit-line bias.
    p_drowsy = v_drowsy * sram6t_leakage(
        node, vdd=v_drowsy, temp_k=temp_k, bitline_voltage=vdd
    )
    result = p_drowsy / p_active
    _RESIDUAL_MEMO[memo_key] = result
    return result


def gated_residual_fraction(
    node: TechnologyNode,
    *,
    vdd: float,
    temp_k: float = ROOM_TEMP_K,
    footer_vth_shift: float = DEFAULT_FOOTER_VTH_SHIFT,
    footer_w_over_l: float = DEFAULT_FOOTER_WL_PER_CELL,
) -> float:
    """Fraction of active-mode leakage power retained under gated-Vss.

    Solves the virtual-ground voltage ``v_x`` where the total leakage
    flowing *into* the virtual-ground node from the cell equals the OFF
    footer's subthreshold current at ``vds = v_x``.  As the virtual ground
    rises, every cell path is suppressed at once: the cross-coupled devices
    see a collapsed effective supply ``vdd - v_x``, and the bit-line path
    through the access transistor sees both a reduced drain bias
    (``bl - v_x``) and a *negative* gate drive (word line at 0 while the
    source has risen to ``v_x``) plus body effect — the stack effect that
    makes sleep transistors so effective.
    """
    memo_key = (
        "gated",
        node,
        vdd,
        quantise_temp(temp_k),
        footer_vth_shift,
        footer_w_over_l,
    )
    cached = _RESIDUAL_MEMO.get(memo_key)
    if cached is not None:
        return cached
    footer = DeviceParams(
        node=node, pmos=False, w_over_l=footer_w_over_l, vth_shift=footer_vth_shift
    )
    access = DeviceParams(node=node, pmos=False, w_over_l=SRAM_ACCESS_WL)
    pulldown = DeviceParams(node=node, pmos=False, w_over_l=SRAM_PULLDOWN_WL)
    pullup = DeviceParams(node=node, pmos=True, w_over_l=SRAM_PULLUP_WL)

    def cell_current(v_x: float) -> float:
        eff_vdd = max(vdd - v_x, 1e-4)
        i_pd = device_subthreshold_current(
            pulldown, vgs=0.0, vds=eff_vdd, temp_k=temp_k, vsb=v_x
        )
        i_pu = device_subthreshold_current(pullup, vgs=0.0, vds=eff_vdd, temp_k=temp_k)
        bl_bias = max(vdd - v_x, 0.0)
        i_ax = device_subthreshold_current(
            access, vgs=-v_x, vds=bl_bias, temp_k=temp_k, vsb=v_x
        )
        return i_pd + i_pu + i_ax

    def imbalance(v_x: float) -> float:
        foot = _footer_current(footer, 0.0, v_x, temp_k)
        return cell_current(v_x) - foot

    # Clamped at ``lo`` when the footer leaks more than the cell: no stack
    # benefit.
    v_solution = clamped_root(imbalance, 1e-6, vdd - 1e-3, xtol=1e-9)

    p_gated = vdd * cell_current(v_solution)
    p_active = vdd * sram6t_leakage(node, vdd=vdd, temp_k=temp_k)
    result = min(p_gated / p_active, 1.0)
    _RESIDUAL_MEMO[memo_key] = result
    return result


def _footer_current(
    footer: DeviceParams, vgs: float, vds: float, temp_k: float
) -> float:
    """OFF-footer subthreshold current with (possibly negative) gate drive."""
    if vds <= 0:
        return 0.0
    node = footer.node
    from repro.tech.constants import thermal_voltage  # local: avoid cycle noise

    vt = thermal_voltage(temp_k)
    vth = footer.vth_at(temp_k)
    n = node.subthreshold_swing_n
    pref = footer.mu0 * footer.cox * footer.w_over_l * vt * vt
    exp_gate = math.exp((min(vgs, vth) - vth - node.voff) / (n * vt))
    sat = 1.0 - math.exp(-vds / vt)
    dibl = math.exp(node.dibl_b * (vds - node.vdd0))
    return pref * exp_gate * sat * dibl
