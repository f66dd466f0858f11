"""Tiny transistor-netlist representation for leakage analysis.

The paper derives its per-cell ``k_design`` factors from transistor-level
(Cadence) simulations of each cell.  We stand in for that flow with a small
netlist format plus a DC steady-state solver (:mod:`repro.circuits.solver`).
Netlists are static CMOS: transistors connect named nodes; ``vdd`` and
``gnd`` are the rails; input nodes are driven to 0 or Vdd; every remaining
node is an unknown solved by current continuity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

VDD_NODE = "vdd"
GND_NODE = "gnd"


@dataclass(frozen=True)
class Transistor:
    """One MOSFET in a netlist.

    Attributes:
        name: Unique instance name within the netlist.
        polarity: ``"n"`` or ``"p"``.
        gate: Node name driving the gate.
        drain: Drain node name.
        source: Source node name.  (The solver treats devices symmetrically,
            so the drain/source labels only matter for readability.)
        w_over_l: Aspect ratio.
        vth_shift: Additive threshold shift in volts (e.g. high-Vt sleep
            transistors use +0.1..+0.2).
    """

    name: str
    polarity: str
    gate: str
    drain: str
    source: str
    w_over_l: float = 1.0
    vth_shift: float = 0.0

    def __post_init__(self) -> None:
        if self.polarity not in ("n", "p"):
            raise ValueError(f"polarity must be 'n' or 'p', got {self.polarity!r}")
        if self.w_over_l <= 0:
            raise ValueError(f"w_over_l must be positive, got {self.w_over_l}")


@dataclass
class Netlist:
    """A named collection of transistors with declared input nodes.

    Attributes:
        name: Cell name, e.g. ``"nand2"``.
        transistors: The devices.
        inputs: Ordered input node names; enumeration of input combinations
            for k_design derivation follows this order.
        output: The cell's output node, used to classify which network
            (pull-up or pull-down) is off for a given input combination.
    """

    name: str
    transistors: list[Transistor] = field(default_factory=list)
    inputs: tuple[str, ...] = ()
    output: str = ""

    def add(self, transistor: Transistor) -> None:
        if any(t.name == transistor.name for t in self.transistors):
            raise ValueError(f"duplicate transistor name {transistor.name!r}")
        self.transistors.append(transistor)

    @property
    def nodes(self) -> tuple[str, ...]:
        """All node names referenced by the netlist (sorted, deterministic)."""
        seen: set[str] = set()
        for t in self.transistors:
            seen.update((t.gate, t.drain, t.source))
        return tuple(sorted(seen))

    def unknown_nodes(self) -> tuple[str, ...]:
        """Nodes whose voltage the DC solver must determine."""
        fixed = {VDD_NODE, GND_NODE, *self.inputs}
        return tuple(n for n in self.nodes if n not in fixed)

    def count_devices(self) -> tuple[int, int]:
        """Return ``(n_nmos, n_pmos)``."""
        n = sum(1 for t in self.transistors if t.polarity == "n")
        p = sum(1 for t in self.transistors if t.polarity == "p")
        return n, p
