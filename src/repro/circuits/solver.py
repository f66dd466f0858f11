"""DC steady-state leakage solver for small CMOS netlists.

This module plays the role of the transistor-level circuit simulator the
paper used (Cadence for BSIM3 fits, AIM-spice for gate leakage): given a
netlist and a set of rail-driven inputs, it solves the internal node
voltages by current continuity and reports the quiescent supply current,
i.e. the cell's leakage for that input combination.

The device model is a smooth EKV-style interpolation whose subthreshold
asymptote is calibrated to exactly match the architectural unit-leakage
equation (:func:`repro.leakage.bsim3.unit_leakage`) for a single OFF device
at Vgs = 0, Vds = Vdd, T = 300 K.  DIBL is applied as a threshold reduction
(``vth_eff = vth - sigma_dibl * (vds - vdd0)``) with ``sigma_dibl`` chosen so
the subthreshold DIBL factor equals the paper's ``exp(b (vds - vdd0))`` at
the calibration temperature.  This keeps ON devices strongly conductive
(so logic nodes settle at the rails) while OFF stacks exhibit the real
stack effect: the shared internal node rises, producing negative Vgs on the
upper device and the super-linear leakage reduction that ``k_design``
captures.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log1p

from repro import obs as _obs
from repro.circuits.netlist import GND_NODE, VDD_NODE, Netlist, Transistor
from repro.circuits.roots import brentq, clamped_root
from repro.memo import LRUMemo
from repro.tech.constants import ROOM_TEMP_K, quantise_temp, thermal_voltage
from repro.tech.nodes import TechnologyNode

_EXP_CAP = 60.0  # cap softplus arguments to avoid overflow

# Memoised DC solves.  A solve is fully determined by the technology node,
# the rails (vdd, T), the netlist topology and the input combination — and
# the relaxation/brentq iteration underneath is by far the most expensive
# analytic step, so sweeps that revisit an operating point (k_design surface
# fits, residual-fraction tables, repeated figure points) skip it entirely.
# Keys quantise the temperature to a 1 µK grid (see ``quantise_temp``); the
# stored :class:`DCResult` is treated as immutable by every caller.  The
# cap covers every operating point of a full figure sweep (a few hundred
# distinct keys) with an order of magnitude to spare; an eviction only
# costs a deterministic recompute.
_SOLVE_MEMO = LRUMemo(maxsize=4096)


@dataclass(frozen=True)
class DCResult:
    """Solution of one DC operating point.

    Attributes:
        voltages: Node name -> solved voltage (rails and inputs included).
        supply_current: Quiescent current drawn from the VDD rail (A); for a
            static CMOS cell with rail inputs this is the leakage current.
        ground_current: Current sunk into the GND rail (A); equals
            ``supply_current`` up to solver tolerance when inputs source no
            net current.
        residual_norm: Max abs node-current residual (A), a convergence check.
    """

    voltages: dict[str, float]
    supply_current: float
    ground_current: float
    residual_norm: float


class LeakageSolver:
    """Solves DC leakage of a :class:`Netlist` at one (Vdd, T) point."""

    def __init__(
        self,
        node: TechnologyNode,
        *,
        vdd: float | None = None,
        temp_k: float = ROOM_TEMP_K,
    ) -> None:
        self.node = node
        self.vdd = node.vdd0 if vdd is None else vdd
        self.temp_k = temp_k
        # DIBL as a temperature-independent threshold shift calibrated so the
        # subthreshold DIBL factor reproduces exp(b * (vds - vdd0)) at 300 K.
        vt300 = thermal_voltage(ROOM_TEMP_K)
        self._dibl_sigma = node.dibl_b * node.subthreshold_swing_n * vt300
        # The per-device-call constants of device_current, computed once:
        # the same operations, in the same order, as inline.
        self._vt = thermal_voltage(temp_k)
        cox = node.cox
        self._mu_cox_n = node.mu0_n * cox
        self._mu_cox_p = node.mu0_p * cox
        self._two_n_vt = 2.0 * node.subthreshold_swing_n * self._vt
        self._vth_dt = node.vth_temp_coeff * (temp_k - ROOM_TEMP_K)

    # ------------------------------------------------------------------
    # Device model
    # ------------------------------------------------------------------

    def device_current(self, t: Transistor, va: float, vg: float, vb: float) -> float:
        """Channel current (A) flowing from terminal ``a`` into terminal ``b``.

        Symmetric EKV-style model: antisymmetric under terminal swap, smooth
        from subthreshold through strong inversion.  For PMOS the voltages
        are mirrored about VDD.
        """
        node = self.node
        vt = self._vt
        if t.polarity == "p":
            # Mirror: work in hole coordinates referenced to VDD.  The
            # mirror flips voltage polarity, so the physical current between
            # the same two terminals flips sign as well.
            va, vg, vb = self.vdd - va, self.vdd - vg, self.vdd - vb
            base = node.vth_p
            mu_cox = self._mu_cox_p
            sign = -1.0
        else:
            base = node.vth_n
            mu_cox = self._mu_cox_n
            sign = 1.0
        vds_abs = abs(va - vb)
        vsb = vb if vb < va else va  # bulk at (mirrored) ground
        # Effective threshold: temperature, body effect, DIBL, floor.
        vth = base + t.vth_shift + self._vth_dt
        vth += node.body_effect_gamma * (0.0 if vsb < 0.0 else vsb)
        vth -= self._dibl_sigma * (vds_abs - node.vdd0)
        if vth < 0.01:
            vth = 0.01
        # Prefactor calibrated so the subthreshold asymptote equals the
        # architectural Equation-2 model (which carries the 1x vt^2 term and
        # the Voff offset).
        pref = mu_cox * t.w_over_l * vt * vt
        denom = self._two_n_vt
        xf = (vg - vb - vth - node.voff) / denom
        xr = (vg - va - vth - node.voff) / denom
        # Numerically safe softplus ln(1 + e^x), squared.
        if xf > _EXP_CAP:
            forward = xf**2
        elif xf < -_EXP_CAP:
            forward = exp(-700.0 if xf < -700.0 else xf) ** 2
        else:
            forward = log1p(exp(xf)) ** 2
        if xr > _EXP_CAP:
            reverse = xr**2
        elif xr < -_EXP_CAP:
            reverse = exp(-700.0 if xr < -700.0 else xr) ** 2
        else:
            reverse = log1p(exp(xr)) ** 2
        # Current from a -> b is positive when va > vb for an ON/leaking
        # device; EKV convention: I = pref * (i_f(source=b) - i_r(source=a)).
        return sign * pref * (forward - reverse)

    # ------------------------------------------------------------------
    # Network solution
    # ------------------------------------------------------------------

    def solve(self, netlist: Netlist, input_values: dict[str, int | float]) -> DCResult:
        """Solve the DC operating point for one input combination.

        Args:
            netlist: The cell.
            input_values: Input node -> logic value (0/1) or explicit voltage.

        Returns:
            A :class:`DCResult` with node voltages and rail currents.

        Raises:
            ValueError: If an input declared by the netlist is missing.
        """
        missing = [i for i in netlist.inputs if i not in input_values]
        if missing:
            raise ValueError(f"missing input values for {missing}")

        # Memo key: the full (frozen) technology node — not just its name,
        # since ``with_overrides`` yields same-named variants — the rails,
        # and the exact netlist topology + input combination.  ``Netlist``
        # is mutable, so fingerprint its (hashable) contents.
        memo_key = (
            self.node,
            self.vdd,
            quantise_temp(self.temp_k),
            netlist.name,
            tuple(netlist.transistors),
            netlist.inputs,
            netlist.output,
            tuple(sorted(input_values.items())),
        )
        cached = _SOLVE_MEMO.get(memo_key)
        if cached is not None:
            _obs.incr("solver.memo_hits")
            return cached
        _obs.incr("solver.memo_misses")

        fixed: dict[str, float] = {VDD_NODE: self.vdd, GND_NODE: 0.0}
        for name, value in input_values.items():
            fixed[name] = self.vdd * value if value in (0, 1) else float(value)

        unknowns = [n for n in netlist.unknown_nodes() if n not in fixed]

        def node_currents(volt: dict[str, float]) -> dict[str, float]:
            net: dict[str, float] = {n: 0.0 for n in volt}
            for t in netlist.transistors:
                ia_to_b = self.device_current(
                    t, volt[t.drain], volt[t.gate], volt[t.source]
                )
                net[t.drain] -= ia_to_b
                net[t.source] += ia_to_b
            return net

        solved = dict(fixed)
        for name in unknowns:
            solved[name] = self.vdd / 2.0
        with _obs.span("solver.relax"):
            residual_norm = self._relax(netlist, solved, unknowns)

        net = node_currents(solved)
        # Current out of VDD = -(net current into vdd node).
        supply = -net[VDD_NODE] if VDD_NODE in net else 0.0
        ground = net[GND_NODE] if GND_NODE in net else 0.0
        result = DCResult(
            voltages=solved,
            supply_current=supply,
            ground_current=ground,
            residual_norm=residual_norm,
        )
        _SOLVE_MEMO[memo_key] = result
        return result

    def _relax(
        self,
        netlist: Netlist,
        volt: dict[str, float],
        unknowns: list[str],
        *,
        sweeps: int = 400,
        vtol: float = 1e-13,
    ) -> float:
        """Gauss-Seidel relaxation with per-node bisection.

        The net current into a node is strictly decreasing in that node's
        voltage (every attached channel conducts more out of / less into the
        node as it rises), so each one-dimensional sub-problem has a unique
        root found robustly by Brent's method.  Sweeping nodes until no voltage
        moves gives the network solution.  This is far more reliable than a
        damped Newton iteration on these exponentially stiff systems.
        """
        if not unknowns:
            return 0.0

        def net_current_into(names: set[str]) -> float:
            """Net current flowing into a set of nodes from outside it."""
            total = 0.0
            for t in netlist.transistors:
                d_in = t.drain in names
                s_in = t.source in names
                if d_in == s_in:
                    continue  # fully inside (cancels) or fully outside
                i = self.device_current(t, volt[t.drain], volt[t.gate], volt[t.source])
                total += i if s_in else -i
            return total

        # Each unknown node's attached devices, in netlist order: drain
        # ends draw current out of the node, source ends feed it in.
        device_current = self.device_current
        attached: dict[str, list[tuple[Transistor, bool]]] = {
            n: [] for n in unknowns
        }
        for t in netlist.transistors:
            if t.drain in attached:
                attached[t.drain].append((t, True))
            if t.source in attached and t.source != t.drain:
                attached[t.source].append((t, False))

        def net_current_at(name: str, v: float) -> float:
            old = volt[name]
            volt[name] = v
            total = 0.0
            for t, at_drain in attached[name]:
                i = device_current(t, volt[t.drain], volt[t.gate], volt[t.source])
                if at_drain:
                    total -= i
                else:
                    total += i
            volt[name] = old
            return total

        # A node's root depends only on the voltages at the other
        # terminals of its attached devices.  Gauss-Seidel often re-solves
        # a node none of whose inputs moved (the turnaround node at every
        # sweep reversal, more in ping-pong stretches), so each node keeps
        # its last (inputs, root) pair: equal inputs give the same root.
        inputs_of = {
            n: tuple(
                dict.fromkeys(
                    x
                    for t, _ in devices
                    for x in (t.drain, t.gate, t.source)
                    if x != n
                )
            )
            for n, devices in attached.items()
        }
        last_root: dict[str, tuple[tuple[float, ...], float]] = {}

        def relax_single(name: str) -> float:
            inputs = tuple([volt[x] for x in inputs_of[name]])
            last = last_root.get(name)
            if last is not None and last[0] == inputs:
                return last[1]
            root = clamped_root(
                lambda v: net_current_at(name, v),
                0.0,
                self.vdd,
                xtol=1e-14,
                rtol=8.9e-16,
            )
            last_root[name] = (inputs, root)
            return root

        def relax_cluster(cluster: set[str]) -> None:
            """Solve a set of ON-coupled nodes at one common voltage."""

            def f(v: float) -> float:
                for n in cluster:
                    volt[n] = v
                return net_current_into(cluster)

            common = clamped_root(f, 0.0, self.vdd, xtol=1e-14, rtol=8.9e-16)
            for n in cluster:
                volt[n] = common

        def on_clusters() -> list[set[str]]:
            """Unknown-node clusters joined by ON channels at current volt.

            Two unknowns linked by a strongly conducting device equalise, so
            Gauss-Seidel ping-pongs between them without converging; solving
            the pair as a supernode fixes that.
            """
            parent = {n: n for n in unknowns}

            def find(a: str) -> str:
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            for t in netlist.transistors:
                if t.drain not in parent or t.source not in parent:
                    continue
                vg, va, vb = volt[t.gate], volt[t.drain], volt[t.source]
                if t.polarity == "p":
                    vg, va, vb = self.vdd - vg, self.vdd - va, self.vdd - vb
                vth = self.node.vth_p if t.polarity == "p" else self.node.vth_n
                # Merge only strongly-ON channels: a pass device handing a
                # high across (vgs barely above vth) self-limits and its
                # terminals genuinely differ — Gauss-Seidel handles it.
                if vg - min(va, vb) > vth + t.vth_shift + 0.1:
                    ra, rb = find(t.drain), find(t.source)
                    if ra != rb:
                        parent[ra] = rb
            groups: dict[str, set[str]] = {}
            for n in unknowns:
                groups.setdefault(find(n), set()).add(n)
            return [g for g in groups.values() if len(g) > 1]

        frozen: list[set[str]] = []

        def in_frozen(name: str) -> bool:
            return any(name in c for c in frozen)

        def residual() -> float:
            """Worst current imbalance, treating each cluster as a supernode.

            Nodes merged through an ON channel carry their through-current
            with a sub-microvolt split that is irrelevant to leakage, so the
            meaningful KCL check for them is at the cluster boundary.
            """
            worst = 0.0
            for c in frozen:
                worst = max(worst, abs(net_current_into(c)))
            for n in unknowns:
                if not in_frozen(n):
                    worst = max(worst, abs(net_current_at(n, volt[n])))
            return worst

        def currents_scale() -> float:
            rails = abs(net_current_into({VDD_NODE})) + abs(
                net_current_into({GND_NODE})
            )
            return max(rails, 1e-18)

        for _attempt in range(4):
            for sweep in range(sweeps):
                max_move = 0.0
                # Alternate sweep direction to damp node-to-node ping-pong.
                order = unknowns if sweep % 2 == 0 else list(reversed(unknowns))
                for name in order:
                    if in_frozen(name):
                        continue
                    new_v = relax_single(name)
                    max_move = max(max_move, abs(new_v - volt[name]))
                    volt[name] = new_v
                for cluster in frozen:
                    relax_cluster(cluster)
                if max_move < vtol:
                    break
            if residual() <= 1e-8 * currents_scale():
                break
            fresh = [
                c for c in on_clusters() if not any(c & old for old in frozen)
            ]
            if not fresh:
                break
            frozen.extend(fresh)

        if residual() > 1e-8 * currents_scale():
            # Gauss-Seidel stalls on series chains (each node's root tracks
            # its neighbour ~1:1 through the exponentials).  If the unknown
            # subgraph is a simple ladder, solve it exactly by propagating
            # the through-current; otherwise polish with Newton from the
            # (already close) GS point.
            if not self._solve_chain(netlist, volt, unknowns):
                self._newton_polish(netlist, volt, unknowns)

        return residual()

    def _solve_chain(
        self, netlist: Netlist, volt: dict[str, float], unknowns: list[str]
    ) -> bool:
        """Exact solve for unknowns forming a series path between rails.

        A series stack carries a single through-current: bisect on the top
        node's voltage, propagate the implied current down the chain (each
        next node's voltage is the unique root carrying that current), and
        close the loop on the bottom boundary's balance.  Returns False if
        the topology is not a simple externally-anchored path.
        """
        unknown_set = set(unknowns)
        adj: dict[str, set[str]] = {n: set() for n in unknowns}
        edge_devs: dict[frozenset, list[Transistor]] = {}
        boundary: dict[str, list[Transistor]] = {n: [] for n in unknowns}
        for t in netlist.transistors:
            a, b = t.drain, t.source
            a_u, b_u = a in unknown_set, b in unknown_set
            if a_u and b_u:
                adj[a].add(b)
                adj[b].add(a)
                edge_devs.setdefault(frozenset((a, b)), []).append(t)
            elif a_u:
                boundary[a].append(t)
            elif b_u:
                boundary[b].append(t)

        if any(len(neigh) > 2 for neigh in adj.values()):
            return False
        if len(unknowns) == 1:
            order = list(unknowns)
        else:
            ends = [n for n in unknowns if len(adj[n]) == 1]
            if len(ends) != 2:
                return False
            order = [ends[0]]
            prev: str | None = None
            while True:
                step = [x for x in adj[order[-1]] if x != prev]
                if not step:
                    break
                prev = order[-1]
                order.append(step[0])
            if len(order) != len(unknowns):
                return False
        # Interior nodes must have no external (rail/input) attachments:
        # otherwise the through-current is not conserved along the path.
        for n in order[1:-1]:
            if boundary[n]:
                return False
        if not boundary[order[0]] or not boundary[order[-1]]:
            return False

        top, bottom = order[0], order[-1]

        def boundary_inflow(n: str, v_n: float) -> float:
            old = volt[n]
            volt[n] = v_n
            total = 0.0
            for t in boundary[n]:
                i = self.device_current(t, volt[t.drain], volt[t.gate], volt[t.source])
                total += i if t.source == n else -i
            volt[n] = old
            return total

        def edge_current(a: str, b: str, vb: float) -> float:
            """Current flowing a -> b with node b held at ``vb``."""
            old = volt[b]
            volt[b] = vb
            total = 0.0
            for t in edge_devs[frozenset((a, b))]:
                i = self.device_current(t, volt[t.drain], volt[t.gate], volt[t.source])
                total += i if t.drain == a else -i
            volt[b] = old
            return total

        def closure(v_top: float) -> float:
            volt[top] = v_top
            through = boundary_inflow(top, v_top)
            for a, b in zip(order, order[1:]):

                def f(vb: float) -> float:
                    return edge_current(a, b, vb) - through

                volt[b] = clamped_root(f, 0.0, self.vdd, xtol=1e-15, rtol=8.9e-16)
            return through + boundary_inflow(bottom, volt[bottom])

        g_lo = closure(0.0)
        g_hi = closure(self.vdd)
        if g_lo == 0.0:
            closure(0.0)
            return True
        if g_hi == 0.0:
            return True
        if g_lo * g_hi > 0.0:
            return False
        v_top = brentq(
            closure, 0.0, self.vdd, xtol=1e-14, rtol=8.9e-16, fa=g_lo, fb=g_hi
        )
        closure(v_top)
        return True

    def _newton_polish(
        self, netlist: Netlist, volt: dict[str, float], unknowns: list[str]
    ) -> None:
        from scipy.optimize import fsolve

        def residuals(x) -> list[float]:
            for name, v in zip(unknowns, x):
                volt[name] = min(max(v, 0.0), self.vdd)
            net = {n: 0.0 for n in unknowns}
            flow = {n: 0.0 for n in unknowns}
            for t in netlist.transistors:
                i = self.device_current(t, volt[t.drain], volt[t.gate], volt[t.source])
                if t.drain in net:
                    net[t.drain] -= i
                    flow[t.drain] += abs(i)
                if t.source in net:
                    net[t.source] += i
                    flow[t.source] += abs(i)
            # Normalise each node's imbalance by its incident current so
            # every equation is O(1) regardless of how deep in
            # subthreshold the node sits (raw currents span decades).
            return [net[n] / (flow[n] + 1e-18) for n in unknowns]

        x0 = [volt[n] for n in unknowns]
        solution, _info, ok, _msg = fsolve(
            residuals, x0, full_output=True, xtol=1e-12
        )
        if ok:
            for name, v in zip(unknowns, solution):
                volt[name] = min(max(v, 0.0), self.vdd)
        else:
            # Restore the GS point rather than a bad Newton excursion.
            for name, v in zip(unknowns, x0):
                volt[name] = v

    def leakage_for_inputs(
        self, netlist: Netlist, input_values: dict[str, int | float]
    ) -> float:
        """Leakage current (A) for one input combination.

        Reported as the larger of the VDD-sourced and GND-sunk currents:
        for combinations where the output is high, the dominant leakage path
        runs from the output's pull-up through the off pull-down network, and
        measuring at the ground rail captures paths that bypass VDD (e.g.
        input-driven pass devices).
        """
        result = self.solve(netlist, input_values)
        return max(result.supply_current, result.ground_current, 0.0)
