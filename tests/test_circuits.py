"""Tests for the transistor-level netlists and the DC leakage solver."""

from __future__ import annotations

import itertools

import pytest

from repro.circuits.library import (
    drowsy_residual_fraction,
    drowsy_supply_voltage,
    gated_residual_fraction,
    inverter,
    nand2,
    nand3,
    nor2,
    sram6t_leakage,
)
from repro.circuits.netlist import GND_NODE, VDD_NODE, Netlist, Transistor
from repro.circuits.solver import LeakageSolver
from repro.leakage.bsim3 import unit_leakage


class TestNetlist:
    def test_nodes_collected_sorted(self):
        net = nand2()
        assert VDD_NODE in net.nodes
        assert GND_NODE in net.nodes
        assert "mid" in net.nodes
        assert list(net.nodes) == sorted(net.nodes)

    def test_unknown_nodes_exclude_rails_and_inputs(self):
        net = nand2()
        unknowns = net.unknown_nodes()
        assert set(unknowns) == {"out", "mid"}

    def test_count_devices(self):
        assert nand2().count_devices() == (2, 2)
        assert nand3().count_devices() == (3, 3)
        assert inverter().count_devices() == (1, 1)

    def test_duplicate_transistor_name_rejected(self):
        net = Netlist(name="x", inputs=("a",), output="out")
        net.add(Transistor("m1", "n", gate="a", drain="out", source=GND_NODE))
        with pytest.raises(ValueError, match="duplicate"):
            net.add(Transistor("m1", "p", gate="a", drain="out", source=VDD_NODE))

    def test_bad_polarity_rejected(self):
        with pytest.raises(ValueError, match="polarity"):
            Transistor("m1", "x", gate="a", drain="b", source="c")

    def test_nonpositive_aspect_ratio_rejected(self):
        with pytest.raises(ValueError, match="w_over_l"):
            Transistor("m1", "n", gate="a", drain="b", source="c", w_over_l=0.0)


class TestSolver:
    @pytest.fixture(scope="class")
    def solver(self, node70):
        return LeakageSolver(node70, vdd=0.9, temp_k=300.0)

    def test_inverter_logic_levels(self, solver):
        r0 = solver.solve(inverter(), {"a": 0})
        r1 = solver.solve(inverter(), {"a": 1})
        assert r0.voltages["out"] > 0.85
        assert r1.voltages["out"] < 0.05

    def test_rail_currents_balance(self, solver):
        """KCL: everything out of VDD ends up in GND (rail inputs)."""
        for cell in (inverter(), nand2(), nor2()):
            for combo in itertools.product((0, 1), repeat=len(cell.inputs)):
                r = solver.solve(cell, dict(zip(cell.inputs, combo)))
                assert r.supply_current == pytest.approx(
                    r.ground_current, rel=1e-3, abs=1e-15
                )

    def test_converged_residuals_small(self, solver):
        for cell in (inverter(), nand2(), nand3(), nor2()):
            for combo in itertools.product((0, 1), repeat=len(cell.inputs)):
                r = solver.solve(cell, dict(zip(cell.inputs, combo)))
                leak = max(r.supply_current, r.ground_current)
                assert r.residual_norm <= 1e-5 * leak + 1e-18

    def test_stack_effect_nand2(self, solver):
        """Two series OFF devices leak far less than one (paper 3.1.2).

        Inputs (0,0) turn off both stacked NMOS; (0,1) leaves only the top
        one off with its source at ground.
        """
        both_off = solver.leakage_for_inputs(nand2(), {"x": 0, "y": 0})
        one_off = solver.leakage_for_inputs(nand2(), {"x": 0, "y": 1})
        assert both_off < one_off / 3.0

    def test_nand3_stack_deeper_suppression(self, solver):
        all_off = solver.leakage_for_inputs(nand3(), {"x": 0, "y": 0, "z": 0})
        one_off = solver.leakage_for_inputs(nand3(), {"x": 0, "y": 1, "z": 1})
        assert all_off < one_off / 5.0

    def test_single_device_close_to_equation2(self, solver, node70):
        """The solver's subthreshold asymptote tracks the Eq-2 model.

        A ~20 % deviation is expected: the solver's smooth EKV-style
        interpolation undershoots the pure exponential at the shallow
        subthreshold depths of a low-Vt 70 nm device (the paper's Figure 1
        shows a similar near-but-not-exact match character).
        """
        net = Netlist(name="single", inputs=("g",), output="")
        net.add(Transistor("m1", "n", gate="g", drain=VDD_NODE, source=GND_NODE))
        r = solver.solve(net, {"g": 0})
        eq2 = unit_leakage(node70, vdd=0.9, temp_k=300.0)
        assert r.ground_current == pytest.approx(eq2, rel=0.25)

    def test_missing_input_rejected(self, solver):
        with pytest.raises(ValueError, match="missing input"):
            solver.solve(nand2(), {"x": 0})

    def test_explicit_voltage_inputs(self, solver):
        r = solver.solve(inverter(), {"a": 0.45})
        # Mid-rail input: both devices partially on, output somewhere
        # between rails and large crowbar current.
        assert 0.0 < r.voltages["out"] < 0.9
        assert r.supply_current > 1e-7

    def test_hotter_means_leakier(self, node70):
        cold = LeakageSolver(node70, vdd=0.9, temp_k=300.0)
        hot = LeakageSolver(node70, vdd=0.9, temp_k=383.15)
        leak_cold = cold.leakage_for_inputs(nand2(), {"x": 0, "y": 1})
        leak_hot = hot.leakage_for_inputs(nand2(), {"x": 0, "y": 1})
        assert leak_hot > 4.0 * leak_cold

    def test_defaults_to_nominal_vdd(self, node70):
        s = LeakageSolver(node70)
        assert s.vdd == node70.vdd0

    @pytest.mark.parametrize("temp_k", [0.0, -5.0])
    def test_nonpositive_temperature_rejected_at_construction(self, node70, temp_k):
        with pytest.raises(ValueError, match="temperature must be positive"):
            LeakageSolver(node70, temp_k=temp_k)


class TestSRAMAndResiduals:
    def test_sram_leakage_positive_and_sane(self, node70):
        i = sram6t_leakage(node70, vdd=0.9, temp_k=300.0)
        # Three leaking devices of a few x unit leakage each.
        unit = unit_leakage(node70, vdd=0.9, temp_k=300.0)
        assert unit < i < 10.0 * unit

    def test_sram_high_vt_access_reduces_leakage(self, node70):
        base = sram6t_leakage(node70, vdd=0.9)
        hi_vt = sram6t_leakage(node70, vdd=0.9, access_vth_shift=0.1)
        assert hi_vt < base

    def test_drowsy_voltage_is_1p5_vth(self, node70):
        assert drowsy_supply_voltage(node70) == pytest.approx(1.5 * node70.vth_n)

    def test_drowsy_residual_dramatic_but_nontrivial(self, node70, hot_temp_k):
        """Paper: drowsy reduces leakage dramatically but keeps a
        non-trivial residual (unlike gated-Vss)."""
        frac = drowsy_residual_fraction(node70, vdd=0.9, temp_k=hot_temp_k)
        assert 0.05 < frac < 0.35

    def test_gated_residual_almost_eliminates_leakage(self, node70, hot_temp_k):
        frac = gated_residual_fraction(node70, vdd=0.9, temp_k=hot_temp_k)
        assert 0.0 < frac < 0.05

    def test_gated_beats_drowsy_on_residual(self, node70, hot_temp_k):
        """The paper's reason #1 for gated-Vss superiority."""
        gated = gated_residual_fraction(node70, vdd=0.9, temp_k=hot_temp_k)
        drowsy = drowsy_residual_fraction(node70, vdd=0.9, temp_k=hot_temp_k)
        assert gated < drowsy / 3.0

    def test_drowsy_residual_invalid_voltage_rejected(self, node70):
        with pytest.raises(ValueError):
            drowsy_residual_fraction(node70, vdd=0.9, drowsy_vdd=1.2)
        with pytest.raises(ValueError):
            drowsy_residual_fraction(node70, vdd=0.9, drowsy_vdd=0.0)

    def test_stronger_footer_vth_lowers_gated_residual(self, node70):
        weak = gated_residual_fraction(node70, vdd=0.9, footer_vth_shift=0.05)
        strong = gated_residual_fraction(node70, vdd=0.9, footer_vth_shift=0.25)
        assert strong <= weak


class TestComplexGates:
    """The AOI/OAI/NAND4 additions and the series-chain solver."""

    @pytest.fixture(scope="class")
    def solver(self, node70):
        return LeakageSolver(node70, vdd=0.9, temp_k=300.0)

    def test_aoi21_truth_table(self, solver):
        from repro.circuits.library import aoi21

        for combo in itertools.product((0, 1), repeat=3):
            vals = dict(zip(("a", "b", "c"), combo))
            r = solver.solve(aoi21(), vals)
            expect_high = not ((vals["a"] and vals["b"]) or vals["c"])
            assert (r.voltages["out"] > 0.45) == expect_high, combo

    def test_oai21_truth_table(self, solver):
        from repro.circuits.library import oai21

        for combo in itertools.product((0, 1), repeat=3):
            vals = dict(zip(("a", "b", "c"), combo))
            r = solver.solve(oai21(), vals)
            expect_high = not ((vals["a"] or vals["b"]) and vals["c"])
            assert (r.voltages["out"] > 0.45) == expect_high, combo

    def test_nand4_truth_table_and_convergence(self, solver):
        from repro.circuits.library import nand4

        for combo in itertools.product((0, 1), repeat=4):
            vals = dict(zip(("a", "b", "c", "d"), combo))
            r = solver.solve(nand4(), vals)
            assert (r.voltages["out"] > 0.45) == (not all(combo)), combo
            leak = max(r.supply_current, r.ground_current)
            assert r.residual_norm <= 1e-4 * leak + 1e-18, combo

    def test_deeper_stacks_leak_less(self, solver):
        """All-off leakage must fall monotonically with stack depth."""
        from repro.circuits.library import nand4

        i2 = solver.leakage_for_inputs(nand2(), {"x": 0, "y": 0})
        i3 = solver.leakage_for_inputs(nand3(), {"x": 0, "y": 0, "z": 0})
        i4 = solver.leakage_for_inputs(
            nand4(), {"a": 0, "b": 0, "c": 0, "d": 0}
        )
        assert i4 < i3 < i2

    def test_mid_chain_on_device_case(self, solver):
        """The pathological OFF-ON-OFF ladder converges (chain solver)."""
        from repro.circuits.library import nand4

        r = solver.solve(nand4(), {"a": 0, "b": 0, "c": 1, "d": 0})
        leak = max(r.supply_current, r.ground_current)
        assert r.residual_norm <= 1e-5 * leak
        # The ON device splits its terminals by microvolts only.
        assert abs(r.voltages["m2"] - r.voltages["m3"]) < 0.01

    def test_kdesign_derivable_for_all_standard_cells(self, node70):
        from repro.circuits.library import STANDARD_CELLS
        from repro.leakage.kdesign import derive_kdesign

        for name, builder in STANDARD_CELLS.items():
            kd = derive_kdesign(builder(), node70, vdd=0.9, temp_k=300.0)
            assert 0.0 < kd.kn < 1.5, name
            assert 0.0 < kd.kp < 1.5, name
