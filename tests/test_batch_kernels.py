"""Vectorised batch leakage kernels: API shape, wiring, and CI gates.

The numerical scalar-vs-batch agreement is pinned by the equivalence
matrix in ``test_golden_equivalence.py`` and the property-based tests in
``test_properties.py``; this file covers everything else — broadcast
shapes, variation averaging, and the bench harness's batch-speedup gate
plumbing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.leakage import batch
from repro.leakage.bsim3 import unit_leakage as scalar_unit_leakage
from repro.tech.nodes import PAPER_VDD, get_node
from repro.tech.variation import VariationSpec

NODE = get_node("70nm")


class TestKernelShapes:
    def test_scalar_in_scalar_out(self):
        out = batch.unit_leakage(NODE, vdd=0.9, temp_k=350.0)
        assert float(out) > 0.0

    def test_1d_temperature_array(self):
        temps = np.linspace(300.0, 400.0, 7)
        out = batch.unit_leakage(NODE, vdd=0.9, temp_k=temps)
        assert out.shape == (7,)
        assert (np.diff(out) > 0).all()  # leakage rises with T

    def test_broadcasting_t_times_vdd(self):
        temps = np.linspace(300.0, 400.0, 5).reshape(-1, 1)
        vdds = np.linspace(0.6, 1.0, 3).reshape(1, -1)
        out = batch.unit_leakage(NODE, vdd=vdds, temp_k=temps)
        assert out.shape == (5, 3)

    def test_vds_negative_rejected(self):
        with pytest.raises(ValueError):
            batch.device_subthreshold_current(
                NODE, vgs=0.0, vds=np.array([0.5, -0.1])
            )

    def test_temperature_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            batch.unit_leakage(NODE, vdd=0.9, temp_k=np.array([300.0, 0.0]))

    def test_zero_vds_leaks_nothing(self):
        out = batch.device_subthreshold_current(
            NODE, vgs=0.0, vds=np.array([0.0, 0.9])
        )
        assert out[0] == 0.0 and out[1] > 0.0

    def test_gate_leakage_zero_for_uncalibrated_node(self):
        node = get_node("180nm")  # no gate-leakage calibration point
        out = batch.gate_leakage_per_um(
            node, vdd=np.array([0.9, 1.2]), temp_k=300.0
        )
        assert out.shape == (2,)
        assert (out == 0.0).all()

    def test_gidl_multiplier_at_least_one(self):
        rbb = np.linspace(0.0, 0.5, 9)
        out = batch.gidl_multiplier(NODE, rbb)
        assert (out >= 1.0).all()
        assert out[0] == 1.0


class TestVariationAveraging:
    def test_mean_exceeds_nominal(self):
        spec = VariationSpec()
        varied = batch.varied_unit_leakage(
            NODE, vdd=0.9, temp_k=353.0, pmos=False, variation=spec
        )
        nominal = scalar_unit_leakage(NODE, vdd=0.9, temp_k=353.0)
        assert varied > nominal  # convexity uplift

    def test_none_variation_falls_back_to_nominal(self):
        assert batch.varied_unit_leakage(
            NODE, vdd=0.9, temp_k=353.0, pmos=False, variation=None
        ) == scalar_unit_leakage(NODE, vdd=0.9, temp_k=353.0)

    def test_sample_population_is_memoised_and_frozen(self):
        spec = VariationSpec()
        a = batch._variation_samples(spec)
        b = batch._variation_samples(spec)
        assert a is b
        with pytest.raises(ValueError):
            a[0, 0] = 2.0

    def test_mean_leakage_with_variation_batch_matches_manual(self):
        spec = VariationSpec(samples=50, seed=9)
        got = batch.mean_leakage_with_variation_batch(
            lambda ln, tox, vdd, vth: ln + tox + vdd + vth, spec
        )
        samples = batch._variation_samples(spec)
        assert got == pytest.approx(float(samples.sum(axis=1).mean()))


class TestBenchGate:
    def test_check_regression_flags_slow_batch_kernel(self):
        from repro.bench.core import BATCH_SPEEDUP_FLOOR, check_regression

        report = {
            "reference": {"speedup": 5.0},
            "batch": {
                "variation_mean": {"speedup": BATCH_SPEEDUP_FLOOR - 1.0},
                "t_sweep_100": {"speedup": BATCH_SPEEDUP_FLOOR + 5.0},
            },
        }
        baseline = {"reference": {"speedup": 5.0}}
        failures = check_regression(report, baseline)
        assert len(failures) == 1
        assert "variation_mean" in failures[0]

    def test_check_regression_flags_missing_batch_section(self):
        from repro.bench.core import check_regression

        report = {"reference": {"speedup": 5.0}}
        baseline = {
            "reference": {"speedup": 5.0},
            "batch": {"variation_mean": {"speedup": 30.0}},
        }
        failures = check_regression(report, baseline)
        assert any("batch" in f for f in failures)

    def test_check_regression_passes_fast_batch(self):
        from repro.bench.core import check_regression

        report = {
            "reference": {"speedup": 5.0},
            "batch": {"variation_mean": {"speedup": 30.0}},
        }
        baseline = {"reference": {"speedup": 5.0}}
        assert check_regression(report, baseline) == []

    def test_batch_comparison_meets_floor(self):
        """The real timed gate: vectorised kernels >= 10x the scalar loop."""
        from repro.bench.core import BATCH_SPEEDUP_FLOOR, batch_comparison

        result = batch_comparison(repeats=3)
        assert set(result) == {"variation_mean"}
        for name, entry in result.items():
            assert entry["speedup"] >= BATCH_SPEEDUP_FLOOR, (
                f"{name}: {entry['speedup']:.1f}x below the "
                f"{BATCH_SPEEDUP_FLOOR:.0f}x floor"
            )


class TestDefaultPathUsesBatch:
    """cells.py routes variation averaging through the batch kernels."""

    def test_varied_unit_leakage_default_equals_batch(self):
        from repro.leakage.cells import varied_unit_leakage

        spec = VariationSpec()
        assert varied_unit_leakage(
            NODE, vdd=PAPER_VDD, temp_k=383.0, pmos=False, variation=spec
        ) == batch.varied_unit_leakage(
            NODE, vdd=PAPER_VDD, temp_k=383.0, pmos=False, variation=spec
        )

    def test_sram_subthreshold_default_equals_batch(self):
        from repro.leakage.cells import SRAMCellModel

        spec = VariationSpec()
        cell = SRAMCellModel(node=NODE)
        assert cell.subthreshold_current(
            vdd=PAPER_VDD, temp_k=383.0, variation=spec
        ) == batch.sram_retention_leakage(
            NODE, vdd=PAPER_VDD, temp_k=383.0, variation=spec
        )
