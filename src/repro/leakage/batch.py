"""Vectorised batch leakage kernels (NumPy broadcasting).

The scalar functions in :mod:`repro.leakage.bsim3`, :mod:`repro.leakage.gate`
and :mod:`repro.circuits.library` are the bit-identical *reference*: one
Python call per (temperature, Vdd, parameter) point.  The inter-die
variation averaging (200 samples per cell) pays Python interpreter
overhead per sample through that path.  This module re-implements the
same equations over NumPy arrays so a whole sample population evaluates
in one shot.

Every kernel broadcasts its array arguments together (NumPy rules), keeps
the technology node fixed per call, and agrees with the scalar reference to
better than 1e-12 relative error everywhere — pinned by the scalar-vs-batch
equivalence matrix in ``tests/test_golden_equivalence.py`` and the
property-based tests in ``tests/test_properties.py``.  The speed gap
(>= 10x on the variation averaging) is gated in CI by ``repro bench``.

Naming: each kernel carries the scalar function's name; import the module
qualified (``from repro.leakage import batch`` then ``batch.unit_leakage``)
to keep call sites unambiguous.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.tech.constants import (
    BOLTZMANN,
    ELECTRON_CHARGE,
    ROOM_TEMP_K,
)
from repro.memo import register_reset
from repro.tech.nodes import TechnologyNode
from repro.tech.variation import ParameterSampler, VariationSpec

# Mirrors of the scalar gate-leakage fit constants (repro.leakage.gate).
from repro.leakage.gate import (
    GIDL_BIAS_COEFF,
    TEMP_COEFF_PER_K,
    TOX_SENSITIVITY_PER_NM,
    VDD_EXPONENT,
)

VTH_FLOOR_V = 0.01
"""Threshold-magnitude floor (V), matching ``DeviceParams.vth_at``."""


def _arr(x):
    """Pass Python scalars through; coerce everything else to float64.

    NumPy arithmetic with Python floats is noticeably faster than with
    0-d arrays, and the dense-grid kernels live and die on per-op
    overhead — so scalar arguments stay scalars and only sequences pay
    the ``asarray``.
    """
    if isinstance(x, (float, int)):
        return x
    return np.asarray(x, dtype=np.float64)


def _any_negative(x) -> bool:
    """``np.any(x < 0)`` without the ufunc round-trip for Python scalars."""
    if isinstance(x, (float, int)):
        return x < 0
    return bool((x < 0.0).any())


def _any_nonpositive(x) -> bool:
    """``np.any(x <= 0)`` without the ufunc round-trip for Python scalars."""
    if isinstance(x, (float, int)):
        return x <= 0
    return bool((x <= 0.0).any())


def thermal_voltage(temp_k: np.ndarray | float) -> np.ndarray:
    """Thermal voltage ``kT/q`` (V), elementwise over an array of kelvins."""
    temp_k = _arr(temp_k)
    if _any_nonpositive(temp_k):
        raise ValueError("temperature must be positive everywhere")
    return BOLTZMANN * temp_k / ELECTRON_CHARGE


def vth_at(
    node: TechnologyNode,
    temp_k: np.ndarray | float,
    *,
    pmos: bool = False,
    vth_shift: np.ndarray | float = 0.0,
) -> np.ndarray:
    """Threshold-voltage magnitude Vth(T) (V) over arrays of (T, shift).

    Vectorised mirror of :meth:`repro.leakage.bsim3.DeviceParams.vth_at`:
    linear BSIM3 ``KT1`` temperature dependence, floored at a small
    positive magnitude so extreme sweeps stay physical.
    """
    temp_k = _arr(temp_k)
    vth0 = (node.vth_p if pmos else node.vth_n) + _arr(vth_shift)
    vth = vth0 + node.vth_temp_coeff * (temp_k - ROOM_TEMP_K)
    return np.maximum(vth, VTH_FLOOR_V)


def device_subthreshold_current(
    node: TechnologyNode,
    *,
    vgs: np.ndarray | float,
    vds: np.ndarray | float,
    temp_k: np.ndarray | float = ROOM_TEMP_K,
    pmos: bool = False,
    w_over_l: np.ndarray | float = 1.0,
    vth_shift: np.ndarray | float = 0.0,
    length_mult: np.ndarray | float = 1.0,
    tox_mult: np.ndarray | float = 1.0,
    vsb: np.ndarray | float = 0.0,
) -> np.ndarray:
    """Subthreshold drain current (A), broadcast over every argument.

    Vectorised mirror of
    :func:`repro.leakage.bsim3.device_subthreshold_current`; see that
    function for the physics.  All voltage conventions are magnitudes.
    """
    vgs = _arr(vgs)
    vds = _arr(vds)
    if _any_negative(vds):
        raise ValueError("vds must be non-negative everywhere")
    vt = thermal_voltage(temp_k)
    vth = vth_at(node, temp_k, pmos=pmos, vth_shift=vth_shift)
    vsb = _arr(vsb)
    if not (isinstance(vsb, float) and vsb == 0.0):
        vth = vth + node.body_effect_gamma * vsb
    mu0 = node.mu0_p if pmos else node.mu0_n
    cox = node.cox / _arr(tox_mult)
    w_eff = _arr(w_over_l) / _arr(length_mult)
    prefactor = (mu0 * cox) * w_eff * (vt * vt)
    n = node.subthreshold_swing_n
    gate_drive = np.minimum(vgs, vth)  # subthreshold validity cap
    exp_gate = np.exp((gate_drive - vth - node.voff) / (n * vt))
    # Same formulation as the scalar reference (not expm1): the batch path
    # must track the scalar bit-for-bit-ish, not improve on it.
    sat = np.where(vds > 0, 1.0 - np.exp(-vds / vt), 0.0)
    dibl = np.exp(node.dibl_b * (vds - node.vdd0))
    return prefactor * exp_gate * sat * dibl


def unit_leakage(
    node: TechnologyNode,
    *,
    vdd: np.ndarray | float | None = None,
    temp_k: np.ndarray | float = ROOM_TEMP_K,
    pmos: bool = False,
    w_over_l: np.ndarray | float = 1.0,
    vth_shift: np.ndarray | float = 0.0,
    length_mult: np.ndarray | float = 1.0,
    tox_mult: np.ndarray | float = 1.0,
) -> np.ndarray:
    """Equation-2 unit leakage (A) of one OFF transistor, over arrays.

    Vectorised mirror of :func:`repro.leakage.bsim3.unit_leakage`: the
    device is off (Vgs = 0) with full drain bias (Vds = Vdd).
    """
    if vdd is None:
        vdd = node.vdd0
    vdd = _arr(vdd)
    if _any_negative(vdd):
        raise ValueError("vdd must be non-negative everywhere")
    return device_subthreshold_current(
        node,
        vgs=0.0,
        vds=vdd,
        temp_k=temp_k,
        pmos=pmos,
        w_over_l=w_over_l,
        vth_shift=vth_shift,
        length_mult=length_mult,
        tox_mult=tox_mult,
    )


def gate_leakage_per_um(
    node: TechnologyNode,
    *,
    vdd: np.ndarray | float,
    temp_k: np.ndarray | float = ROOM_TEMP_K,
    tox_mult: np.ndarray | float = 1.0,
) -> np.ndarray:
    """Gate-tunnelling current density (A/um of width), over arrays.

    Vectorised mirror of :func:`repro.leakage.gate.gate_leakage_per_um`:
    exponential in oxide thickness, power-law in supply, weakly linear in
    temperature; zero for nodes without a gate-leakage calibration point.
    """
    vdd = _arr(vdd)
    temp_k = _arr(temp_k)
    tox_mult = _arr(tox_mult)
    if _any_negative(vdd):
        raise ValueError("vdd must be non-negative everywhere")
    if node.gate_leak_na_per_um <= 0.0:
        return np.zeros(np.broadcast(vdd, temp_k, tox_mult).shape)
    cal_current = node.gate_leak_na_per_um * 1e-9
    cal_vdd = 0.9 * node.vdd0
    tox_nm = node.tox_nm * tox_mult
    tox_factor = np.exp(-TOX_SENSITIVITY_PER_NM * (tox_nm - node.tox_nm))
    with np.errstate(divide="ignore"):
        vdd_factor = np.where(vdd > 0, (vdd / cal_vdd) ** VDD_EXPONENT, 0.0)
    temp_factor = 1.0 + TEMP_COEFF_PER_K * (temp_k - ROOM_TEMP_K)
    return cal_current * tox_factor * vdd_factor * np.maximum(temp_factor, 0.0)


def transistor_gate_leakage(
    node: TechnologyNode,
    *,
    w_over_l: np.ndarray | float,
    vdd: np.ndarray | float,
    temp_k: np.ndarray | float = ROOM_TEMP_K,
    tox_mult: np.ndarray | float = 1.0,
) -> np.ndarray:
    """Gate leakage (A) of one transistor, over arrays of operating points."""
    width_um = _arr(w_over_l) * (node.feature_nm * 1e-3)
    return width_um * gate_leakage_per_um(
        node, vdd=vdd, temp_k=temp_k, tox_mult=tox_mult
    )


def gidl_multiplier(
    node: TechnologyNode, reverse_body_bias: np.ndarray | float
) -> np.ndarray:
    """GIDL leakage multiplier (>= 1) over an array of reverse body biases."""
    rbb = _arr(reverse_body_bias)
    if _any_negative(rbb):
        raise ValueError("reverse body bias is a magnitude; must be >= 0")
    scale = 70.0 / node.feature_nm
    return np.exp(GIDL_BIAS_COEFF * scale * rbb)


# ---------------------------------------------------------------------------
# SRAM retention cell
# ---------------------------------------------------------------------------


def sram6t_leakage(
    node: TechnologyNode,
    *,
    vdd: np.ndarray | float,
    temp_k: np.ndarray | float = ROOM_TEMP_K,
    access_vth_shift: np.ndarray | float = 0.0,
    bitline_voltage: np.ndarray | float | None = None,
    vth_mult: np.ndarray | float = 1.0,
    tox_mult: np.ndarray | float = 1.0,
    length_mult: np.ndarray | float = 1.0,
) -> np.ndarray:
    """Retention leakage (A) of one 6T SRAM cell, over arrays.

    Vectorised mirror of :func:`repro.circuits.library.sram6t_leakage`
    (off pull-down + off pull-up + access device against the precharged
    bit line), with the inter-die variation multipliers folded in the way
    :meth:`repro.leakage.cells.SRAMCellModel.subthreshold_current` applies
    them: ``vth_mult`` scales both threshold magnitudes, ``tox_mult``
    thins/thickens the oxide (Cox as 1/tox), ``length_mult`` scales the
    channel length (leakage as 1/L).
    """
    from repro.circuits.library import (
        SRAM_ACCESS_WL,
        SRAM_PULLDOWN_WL,
        SRAM_PULLUP_WL,
    )

    vdd = _arr(vdd)
    bl = vdd if bitline_voltage is None else _arr(bitline_voltage)
    vth_mult = _arr(vth_mult)
    shift_n = node.vth_n * (vth_mult - 1.0)
    shift_p = node.vth_p * (vth_mult - 1.0)
    common = dict(
        temp_k=temp_k, tox_mult=tox_mult, length_mult=length_mult
    )
    i_pd = device_subthreshold_current(
        node, vgs=0.0, vds=vdd, pmos=False, w_over_l=SRAM_PULLDOWN_WL,
        vth_shift=shift_n, **common,
    )
    i_pu = device_subthreshold_current(
        node, vgs=0.0, vds=vdd, pmos=True, w_over_l=SRAM_PULLUP_WL,
        vth_shift=shift_p, **common,
    )
    i_ax = device_subthreshold_current(
        node, vgs=0.0, vds=bl, pmos=False, w_over_l=SRAM_ACCESS_WL,
        vth_shift=shift_n + _arr(access_vth_shift),
        **common,
    )
    return i_pd + i_pu + i_ax


# ---------------------------------------------------------------------------
# Inter-die variation averaging
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _variation_samples(spec: VariationSpec) -> np.ndarray:
    """Memoised (N, 4) multiplier draw for a spec.

    The sampler is seeded, so the draw is a pure function of the spec;
    re-drawing 200 Gaussians per averaged cell would dominate the batch
    path's runtime.  The array is frozen against accidental mutation.
    """
    samples = ParameterSampler(spec).draw()
    samples.setflags(write=False)
    return samples


# Pure function of the (seeded) spec, so clearing it is only ever a cost —
# but register anyway so reset_all() leaves no cache populated.
register_reset(_variation_samples.cache_clear)


def mean_leakage_with_variation_batch(
    batch_fn,
    spec: VariationSpec | None = None,
) -> float:
    """Average a batch kernel over the inter-die variation population.

    Vectorised counterpart of
    :func:`repro.tech.variation.mean_leakage_with_variation`: instead of a
    Python loop calling a scalar closure 200 times, ``batch_fn`` is called
    *once* with four ``(N_samples,)`` multiplier arrays — columns
    ``(length, tox, vdd, vth)`` of the sampler's draw — and must return the
    ``(N_samples,)`` leakage array.

    Returns:
        Mean leakage current (A) across the population, equal to the
        scalar reference within 1e-12 relative (summation order differs).
    """
    spec = spec or VariationSpec()
    samples = _variation_samples(spec)
    leaks = np.asarray(
        batch_fn(samples[:, 0], samples[:, 1], samples[:, 2], samples[:, 3]),
        dtype=np.float64,
    )
    return float(leaks.mean())


def varied_unit_leakage(
    node: TechnologyNode,
    *,
    vdd: float,
    temp_k: float,
    pmos: bool,
    variation: VariationSpec | None,
    vth_shift: float = 0.0,
) -> float:
    """Unit leakage (A) averaged over inter-die variation, batch-evaluated.

    Drop-in counterpart of :func:`repro.leakage.cells.varied_unit_leakage`
    with the 200-sample Python loop replaced by one array evaluation.
    """
    if variation is None:
        from repro.leakage.bsim3 import unit_leakage as scalar_unit_leakage

        return scalar_unit_leakage(
            node, vdd=vdd, temp_k=temp_k, pmos=pmos, vth_shift=vth_shift
        )
    vth0 = node.vth_p if pmos else node.vth_n

    def sample(length_m, tox_m, vdd_m, vth_m):
        return unit_leakage(
            node,
            vdd=vdd * vdd_m,
            temp_k=temp_k,
            pmos=pmos,
            vth_shift=vth_shift + vth0 * (vth_m - 1.0),
            length_mult=length_m,
            tox_mult=tox_m,
        )

    return mean_leakage_with_variation_batch(sample, variation)


def sram_retention_leakage(
    node: TechnologyNode,
    *,
    vdd: float,
    temp_k: float,
    access_vth_shift: float = 0.0,
    variation: VariationSpec | None = None,
) -> float:
    """Variation-averaged 6T retention leakage (A), batch-evaluated.

    Batch counterpart of the variation branch of
    :meth:`repro.leakage.cells.SRAMCellModel.subthreshold_current`.
    """
    if variation is None:
        return float(
            sram6t_leakage(
                node, vdd=vdd, temp_k=temp_k, access_vth_shift=access_vth_shift
            )
        )

    def sample(length_m, tox_m, vdd_m, vth_m):
        return sram6t_leakage(
            node,
            vdd=vdd * vdd_m,
            temp_k=temp_k,
            access_vth_shift=access_vth_shift,
            vth_mult=vth_m,
            tox_mult=tox_m,
            length_mult=length_m,
        )

    return mean_leakage_with_variation_batch(sample, variation)
