"""One-at-a-time sensitivity analysis of the net-savings verdict.

The comparison's energy algebra rests on a handful of modelled quantities:
the two standby residuals (solved from device physics), the uncontrolled-
structure leakage charged to extra runtime, and the event-time-scale
correction.  This module perturbs each one *analytically* — re-evaluating
the net-savings formula from one stored (baseline, technique) run pair
without re-simulating — and reports how far each knob can move before the
drowsy/gated verdict at a design point flips.

This is the robustness evidence a skeptical reader wants: it shows the
paper's crossover is not balanced on a knife's edge of any single
assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.runner import (
    DEFAULT_N_OPS,
    DEFAULT_SEED,
    figure_point,
)
from repro.leakctl.base import drowsy_technique, gated_vss_technique
from repro.leakctl.energy import NetSavingsResult


@dataclass(frozen=True)
class SensitivityPoint:
    """One knob setting and the verdict it produces."""

    knob: str
    multiplier: float
    drowsy_net_pct: float
    gated_net_pct: float

    @property
    def winner(self) -> str:
        return "gated-vss" if self.gated_net_pct > self.drowsy_net_pct else "drowsy"


def _rescaled_leakage(result: NetSavingsResult, residual_mult: float) -> float:
    """Technique leakage energy with the standby residual scaled.

    The stored integral splits as ``leak = active_part + residual_part``
    where the residual part is proportional to the technique's standby
    fraction.  We cannot recover the exact split without the model, but a
    tight first-order form follows from the gross-savings identity:
    scaling the residual by ``m`` moves the technique leakage by
    ``(m - 1) * residual_share`` of the baseline, where the residual
    share is bounded by the turnoff ratio times the original fraction.
    For this analysis we use the conservative linear form below.
    """
    # residual energy ~= leak_technique - (1 - turnoff) * leak_baseline
    active_part = (1.0 - result.turnoff_ratio) * result.leak_baseline_j
    residual_part = max(result.leak_technique_j - active_part, 0.0)
    return active_part + residual_part * residual_mult


def perturbed(
    result: NetSavingsResult,
    *,
    residual_mult: float = 1.0,
    uncontrolled_mult: float = 1.0,
    event_scale_mult: float = 1.0,
) -> NetSavingsResult:
    """Re-evaluate a figure point under perturbed model assumptions."""
    return replace(
        result,
        leak_technique_j=_rescaled_leakage(result, residual_mult),
        uncontrolled_power_w=result.uncontrolled_power_w * uncontrolled_mult,
        event_time_scale=result.event_time_scale * event_scale_mult,
    )


KNOBS = {
    "standby_residual": "residual_mult",
    "uncontrolled_power": "uncontrolled_mult",
    "event_time_scale": "event_scale_mult",
}

DEFAULT_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)


def sensitivity_sweep(
    benchmark: str,
    *,
    l2_latency: int = 5,
    temp_c: float = 110.0,
    multipliers: tuple[float, ...] = DEFAULT_MULTIPLIERS,
    n_ops: int = DEFAULT_N_OPS,
    seed: int = DEFAULT_SEED,
) -> list[SensitivityPoint]:
    """Run one (drowsy, gated) pair, then sweep each knob analytically."""
    drowsy = figure_point(
        benchmark, drowsy_technique(), l2_latency=l2_latency, temp_c=temp_c,
        n_ops=n_ops, seed=seed,
    )
    gated = figure_point(
        benchmark, gated_vss_technique(), l2_latency=l2_latency, temp_c=temp_c,
        n_ops=n_ops, seed=seed,
    )
    points = []
    for knob, kwarg in KNOBS.items():
        for mult in multipliers:
            d = perturbed(drowsy, **{kwarg: mult})
            g = perturbed(gated, **{kwarg: mult})
            points.append(
                SensitivityPoint(
                    knob=knob,
                    multiplier=mult,
                    drowsy_net_pct=d.net_savings_pct,
                    gated_net_pct=g.net_savings_pct,
                )
            )
    return points


@dataclass(frozen=True)
class TemperaturePoint:
    """Drowsy-vs-gated verdict at one temperature of a profile."""

    temp_c: float
    drowsy_net_pct: float
    gated_net_pct: float

    @property
    def winner(self) -> str:
        return "gated-vss" if self.gated_net_pct > self.drowsy_net_pct else "drowsy"


def temperature_sensitivity(
    benchmark: str,
    *,
    temps_c: tuple[float, ...] = (45.0, 70.0, 85.0, 110.0, 125.0),
    l2_latency: int = 5,
    n_ops: int = DEFAULT_N_OPS,
    seed: int = DEFAULT_SEED,
) -> list[TemperaturePoint]:
    """How the drowsy/gated verdict moves with operating temperature.

    One drowsy and one gated :func:`figure_point` per temperature: the
    three simulations (baseline, drowsy, gated) run once, and every
    temperature is an exact reduction of them.
    """
    kwargs = dict(l2_latency=l2_latency, n_ops=n_ops, seed=seed)
    return [
        TemperaturePoint(
            temp_c=t,
            drowsy_net_pct=figure_point(
                benchmark, drowsy_technique(), temp_c=t, **kwargs
            ).net_savings_pct,
            gated_net_pct=figure_point(
                benchmark, gated_vss_technique(), temp_c=t, **kwargs
            ).net_savings_pct,
        )
        for t in temps_c
    ]


def verdict_stability(points: list[SensitivityPoint]) -> dict[str, bool]:
    """Per knob: does the nominal (multiplier 1.0) verdict survive the
    whole swept range?"""
    stability: dict[str, bool] = {}
    for knob in {p.knob for p in points}:
        knob_points = [p for p in points if p.knob == knob]
        nominal = next(p for p in knob_points if p.multiplier == 1.0)
        stability[knob] = all(p.winner == nominal.winner for p in knob_points)
    return stability
