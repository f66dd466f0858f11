"""Lumped thermal RC node and the leakage-thermal fixed point.

A single thermal node (HotSpot's coarsest abstraction):

    C_th dT/dt = P(T) - (T - T_amb) / R_th

with ``P(T)`` the total dissipated power — a fixed dynamic part plus the
strongly temperature-dependent leakage from the HotLeakage model.  Two
solvers are provided:

* :meth:`ThermalRC.step` — explicit time stepping, for coupling into a
  simulation loop (temperature updated every N cycles, leakage
  recomputed through :class:`repro.leakage.model.HotLeakage`);
* :func:`leakage_thermal_equilibrium` — the steady-state fixed point
  ``T* = T_amb + R_th * P(T*)``, found by Brent's method on the net-flux
  function.  Because leakage grows exponentially in T while the package
  can only remove heat linearly in T, the fixed point disappears above a
  critical R_th — **thermal runaway** — and the solver reports it rather
  than silently returning a bogus temperature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.circuits.roots import brentq


class ThermalRunawayError(RuntimeError):
    """No thermal equilibrium exists: leakage outruns the heat path."""


@dataclass
class ThermalRC:
    """One lumped thermal node.

    Attributes:
        r_th: Junction-to-ambient thermal resistance (K/W).
        c_th: Thermal capacitance (J/K).
        t_ambient: Ambient temperature (K).
        temp_k: Current node temperature (K); starts at ambient.
    """

    r_th: float
    c_th: float
    t_ambient: float = 318.15  # 45 C case/ambient
    temp_k: float | None = None

    def __post_init__(self) -> None:
        if self.r_th <= 0 or self.c_th <= 0:
            raise ValueError("thermal R and C must be positive")
        if self.temp_k is None:
            self.temp_k = self.t_ambient

    @property
    def time_constant_s(self) -> float:
        """The RC time constant (seconds)."""
        return self.r_th * self.c_th

    def step(self, power_w: float, dt_s: float) -> float:
        """Advance the node by ``dt_s`` seconds under ``power_w`` watts.

        Uses the exact exponential solution for constant power over the
        step (unconditionally stable, any dt).  Returns the new
        temperature (K).
        """
        if dt_s < 0:
            raise ValueError(f"dt must be non-negative, got {dt_s}")
        import math

        target = self.t_ambient + self.r_th * power_w
        decay = math.exp(-dt_s / self.time_constant_s)
        self.temp_k = target + (self.temp_k - target) * decay
        return self.temp_k


def leakage_thermal_equilibrium(
    rc: ThermalRC,
    *,
    dynamic_power_w: float,
    leakage_power_fn: Callable[[float], float],
    t_max_k: float = 500.0,
) -> float:
    """Steady-state temperature of the leakage-thermal loop (K).

    Args:
        rc: The thermal node (its current temperature is not used).
        dynamic_power_w: Temperature-independent power (W).
        leakage_power_fn: ``T (K) -> leakage power (W)`` — typically a
            closure over :class:`~repro.leakage.model.HotLeakage`.
        t_max_k: Physical search ceiling; if the heat path cannot balance
            the power anywhere below this, runaway is declared.

    Returns:
        The equilibrium temperature (the *stable* fixed point).

    Raises:
        ThermalRunawayError: If net heating is positive all the way to
            ``t_max_k`` — exponential leakage has outrun the linear heat
            removal and no operating point exists.
    """

    def net_flux(temp_k: float) -> float:
        """Heating minus cooling at ``temp_k``; equilibrium at zero."""
        power = dynamic_power_w + leakage_power_fn(temp_k)
        return power - (temp_k - rc.t_ambient) / rc.r_th

    lo = rc.t_ambient
    flux_lo = net_flux(lo)
    if flux_lo <= 0.0:
        return lo  # no net heating at ambient: the die sits at ambient
    flux_hi = net_flux(t_max_k)
    if flux_hi > 0.0:
        raise ThermalRunawayError(
            f"still heating at {t_max_k:.0f} K "
            f"(R_th={rc.r_th} K/W, dynamic={dynamic_power_w} W)"
        )
    return brentq(net_flux, lo, t_max_k, xtol=1e-6, fa=flux_lo, fb=flux_hi)
