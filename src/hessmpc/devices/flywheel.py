"""Flywheel array model: virtual inertia, standby losses and levelized cost.

The flywheels respond at second scale; their grid-support value is expressed
as an equivalent virtual inertia (rotor inertia scaled by the electrical to
rated speed ratio and by the speed swing per unit of frequency deviation).
Standby drain aggregates windage, bearing friction and balance-of-plant
consumption at rated speed. The levelized cost of energy discounts per-cycle
O&M against a linearly decaying usable capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class FessParams:
    """Flywheel bank parameters.

    rotor_inertias are kg*m^2 per rotor; speeds are rad/s; windage_coeff is
    W/(rad/s)^3, bearing_coeff W/(rad/s), bop_power W. power_cap is MW and
    energy_envelope MWh. Cost fields: invest and om_cost_per_cycle in
    currency, lifetime_cycles a count, decay_factor the per-cycle fractional
    capacity loss, discount_rate the per-cycle discount fraction.
    """

    rotor_inertias: tuple[float, ...] = field(default=())
    rated_speed: float = 1500.0
    initial_elec_speed: float = 1500.0
    windage_coeff: float = 0.0
    bearing_coeff: float = 0.0
    bop_power: float = 0.0
    power_cap: float = 60.0
    energy_envelope: tuple[float, float] = (0.1, 1.9)
    eta_c: float = 0.95
    eta_d: float = 0.95
    invest: float = 3.0e7
    om_cost_per_cycle: float = 10.0
    lifetime_cycles: int = 200_000
    decay_factor: float = 1.0e-6
    discount_rate: float = 0.0


def fess_virtual_inertia(params: FessParams, delta_f: float, delta_omega_e: float) -> float:
    """Equivalent virtual inertia of the bank in kg*m^2.

    Sums, over rotors, the physical inertia scaled by the electrical/rated
    speed ratio and by the electrical speed swing per 2*pi*delta_f. Requires
    a clear scale separation between the rated speed and the frequency swing
    (ratio above 10).
    """
    if delta_f == 0.0:
        raise ValueError("delta_f must be nonzero")
    if params.rated_speed <= 10.0 * 2.0 * math.pi * abs(delta_f):
        raise ValueError(
            "rated speed must dominate the frequency deviation "
            f"({params.rated_speed} rad/s vs 2*pi*{delta_f} Hz)"
        )
    speed_ratio = params.initial_elec_speed / params.rated_speed
    swing_ratio = delta_omega_e / (2.0 * math.pi * delta_f)
    return sum(params.rotor_inertias) * speed_ratio * swing_ratio


def fess_standby_loss(params: FessParams) -> float:
    """Standby drain in MW at rated speed (windage + bearing + BOP)."""
    w = params.rated_speed
    watts = params.windage_coeff * w**3 + params.bearing_coeff * w + params.bop_power
    return watts / 1e6


def fess_lcoe(params: FessParams) -> float:
    """Levelized cost of discharged energy over the cycle life, currency/MWh.

    Discounts per-cycle O&M and the linearly decaying usable energy
    (1 - n*decay_factor at cycle n) at the per-cycle discount rate.
    """
    n_life = params.lifetime_cycles
    if n_life < 1:
        raise ValueError("lifetime_cycles must be at least 1")
    r = params.discount_rate
    hi = params.energy_envelope[1]
    n = np.arange(1, n_life + 1, dtype=np.float64)
    # A term that overflows to inf discounts its cycle to 0, as it should.
    with np.errstate(over="ignore"):
        disc = (1.0 + r) ** n
    cost = params.invest + float((params.om_cost_per_cycle / disc).sum())
    energy = float((hi * (1.0 - n * params.decay_factor) / disc).sum())
    if energy <= 0.0:
        raise ValueError("discounted lifetime energy is non-positive")
    return cost / energy
