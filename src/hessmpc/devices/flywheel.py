"""Flywheel bank model: standby losses and levelized cost.

The flywheels respond at second scale through the droop and virtual-inertia
law of :mod:`hessmpc.vic`; this module holds the bank's own physics. Standby
drain aggregates windage, bearing friction and balance-of-plant consumption
at rated speed. The levelized cost of energy discounts per-cycle O&M
against a linearly decaying usable capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FessParams:
    """Flywheel bank parameters.

    rated_speed is rad/s, and sets the standby drain with windage_coeff in
    W/(rad/s)^3, bearing_coeff W/(rad/s) and bop_power W. power_cap is MW and
    energy_envelope MWh. Cost fields: invest and om_cost_per_cycle in
    currency, lifetime_cycles a count, decay_factor the per-cycle fractional
    capacity loss, discount_rate the per-cycle discount fraction.
    """

    rated_speed: float = 1500.0
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
