"""Hydrogen-to-methanol conversion and methanol turbine efficiency.

Conversion of hydrogen decreases with reactor load (plug-flow saturation
law) while methanol selectivity peaks at an optimal load. The combined
chemical-path efficiency additionally carries the molar and heating-value
ratio between methanol and the three hydrogen molecules it binds. The
methanol turbine has a quadratic efficiency curve around its optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import LoadOutOfRange
from .hydrogen import LHV_H2, MOLAR_MASS_H2


@dataclass(frozen=True)
class MeohParams:
    """Methanol synthesis loop parameters.

    Conversion spans [x_min, x_max] (x_max reached at the minimum stable
    load rho_min), selectivity spans [s_min, s_max] with its peak at
    rho_star. lhv_meoh is kWh/kg, molar_mass_meoh kg/mol, rated_power MW of
    methanol output.
    """

    x_min: float = 0.78
    x_max: float = 0.85
    kappa_x: float = 0.35
    rho_min: float = 0.2
    s_min: float = 0.945
    s_max: float = 0.985
    beta_s: float = 6.0
    rho_star: float = 0.85
    lhv_meoh: float = 6.09
    molar_mass_meoh: float = 32.042e-3
    rated_power: float = 200.0


def meoh_conversion(rho: float, p: MeohParams) -> tuple[float, float, float]:
    """Conversion, selectivity and chemical efficiency at relative load ``rho``.

    Returns ``(X_H, S_HM, eta_HM)`` where eta_HM is the methanol LHV output
    per unit hydrogen LHV input. Raises LoadOutOfRange outside
    [rho_min, 1].
    """
    if rho < p.rho_min or rho > 1.0:
        raise LoadOutOfRange(
            f"load {rho} outside stable range [{p.rho_min}, 1]"
        )
    x_h = p.x_min + (p.x_max - p.x_min) * (
        1.0 - math.exp(-p.kappa_x / rho)
    ) / (1.0 - math.exp(-p.kappa_x / p.rho_min))
    s_hm = p.s_min + (p.s_max - p.s_min) * math.exp(
        -p.beta_s * (rho - p.rho_star) ** 2
    )
    eta_hm = (
        x_h * s_hm
        * (p.molar_mass_meoh / (3.0 * MOLAR_MASS_H2))
        * (p.lhv_meoh / LHV_H2)
    )
    return x_h, s_hm, eta_hm


@dataclass(frozen=True)
class TurbineParams:
    """Methanol turbine efficiency curve: peak eta_max at relative load x_star."""

    eta_max: float = 0.52
    x_star: float = 0.85
    curvature: float = 0.5
    rated: float = 200.0


def turbine_efficiency(x: float, p: TurbineParams) -> float:
    """Electric efficiency at relative load ``x`` in (0, 1]."""
    if not 0.0 < x <= 1.0:
        raise ValueError(f"relative load {x} outside (0, 1]")
    eta = p.eta_max * (1.0 - p.curvature * (x - p.x_star) ** 2)
    if eta <= 0.0:
        raise ValueError(f"efficiency {eta} non-positive at load {x}")
    return eta
