"""Electrolyzer and fuel-cell electrochemistry.

The alkaline electrolyzer terminal voltage follows the classic polarization
form (reversible voltage, ohmic slope in temperature and pressure, log-law
activation term, base-10 log); its Faradaic efficiency saturates with current
density. The PEM fuel cell voltage subtracts activation, ohmic and
concentration losses from the Nernst potential (natural logs). Default
coefficients are calibration constants chosen so that charge efficiency spans
0.65-0.85 and discharge efficiency 0.62-0.78 over the nominal current-density
ranges; the resulting curves are frozen as golden files in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

FARADAY = 96485.0          # C/mol
MOLAR_MASS_H2 = 2.016e-3   # kg/mol
LHV_H2 = 33.33             # kWh/kg
HHV_H2 = 39.4              # kWh/kg

#: Stack voltage at which charging against the hydrogen lower heating value
#: breaks even (eta = 1), about 1.2535 V.
LHV_VOLTAGE = 3600.0 * MOLAR_MASS_H2 * LHV_H2 * 1000.0 / (2.0 * FARADAY)
#: Discharge break-even voltage against the higher heating value, ~1.4818 V.
HHV_VOLTAGE = 3600.0 * MOLAR_MASS_H2 * HHV_H2 * 1000.0 / (2.0 * FARADAY)


@dataclass(frozen=True)
class AweParams:
    """Alkaline electrolyzer cell parameters.

    Current density is i/area in A/cm2; temp is degC, pressure bar. The
    r/d/t/s coefficients parameterize the ohmic and activation terms, f1..f4
    the Faradaic efficiency.
    """

    r1: float = 0.22
    r2: float = 3.0e-4
    d1: float = 0.03
    d2: float = 2.5e-4
    t1: float = 30.0
    t2: float = 1500.0
    t3: float = 56250.0
    s: float = 0.13
    f1: float = 1.5e-3
    f2: float = 3.0e-5
    f3: float = 0.9785
    f4: float = 2.0e-4
    area: float = 1.0e4
    n_cells: int = 500
    u_rev: float = 1.184
    temp: float = 75.0
    pressure: float = 30.0
    j_nominal: float = 0.4
    j_range: tuple[float, float] = (0.1, 1.0)


def awe_cell_voltage(i: float, p: AweParams) -> float:
    """Cell terminal voltage in V at stack current ``i`` (A).

    Strictly increasing in current for positive coefficient sums; raises if
    the activation log argument is not positive.
    """
    if i < 0.0:
        raise ValueError("current must be non-negative")
    j = i / p.area
    ohmic_slope = (p.r1 + p.d1) + p.r2 * p.temp + p.d2 * p.pressure
    act_arg = (p.t1 + p.t2 / p.temp + p.t3 / p.temp**2) * j + 1.0
    if act_arg <= 0.0:
        raise ValueError(f"activation log argument {act_arg} is not positive")
    return p.u_rev + ohmic_slope * j + p.s * math.log10(act_arg)


def faradaic_efficiency(i: float, p: AweParams) -> float:
    """Fraction of the stack current that yields collected hydrogen.

    Saturates toward f3 + f4*temp at high current density; clamped to at
    most 1.
    """
    if i <= 0.0:
        raise ValueError("current must be positive")
    j2 = (i / p.area) ** 2
    denom = p.f1 + p.f2 * p.temp + j2
    if denom <= 0.0:
        raise ValueError(f"Faradaic denominator {denom} is not positive")
    eta = j2 / denom * (p.f3 + p.f4 * p.temp)
    return min(eta, 1.0)


def awe_hydrogen(i: float, p: AweParams) -> tuple[float, float]:
    """Hydrogen production rate (kg/h) and electric-to-LHV charge efficiency.

    The rate follows charge conservation scaled by the Faradaic efficiency;
    the efficiency is the hydrogen LHV flow over the stack electric power,
    equal to eta_F * LHV_VOLTAGE / U_cell.
    """
    eta_f = faradaic_efficiency(i, p)
    u_cell = awe_cell_voltage(i, p)
    rate = 3600.0 * eta_f * MOLAR_MASS_H2 * i * p.n_cells / (2.0 * FARADAY)
    eta_charge = eta_f * LHV_VOLTAGE / u_cell
    return rate, eta_charge


@dataclass(frozen=True)
class PemfcParams:
    """PEM fuel cell parameters.

    a1..a4 are the activation-loss constants (natural-log form in the stack
    current), r_m the membrane resistivity (ohm*cm), thickness in cm, r_c a
    lumped contact resistance (ohm), b the concentration coefficient (V).
    delta_g / delta_s are J/mol and J/(mol*K); partial pressures in atm,
    c_o2 in mol/cm3.
    """

    a1: float = -0.3775
    a2: float = 2.0e-3
    a3: float = 7.6e-5
    a4: float = 4.5e-5
    r_m: float = 5.0
    thickness: float = 5.0e-3
    r_c: float = 1.0e-6
    b: float = 0.016
    j_max: float = 1.5
    area: float = 5000.0
    delta_g: float = 237200.0
    delta_s: float = 164.025
    p_h2: float = 3.0
    p_o2: float = 1.5
    c_o2: float = 1.2338e-6
    temp_k: float = 348.15
    temp_ref_k: float = 298.15
    j_nominal: float = 0.6
    j_range: tuple[float, float] = (0.08, 1.2)

GAS_CONSTANT = 8.314  # J/(mol K)


def pemfc_voltage(i: float, p: PemfcParams) -> float:
    """Cell voltage in V at stack current ``i`` (A).

    Nernst potential minus activation, ohmic and concentration losses;
    diverges (raises) as the current density reaches j_max.
    """
    j = i / p.area
    if not 0.0 < j < p.j_max:
        raise ValueError(f"current density {j} A/cm2 outside (0, {p.j_max})")
    two_f = 2.0 * FARADAY
    e_nernst = (
        (p.delta_g - p.delta_s * (p.temp_k - p.temp_ref_k)) / two_f
        + GAS_CONSTANT * p.temp_k / two_f
        * (math.log(p.p_h2) + 0.5 * math.log(p.p_o2))
    )
    u_act = p.a1 + p.a2 * p.temp_k + p.a3 * p.temp_k * math.log(p.c_o2) \
        + p.a4 * p.temp_k * math.log(i)
    u_ohmic = i * (p.r_m * p.thickness / p.area + p.r_c)
    u_con = -p.b * math.log(1.0 - j / p.j_max)
    return e_nernst - u_act - u_ohmic - u_con


def pemfc_discharge_efficiency(i: float, p: PemfcParams) -> float:
    """Electric output over hydrogen HHV flow; linear in cell voltage."""
    return pemfc_voltage(i, p) / HHV_VOLTAGE
