"""Battery health model: knee-shaped SOH curve, stress factors, rainflow damage.

State of health follows a three-stage semi-empirical curve (SEI formation,
steady degradation, capacity knee) driven by a single accumulated damage
number. Damage itself combines a calendar term with cycle terms extracted by
rainflow counting over the SOC trajectory, each weighted by temperature,
mean-SOC and depth-of-discharge stress factors. The battery network's cell
balancing is abstracted as uniform degradation, so one SOH number describes
the whole bank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..timeseries import TimeSeries
from ..errors import AlignmentError


@dataclass(frozen=True)
class BatteryDegParams:
    """Degradation and cost parameters for the battery bank.

    All stress coefficients are dimensionless except k_t (per second) and
    T_ref (degC). alpha_sds is tuned so SOH(0) stays within one knee_kappa of
    unity. invest is currency, om_rate currency/MWh.
    """

    alpha_sei: float = 0.0575
    alpha_sds: float = 0.2
    beta_sei: float = 121.0
    beta_cps: float = 2.5
    knee_kappa: float = 1e-3
    k_T: float = 0.0693
    k_t: float = 4.14e-10
    k_tau: float = 1.04
    k_nu1: float = 1.4e5
    k_nu2: float = -0.501
    k_nu3: float = -1.23e5
    T_ref: float = 25.0
    tau_ref: float = 0.5
    invest: float = 8.0e7
    om_rate: float = 0.0


def battery_soh(d_sds: float, p: BatteryDegParams) -> float:
    """State of health for accumulated damage ``d_sds`` (clamped at 0).

    The three terms model SEI formation, the steady degradation stage and the
    capacity knee; past the knee the raw expression diverges to -inf, so the
    reported value is floored at zero.
    """
    if d_sds < 0.0:
        raise ValueError("d_sds must be non-negative")
    a, b = p.alpha_sei, p.alpha_sds
    raw = (
        a * math.exp(-p.beta_sei * d_sds)
        + b * math.exp(-d_sds)
        + (1.0 - a - b) * (1.0 - p.knee_kappa * math.exp(p.beta_cps * d_sds))
    )
    return max(raw, 0.0)


def stress_factors(
    T: float, t: float, tau: float, nu: float, p: BatteryDegParams
) -> tuple[float, float, float, float]:
    """Stress multipliers (S_T, S_t, S_tau, S_nu).

    T is degC, t seconds, tau the average SOC fraction, nu the cycle depth
    fraction. S_nu uses an inverse power law in depth; at nu = 0 the law
    gives zero damage for negative depth exponents and is undefined when the
    constant term also vanishes.
    """
    s_T = math.exp(p.k_T * (T - p.T_ref) * p.T_ref / (273.0 + T))
    s_t = p.k_t * t
    s_tau = math.exp(p.k_tau * (tau - p.tau_ref))
    if nu == 0.0:
        if p.k_nu2 < 0.0:
            s_nu = 0.0
        elif p.k_nu3 != 0.0:
            s_nu = 1.0 / p.k_nu3
        else:
            raise ValueError("S_nu undefined at nu = 0 with k_nu3 = 0")
    else:
        s_nu = 1.0 / (p.k_nu1 * nu**p.k_nu2 + p.k_nu3)
    return s_T, s_t, s_tau, s_nu


def rainflow_cycles(values: np.ndarray) -> list[tuple[float, float, float, int, int]]:
    """ASTM-style rainflow extraction over a SOC trajectory.

    Returns ``(count, depth, mean, i_start, i_end)`` tuples where count is
    1.0 for closed cycles and 0.5 for residual half cycles, depth the SOC
    swing, mean the midpoint of the swing and the indices locate the swing in
    the original series (used for per-cycle temperature averaging).
    The walk runs on Python floats, whose IEEE operations are numpy's.
    """
    x = np.asarray(values, dtype=np.float64).tolist()
    if len(x) < 2:
        return []

    # Turning points, keeping original indices.
    idx = [0]
    last = x[0]
    for i in range(1, len(x) - 1):
        rise = x[i] - last
        if rise != 0.0 and rise * (x[i + 1] - x[i]) <= 0.0:
            idx.append(i)
            last = x[i]
    if x[-1] != last:
        idx.append(len(x) - 1)
    elif len(idx) == 1:
        return []

    cycles: list[tuple[float, float, float, int, int]] = []
    stack: list[int] = []
    for i in idx:
        stack.append(i)
        while len(stack) >= 3:
            a, b, c = stack[-3], stack[-2], stack[-1]
            range_ab = abs(x[b] - x[a])
            range_bc = abs(x[c] - x[b])
            if range_ab > range_bc:
                break
            if len(stack) == 3:
                # The oldest point can only close a half cycle.
                if range_ab > 0.0:
                    cycles.append(
                        (0.5, range_ab, (x[a] + x[b]) / 2.0, a, b)
                    )
                stack.pop(-3)
            else:
                if range_ab > 0.0:
                    cycles.append(
                        (1.0, range_ab, (x[a] + x[b]) / 2.0, a, b)
                    )
                stack.pop(-2)
                stack.pop(-2)
    for j in range(len(stack) - 1):
        a, b = stack[j], stack[j + 1]
        depth = abs(x[b] - x[a])
        if depth > 0.0:
            cycles.append((0.5, depth, (x[a] + x[b]) / 2.0, a, b))
    return cycles


def battery_damage(
    soc_trajectory: TimeSeries,
    temp_trajectory: TimeSeries,
    p: BatteryDegParams,
) -> float:
    """Accumulated damage over one SOC/temperature history.

    Calendar damage uses the span length, mean SOC and mean temperature of
    the whole window; cyclic damage sums rainflow cycles weighted by their
    stress factors, with per-cycle temperature averaged over the cycle span.
    """
    soc = soc_trajectory.values
    temp = temp_trajectory.values
    if soc.size != temp.size:
        raise AlignmentError(
            f"SOC ({soc.size}) and temperature ({temp.size}) series differ in length"
        )
    if soc.size < 2:
        raise AlignmentError("trajectories must hold at least two samples")
    if soc_trajectory.dt != temp_trajectory.dt:
        raise AlignmentError("SOC and temperature series must share dt")

    t_span_s = (soc.size - 1) * soc_trajectory.dt
    s_T, s_t, s_tau, _ = stress_factors(
        float(temp.mean()), t_span_s, float(soc.mean()), 1.0, p
    )
    damage = s_t * s_tau * s_T

    for count, depth, mean_soc, i0, i1 in rainflow_cycles(soc):
        lo, hi = (i0, i1) if i0 <= i1 else (i1, i0)
        t_cyc = float(temp[lo : hi + 1].mean())
        s_T_c, _, s_tau_c, s_nu_c = stress_factors(t_cyc, 0.0, mean_soc, depth, p)
        damage += count * s_tau_c * s_nu_c * s_T_c
    return damage


def bess_cycle_cost(delta_Lc: float, p: BatteryDegParams, energy_mwh: float) -> float:
    """Marginal cost of one full cycle decaying SOH by ``delta_Lc``, currency/MWh.

    The investment is amortized over the 80 % usable SOH window and the
    cycle's round-trip throughput (twice the bank's rated energy,
    ``energy_mwh``).
    """
    if delta_Lc < 0.0:
        raise ValueError("delta_Lc must be non-negative")
    return (p.invest / 0.8) * delta_Lc / (2.0 * energy_mwh) + p.om_rate
