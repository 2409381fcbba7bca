"""Micro-trajectory inverse projection: adaptive residual bands between layers.

A child layer's buffering capability over one parent step is summarized as a
band of admissible constant residual baselines. A baseline r is admissible
iff the child's energy trajectory, integrating the efficiency-corrected flow
of r plus the known intra-step fluctuation profile, stays inside its safety
envelope at every micro step. The admissible set is an interval whose edges
are found by exact inversion of the piecewise-linear prefix flows; zero-mean
fluctuations can push an edge past the zero-fluctuation value, which is the
virtual-capacity effect that lets a nearly full (or empty) child still accept
throughput.

The physical band is then blended with a minimal deadband through a sigmoid
of the layer marginal-cost ratio, so a cheap child widens the band and an
expensive child shrinks it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .devices.storage import EssState
from .errors import AlignmentError
from .timeseries import TimeSeries


@dataclass
class MtipBounds:
    """Residual band fed back to the parent layer, MW.

    r_lower/r_upper are the final blended bounds; phy_lower/phy_upper the
    raw physical band; gamma the blend factor; clamped marks a crossed band
    collapsed to its midpoint.
    """

    r_lower: float
    r_upper: float
    phy_lower: float
    phy_upper: float
    gamma: float
    clamped: bool = False


@dataclass
class MicroContext:
    """Child-side information for one parent step.

    micro_forecast holds the child-granularity net-load forecast across the
    parent step; parent_residual_forecast is the same signal at parent
    granularity (one value). child_state is the child storage device;
    dt_child_h its step in hours.
    """

    micro_forecast: TimeSeries
    parent_residual_forecast: float
    child_state: EssState
    dt_child_h: float
    parent_dt_h: float

    def __post_init__(self):
        n_expect = self.parent_dt_h / self.dt_child_h
        n = int(round(n_expect))
        if abs(n_expect - n) > 1e-9 or n != len(self.micro_forecast):
            raise AlignmentError(
                f"micro forecast length {len(self.micro_forecast)} does not "
                f"cover parent step ({self.parent_dt_h} h at {self.dt_child_h} h)"
            )


def micro_fluctuation(ctx: MicroContext) -> np.ndarray:
    """Intra-step fluctuation xi: micro forecast minus the parent-step value."""
    return ctx.micro_forecast.values - ctx.parent_residual_forecast


def psi(p: float, eta_c: float, eta_d: float) -> float:
    """Internal energy flow for a grid-side power exchange ``p``.

    Discharging (p >= 0) draws p/eta_d from the store; charging stores only
    p*eta_c of what the grid supplies.
    """
    if not (0.0 < eta_c <= 1.0 and 0.0 < eta_d <= 1.0):
        raise ValueError("efficiencies must lie in (0, 1]")
    return p / eta_d if p >= 0.0 else p * eta_c


def fluctuation_potentials(
    xi: np.ndarray,
    eta_c: float,
    eta_d: float,
    dt_h: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative signed fluctuation energies (phi+, phi-) in MWh.

    The plus potential discounts charging-side fluctuation by the round-trip
    efficiency; the minus potential inflates discharging-side fluctuation by
    it.
    """
    xi = np.asarray(xi, dtype=np.float64)
    rt = eta_c * eta_d
    phi_plus = np.where(xi >= 0.0, xi, xi * rt)
    phi_minus = np.where(xi >= 0.0, xi / rt, xi)
    return np.cumsum(phi_plus) * dt_h, np.cumsum(phi_minus) * dt_h


def _prefix_flow_knots(
    xi_prefix: np.ndarray, eta_c: float, eta_d: float
) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints of r -> sum_m psi(r + xi_m), sorted, with the flow at each."""
    breaks = -xi_prefix
    diffs = breaks[:, None] + xi_prefix[None, :]
    flow_at = np.where(diffs >= 0.0, diffs / eta_d, diffs * eta_c).sum(axis=1)
    order = np.argsort(breaks, kind="stable")
    return breaks[order], flow_at[order]


def _invert_prefix_flow(
    knots: tuple[np.ndarray, np.ndarray], eta_c: float, eta_d: float, target: float
) -> float:
    """Solve sum_m psi(r + xi_m) = target for r (piecewise-linear, exact),
    given the prefix's :func:`_prefix_flow_knots`."""
    bs, gs = knots
    j = bs.size
    if target >= gs[-1]:
        return float(bs[-1] + (target - gs[-1]) * eta_d / j)
    if target <= gs[0]:
        return float(bs[0] - (gs[0] - target) / (j * eta_c))
    k = int(np.searchsorted(gs, target, side="right"))
    slope = k / eta_d + (j - k) * eta_c
    return float(bs[k - 1] + (target - gs[k - 1]) / slope)


def physical_bounds(ctx: MicroContext) -> tuple[float, float]:
    """Exact admissible baseline interval (r_lower_phy, r_upper_phy) in MW.

    A constant baseline r keeps the child inside its envelope iff every
    prefix of the corrected flow psi(r + xi) respects both envelope sides;
    each prefix condition inverts exactly because the flow is monotone
    piecewise-linear in r. This exact inversion is what the band oracle
    checks.
    """
    xi = micro_fluctuation(ctx)
    st = ctx.child_state
    dt = ctx.dt_child_h
    n = xi.size
    if not np.any(xi):
        return flat_bounds(st.energy, st.envelope, st.eta_c, st.eta_d, dt, n)
    lo_env, hi_env = st.envelope
    k_floor = (st.energy - lo_env) / dt   # max total outflow, MW-steps
    k_ceil = (st.energy - hi_env) / dt    # min total outflow (negative)
    r_hi = np.inf
    r_lo = -np.inf
    for jj in range(1, n + 1):
        knots = _prefix_flow_knots(xi[:jj], st.eta_c, st.eta_d)
        r_hi = min(r_hi, _invert_prefix_flow(knots, st.eta_c, st.eta_d, k_floor))
        r_lo = max(r_lo, _invert_prefix_flow(knots, st.eta_c, st.eta_d, k_ceil))
    return float(r_lo), float(r_hi)


def flat_bounds(
    energy: float,
    envelope: tuple[float, float],
    eta_c: float,
    eta_d: float,
    dt_h: float,
    n: int,
) -> tuple[float, float]:
    """:func:`physical_bounds` for a micro forecast without fluctuation.

    With xi identically zero every prefix flow is n equal steps, so the band
    is the corrected flow that spends the whole envelope room over the n
    micro steps of length dt_h, inverted to grid-side power.
    """
    lo_env, hi_env = envelope
    k_floor = (energy - lo_env) / dt_h   # max total outflow, MW-steps
    k_ceil = (energy - hi_env) / dt_h    # min total outflow (negative)
    return psi_inverse(k_ceil / n, eta_c, eta_d), psi_inverse(k_floor / n, eta_c, eta_d)


def psi_inverse(flow: float, eta_c: float, eta_d: float) -> float:
    """Grid-side power whose corrected flow equals ``flow``."""
    return flow * eta_d if flow >= 0.0 else flow / eta_c


def paper_form_bounds(ctx: MicroContext) -> tuple[float, float]:
    """Closed-form band estimate built from the fluctuation potentials.

    Exact whenever the corrected flow keeps one sign inside every prefix and
    conservative otherwise (never wider than the exact inversion on the
    upper side, nor below it on the lower side); exposed for comparison
    against :func:`physical_bounds`.
    """
    xi = micro_fluctuation(ctx)
    st = ctx.child_state
    dt = ctx.dt_child_h
    lo_env, hi_env = st.envelope
    phi_plus, phi_minus = fluctuation_potentials(xi, st.eta_c, st.eta_d, dt)
    j = np.arange(1, xi.size + 1) * dt
    r_hi = float(np.min(((st.energy - lo_env) * st.eta_d - phi_plus) / j))
    r_lo = float(np.max(((st.energy - hi_env) / st.eta_c - phi_minus) / j))
    return r_lo, r_hi


def marginal_cost(spec) -> float:
    """Marginal dispatch cost of a layer: cost weight times the mean price
    of its grid-coupled actuators."""
    c_y = np.asarray(spec.output_row, dtype=np.float64)
    cost = np.asarray(spec.cost_vec, dtype=np.float64)
    coupled = c_y != 0.0
    if not coupled.any():
        return 0.0
    return float(spec.cost_weight * cost[coupled].mean())


def adaptive_bounds(
    phy: tuple[float, float],
    lambda_upper: float,
    lambda_lower: float,
    kappa: float,
    chi_th: float,
    eps_db: float,
) -> MtipBounds:
    """Blend the physical band with the deadband through the cost sigmoid.

    gamma -> 1 when the upper layer is much more expensive than the child
    (band opens to the physical one); gamma -> 0 collapses the band toward
    +-eps_db. A crossed band is collapsed to its midpoint and flagged.
    """
    if lambda_lower <= 0.0:
        raise ValueError("lambda_lower must be positive")
    phy_lo, phy_hi = phy
    ratio = lambda_upper / lambda_lower
    gamma = 1.0 / (1.0 + np.exp(min(-kappa * (ratio - chi_th), 700.0)))
    r_hi = gamma * phy_hi + (1.0 - gamma) * eps_db
    r_lo = gamma * phy_lo - (1.0 - gamma) * eps_db
    clamped = False
    if r_lo > r_hi:
        mid = 0.5 * (r_lo + r_hi)
        r_lo = r_hi = mid
        clamped = True
    return MtipBounds(
        r_lower=float(r_lo), r_upper=float(r_hi),
        phy_lower=float(phy_lo), phy_upper=float(phy_hi),
        gamma=float(gamma), clamped=clamped,
    )


def brute_force_band_oracle(ctx: MicroContext, r_candidate: float) -> bool:
    """Simulate the child trajectory under a constant baseline; True if the
    envelope holds at every micro step."""
    xi = micro_fluctuation(ctx)
    st = ctx.child_state
    flows = np.where(
        r_candidate + xi >= 0.0,
        (r_candidate + xi) / st.eta_d,
        (r_candidate + xi) * st.eta_c,
    )
    traj = st.energy - np.cumsum(flows) * ctx.dt_child_h
    lo, hi = st.envelope
    # Guard only against accumulated float rounding; anything larger is a
    # genuine violation (the bound inversion is checked against this oracle
    # at the 1e-6 MW level).
    tol = 1e-12 * max(1.0, abs(hi), abs(lo), abs(st.energy))
    return bool(np.all(traj >= lo - tol) and np.all(traj <= hi + tol))
