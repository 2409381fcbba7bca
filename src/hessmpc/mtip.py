"""Micro-trajectory inverse projection: adaptive residual bands between layers.

A child layer's buffering capability over one parent step is summarized as a
band of admissible constant residual baselines. A baseline r is admissible
iff the child's energy trajectory, integrating the efficiency-corrected flow
of r plus the known intra-step fluctuation profile, stays inside its safety
envelope at every micro step. The admissible set is an interval whose edges
are found by exact inversion of the piecewise-linear prefix flows, all read
from one flow matrix per band (each prefix's flows are numpy's row sums of
its leading block, which fixes their rounding); zero-mean fluctuations can
push an edge past the zero-fluctuation value, which is the virtual-capacity
effect that lets a nearly full (or empty) child still accept throughput.

The band functions take plain arrays: ``xi`` is the fluctuation of the
child-granularity forecast across the parent step about the parent-step
value (one entry per micro step), ``store`` the child's
:class:`~hessmpc.devices.EssState` and ``dt_h`` its micro step in hours.

The physical band is then blended with a minimal deadband through a sigmoid
of the layer marginal-cost ratio, so a cheap child widens the band and an
expensive child shrinks it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .devices.storage import EssState


@dataclass
class MtipBounds:
    """Residual band fed back to the parent layer, MW.

    r_lower/r_upper are the final blended bounds, in order (a crossed or NaN
    band is a ValueError); gamma is the blend factor.
    """

    r_lower: float
    r_upper: float
    gamma: float

    def __post_init__(self):
        if not self.r_lower <= self.r_upper:
            raise ValueError(
                f"band [{self.r_lower}, {self.r_upper}] is crossed or not a number"
            )


def psi(p, eta_c: float, eta_d: float):
    """Internal energy flow for a grid-side power exchange ``p``, elementwise.

    Discharging (p >= 0) draws p/eta_d from the store; charging stores only
    p*eta_c of what the grid supplies.
    """
    return np.where(p >= 0.0, p / eta_d, p * eta_c)


def fluctuation_potentials(
    xi: np.ndarray, eta_c: float, eta_d: float, dt_h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative signed fluctuation energies (phi+, phi-) in MWh.

    The plus potential discounts charging-side fluctuation by the round-trip
    efficiency; the minus potential inflates discharging-side fluctuation by
    it.
    """
    rt = eta_c * eta_d
    phi_plus = np.where(xi >= 0.0, xi, xi * rt)
    phi_minus = np.where(xi >= 0.0, xi / rt, xi)
    return np.cumsum(phi_plus) * dt_h, np.cumsum(phi_minus) * dt_h


def _invert_prefix_flow(bs: list, gs: list, eta_c: float, eta_d: float, target: float) -> float:
    """Solve sum_m psi(r + xi_m) = target for r (piecewise-linear, exact),
    given the prefix's sorted breakpoints ``bs`` and the flow ``gs`` at each."""
    j = len(bs)
    if target >= gs[-1]:
        return bs[-1] + (target - gs[-1]) * eta_d / j
    if target <= gs[0]:
        return bs[0] - (gs[0] - target) / (j * eta_c)
    k = bisect_right(gs, target)
    slope = k / eta_d + (j - k) * eta_c
    return bs[k - 1] + (target - gs[k - 1]) / slope


def physical_bounds(xi: np.ndarray, store: EssState, dt_h: float) -> tuple[float, float]:
    """Exact admissible baseline interval (r_lower_phy, r_upper_phy) in MW.

    A constant baseline r keeps the child inside its envelope iff every
    prefix of the corrected flow psi(r + xi) respects both envelope sides;
    each prefix condition inverts exactly because the flow is monotone
    piecewise-linear in r. This exact inversion is what the band oracle
    checks.

    The breakpoints of prefix j are -xi[:j]. One flow matrix
    ``flow[i, m] = psi(-xi[i] + xi[m])`` and one stable argsort of the
    breakpoints serve every prefix: prefix j's knots are the entries below j
    of that order, which is a stable sort of the prefix, and its flows are
    numpy's row sums of the leading j x j block. Running or segmented sums
    round in another order, so they would move the band's bits.
    """
    eta_c, eta_d = store.eta_c, store.eta_d
    if not np.any(xi):
        return flat_bounds(store.energy, store.envelope, eta_c, eta_d, dt_h, xi.size)
    lo_env, hi_env = store.envelope
    k_floor = (store.energy - lo_env) / dt_h   # max total outflow, MW-steps
    k_ceil = (store.energy - hi_env) / dt_h    # min total outflow (negative)
    breaks = -xi
    flow = psi(breaks[:, None] + xi[None, :], eta_c, eta_d)
    order = np.argsort(breaks, kind="stable").tolist()
    breaks = breaks.tolist()
    r_hi = np.inf
    r_lo = -np.inf
    for jj in range(1, xi.size + 1):
        flow_at = flow[:jj, :jj].sum(axis=1).tolist()
        knots = [i for i in order if i < jj]
        bs = [breaks[i] for i in knots]
        gs = [flow_at[i] for i in knots]
        r_hi = min(r_hi, _invert_prefix_flow(bs, gs, eta_c, eta_d, k_floor))
        r_lo = max(r_lo, _invert_prefix_flow(bs, gs, eta_c, eta_d, k_ceil))
    return float(r_lo), float(r_hi)


def flat_bounds(
    energy: float, envelope: tuple[float, float], eta_c: float, eta_d: float, dt_h: float, n: int
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


def paper_form_bounds(xi: np.ndarray, store: EssState, dt_h: float) -> tuple[float, float]:
    """Closed-form band estimate built from the fluctuation potentials.

    Exact whenever the corrected flow keeps one sign inside every prefix and
    conservative otherwise (never wider than the exact inversion on the
    upper side, nor below it on the lower side); exposed for comparison
    against :func:`physical_bounds`.
    """
    lo_env, hi_env = store.envelope
    phi_plus, phi_minus = fluctuation_potentials(xi, store.eta_c, store.eta_d, dt_h)
    j = np.arange(1, xi.size + 1) * dt_h
    r_hi = float(np.min(((store.energy - lo_env) * store.eta_d - phi_plus) / j))
    r_lo = float(np.max(((store.energy - hi_env) / store.eta_c - phi_minus) / j))
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
    +-eps_db. For an ordered physical band and eps_db >= 0 the blend stays
    ordered, since every rounding step is monotone; a crossed physical band
    is a ValueError.
    """
    if lambda_lower <= 0.0:
        raise ValueError("lambda_lower must be positive")
    phy_lo, phy_hi = phy
    if not phy_lo <= phy_hi:
        raise ValueError(f"physical band [{phy_lo}, {phy_hi}] is crossed or not a number")
    ratio = lambda_upper / lambda_lower
    gamma = 1.0 / (1.0 + np.exp(min(-kappa * (ratio - chi_th), 700.0)))
    r_hi = gamma * phy_hi + (1.0 - gamma) * eps_db
    r_lo = gamma * phy_lo - (1.0 - gamma) * eps_db
    return MtipBounds(float(r_lo), float(r_hi), float(gamma))


def brute_force_band_oracle(
    xi: np.ndarray, store: EssState, dt_h: float, r_candidate: float
) -> bool:
    """Simulate the child trajectory under a constant baseline; True if the
    envelope holds at every micro step. Keeps its own flow expression, so it
    stays independent of :func:`psi`."""
    flows = np.where(
        r_candidate + xi >= 0.0,
        (r_candidate + xi) / store.eta_d,
        (r_candidate + xi) * store.eta_c,
    )
    traj = store.energy - np.cumsum(flows) * dt_h
    lo, hi = store.envelope
    # Guard only against accumulated float rounding; anything larger is a
    # genuine violation (the bound inversion is checked against this oracle
    # at the 1e-6 MW level).
    tol = 1e-12 * max(1.0, abs(hi), abs(lo), abs(store.energy))
    return bool(np.all(traj >= lo - tol) and np.all(traj <= hi + tol))
