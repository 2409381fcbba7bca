"""Micro-trajectory inverse projection: adaptive residual bands between layers.

A child layer's buffering capability over one parent step is summarized as a
band of admissible constant residual baselines. A baseline r is admissible
iff the child's energy trajectory, integrating the efficiency-corrected flow
of r plus the known intra-step fluctuation profile, stays inside its safety
envelope at every micro step. The admissible set is an interval whose edges
are found by exact inversion of the piecewise-linear prefix flows, all read
from one flow matrix per band (each prefix's flows are summed in the order
numpy's row sums of its leading block use, which fixes their rounding);
zero-mean fluctuations can push an edge past the zero-fluctuation value,
which is the virtual-capacity effect that lets a nearly full (or empty)
child still accept throughput.

The band functions take plain arrays: ``xi`` is the fluctuation of the
child-granularity forecast across the parent step about the parent-step
value (one entry per micro step), ``store`` the child's
:class:`~hessmpc.devices.EssState` (its limits), ``energy`` the child's
energy in MWh and ``dt_h`` its micro step in hours.

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


#: Longest micro forecast :func:`physical_bounds` takes: numpy sums a row of
#: up to 128 values in the one block :func:`_prefix_row_sums` reproduces, and
#: splits a longer row.
MAX_STEPS = 128


def _prefix_row_sums(flow: np.ndarray) -> np.ndarray:
    """``out[i, j - 1] == flow[i, :j].sum()`` bit for bit, for every row i
    and prefix length j up to ``MAX_STEPS``, in one sweep.

    numpy sums a row of j float64 values pairwise (Higham, SIAM J. Sci.
    Comput. 14, 1993), and up to 128 values that is one block: below 8 a
    running sum from 0.0; from 8 on, eight accumulators each run over every
    eighth value of the whole blocks of 8, meet in the tree
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, and the remaining
    j % 8 values are added one by one. So every prefix's accumulators are
    one running sum over a ``(rows, blocks, 8)`` view, and one running sum
    per segment of 8 gives every prefix: segment 0 runs from 0.0 over the
    first 7 values, segment b from the tree of b blocks over the values
    8b to 8b + 6. The reduction adds its result to the identity 0.0, which
    turns a -0.0 sum into 0.0.
    """
    rows, n = flow.shape
    blocks = n // 8
    # Column p holds prefix p's last value, or the tree of p / 8 blocks.
    seg = np.zeros((rows, 8 * (blocks + 1)))
    seg[:, 1 : n + 1] = flow
    if blocks:
        acc = np.cumsum(flow[:, : 8 * blocks].reshape(rows, blocks, 8), axis=1)
        pairs = acc[..., 0::2] + acc[..., 1::2]
        quads = pairs[..., 0::2] + pairs[..., 1::2]
        np.add(quads[..., 0], quads[..., 1], out=seg[:, 8::8])
    runs = seg.reshape(rows, blocks + 1, 8)
    np.cumsum(runs, axis=2, out=runs)
    seg += 0.0
    return seg[:, 1 : n + 1]


def physical_bounds(xi: np.ndarray, store: EssState, energy: float,
                    dt_h: float) -> tuple[float, float]:
    """Exact admissible baseline interval (r_lower_phy, r_upper_phy) in MW.

    A constant baseline r keeps the child inside its envelope iff every
    prefix of the corrected flow psi(r + xi) respects both envelope sides;
    each prefix condition inverts exactly because the flow is monotone
    piecewise-linear in r. This exact inversion is what the band oracle
    checks.

    The breakpoints of prefix j are -xi[:j]. One flow matrix
    ``flow[i, m] = psi(-xi[i] + xi[m])`` serves every prefix: prefix j's
    flows are the sums of the leading j x j block's rows, all taken in one
    sweep by :func:`_prefix_row_sums` in the order numpy's ``sum(axis=1)``
    of that block uses. The order is kept because it sets the band's bits:
    the per-prefix reference the tests hold sums each block with numpy, and
    a plain running sum rounds differently. Each prefix's knots are a
    stable sort of its breakpoints, kept by inserting each new breakpoint
    after its equals. A micro forecast longer than ``MAX_STEPS`` raises
    ValueError.
    """
    n = xi.size
    if n > MAX_STEPS:
        raise ValueError(f"physical_bounds takes at most {MAX_STEPS} micro steps, got {n}")
    eta_c, eta_d = store.eta_c, store.eta_d
    if not np.any(xi):
        return flat_bounds(store, energy, dt_h, n)
    lo_env, hi_env = store.envelope
    k_floor = (energy - lo_env) / dt_h   # max total outflow, MW-steps
    k_ceil = (energy - hi_env) / dt_h    # min total outflow (negative)
    breaks = -xi
    flow = psi(breaks[:, None] + xi[None, :], eta_c, eta_d)
    # sums[j][i]: row i's flow over the prefix of j + 1 steps.
    sums = _prefix_row_sums(flow).T.tolist()
    r_hi = np.inf
    r_lo = -np.inf
    bs: list[float] = []
    knots: list[int] = []
    for j, b in enumerate(breaks.tolist()):
        # The prefix of j + 1 steps adds breakpoint j after its equals.
        at = bisect_right(bs, b)
        bs.insert(at, b)
        knots.insert(at, j)
        flow_at = sums[j]
        gs = [flow_at[i] for i in knots]
        r_hi = min(r_hi, _invert_prefix_flow(bs, gs, eta_c, eta_d, k_floor))
        r_lo = max(r_lo, _invert_prefix_flow(bs, gs, eta_c, eta_d, k_ceil))
    return float(r_lo), float(r_hi)


def flat_bounds(store: EssState, energy: float, dt_h: float, n: int) -> tuple[float, float]:
    """:func:`physical_bounds` for a micro forecast without fluctuation.

    With xi identically zero every prefix flow is n equal steps, so the band
    is the corrected flow that spends the whole envelope room over the n
    micro steps of length dt_h, inverted to grid-side power.
    """
    lo_env, hi_env = store.envelope
    k_floor = (energy - lo_env) / dt_h   # max total outflow, MW-steps
    k_ceil = (energy - hi_env) / dt_h    # min total outflow (negative)
    eta_c, eta_d = store.eta_c, store.eta_d
    return psi_inverse(k_ceil / n, eta_c, eta_d), psi_inverse(k_floor / n, eta_c, eta_d)


def psi_inverse(flow: float, eta_c: float, eta_d: float) -> float:
    """Grid-side power whose corrected flow equals ``flow``."""
    return flow * eta_d if flow >= 0.0 else flow / eta_c


def marginal_cost(spec) -> float:
    """Marginal dispatch cost of a layer: cost weight times the mean price
    of its grid-coupled actuators."""
    c_y = np.asarray(spec.output_row, dtype=np.float64)
    cost = np.asarray(spec.cost_vec, dtype=np.float64)
    coupled = c_y != 0.0
    if not coupled.any():
        return 0.0
    return float(spec.cost_weight * cost[coupled].mean())


def blend_gamma(lambda_upper: float, lambda_lower: float, kappa: float, chi_th: float) -> float:
    """Blend factor of the cost sigmoid for a parent of marginal cost
    ``lambda_upper`` over a child of ``lambda_lower``.

    gamma -> 1 when the upper layer is much more expensive than the child
    (band opens to the physical one); gamma -> 0 collapses the band toward
    +-eps_db. It depends on the layer pair only, so a run computes it once
    per layer.
    """
    if lambda_lower <= 0.0:
        raise ValueError("lambda_lower must be positive")
    ratio = lambda_upper / lambda_lower
    return float(1.0 / (1.0 + np.exp(min(-kappa * (ratio - chi_th), 700.0))))


def adaptive_bounds(phy: tuple[float, float], gamma: float, eps_db: float) -> MtipBounds:
    """Blend the physical band with the deadband by :func:`blend_gamma`'s
    ``gamma``.

    For an ordered physical band, gamma in [0, 1] and eps_db >= 0 the blend
    stays ordered, since every rounding step is monotone; a crossed physical
    band is a ValueError.
    """
    phy_lo, phy_hi = phy
    if not phy_lo <= phy_hi:
        raise ValueError(f"physical band [{phy_lo}, {phy_hi}] is crossed or not a number")
    r_hi = gamma * phy_hi + (1.0 - gamma) * eps_db
    r_lo = gamma * phy_lo - (1.0 - gamma) * eps_db
    return MtipBounds(float(r_lo), float(r_hi), gamma)
