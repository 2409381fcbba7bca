"""Receding-horizon layers: long-duration hydrogen/methanol (L1, hourly),
compressed-air (L2, 15 min) and battery (L3, 1 min) tracking controllers.

Each layer tracks the residual left by its parents (zero-order held across
child steps) with the same stacked tracking QP over its own horizon and
applies only the first move. That QP has no energy-dynamics rows, its bounds
are per step and the band binds step 0 only, so it separates by step and its
first move is a closed-form function of the step-0 data: the explicit law of
:func:`explicit_step`, which the proposed controller applies. The periodic-SOC
baseline, whose terminal row couples the steps, solves the stacked problem of
:func:`build_layer_problem` over the steps that row binds (one SOC period,
:func:`periodic_plan`); :func:`receding_step` is the stacked reference the
explicit law is tested against. The hydrogen/methanol layer linearizes the
load-dependent device efficiencies by freezing them at the previous applied
operating point for the whole horizon, and maps its tank envelope into
per-step input bounds: exact headroom caps on the first (applied) move plus
conversion floors scheduled wherever the projected tank trajectory would hit
its cap — that floor is what routes surplus hydrogen into methanol, since
conversion never helps the tracking objective directly.

A band that cannot be met is dropped: the step is solved again without it,
and the decision says so. No narrower band can succeed where the offered one
failed, since its output window lies inside the offered one's.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .devices.hydrogen import AweParams, PemfcParams, awe_hydrogen, pemfc_discharge_efficiency
from .devices.methanol import MeohParams, TurbineParams, meoh_conversion, turbine_efficiency
from .devices.storage import EssState, lose
from .errors import AlignmentError, EnvelopeViolation, ExclusivityViolation
from .mtip import MtipBounds
from .qp import (
    INFEASIBLE, QpSolution, StepStructure, _solve_steps, charge_discharge_form,
    charge_discharge_step, solve_qp,
)

#: Lowest relative load at which the turbine efficiency curve is trusted.
TURBINE_LOAD_FLOOR = 0.2


#: Python-float copies of a layer's rows, read per decision.
FloatRows = namedtuple("FloatRows", "c_y cost price u_max")


@dataclass(frozen=True)
class LayerSpec:
    """Static description of one MPC layer.

    dt_h is the step in hours, horizon the number of steps, tracking_weight
    and cost_weight the Q/R pair, cost_vec the per-actuator price
    (currency/MWh), output_row the grid-output map, u_max rated actuator
    powers (MW). The tracking penalty is quadratic in every layer.

    float_rows holds Python-float copies of what the explicit step reads
    per decision: the output row, the prices, the step prices (rounded as
    :func:`build_layer_problem` rounds them) and the rated powers. The spec
    is frozen and its arrays read-only, so the copies cannot go stale.
    """

    layer_id: str
    dt_h: float
    horizon: int
    tracking_weight: float
    cost_weight: float
    cost_vec: np.ndarray
    output_row: np.ndarray
    u_max: np.ndarray

    def __post_init__(self):
        for name in ("cost_vec", "output_row", "u_max"):
            row = np.array(getattr(self, name), dtype=np.float64)
            row.flags.writeable = False
            object.__setattr__(self, name, row)
        cost = self.cost_vec.tolist()
        object.__setattr__(self, "float_rows", FloatRows(
            self.output_row.tolist(), cost, [self.cost_weight * c * self.dt_h for c in cost],
            self.u_max.tolist()))


#: One MPC layer's fixed part: its id, the store it moves, its step in
#: seconds, and the configuration keys of its horizon and its prices.
LayerRow = namedtuple("LayerRow", "layer_id device step_s horizon_key price_key")

#: The MPC layers, slowest first. Each step is a whole multiple of the next
#: layer's, and the last layer's step is the minute loop's, whose seconds
#: the flywheel closes.
LAYERS = (
    LayerRow("L1", "hydrogen", 3600, "n1", "c_l1"),
    LayerRow("L2", "caes", 900, "n2", "c_l2"),
    LayerRow("L3", "bess", 60, "n3", "c_l3"),
)


@dataclass
class L1State:
    """Hydrogen tank and methanol store energies, MWh."""

    e_h: float
    e_m: float


@dataclass(frozen=True)
class FrozenEff:
    """Efficiencies held constant over one L1 horizon."""

    eta_hc: float
    eta_hd: float
    eta_mc: float
    eta_md: float
    clamped: bool = False


@dataclass
class LayerDecision:
    """First applied move of one layer solve; solution is the stacked QP's
    (None for the explicit step law), band_dropped marks a band that could
    not be met. output and cost are the move's grid output and cost rate
    (output_row and cost_vec dotted with u_applied)."""

    u_applied: np.ndarray | tuple[float, ...]
    output: float
    cost: float
    solution: QpSolution | None
    band_dropped: bool = False


def b_matrix(eff: FrozenEff) -> np.ndarray:
    """Input matrix of the hydrogen/methanol state equations."""
    return np.array([
        [eff.eta_hc, -1.0 / eff.eta_hd, -1.0, 0.0],
        [0.0, 0.0, eff.eta_mc, -1.0 / eff.eta_md],
    ])


def l1_dynamics(
    x: L1State,
    u: np.ndarray,
    dt_h: float,
    eff: FrozenEff,
    tank_envelope: tuple[float, float],
) -> L1State:
    """Advance the two stores one step; envelope violations are errors."""
    u = np.asarray(u, dtype=np.float64)
    if u.size != 4 or np.any(u < -1e-12):
        raise ValueError("u must be four non-negative powers")
    delta = b_matrix(eff) @ u * dt_h
    e_h = x.e_h + delta[0]
    e_m = x.e_m + delta[1]
    lo, hi = tank_envelope
    tol = 1e-9 * max(1.0, hi)
    if e_h < lo - tol or e_h > hi + tol:
        raise EnvelopeViolation(
            f"hydrogen store {e_h:.6f} MWh outside [{lo}, {hi}]"
        )
    if e_m < -tol:
        raise EnvelopeViolation(f"methanol store {e_m:.6f} MWh negative")
    return L1State(e_h=min(max(e_h, lo), hi), e_m=max(e_m, 0.0))


def freeze_efficiencies(
    awe: AweParams,
    pemfc: PemfcParams,
    meoh: MeohParams,
    turbine: TurbineParams,
    loads: tuple[float, float, float, float] | None = None,
) -> FrozenEff:
    """Evaluate the device curves at an operating point and hold them.

    loads are the previous applied load fractions per actuator (charge,
    hydrogen discharge, conversion, turbine); None — for the whole tuple or
    any single entry — picks that device's rated-optimal point (the
    documented idle fallback). Out-of-range loads clamp to the nearest
    admissible point and set the clamped flag.
    """
    clamped = False
    if loads is None:
        loads = (None, None, None, None)

    raw = [
        loads[0] * awe.j_range[1] if loads[0] is not None else awe.j_nominal,
        loads[1] * pemfc.j_range[1] if loads[1] is not None else pemfc.j_nominal,
        loads[2] if loads[2] is not None else meoh.rho_star,
        loads[3] if loads[3] is not None else turbine.x_star,
    ]
    limits = (
        (awe.j_range[0], awe.j_range[1]),
        (pemfc.j_range[0], pemfc.j_range[1]),
        (meoh.rho_min, 1.0),
        (TURBINE_LOAD_FLOOR, 1.0),
    )
    for k, ((lo, hi), given) in enumerate(zip(limits, loads)):
        if given is not None and not lo <= raw[k] <= hi:
            clamped = True
        raw[k] = min(max(raw[k], lo), hi)
    j_awe, j_fc, rho, x_t = raw

    _, eta_hc = awe_hydrogen(j_awe * awe.area, awe)
    eta_hd = pemfc_discharge_efficiency(j_fc * pemfc.area, pemfc)
    _, _, eta_mc = meoh_conversion(rho, meoh)
    eta_md = turbine_efficiency(x_t, turbine)
    return FrozenEff(eta_hc, eta_hd, eta_mc, eta_md, clamped)


def conversion_relief_floors(
    e_h: float,
    tank_cap: float,
    forecast: np.ndarray,
    eff: FrozenEff,
    charge_cap: float,
    discharge_cap: float,
    conv_cap: float,
    dt_h: float,
) -> np.ndarray:
    """Minimum conversion schedule keeping the projected tank below its cap.

    Projects the tank under the tracking-implied charge/discharge wishes and
    raises the conversion floor exactly where the projection would overflow.
    The floors feed the QP's lower bounds, so the receding plan starts
    converting before the tank saturates.
    """
    n = forecast.size
    floors = np.zeros(n)
    charge_wish = np.clip(-forecast, 0.0, charge_cap) * eff.eta_hc * dt_h
    discharge_wish = np.clip(forecast, 0.0, discharge_cap) / eff.eta_hd * dt_h
    e = e_h
    for i in range(n):
        e_next = e + charge_wish[i] - discharge_wish[i]
        if e_next < 0.0:
            e_next = 0.0
        if e_next > tank_cap:
            conv = min((e_next - tank_cap) / dt_h, conv_cap)
            floors[i] = conv
            e_next = min(e_next - conv * dt_h, tank_cap)
        e = e_next
    return floors


def l1_bounds(
    spec: LayerSpec,
    state: L1State,
    eff: FrozenEff,
    tank_envelope: tuple[float, float],
    forecast: np.ndarray | list[float],
    conv_cap: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step input bounds for the hydrogen/methanol layer, one row per
    forecast step.

    Future steps carry rated caps plus the conversion relief floors; the
    first (applied) step is tightened exactly against the current stores so
    any solution inside the box is envelope-safe: the conversion floor is
    reserved first, discharge gets the remaining drain headroom, conversion's
    ceiling takes what discharge left, and the charge cap accounts for the
    floor's concurrent drain.
    """
    forecast = np.asarray(forecast, dtype=np.float64)
    n = forecast.size
    dt = spec.dt_h
    lo = np.zeros((n, 4))
    hi = np.tile(spec.u_max, (n, 1))
    hi[:, 2] = conv_cap
    env_lo, env_hi = tank_envelope

    floors = conversion_relief_floors(
        state.e_h, env_hi, forecast, eff,
        spec.u_max[0], spec.u_max[1], conv_cap, dt,
    )
    lo[:, 2] = floors

    drain_total = max(0.0, (state.e_h - env_lo) / dt)
    floor3 = min(lo[0, 2], drain_total)
    remaining = drain_total - floor3
    hi[0, 1] = min(spec.u_max[1], remaining * eff.eta_hd)
    hi[0, 2] = min(conv_cap, floor3 + max(0.0, remaining - hi[0, 1] / eff.eta_hd))
    hi[0, 0] = min(spec.u_max[0], ((env_hi - state.e_h) / dt + floor3) / eff.eta_hc)
    hi[0, 3] = min(spec.u_max[3], max(0.0, state.e_m) * eff.eta_md / dt)
    lo[0, 2] = min(floor3, hi[0, 2])
    return lo, hi


def first_step_caps(spec: LayerSpec, store: EssState, energy: float) -> tuple[float, float]:
    """(charge, discharge) caps of a single-store layer's applied first step
    from the energy (MWh): the rated powers, tightened so one step after its
    losses stays inside."""
    dt = spec.dt_h
    u_max = spec.float_rows.u_max
    lo, hi = store.envelope
    e = lose(energy, lo, *store.losses(dt))
    return (
        min(u_max[0], max(0.0, hi - e) / (store.eta_c * dt)),
        min(u_max[1], max(0.0, e - lo) * store.eta_d / dt),
    )


def periodic_plan(spec: LayerSpec, soc_period_h: float) -> int:
    """Steps the periodic-SOC law plans per decision: those of one SOC
    period, which its terminal row binds, at most the layer's horizon."""
    return min(spec.horizon, max(1, round(soc_period_h / spec.dt_h)))


def simple_bounds(spec: LayerSpec, store: EssState, energy: float,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """(charge, discharge) bounds of n steps of a single-store layer; only
    the applied first step is tightened against the current energy (MWh)."""
    lo = np.zeros((n, 2))
    hi = np.tile(spec.u_max, (n, 1))
    hi[0] = first_step_caps(spec, store, energy)
    return lo, hi


def build_layer_problem(
    spec: LayerSpec,
    residual_forecast: np.ndarray,
    band: MtipBounds | None = None,
) -> StepStructure:
    """The layer problem over the forecast's steps (one up to the horizon);
    the band (when given) binds the first step. The input bounds are the
    solver's own argument."""
    rhat = np.asarray(residual_forecast, dtype=np.float64)
    n = rhat.size
    if not 1 <= n <= spec.horizon:
        raise AlignmentError(
            f"forecast length {n} outside the horizon of 1 to {spec.horizon} steps"
        )
    band_lo = np.full(n, -np.inf)
    band_hi = np.full(n, np.inf)
    if band is not None:
        band_lo[0] = band.r_lower
        band_hi[0] = band.r_upper
    return StepStructure(
        c_y=spec.output_row, q=spec.tracking_weight, rhat=rhat,
        price=spec.cost_weight * spec.cost_vec * spec.dt_h,
        band_lo=band_lo, band_hi=band_hi,
    )


def _band_ladder(solve, band: MtipBounds | None):
    """Try the band, else no band; returns (result, dropped).

    solve(band_lo, band_hi) returns None when infeasible. Both kernels
    refuse a band only when its output window misses the achievable outputs
    by more than 1e-9, and any narrower band's window lies inside this one's
    (its midpoint's too), so nothing between the band and no band can
    succeed. At most two solves.
    """
    if band is not None:
        out = solve(band.r_lower, band.r_upper)
        if out is not None:
            return out, False
    return solve(-np.inf, np.inf), band is not None


def _check_exclusive(layer_id: str, c_y: list, u0) -> None:
    """Refuse an applied move that charges and discharges at once; c_y is
    the output row and u0 the move, both sequences of Python floats."""
    charge = discharge = None   # the largest charging and discharging input
    for c, u in zip(c_y, u0):
        if c < 0.0 and (charge is None or u > charge):
            charge = u
        elif c > 0.0 and (discharge is None or u > discharge):
            discharge = u
    if charge is not None and discharge is not None and charge * discharge > 1e-6:
        raise ExclusivityViolation(
            f"simultaneous charge and discharge in an applied {layer_id} move"
        )


def receding_step(
    spec: LayerSpec,
    residual_forecast: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    band: MtipBounds | None = None,
) -> LayerDecision:
    """Solve the stacked layer QP and return only the first move.

    An infeasible band falls back to a band-free solve, flagged on the
    decision.
    """

    def solve(band_lo, band_hi):
        b = MtipBounds(r_lower=band_lo, r_upper=band_hi, gamma=1.0)
        sol = solve_qp(build_layer_problem(spec, residual_forecast, b), lo, hi)
        return None if sol.status == INFEASIBLE else sol

    sol, band_dropped = _band_ladder(solve, band)
    u0 = sol.u_star[: spec.output_row.size].copy()
    _check_exclusive(spec.layer_id, spec.output_row.tolist(), u0.tolist())
    return LayerDecision(u_applied=u0, output=float(spec.output_row @ u0),
                         cost=float(spec.cost_vec @ u0), solution=sol,
                         band_dropped=band_dropped)


def explicit_step(
    spec: LayerSpec,
    r0: float,
    lo0,
    hi0,
    band: MtipBounds | None = None,
) -> LayerDecision:
    """The first move of :func:`receding_step` from the step-0 data alone.

    r0 is the step-0 residual forecast, lo0/hi0 the step-0 input bounds (one
    entry per actuator). Single-store layers take the scalar charge/discharge
    closed form, other layers the fill-order solve on one step; both are the
    stacked solver's own per-step rules, and the band fallback and its flag
    are those of :func:`receding_step`, so the applied move is bit-identical
    (Bemporad, Morari, Dua & Pistikopoulos, Automatica 38, 2002). The
    horizon does not enter.
    """
    r0 = float(r0)
    c_y, cost, price, _ = spec.float_rows
    if charge_discharge_form(c_y, price, any(lo0)):
        i_d = 0 if c_y[0] > 0 else 1
        args = (spec.tracking_weight, price[i_d], price[1 - i_d],
                r0, float(hi0[i_d]), float(hi0[1 - i_d]))

        def solve(band_lo, band_hi):
            return charge_discharge_step(*args, band_lo, band_hi)

        (discharge, charge, _), band_dropped = _band_ladder(solve, band)
        u0 = (discharge, charge) if i_d == 0 else (charge, discharge)
        _check_exclusive(spec.layer_id, c_y, u0)
        # One of the two moves is +0.0, so each two-term sum is exact and
        # has the bits of numpy's dot product (whose kernel fuses
        # multiply-adds); a zero cost can differ in its sign only, which
        # adding it to a running total erases.
        return LayerDecision(
            u_applied=u0, output=c_y[0] * u0[0] + c_y[1] * u0[1],
            cost=cost[0] * u0[0] + cost[1] * u0[1], solution=None,
            band_dropped=band_dropped,
        )
    lo_row = np.asarray(lo0, dtype=np.float64)[None, :]
    hi_row = np.asarray(hi0, dtype=np.float64)[None, :]

    def solve(band_lo, band_hi):
        st = StepStructure(
            c_y=spec.output_row, q=spec.tracking_weight, rhat=np.array([r0]),
            price=np.array(price), band_lo=np.array([band_lo]),
            band_hi=np.array([band_hi]),
        )
        u, _, feasible = _solve_steps(st, lo_row, hi_row)
        return u[0] if feasible else None

    u0, band_dropped = _band_ladder(solve, band)
    _check_exclusive(spec.layer_id, c_y, u0.tolist())
    return LayerDecision(u_applied=u0, output=float(spec.output_row @ u0),
                         cost=float(spec.cost_vec @ u0), solution=None,
                         band_dropped=band_dropped)
