"""Generic storage energy state and the single-step dispatch update.

Every technology in the portfolio (flywheel, battery, compressed air,
hydrogen tank) advances through the same ledger rule: self-discharge on the
stored energy, a standby drain while spinning, charge scaled by eta_c and
discharge scaled by 1/eta_d. Charge and discharge are mutually exclusive
within a step. :func:`ess_step` applies a move the MPC layers planned, so an
update that would leave the envelope is an error, never a silent clamp.
:func:`saturate` is the one clipping form of the rule, for the controllers
that have no planner behind them (the flywheel loop and the filter
baseline): it cuts a request down to the power cap and the envelope.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import EnvelopeViolation, ExclusivityViolation

# Relative slack for float noise at the envelope edge; violations beyond this
# are real dispatch errors.
_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class EssState:
    """Energy content plus the static limits of one storage device.

    energy and the envelope are MWh, power_cap is MW, self_discharge is the
    per-step loss fraction (zero for everything but batteries), standby_loss
    is MW drawn while the device is above its lower envelope (zero for
    everything but flywheels).
    """

    energy: float
    envelope: tuple[float, float]
    power_cap: float
    eta_c: float
    eta_d: float
    self_discharge: float = 0.0
    standby_loss: float = 0.0

    def __post_init__(self):
        lo, hi = self.envelope
        if not lo < hi:
            raise ValueError(f"envelope must satisfy lo < hi, got {self.envelope}")
        if not (0.0 < self.eta_c <= 1.0 and 0.0 < self.eta_d <= 1.0):
            raise ValueError("efficiencies must lie in (0, 1]")
        if not lo - _EDGE_TOL * max(1.0, hi) <= self.energy <= hi + _EDGE_TOL * max(1.0, hi):
            raise ValueError(
                f"energy {self.energy} outside envelope [{lo}, {hi}]"
            )

    @property
    def headroom_charge(self) -> float:
        """MWh that can still be stored."""
        return self.envelope[1] - self.energy

    @property
    def headroom_discharge(self) -> float:
        """MWh that can still be drawn."""
        return self.energy - self.envelope[0]


def saturate(
    e: float,
    p: float,
    lo: float,
    hi: float,
    cap: float,
    eta_c: float,
    eta_d: float,
    standby_e: float,
    dt_h: float,
) -> tuple[float, float]:
    """Clip a discharge-positive power request to what the store can deliver.

    The standby drain (standby_e MWh, applied only above the lower envelope
    lo and never below it) comes first, then the power cap, then the
    envelope: a discharge may not draw the store below lo within the dt_h
    step, a charge may not lift it above hi. Returns the realized power in
    MW (discharge-positive) and the energy after the step in MWh.
    Saturation is silent; callers compare the result with the request.
    """
    if standby_e > 0.0 and e > lo:
        e -= standby_e if e - lo > standby_e else e - lo
    if p >= 0.0:
        avail = (e - lo) * eta_d / dt_h
        if p > cap:
            p = cap
        if p > avail:
            p = avail
        return p, e - p * dt_h / eta_d
    room = (hi - e) / (eta_c * dt_h)
    if p < -cap:
        p = -cap
    if p < -room:
        p = -room
    return p, e + (-p) * eta_c * dt_h


def ess_step(state: EssState, p_charge: float, p_discharge: float, dt_h: float) -> EssState:
    """Advance one dispatch step and return the new state.

    Parameters
    ----------
    state : EssState
    p_charge, p_discharge : float
        Non-negative powers in MW; at most one may be positive and both must
        respect the power cap.
    dt_h : float
        Step length in hours.

    Raises
    ------
    ExclusivityViolation
        If both powers are positive.
    EnvelopeViolation
        If the updated energy leaves the envelope. The state is not modified.
    """
    if p_charge < 0.0 or p_discharge < 0.0:
        raise ValueError("powers must be non-negative")
    if p_charge > 0.0 and p_discharge > 0.0:
        raise ExclusivityViolation(
            f"simultaneous charge {p_charge} MW and discharge {p_discharge} MW"
        )
    cap = state.power_cap * (1.0 + _EDGE_TOL)
    if p_charge > cap or p_discharge > cap:
        raise EnvelopeViolation(
            f"power {max(p_charge, p_discharge)} MW exceeds cap {state.power_cap} MW"
        )
    lo, hi = state.envelope
    # Standby loss only applies above the lower envelope and can at most
    # coast the energy down to it; it never drives a violation on its own.
    e = state.energy * (1.0 - state.self_discharge)
    if state.standby_loss > 0.0 and e > lo:
        e -= min(state.standby_loss * dt_h, e - lo)
    e_next = e + p_charge * state.eta_c * dt_h - (p_discharge / state.eta_d) * dt_h
    tol = _EDGE_TOL * max(1.0, abs(hi))
    if e_next < lo - tol or e_next > hi + tol:
        raise EnvelopeViolation(
            f"energy {e_next:.9f} MWh outside envelope [{lo}, {hi}]"
        )
    # Built field by field (dataclasses.replace costs twice as much per
    # call); __post_init__ still checks the new state.
    return EssState(
        energy=min(max(e_next, lo), hi), envelope=state.envelope,
        power_cap=state.power_cap, eta_c=state.eta_c, eta_d=state.eta_d,
        self_discharge=state.self_discharge, standby_loss=state.standby_loss,
    )
