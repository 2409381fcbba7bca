"""Generic storage limits and the single-step dispatch update.

Every technology in the portfolio (flywheel, battery, compressed air,
hydrogen tank) advances through the same ledger rule: the losses of
:func:`lose`, which stop at the lower envelope, then charge scaled by eta_c
and discharge scaled by 1/eta_d. Charge and discharge are mutually exclusive
within a step. :func:`ess_step` applies a move the MPC layers planned, so an
update that would leave the envelope is an error, never a silent clamp.
:func:`saturate_block` is the one clipping form of the rule, for the
controllers that have no planner behind them (the flywheel loop and the
filter baseline): it cuts each request of a block down to the power cap and
the envelope, one step after another, in one loop, so a caller pays one
call per block rather than one per step. An :class:`EssState` holds only a
store's fixed limits and is built once per run; callers carry the store's
energy (MWh) as a float beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import EnvelopeViolation, ExclusivityViolation

# Relative slack for float noise at the envelope edge; violations beyond this
# are real dispatch errors.
_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class EssState:
    """The static limits of one storage device, built once per run.

    The envelope is MWh, power_cap is MW. self_discharge is the leak, the
    fraction of the stored energy lost per hour (the battery and
    compressed-air config sections carry the key); standby_loss is MW drawn
    while the device is above its lower envelope (the flywheel's). Both
    losses stop at the lower envelope. The energy is not a field: callers
    carry it as a float.
    """

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

    def energy_at(self, frac: float) -> float:
        """The energy (MWh) at the fraction frac of the envelope,
        lo + frac * (hi - lo): a run-start energy. One outside the envelope,
        beyond float slack, is a ValueError."""
        lo, hi = self.envelope
        energy = lo + frac * (hi - lo)
        tol = _EDGE_TOL * max(1.0, hi)
        if not lo - tol <= energy <= hi + tol:
            raise ValueError(f"energy {energy} outside envelope [{lo}, {hi}]")
        return energy

    def losses(self, dt_h: float) -> tuple[float, float]:
        """The (keep, standby_e) of :func:`lose` for a dt_h step."""
        return (1.0 - self.self_discharge) ** dt_h, self.standby_loss * dt_h

    def saturate_args(self, dt_h: float) -> tuple[float, ...]:
        """The (lo, hi, cap, eta_c, eta_d, keep, standby_e) of :func:`saturate_block`."""
        return (*self.envelope, self.power_cap, self.eta_c, self.eta_d, *self.losses(dt_h))


def lose(e: float, lo: float, keep: float, standby_e: float) -> float:
    """The energy e (MWh) after one step's losses: the leak keeps the
    fraction keep of it and the standby drain takes standby_e MWh, together
    coasting e down to lo and never below it."""
    drop = e - e * keep + standby_e
    if drop > 0.0 and e > lo:
        e -= drop if e - lo > drop else e - lo
    return e


def saturate_block(
    requests: list[float],
    e: float,
    lo: float,
    hi: float,
    cap: float,
    eta_c: float,
    eta_d: float,
    keep: float,
    standby_e: float,
    dt_h: float,
    feedback: tuple[float, float, float, float, float] | None = None,
) -> tuple[list[float], float, float | None]:
    """Clip a block of discharge-positive power requests, one dt_h step
    each, to what the store can deliver, starting from the energy e (MWh).

    Each step takes the losses of :func:`lose` (the leak's keep fraction
    and the standby drain of standby_e MWh) first, then the power cap, then
    the envelope: a discharge may not draw the store below lo within the
    step, a charge may not lift it above hi. Saturation is silent; callers
    compare the result with the request.

    Without feedback each request is clipped as given, a -0.0 included.
    feedback = (a, b, c, k, d) makes the requests a law of the samples r
    instead: the request of r is (a * r - b * d) / c, and d then becomes
    (r - p) / k with p the realized power (the flywheel's droop/inertia
    law, d its frequency deviation). Returns the realized powers in MW
    (discharge-positive), the energy after the last step and the final d
    (None without feedback).
    """
    lossy = keep < 1.0 or standby_e > 0.0
    # The envelope can bind only within one step at the cap of its edge:
    # from e_dis up the discharge room (e - lo) * eta_d / dt_h is at least
    # cap, and from e_chg down the charge room is. Each rounding step is
    # monotone, so the clip skips those terms there with the same result.
    e_dis = lo + cap * dt_h / eta_d
    while (e_dis - lo) * eta_d / dt_h < cap:
        e_dis = math.nextafter(e_dis, math.inf)
    e_chg = hi - cap * eta_c * dt_h
    while (hi - e_chg) / (eta_c * dt_h) < cap:
        e_chg = math.nextafter(e_chg, -math.inf)
    d = None
    if feedback is not None:
        a, b, c, k, d = feedback
    out = []
    push = out.append
    for r in requests:
        p = r if d is None else (a * r - b * d) / c
        if lossy:
            e = lose(e, lo, keep, standby_e)
        if p >= 0.0:
            if p > cap:
                p = cap
            if e < e_dis:
                avail = (e - lo) * eta_d / dt_h
                if p > avail:
                    p = avail
            e = e - p * dt_h / eta_d
        else:
            if p < -cap:
                p = -cap
            if e > e_chg:
                room = (hi - e) / (eta_c * dt_h)
                if p < -room:
                    p = -room
            e = e + (-p) * eta_c * dt_h
        if d is not None:
            d = (r - p) / k
        push(p)
    return out, e, d


def ess_step(store: EssState, energy: float, p_charge: float, p_discharge: float,
             dt_h: float) -> float:
    """Advance the store one dispatch step from energy (MWh) and return the
    new energy.

    p_charge and p_discharge are non-negative powers in MW and dt_h is the
    step length in hours. Both powers positive is an ExclusivityViolation;
    a power over the cap, or an energy that leaves the envelope, is an
    EnvelopeViolation.
    """
    if p_charge < 0.0 or p_discharge < 0.0:
        raise ValueError("powers must be non-negative")
    if p_charge > 0.0 and p_discharge > 0.0:
        raise ExclusivityViolation(
            f"simultaneous charge {p_charge} MW and discharge {p_discharge} MW"
        )
    cap = store.power_cap * (1.0 + _EDGE_TOL)
    if p_charge > cap or p_discharge > cap:
        raise EnvelopeViolation(
            f"power {max(p_charge, p_discharge)} MW exceeds cap {store.power_cap} MW"
        )
    lo, hi = store.envelope
    e = lose(energy, lo, *store.losses(dt_h))
    e_next = e + p_charge * store.eta_c * dt_h - (p_discharge / store.eta_d) * dt_h
    tol = _EDGE_TOL * max(1.0, abs(hi))
    if e_next < lo - tol or e_next > hi + tol:
        raise EnvelopeViolation(
            f"energy {e_next:.9f} MWh outside envelope [{lo}, {hi}]"
        )
    return min(max(e_next, lo), hi)
