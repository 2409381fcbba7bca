"""Second-level flywheel control: droop plus virtual inertia on an
equivalent frequency deviation, closed algebraically.

The residual r left by the slower layers is what the flywheel's injection p
does not cover; the remainder r - p maps to an equivalent frequency
deviation df = (r - p) / k_pf through the aggregate power-frequency
coefficient. The flywheel answers with droop on df and inertia on its
one-second difference, p = k_p df + k_d (df - df_prev). Solving the two for
p closes the static power-frequency characteristic algebraically, which
keeps the published gains stable instead of feed-forward amplifying
second-scale noise: a steady residual is shared k_p : k_pf between the
flywheel and the grid (8:1 with the shipped gains).

Powers are discharge-positive (grid injection): a positive residual
(unserved load) discharges the flywheel. Each request saturates against
rated power and the energy envelope, never by raising: the law is the
feedback term of :func:`~hessmpc.devices.storage.saturate_block`, which
runs a whole block of samples (the engine's minute) through the store's
loss, cap and envelope clip in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .devices.storage import EssState, saturate_block

#: The flywheel tick, one second, in hours.
DT_H = 1.0 / 3600.0


@dataclass
class VicParams:
    """Gains of the flywheel layer, which ticks once per second.

    k_pf is the aggregate power-frequency coefficient (MW/Hz); k_p the droop
    gain (MW/Hz); k_d the inertia gain (MW*s/Hz).
    """

    k_pf: float = 15.0
    k_p: float = 120.0
    k_d: float = 25.0


def close_residual(
    residual: list[float],
    energy: float,
    df_prev: float | None,
    params: VicParams,
    store: EssState,
) -> tuple[list[float], float, float]:
    """Run the flywheel law over one-second residual samples (MW).

    energy is the flywheel energy (MWh) before the first sample and df_prev
    the equivalent frequency deviation (Hz) after the previous sample; None
    starts the law at the steady-state deviation r / (k_pf + k_p) of the
    first sample. store supplies the envelope, power cap, efficiencies and
    losses. Returns the realized injections (MW, discharge-positive),
    the energy after the last sample and the deviation after it.
    """
    k_pf = params.k_pf
    if df_prev is None:
        df_prev = residual[0] / (k_pf + params.k_p)
    beta = params.k_p + params.k_d
    law = (beta, k_pf * params.k_d, k_pf + beta, k_pf, df_prev)
    return saturate_block(residual, energy, *store.saturate_args(DT_H), DT_H, law)
