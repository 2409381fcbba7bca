"""Reference controller: frequency-band filtering.

The filter baseline splits the net load with cascaded trailing moving
averages — fastest band to the flywheel, then battery, then compressed air,
with the daily trend routed to the hydrogen chain — and applies plain device
saturation with no optimization. It consumes the identical scenario object
and builds its report with the engine's own assembly
(:func:`~hessmpc.engine.assemble_report`), so the schema and the metrics
compare one-for-one.

The other reference, the periodic-SOC MPC, is ``engine.run`` with
``controller="periodic_soc"``: the full layer stack without the adaptive
bands, each layer solve under a terminal equality returning the store to its
run-start energy by the end of the SOC period; infeasible terminals relax to
minimal slack (reported).
"""

from __future__ import annotations

import numpy as np

from .config import EngineConfig
from .devices.storage import EssState, saturate
from .engine import SOC_STEP_S, assemble_report, prepare_scenario
from .metrics import DeviceLedger, SimulationReport
from .mpc import freeze_efficiencies
from .scenario import window_mean


def run_filter_decomposition(config: EngineConfig, data=None) -> SimulationReport:
    """Moving-average band split with device saturation, no optimization."""
    if data is None:
        data = prepare_scenario(config)
    n_sec = data.run_seconds
    x = data.actuals.values[:n_sec]
    dth = 1.0 / 3600.0

    # Cascaded trailing means: each band is the step between two of them,
    # fastest first, and the last mean is the trend.
    means = [x]
    for cutoff in (*config.baseline.filter_cutoffs, config.baseline.trend_cutoff_s):
        means.append(window_mean(means[-1], int(round(cutoff)) - 1, 0))
    bands = [a - b for a, b in zip(means, means[1:])] + [means[-1]]

    eff = freeze_efficiencies(config.awe, config.pemfc, config.meoh, config.turbine)
    # (layer, device, store, band), fastest band first.
    stores = (
        ("L4", "fess", config.fess_state(), bands[0]),
        ("L3", "bess", config.bess.make_state(), bands[1]),
        ("L2", "caes", config.caes.make_state(), bands[2]),
        ("L1", "hydrogen", EssState(
            energy=config.tank_init_frac * config.tank_cap_mwh,
            envelope=(0.0, config.tank_cap_mwh), power_cap=config.h2_power_mw,
            eta_c=eff.eta_hc, eta_d=eff.eta_hd), bands[3]),
    )

    e_m = config.meoh_init_mwh
    ledgers = {"methanol": DeviceLedger(initial_energy=e_m, final_energy=e_m,
                                        eta_c=eff.eta_hc * eff.eta_mc, eta_d=eff.eta_md)}
    soc = {"methanol": np.full(n_sec // 3600 + 1, e_m)}
    outputs = {}
    resid = np.zeros(n_sec)
    saturations = 0
    for layer, dev, st, band in stores:
        lo, hi, cap, ec, ed, keep, stb = st.saturate_args(dth)
        step = SOC_STEP_S[dev]
        trace = np.zeros(n_sec // step + 1)
        trace[0] = e = st.energy
        out = np.zeros(n_sec)
        charged = discharged = 0.0
        for s, want in enumerate(band.tolist()):
            p, e = saturate(e, want, lo, hi, cap, ec, ed, keep, stb, dth)
            if want >= 0.0:
                discharged += p
            else:
                charged += -p
            if p != want:
                saturations += 1
            out[s] = p
            if (s + 1) % step == 0:
                trace[(s + 1) // step] = e
        ledgers[dev] = DeviceLedger(charged * dth, discharged * dth, st.energy, e, ec, ed)
        soc[dev] = trace
        outputs[layer] = out
        resid += band - out

    cost = {layer: ledgers[dev].charged_mwh * prices[0] + ledgers[dev].discharged_mwh * prices[1]
            for layer, dev, prices in (("L1", "hydrogen", config.c_l1),
                                       ("L2", "caes", config.c_l2), ("L3", "bess", config.c_l3))}
    cost["L4"] = config.c_l4 * (ledgers["fess"].charged_mwh + ledgers["fess"].discharged_mwh)
    return assemble_report("filter", config, data, resid,
                           {layer: (1, out) for layer, out in outputs.items()},
                           soc, ledgers, cost, {}, {"saturations": saturations})
