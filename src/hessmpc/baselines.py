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
from .devices.storage import EssState, saturate_block
from .engine import assemble_report, prepare_scenario, soc_step_s
from .metrics import DeviceLedger, SimulationReport
from .mpc import LAYERS, freeze_efficiencies
from .scenario import window_mean
from .timeseries import BLOCK
from .vic import DT_H


def run_filter_decomposition(config: EngineConfig, data=None) -> SimulationReport:
    """Moving-average band split with device saturation, no optimization."""
    if data is None:
        data = prepare_scenario(config)
    n_sec = data.run_seconds
    steps = soc_step_s()

    eff = freeze_efficiencies(config.awe, config.pemfc, config.meoh, config.turbine)
    tank = EssState(envelope=(0.0, config.tank_cap_mwh), power_cap=config.h2_power_mw,
                    eta_c=eff.eta_hc, eta_d=eff.eta_hd)
    # (layer, device, store, run-start energy), fastest band first.
    stores = (
        ("L4", "fess", *config.fess_state()),
        ("L3", "bess", *config.bess.make_state()),
        ("L2", "caes", *config.caes.make_state()),
        ("L1", "hydrogen", tank, tank.energy_at(config.tank_init_frac)),
    )
    cutoffs = (*config.baseline.filter_cutoffs, config.baseline.trend_cutoff_s)

    ledgers = {"methanol": DeviceLedger(eta_c=eff.eta_hc * eff.eta_mc, eta_d=eff.eta_md)}
    soc = {"methanol": np.full(n_sec // steps["methanol"] + 1, config.meoh_init_mwh)}
    outputs = {}
    resid = np.zeros(n_sec)
    saturations = 0
    # Cascaded trailing means, taken one at a time: each store's band is the
    # step from one mean to the next, fastest first, and the last mean, the
    # trend, is the last store's band. Bands are formed in blocks and
    # saturated one energy-trace step at a time, so each call's end energy
    # is a trace entry.
    mean = data.actuals.values[:n_sec]
    for i, (layer, dev, st, e) in enumerate(stores):
        nxt = window_mean(mean, int(round(cutoffs[i])) - 1, 0) if i < len(cutoffs) else None
        clip = st.saturate_args(DT_H)
        step = steps[dev]
        trace = np.full(n_sec // step + 1, e)
        out = np.empty(n_sec)
        charged = discharged = 0.0
        for b0 in range(0, n_sec, BLOCK):
            b1 = min(b0 + BLOCK, n_sec)
            band = mean[b0:b1] if nxt is None else mean[b0:b1] - nxt[b0:b1]
            s = b0
            while s < b1:
                s_end = min(s - s % step + step, b1)
                wanted = band[s - b0 : s_end - b0].tolist()
                got, e, _ = saturate_block(wanted, e, *clip, DT_H)
                for want, p in zip(wanted, got):
                    if want >= 0.0:
                        discharged += p
                    else:
                        charged += -p
                out[s:s_end] = got
                if s_end % step == 0:
                    trace[s_end // step] = e
                s = s_end
            saturations += int(np.count_nonzero(out[b0:b1] != band))
            resid[b0:b1] += band - out[b0:b1]
        ledgers[dev] = DeviceLedger(charged * DT_H, discharged * DT_H, eta_c=st.eta_c,
                                    eta_d=st.eta_d)
        soc[dev] = trace
        outputs[layer] = out
        # Free the mean just used; the trend's last band block is a view of it.
        mean = band = nxt

    cost = {}
    for row in LAYERS:
        ledger, prices = ledgers[row.device], getattr(config, row.price_key)
        cost[row.layer_id] = ledger.charged_mwh * prices[0] + ledger.discharged_mwh * prices[1]
    cost["L4"] = config.c_l4 * (ledgers["fess"].charged_mwh + ledgers["fess"].discharged_mwh)
    return assemble_report("filter", config, data, resid,
                           {layer: (1, out) for layer, out in outputs.items()},
                           soc, ledgers, cost, {}, {"saturations": saturations})
