"""Reference controller: frequency-band filtering.

The filter baseline splits the net load with cascaded trailing moving
averages — fastest band to the flywheel, then battery, then compressed air,
with the daily trend routed to the hydrogen chain — and applies plain device
saturation with no optimization. It consumes the identical scenario object
and emits the same report schema as the main engine, so metrics compare
one-for-one.

The other reference, the periodic-SOC MPC, is ``engine.run`` with
``controller="periodic_soc"``: the full layer stack without the adaptive
bands, each layer solve under a terminal equality returning the store to its
run-start energy by the end of the SOC period; infeasible terminals relax to
minimal slack (reported).
"""

from __future__ import annotations

import numpy as np

from .config import EngineConfig
from .devices.storage import saturate
from .metrics import DeviceLedger, SimulationReport
from .timeseries import TimeSeries


def _trailing_mean(x: np.ndarray, window: int) -> np.ndarray:
    c = np.concatenate([[0.0], np.cumsum(x)])
    out = np.empty_like(x)
    n = x.size
    w = min(window, n)
    head = np.arange(1, w + 1, dtype=np.float64)
    out[:w] = c[1 : w + 1] / head
    if n > w:
        out[w:] = (c[w + 1 :] - c[1 : n - w + 1]) / w
    return out


def run_filter_decomposition(config: EngineConfig, data=None) -> SimulationReport:
    """Moving-average band split with device saturation, no optimization."""
    from .engine import prepare_scenario
    from .mpc import freeze_efficiencies

    if data is None:
        data = prepare_scenario(config)
    n_sec = data.run_seconds
    x = data.actuals.values[:n_sec]

    c1, c2 = config.baseline.filter_cutoffs
    c3 = config.baseline.trend_cutoff_s
    ma1 = _trailing_mean(x, int(round(c1)))
    ma2 = _trailing_mean(ma1, int(round(c2)))
    ma3 = _trailing_mean(ma2, int(round(c3)))
    band_fess = x - ma1
    band_bess = ma1 - ma2
    band_caes = ma2 - ma3
    band_hmes = ma3

    eff = freeze_efficiencies(config.awe, config.pemfc, config.meoh, config.turbine)
    caes = config.caes.make_state()
    bess = config.bess.make_state()
    fess = config.fess_state()
    tank_cap = config.tank_cap_mwh
    e_h = config.tank_init_frac * tank_cap
    e_m = config.meoh_init_mwh

    dth = 1.0 / 3600.0
    n_min = n_sec // 60
    n_q = n_sec // 900
    n_hr = n_sec // 3600

    realized = {k: np.zeros(n_sec) for k in ("fess", "bess", "caes", "hmes")}
    soc = {
        "hydrogen": np.zeros(n_hr + 1), "methanol": np.full(n_hr + 1, e_m),
        "caes": np.zeros(n_q + 1), "bess": np.zeros(n_min + 1),
        "fess": np.zeros(n_min + 1),
    }
    soc["hydrogen"][0] = e_h
    soc["caes"][0] = caes.energy
    soc["bess"][0] = bess.energy
    soc["fess"][0] = fess.energy

    ledgers = {
        "hydrogen": DeviceLedger(initial_energy=e_h, eta_c=eff.eta_hc, eta_d=eff.eta_hd),
        "methanol": DeviceLedger(
            initial_energy=e_m, eta_c=eff.eta_hc * eff.eta_mc, eta_d=eff.eta_md
        ),
        "caes": DeviceLedger(initial_energy=caes.energy, eta_c=caes.eta_c, eta_d=caes.eta_d),
        "bess": DeviceLedger(initial_energy=bess.energy, eta_c=bess.eta_c, eta_d=bess.eta_d),
        "fess": DeviceLedger(initial_energy=fess.energy, eta_c=fess.eta_c, eta_d=fess.eta_d),
    }
    saturations = 0

    # Flat per-device loop state: (energy, lo, hi, cap, eta_c, eta_d, standby_e)
    dev = {
        "fess": [fess.energy, fess.envelope[0], fess.envelope[1], fess.power_cap,
                 fess.eta_c, fess.eta_d, fess.standby_loss * dth],
        "bess": [bess.energy, bess.envelope[0], bess.envelope[1], bess.power_cap,
                 bess.eta_c, bess.eta_d, 0.0],
        "caes": [caes.energy, caes.envelope[0], caes.envelope[1], caes.power_cap,
                 caes.eta_c, caes.eta_d, 0.0],
        "hmes": [e_h, 0.0, tank_cap, config.h2_power_mw,
                 eff.eta_hc, eff.eta_hd, 0.0],
    }
    bands = {"fess": band_fess, "bess": band_bess, "caes": band_caes, "hmes": band_hmes}
    trace_of = {"fess": ("fess", 60), "bess": ("bess", 60),
                "caes": ("caes", 900), "hmes": ("hydrogen", 3600)}
    resid = np.zeros(n_sec)

    for name in ("fess", "bess", "caes", "hmes"):
        e, lo, hi, cap, ec, ed, stb = dev[name]
        b = bands[name]
        out = realized[name]
        soc_key, block = trace_of[name]
        soc_arr = soc[soc_key]
        charged = 0.0
        discharged = 0.0
        for s, want in enumerate(b.tolist()):
            p, e = saturate(e, want, lo, hi, cap, ec, ed, stb, dth)
            if want >= 0.0:
                discharged += p
            else:
                charged += -p
            if p != want:
                saturations += 1
            out[s] = p
            if (s + 1) % block == 0:
                soc_arr[(s + 1) // block] = e
        dev[name][0] = e
        ledgers_key = "hydrogen" if name == "hmes" else name
        ledgers[ledgers_key].charged_mwh = charged * dth
        ledgers[ledgers_key].discharged_mwh = discharged * dth
        resid += b - out

    ledgers["hydrogen"].final_energy = dev["hmes"][0]
    ledgers["methanol"].final_energy = e_m
    ledgers["caes"].final_energy = dev["caes"][0]
    ledgers["bess"].final_energy = dev["bess"][0]
    ledgers["fess"].final_energy = dev["fess"][0]

    cost = {
        "L1": (ledgers["hydrogen"].charged_mwh * config.c_l1[0]
               + ledgers["hydrogen"].discharged_mwh * config.c_l1[1]),
        "L2": (ledgers["caes"].charged_mwh * config.c_l2[0]
               + ledgers["caes"].discharged_mwh * config.c_l2[1]),
        "L3": (ledgers["bess"].charged_mwh * config.c_l3[0]
               + ledgers["bess"].discharged_mwh * config.c_l3[1]),
        "L4": config.c_l4 * (ledgers["fess"].charged_mwh
                             + ledgers["fess"].discharged_mwh),
    }

    t0 = data.actuals.start_epoch
    report = SimulationReport(
        controller="filter",
        seed=config.scenario.seed,
        original_netload=TimeSeries(t0, 1.0, x.copy()),
        smoothed_netload=TimeSeries(t0, 1.0, resid),
        layer_outputs={
            "L1": TimeSeries(t0, 1.0, realized["hmes"]),
            "L2": TimeSeries(t0, 1.0, realized["caes"]),
            "L3": TimeSeries(t0, 1.0, realized["bess"]),
            "L4": TimeSeries(t0, 1.0, realized["fess"]),
        },
        soc_traces={
            "hydrogen": TimeSeries(t0, 3600.0, soc["hydrogen"]),
            "methanol": TimeSeries(t0, 3600.0, soc["methanol"]),
            "caes": TimeSeries(t0, 900.0, soc["caes"]),
            "bess": TimeSeries(t0, 60.0, soc["bess"]),
            "fess": TimeSeries(t0, 60.0, soc["fess"]),
        },
        ledgers=ledgers,
        dispatch_cost=cost,
        solver_stats={},
        events={"saturations": saturations},
    )
    from .engine import _finalize_metrics
    _finalize_metrics(report, config, data)
    return report
