"""Four-clock simulation loop: hourly hydrogen/methanol, quarter-hourly
compressed air, minute-level battery, second-level flywheel.

The loop takes one pass per minute. It first advances the stores whose
layer step just ended, then, on layer boundaries, computes each child's
capability band from the current device states (compressed air for the
hydrogen layer, battery for the compressed-air layer, flywheel for the
battery layer) and lets the due layers decide in order L1, L2, L3. L1 has
its own block (frozen efficiencies, tank and methanol bounds, four
actuators); L2 and L3 share one single-store routine. The flywheel then
closes the minute's 60 one-second residual samples with the law of
:func:`~hessmpc.vic.close_residual`.

Each controller has one step law, picked before the loop, and each layer
decision is one call of it: forecast window, then bounds, then the law. The
proposed controller's law is the explicit step
(:func:`~hessmpc.mpc.explicit_step`), which needs only the step-0 forecast,
bounds and band, so its layers plan one step and their horizons only size
the forecast pad. The periodic-SOC baseline drops the bands, and its law
solves each layer's stacked QP over the full horizon with a terminal
equality returning the store to its run-start energy by the end of its
period, with infeasibility relaxed to minimal slack and reported. Under
``debug_qp_dump`` each layer's first call of the law also writes the
problem that law solves.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

import numpy as np

from .config import EngineConfig, validate
from .devices import ess_step
from .devices.battery import battery_damage, battery_soh, bess_cycle_cost
from .devices.flywheel import fess_lcoe
from .errors import ConfigError, LedgerClosureError, QpInfeasible
from .metrics import (
    DeviceLedger, SimulationReport, economic_benefit,
    minute_fluctuation_reduction, round_trip_efficiency, rms_smoothing_rate,
    smoothing_rate,
)
# receding_step is imported only so that benchmarks/tracer.py can wrap it by
# its name in this module.
from .mpc import (  # noqa: F401
    L1State, LayerDecision, LayerSpec, build_layer_problem, explicit_step,
    first_step_caps, freeze_efficiencies, l1_bounds, l1_dynamics,
    receding_step, simple_bounds,
)
from .mtip import (
    MtipBounds, adaptive_bounds, flat_bounds, marginal_cost, physical_bounds,
)
from .qp import OPTIMAL, dense_problem, dump_problem, solve_qp
from .timeseries import TimeSeries, ingest_csv, write_csv
from .scenario import calm_window, make_forecast, realized_accuracy, synthesize
from .vic import DT_H, close_residual


@dataclasses.dataclass
class ScenarioData:
    """Actuals plus per-layer forecasts covering the run and the L1 horizon."""

    actuals: TimeSeries
    run_seconds: int
    forecasts: dict[str, TimeSeries]


def prepare_scenario(config: EngineConfig) -> ScenarioData:
    """Generate (or ingest) actuals and derive the three layer forecasts.

    The actuals extend one full L1 horizon past the run end so every
    receding solve sees a complete forecast window. A CSV must cover the
    run itself; only that forecast pad beyond the run end is held at the
    CSV's last value. A synthesized extreme calm without a configured window
    falls at the fractions of the run, not of the padded series, that a
    scenario of the run's own length would use.
    """
    run_seconds = int(round(config.scenario.duration_days * 86400.0))
    if run_seconds % 3600:
        raise ConfigError("run duration must be a whole number of hours")
    pad_seconds = config.n1 * 3600
    total = run_seconds + pad_seconds
    if config.csv_path is not None:
        raw = ingest_csv(config.csv_path)
        if raw.dt != 1.0:
            raise ConfigError("ingested actuals must be sampled at 1 s")
        vals = raw.values
        if vals.size < run_seconds:
            raise ConfigError(
                f"csv_path: '{config.csv_path}' holds {vals.size} s of actuals, "
                f"shorter than the {run_seconds} s run"
            )
        if vals.size < total:
            vals = np.concatenate([vals, np.full(total - vals.size, vals[-1])])
        actuals = TimeSeries(raw.start_epoch, 1.0, vals[:total])
    else:
        ext = dataclasses.replace(
            config.scenario, duration_days=total / 86400.0,
            calm_window_days=config.scenario.calm_window_days
            or calm_window(config.scenario.duration_days),
        )
        actuals = synthesize(ext)
    acc = config.scenario.forecast_accuracy
    seed = config.scenario.seed
    forecasts = {
        "L1": make_forecast(actuals, 3600.0, acc.get("L1", 0.9), seed * 1000 + 1),
        "L2": make_forecast(actuals, 900.0, acc.get("L2", 0.9), seed * 1000 + 2),
        "L3": make_forecast(actuals, 60.0, acc.get("L3", 0.9), seed * 1000 + 3),
    }
    return ScenarioData(actuals=actuals, run_seconds=run_seconds, forecasts=forecasts)


#: Step length in seconds of each MPC layer.
_STEP_S = {"L1": 3600, "L2": 900, "L3": 60}

#: Step length in seconds of each device's energy trace.
_SOC_STEP_S = {"hydrogen": 3600, "methanol": 3600, "caes": 900, "bess": 60, "fess": 60}

#: Device of each single-store layer.
_STORE = {"L2": "caes", "L3": "bess"}

#: Child layer of each layer, whose store and marginal cost set its band.
_CHILD = {"L1": "L2", "L2": "L3", "L3": "L4"}


@dataclasses.dataclass
class _LayerStats:
    """Solver statistics of one layer; each step law books its own."""

    solves: int = 0
    iterations: int = 0
    max_kkt: float = 0.0
    infeasible: int = 0


@dataclasses.dataclass
class _Layer:
    """Run state of one MPC layer.

    actual_mean holds the run's actuals averaged over each layer step, for
    the forecast de-bias; bias_pow is None when de-biasing is off. plan is
    the number of forecast steps the law reads per decision. k_end is the
    periodic baseline's terminal step and mu_hint its warm-start dual.
    output and band are the applied output and the (lower, upper, gamma)
    band per layer step. dump_path is the QP dump still to write, if any.
    """

    spec: LayerSpec
    forecast: np.ndarray
    actual_mean: np.ndarray
    bias_pow: np.ndarray | None
    plan: int
    k_end: int
    output: np.ndarray
    band: np.ndarray
    dump_path: str | None
    stats: _LayerStats = dataclasses.field(default_factory=_LayerStats)
    mu_hint: float | None = None
    cost: float = 0.0

    def window(self, k: int, n: int, held) -> np.ndarray:
        """n forecast steps from step k, less the held parent outputs, plus
        the previous step's observed error decayed over the window."""
        fc = self.forecast[k : k + n]
        for y in held:
            fc = fc - y
        if self.bias_pow is not None and k > 0:
            err = self.actual_mean[k - 1] - self.forecast[k - 1]
            fc = fc + err * self.bias_pow[:n]
        return fc


def run(config: EngineConfig, data: ScenarioData | None = None) -> SimulationReport:
    """Run the configured controller over one scenario."""
    findings = validate(config)
    errors = [f for f in findings if f.severity == "error"]
    if errors:
        raise ConfigError("; ".join(f"{f.path}: {f.message}" for f in errors))
    if config.controller == "filter":
        from .baselines import run_filter_decomposition
        return run_filter_decomposition(config, data)
    periodic = config.controller == "periodic_soc"
    # The step law, and the single-store bounds it reads, of the controller.
    law, store_bounds = (_coupled_law, simple_bounds) if periodic else \
        (_explicit_law, _first_step_rows)
    if config.debug_qp_dump:
        os.makedirs(config.out_dir, exist_ok=True)

    if data is None:
        data = prepare_scenario(config)
    av = data.actuals.values
    n_sec = data.run_seconds
    n_min = n_sec // 60
    specs = config.layer_specs()
    bias_decay = config.forecast_bias_decay
    lay = {}
    for name, step_s in _STEP_S.items():
        spec = specs[name]
        n = n_sec // step_s
        lay[name] = _Layer(
            spec=spec,
            forecast=data.forecasts[name].values,
            actual_mean=av[:n_sec].reshape(n, step_s).mean(axis=1),
            bias_pow=bias_decay ** np.arange(1, spec.horizon + 1)
            if bias_decay > 0.0 else None,
            plan=spec.horizon if periodic else 1,
            # The periodic baseline's terminal equality binds at the end of
            # the SOC period, clamped to the layer's horizon.
            k_end=min(spec.horizon, max(1, int(round(config.baseline.soc_period_h / spec.dt_h)))),
            output=np.zeros(n),
            band=np.zeros((n, 3)),
            dump_path=os.path.join(config.out_dir, f"qp_{name}.txt")
            if config.debug_qp_dump else None,
        )
    l1 = lay["L1"]
    spec1 = l1.spec

    # Device states.
    tank_env = (0.0, config.tank_cap_mwh)
    l1_state = L1State(
        e_h=config.tank_init_frac * config.tank_cap_mwh,
        e_m=config.meoh_init_mwh,
    )
    stores = {"caes": config.caes.make_state(), "bess": config.bess.make_state()}
    fess0 = config.fess_state()
    e_fess = fess0.energy
    e_init = {
        "hydrogen": l1_state.e_h, "methanol": l1_state.e_m,
        **{dev: st.energy for dev, st in stores.items()}, "fess": e_fess,
    }

    # Marginal costs drive the band blending; the flywheel's uses its own
    # dispatch price with a unit cost weight.
    lam = {name: marginal_cost(lay[name].spec) for name in _STEP_S}
    lam["L4"] = config.c_l4
    mtip_cfg = config.mtip

    inject_tr = np.zeros(n_sec)
    resid_tr = np.zeros(n_sec)
    soc_tr = {}
    ledgers = {}
    for dev, step_s in _SOC_STEP_S.items():
        soc_tr[dev] = np.zeros(n_sec // step_s + 1)
        soc_tr[dev][0] = e_init[dev]
        ledgers[dev] = DeviceLedger(initial_energy=e_init[dev])
    for dev, st in (*stores.items(), ("fess", fess0)):
        ledgers[dev].eta_c, ledgers[dev].eta_d = st.eta_c, st.eta_d
    events = {
        "band_clamped": 0, "band_dropped": 0, "eff_clamped": 0,
        "forced_recharge": 0, "coupling_slack": 0, "simultaneous_netted": 0,
    }

    vic = config.vic
    # (charge, discharge) move of each single-store layer, applied to its
    # store at the end of the layer step.
    pending = {"L2": (0.0, 0.0), "L3": (0.0, 0.0)}

    def layer_band(name, k) -> MtipBounds | None:
        """Band of layer ``name`` at step k: its child's physical band,
        clipped to the child's power cap and blended by the cost sigmoid;
        traced. None under the periodic baseline, which drops bands."""
        if periodic:
            return None
        child = _CHILD[name]
        if child == "L4":
            # The flywheel's micro forecast holds the minute's forecast, so
            # its fluctuation is zero and the band has the flat form.
            phy = flat_bounds(e_fess, fess0.envelope, fess0.eta_c, fess0.eta_d, DT_H, 60)
            cap = fess0.power_cap
        else:
            store = stores[_STORE[child]]
            n = _STEP_S[name] // _STEP_S[child]
            xi = lay[child].forecast[k * n : (k + 1) * n] - lay[name].forecast[k]
            phy = physical_bounds(xi, store, lay[child].spec.dt_h)
            cap = store.power_cap
        lo = max(phy[0], -cap)
        hi = min(phy[1], cap)
        if lo > hi:
            # A band the cap clip leaves crossed (it lies wholly beyond
            # the cap) collapses to its midpoint.
            lo = hi = 0.5 * (lo + hi)
        b = adaptive_bounds(
            (lo, hi), lam[name], lam[child],
            mtip_cfg.kappa, mtip_cfg.chi_th, mtip_cfg.eps_db,
        )
        lay[name].band[k] = (b.r_lower, b.r_upper, b.gamma)
        return b

    def store_layer(name, k, held, band) -> float:
        """Decide step k of a single-store layer below the held parent
        outputs: record the move for its store's next advance, book ledger,
        cost and events, and return the layer's grid output."""
        layer = lay[name]
        spec = layer.spec
        dev = _STORE[name]
        state = stores[dev]
        fc = layer.window(k, layer.plan, held)
        lo, hi = store_bounds(spec, state)
        terminal = ((state.eta_c, -1.0 / state.eta_d), e_init[dev] - state.energy, fc[0])
        dec = law(layer, fc, lo, hi, band, terminal, events)
        move = (float(dec.u_applied[0]), float(dec.u_applied[1]))
        pending[name] = move
        layer.output[k] = dec.output
        ledgers[dev].charged_mwh += move[0] * spec.dt_h
        ledgers[dev].discharged_mwh += move[1] * spec.dt_h
        layer.cost += dec.cost * spec.dt_h
        return dec.output

    pending_l1: tuple[np.ndarray, object] | None = None
    y1 = y2 = 0.0
    df_prev = None
    eff = None

    wall_start = time.perf_counter()
    # One pass per minute, plus a last pass that only closes out the state
    # advances of the final intervals.
    for m in range(n_min + 1):
        t0 = m * 60

        # State advances for the intervals just completed.
        if m > 0:
            for name in ("L3", "L2"):
                step_s = _STEP_S[name]
                if t0 % step_s == 0:
                    dev = _STORE[name]
                    stores[dev] = ess_step(stores[dev], *pending[name], lay[name].spec.dt_h)
                    soc_tr[dev][t0 // step_s] = stores[dev].energy
            if t0 % 3600 == 0:
                u_prev, eff_prev = pending_l1
                l1_state = l1_dynamics(l1_state, u_prev, spec1.dt_h, eff_prev, tank_env)
                soc_tr["hydrogen"][t0 // 3600] = l1_state.e_h
                soc_tr["methanol"][t0 // 3600] = l1_state.e_m
        soc_tr["fess"][m] = e_fess
        if m == n_min:
            break

        # Hourly layer.
        if t0 % 3600 == 0:
            h = t0 // 3600
            band1 = layer_band("L1", h)
            loads = None
            if pending_l1 is not None:
                usc, prev_eff = pending_l1
                loads = (
                    usc[0] / spec1.u_max[0] if usc[0] > 0.01 * spec1.u_max[0] else None,
                    usc[1] / spec1.u_max[1] if usc[1] > 0.01 * spec1.u_max[1] else None,
                    prev_eff.eta_mc * usc[2] / config.meoh.rated_power
                    if usc[2] > 0.01 * spec1.u_max[2] else None,
                    usc[3] / config.turbine.rated if usc[3] > 0.01 * spec1.u_max[3] else None,
                )
            eff = freeze_efficiencies(
                config.awe, config.pemfc, config.meoh, config.turbine, loads
            )
            if eff.clamped:
                events["eff_clamped"] += 1
            conv_cap = config.meoh.rated_power / eff.eta_mc
            fc1 = l1.window(h, l1.plan, ())
            lo1, hi1 = l1_bounds(spec1, l1_state, eff, tank_env, fc1, conv_cap)
            # Forced recharges are judged on the raw forecast here.
            terminal = ((eff.eta_hc, -1.0 / eff.eta_hd, -1.0, 0.0),
                        e_init["hydrogen"] - l1_state.e_h, l1.forecast[h])
            dec1 = law(l1, fc1, lo1, hi1, band1, terminal, events)
            y1 = dec1.output
            u1 = dec1.u_applied
            pending_l1 = (u1, eff)
            l1.output[h] = y1
            ledgers["hydrogen"].charged_mwh += u1[0] * spec1.dt_h
            ledgers["hydrogen"].discharged_mwh += u1[1] * spec1.dt_h
            ledgers["methanol"].discharged_mwh += u1[3] * spec1.dt_h
            l1.cost += dec1.cost * spec1.dt_h

        # Quarter-hourly layer.
        if t0 % 900 == 0:
            k2 = t0 // 900
            y2 = store_layer("L2", k2, (y1,), layer_band("L2", k2))

        # Minute layer.
        y3 = store_layer("L3", m, (y1, y2), layer_band("L3", m))

        # Second-scale flywheel closure.
        r_arr = av[t0 : t0 + 60] - (y1 + y2 + y3)
        inject, e_fess, df_prev = close_residual(r_arr.tolist(), e_fess, df_prev, vic, fess0)
        inject_tr[t0 : t0 + 60] = inject
        resid_tr[t0 : t0 + 60] = r_arr - inject_tr[t0 : t0 + 60]
    wall = time.perf_counter() - wall_start

    inj_pos = inject_tr[inject_tr > 0.0]
    inj_neg = inject_tr[inject_tr < 0.0]
    ledgers["fess"].discharged_mwh = float(inj_pos.sum()) * DT_H
    ledgers["fess"].charged_mwh = float(-inj_neg.sum()) * DT_H
    jcost = {name: lay[name].cost for name in _STEP_S}
    jcost["L4"] = lam["L4"] * float(np.abs(inject_tr).sum()) * DT_H

    for dev, arr in soc_tr.items():
        ledgers[dev].final_energy = float(arr[-1])
    eff_final = eff if eff is not None else freeze_efficiencies(
        config.awe, config.pemfc, config.meoh, config.turbine
    )
    ledgers["hydrogen"].eta_c = eff_final.eta_hc
    ledgers["hydrogen"].eta_d = eff_final.eta_hd
    ledgers["methanol"].eta_c = eff_final.eta_hc * eff_final.eta_mc
    ledgers["methanol"].eta_d = eff_final.eta_md

    # Ledger closure: reconstruct the residual from the held traces.
    recon = av[:n_sec]
    for name, step_s in _STEP_S.items():
        recon = recon - np.repeat(lay[name].output, step_s)
    recon = recon - inject_tr
    closure = float(np.abs(recon - resid_tr).max()) if n_sec else 0.0
    if closure > 1e-9:
        raise LedgerClosureError(f"residual ledger mismatch {closure} MW")

    t_start = data.actuals.start_epoch
    report = SimulationReport(
        controller=config.controller,
        seed=config.scenario.seed,
        original_netload=TimeSeries(t_start, 1.0, av[:n_sec].copy()),
        smoothed_netload=TimeSeries(t_start, 1.0, resid_tr),
        layer_outputs={
            **{name: TimeSeries(t_start, float(step_s), lay[name].output)
               for name, step_s in _STEP_S.items()},
            "L4": TimeSeries(t_start, 1.0, inject_tr),
        },
        soc_traces={dev: TimeSeries(t_start, float(_SOC_STEP_S[dev]), arr)
                    for dev, arr in soc_tr.items()},
        ledgers=ledgers,
        dispatch_cost=jcost,
        solver_stats={name: dataclasses.asdict(lay[name].stats) for name in _STEP_S},
        events=dict(events),
    )
    report.solver_stats["wall_seconds"] = {"total": wall}
    if not periodic:
        for name, step_s in _STEP_S.items():
            for col, part in enumerate(("lower", "upper", "gamma")):
                report.band_traces[f"{name}_{part}"] = TimeSeries(
                    t_start, float(step_s), lay[name].band[:, col]
                )
    _finalize_metrics(report, config, data)
    return report


def _first_step_rows(spec: LayerSpec, state) -> tuple[tuple, tuple]:
    """Step-0 (charge, discharge) floor and cap rows of a single-store layer."""
    return ((0.0, 0.0),), (first_step_caps(spec, state),)


def _explicit_law(layer: _Layer, fc, lo, hi, band, terminal, events) -> LayerDecision:
    """The proposed controller's law: the explicit step on the step-0
    forecast, bounds and band (``terminal`` is the periodic law's). A
    dropped band counts once in each of ``band_clamped`` (a band the layer
    could not apply as offered), ``band_dropped`` and the layer's
    infeasible solves."""
    spec = layer.spec
    if layer.dump_path is not None:
        _dump(layer, dense_problem(build_layer_problem(spec, fc, band), lo, hi))
    dec = explicit_step(spec, fc[0], lo[0], hi[0], band)
    # Booked as the stacked closed form reported itself: one iteration per
    # horizon step, no residual.
    layer.stats.solves += 1
    layer.stats.iterations += spec.horizon
    if dec.band_dropped:
        events["band_clamped"] += 1
        events["band_dropped"] += 1
        layer.stats.infeasible += 1
    return dec


def _coupled_law(layer: _Layer, fc, lo, hi, band, terminal, events) -> LayerDecision:
    """The periodic-SOC law: solve the stacked layer problem under a
    terminal equality and apply the first move.

    terminal is (pattern, target, demand). pattern is the store's energy
    change per MWh moved through each input; the terminal row asks the
    steps before k_end to change the store's energy by ``target`` MWh. A
    charging move while the forecast residual ``demand`` asks for discharge
    is a forced recharge. A solve that stops short of optimal raises
    QpInfeasible.
    """
    spec = layer.spec
    pattern, target, demand = terminal
    st = build_layer_problem(spec, fc, band)
    row = (np.array(pattern) * spec.dt_h, layer.k_end, target)
    if layer.dump_path is not None:
        _dump(layer, dense_problem(st, lo, hi, row))
    sol = solve_qp(st, lo, hi, terminal=row, mu_hint=layer.mu_hint)
    if sol.status != OPTIMAL:
        raise QpInfeasible(
            f"{spec.layer_id} terminal-row solve ended {sol.status} "
            f"after {sol.iterations} iterations"
        )
    layer.mu_hint = sol.mu_hint
    if sol.coupling_slack != 0.0:
        events["coupling_slack"] += 1
    u0 = sol.u_star[: spec.output_row.size].copy()
    # The relaxed terminal equality can ask for simultaneous charge and
    # discharge (burning round-trip losses to dump energy). A physical
    # device nets the move; the grid output is preserved and the missed
    # dump shows up as terminal drift — a known distortion of periodic
    # constraints, counted below.
    chg = spec.output_row < 0
    dis = spec.output_row > 0
    c_tot = float(u0[chg].sum())
    d_tot = float(u0[dis].sum())
    delta = min(c_tot, d_tot)
    if delta > 1e-9:
        events["simultaneous_netted"] += 1
        u0[chg] *= (c_tot - delta) / c_tot
        u0[dis] *= (d_tot - delta) / d_tot
    if u0[0] > 0.1 and demand > 0.1:
        events["forced_recharge"] += 1
    layer.stats.solves += 1
    layer.stats.iterations += sol.iterations
    layer.stats.max_kkt = max(layer.stats.max_kkt, sol.kkt_residual)
    return LayerDecision(u_applied=u0, output=float(spec.output_row @ u0),
                         cost=float(spec.cost_vec @ u0), solution=sol)


def _dump(layer: _Layer, problem):
    dump_problem(problem, layer.dump_path)
    layer.dump_path = None


def _finalize_metrics(report: SimulationReport, config: EngineConfig, data: ScenarioData):
    original = report.original_netload
    smoothed = report.smoothed_netload
    report.metrics = {
        "smoothing_rate": smoothing_rate(original, smoothed),
        "smoothing_rate_rms": rms_smoothing_rate(original, smoothed),
        "minute_fluctuation_reduction": minute_fluctuation_reduction(original, smoothed),
        "round_trip_efficiency": round_trip_efficiency(report.ledgers),
        "forecast_accuracy_L1": realized_accuracy(data.actuals, data.forecasts["L1"]),
        "forecast_accuracy_L2": realized_accuracy(data.actuals, data.forecasts["L2"]),
        "forecast_accuracy_L3": realized_accuracy(data.actuals, data.forecasts["L3"]),
    }
    total_cost = sum(report.dispatch_cost.values())
    report.economics = economic_benefit(original, smoothed, total_cost, config.tariff)
    report.economics["fess_lcoe"] = fess_lcoe(config.fess)

    soc = report.soc_traces["bess"]
    frac = soc.values / config.bess.energy_mwh
    temp = TimeSeries(soc.start_epoch, soc.dt, np.full(len(soc), config.ambient_temp_c))
    damage = battery_damage(TimeSeries(soc.start_epoch, soc.dt, frac), temp, config.battery_deg)
    soh = battery_soh(damage, config.battery_deg)
    delta_lc = battery_soh(0.0, config.battery_deg) - soh
    report.economics["bess_damage"] = damage
    report.economics["bess_soh"] = soh
    report.economics["bess_cycle_cost"] = bess_cycle_cost(delta_lc, config.battery_deg)


def write_report(report: SimulationReport, out_dir: str) -> None:
    """Serialize the metric block as JSON and every trace as CSV."""
    os.makedirs(out_dir, exist_ok=True)
    doc = {
        "controller": report.controller,
        "seed": report.seed,
        "metrics": report.metrics,
        "economics": report.economics,
        "dispatch_cost": report.dispatch_cost,
        "events": report.events,
        # Wall-clock timing is a measurement, not a result; keeping it out
        # preserves byte-identical reports for identical (config, seed).
        "solver_stats": {k: v for k, v in report.solver_stats.items()
                         if k != "wall_seconds"},
        "ledgers": {
            k: dataclasses.asdict(v) for k, v in report.ledgers.items()
        },
    }
    with open(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_csv(os.path.join(out_dir, "original.csv"), report.original_netload)
    write_csv(os.path.join(out_dir, "smoothed.csv"), report.smoothed_netload)
    for name, ts in report.layer_outputs.items():
        write_csv(os.path.join(out_dir, f"output_{name}.csv"), ts)
    for name, ts in report.soc_traces.items():
        write_csv(os.path.join(out_dir, f"soc_{name}.csv"), ts)
    for name, ts in report.band_traces.items():
        write_csv(os.path.join(out_dir, f"band_{name}.csv"), ts)
