"""Four-clock simulation loop: hourly hydrogen/methanol, quarter-hourly
compressed air, minute-level battery, second-level flywheel.

Each MPC layer is one record: its store (limits built once per run), the
store's energy as a float, the bounds rule of that store (which also gives
the terminal pattern), the ledger rows its move books, the store advance and
the pending move. L1's rule freezes the hydrogen chain's efficiencies at the
previous move's loads and bounds the tank and the methanol store over four
actuators; L2 and L3 bound one store each.

The loop takes one pass per minute. It first advances the stores whose
layer step just ended (L3, L2, then L1), then lets the due layers decide in
order L1, L2, L3, each through one routine: the band from its child's
current device state (compressed air for the hydrogen layer, battery for the
compressed-air layer, flywheel for the battery layer), the forecast window
below the parents' held outputs, the bounds, then the step law. The flywheel
then closes the minute's one-second residual samples with the law of
:func:`~hessmpc.vic.close_residual`.

Each controller has one step law, picked before the loop. The proposed
controller's law is the explicit step (:func:`~hessmpc.mpc.explicit_step`),
which needs only the step-0 forecast, bounds and band, so its layers plan
one step and their horizons only size the forecast pad. The periodic-SOC baseline drops the bands, and its law
solves each layer's stacked QP over one SOC period, at most the horizon,
with a terminal equality returning the store to its run-start energy by the
period's end, with infeasibility relaxed to minimal slack and reported. Under
``inspect`` each decision also writes one line of ``solves.jsonl`` in the
output directory: the problem the law solved, in the step form it reads,
and the applied move. :func:`assemble_report` builds the report of every
controller, the filter baseline's too, and its metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import time
from collections.abc import Callable

import numpy as np

from .config import EngineConfig, require_valid
from .devices import EssState, ess_step
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
    LAYERS, L1State, LayerDecision, LayerSpec, b_matrix, build_layer_problem, explicit_step,
    first_step_caps, freeze_efficiencies, l1_bounds, l1_dynamics,
    periodic_plan, receding_step, simple_bounds,
)
from .mtip import (
    MtipBounds, adaptive_bounds, blend_gamma, flat_bounds, marginal_cost, physical_bounds,
)
from .qp import OPTIMAL, solve_qp
from .timeseries import BLOCK, TimeSeries, ingest_csv, write_csv
from .scenario import block_means, calm_window, make_forecast, realized_accuracy, synthesize
from .vic import DT_H, close_residual


@dataclasses.dataclass
class ScenarioData:
    """Actuals plus per-layer forecasts covering the run and the L1 horizon.

    means holds, per layer, the actuals' means over the layer's steps across
    the same span: what its forecast was calibrated on, what the run's
    forecast de-bias reads (the first rows) and what the realized accuracy
    is measured against.
    """

    actuals: TimeSeries
    run_seconds: int
    forecasts: dict[str, TimeSeries]
    means: dict[str, TimeSeries]


def prepare_scenario(config: EngineConfig) -> ScenarioData:
    """Generate (or ingest) actuals and derive the three layer forecasts.

    The actuals extend one full L1 horizon past the run end so every
    receding solve sees a complete forecast window. A CSV must cover the
    run itself; only that forecast pad beyond the run end is held at the
    CSV's last value. A synthesized extreme calm without a configured window
    falls at the fractions of the run, not of the padded series, that a
    scenario of the run's own length would use. A config that
    :func:`~hessmpc.config.validate` finds in error raises ConfigError.
    """
    require_valid(config)
    run_seconds = int(round(config.scenario.duration_days * 86400.0))
    total = run_seconds + getattr(config, LAYERS[0].horizon_key) * LAYERS[0].step_s
    if config.csv_path is not None:
        raw = ingest_csv(config.csv_path)
        if raw.dt != 1.0:
            raise ConfigError(f"csv_path: '{config.csv_path}' is sampled every {raw.dt:g} s; "
                              "ingested actuals must be sampled at 1 s")
        if not raw.start_epoch.is_integer():
            # The report CSVs write whole-second epochs.
            raise ConfigError(f"csv_path: '{config.csv_path}' starts at epoch "
                              f"{float(raw.start_epoch)}, off the whole second")
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
    means = {row.layer_id: block_means(actuals, float(row.step_s)) for row in LAYERS}
    forecasts = {
        row.layer_id: make_forecast(means[row.layer_id], float(row.step_s), acc[row.layer_id],
                                    seed * 1000 + i)
        for i, row in enumerate(LAYERS, 1)
    }
    return ScenarioData(actuals=actuals, run_seconds=run_seconds, forecasts=forecasts,
                        means=means)


def soc_step_s() -> dict[str, int]:
    """Step length in seconds of each device's energy trace, in report
    order (the order round_trip_efficiency sums the ledgers in): a layer's
    store and methanol at their layer's step, the flywheel at the last's."""
    l1, l2, l3 = LAYERS
    return {l1.device: l1.step_s, "methanol": l1.step_s, l2.device: l2.step_s,
            l3.device: l3.step_s, "fess": l3.step_s}


@dataclasses.dataclass
class _LayerStats:
    """Solver statistics of one layer; each step law books its own."""

    solves: int = 0
    iterations: int = 0
    max_kkt: float = 0.0
    infeasible: int = 0


@dataclasses.dataclass
class _Layer:
    """Run state of one MPC layer and the rules of its store.

    actual_mean holds the run's actuals averaged over each layer step (the
    first rows of the scenario's means), for the forecast de-bias, and
    bias_pow the weight of the observed error at each horizon step (all
    zero when de-biasing is off). plan is the number
    of forecast steps the law reads per decision, and sizes its bounds.
    output and band are the applied output and the (lower, upper, gamma)
    band per layer step. mu_hint is the periodic baseline's warm-start dual.

    device names the store whose energy the terminal row returns; store
    holds its limits, an EssState built once per run, and energy its energy
    in MWh. L1's store is the L1State of tank and methanol energies, rebuilt
    at each advance, and its energy is None.
    rule(layer, k, fc) gives the plan's (lo, hi) bounds, the terminal
    pattern (the store's energy change per MWh moved through each input),
    the store's energy and the forced-recharge demand. rows are the ledger
    rows (device, charge input or None, discharge input) that the applied
    move books. advance(layer, i) applies the pending move to the store at
    the end of the step and records energy trace entry i. child is the layer
    whose store sets the band (None: the flywheel), gamma its blend factor;
    y is the output held until the next decision.
    """

    spec: LayerSpec
    device: str
    step_s: int
    store: L1State | EssState
    energy: float | None
    rule: Callable[..., tuple]
    rows: tuple[tuple[str, int | None, int], ...]
    advance: Callable[..., None]
    forecast: np.ndarray
    actual_mean: np.ndarray
    bias_pow: np.ndarray
    plan: int
    output: np.ndarray
    band: np.ndarray
    child: _Layer | None = None
    gamma: float = 0.0
    pending: np.ndarray | tuple[float, ...] | None = None
    y: float = 0.0
    stats: _LayerStats = dataclasses.field(default_factory=_LayerStats)
    mu_hint: float | None = None
    cost: float = 0.0

    def window(self, k: int, n: int, held) -> list[float]:
        """n forecast steps from step k, less the held parent outputs, plus
        the previous step's observed error decayed over the window, as
        Python floats (each one rounded as the array expression rounds it)."""
        fc = self.forecast[k : k + n].tolist()
        if k > 0:
            err = self.actual_mean.item(k - 1) - self.forecast.item(k - 1)
            bias = self.bias_pow[:n].tolist()
        for i, f in enumerate(fc):
            for y in held:
                f -= y
            if k > 0:
                f += err * bias[i]
            fc[i] = f
        return fc


def run(config: EngineConfig, data: ScenarioData | None = None) -> SimulationReport:
    """Run the configured controller over one scenario."""
    require_valid(config)
    if config.controller == "filter":
        from .baselines import run_filter_decomposition
        return run_filter_decomposition(config, data)
    periodic = config.controller == "periodic_soc"
    # The step law, and the single-store bounds it reads, of the controller.
    law, store_bounds = (_coupled_law, simple_bounds) if periodic else \
        (_explicit_law, _first_step_rows)

    if data is None:
        data = prepare_scenario(config)
    av = data.actuals.values
    t_start = data.actuals.start_epoch
    n_sec = data.run_seconds
    soc_steps = soc_step_s()
    # The minute loop steps at the last layer's step, and the flywheel
    # closes its seconds.
    minute = LAYERS[-1].step_s
    n_min = n_sec // minute
    tank_env = (0.0, config.tank_cap_mwh)
    # The hydrogen chain's efficiencies, frozen for each L1 step.
    eff = None

    def hydrogen_rule(layer, k, fc):
        """L1's bounds: freeze the efficiencies at the previous move's loads,
        cap the conversion at the frozen rate, and bound the tank and the
        methanol store. Its forced recharges are judged on the raw forecast."""
        nonlocal eff
        spec, u = layer.spec, layer.pending
        loads = None if u is None else (
            u[0] / spec.u_max[0] if u[0] > 0.01 * spec.u_max[0] else None,
            u[1] / spec.u_max[1] if u[1] > 0.01 * spec.u_max[1] else None,
            eff.eta_mc * u[2] / config.meoh.rated_power if u[2] > 0.01 * spec.u_max[2] else None,
            u[3] / config.turbine.rated if u[3] > 0.01 * spec.u_max[3] else None,
        )
        eff = freeze_efficiencies(config.awe, config.pemfc, config.meoh, config.turbine, loads)
        if eff.clamped:
            events["eff_clamped"] += 1
        conv_cap = config.meoh.rated_power / eff.eta_mc
        lo, hi = l1_bounds(spec, layer.store, eff, tank_env, fc, conv_cap)
        return lo, hi, b_matrix(eff)[0], layer.store.e_h, layer.forecast[k]

    def hydrogen_advance(layer, i):
        # The advance precedes the next freeze, so eff is still the one the
        # pending move was planned with.
        layer.store = l1_dynamics(layer.store, layer.pending, layer.spec.dt_h, eff, tank_env)
        soc_tr["hydrogen"][i] = layer.store.e_h
        soc_tr["methanol"][i] = layer.store.e_m

    def store_rule(layer, k, fc):
        st, e = layer.store, layer.energy
        return (*store_bounds(layer.spec, st, e, layer.plan), (st.eta_c, -1.0 / st.eta_d),
                e, fc[0])

    def store_advance(layer, i):
        c, d = layer.pending
        layer.energy = ess_step(layer.store, layer.energy, float(c), float(d), layer.spec.dt_h)
        soc_tr[layer.device][i] = layer.energy

    specs = config.layer_specs()
    layers = []
    for row in LAYERS:
        dev, step_s = row.device, row.step_s
        if dev == "hydrogen":
            store, energy = L1State(e_h=config.tank_init_frac * config.tank_cap_mwh,
                                    e_m=config.meoh_init_mwh), None
            rule, advance = hydrogen_rule, hydrogen_advance
            rows = ((dev, 0, 1), ("methanol", None, 3))
        else:
            store, energy = getattr(config, dev).make_state()
            rule, rows, advance = store_rule, ((dev, 0, 1),), store_advance
        spec = specs[row.layer_id]
        n = n_sec // step_s
        layers.append(_Layer(
            spec=spec, device=dev, step_s=step_s, store=store, energy=energy, rule=rule,
            rows=rows, advance=advance,
            forecast=data.forecasts[row.layer_id].values,
            actual_mean=data.means[row.layer_id].values[:n],
            bias_pow=config.forecast_bias_decay ** np.arange(1, spec.horizon + 1),
            plan=periodic_plan(spec, config.baseline.soc_period_h) if periodic else 1,
            output=np.zeros(n),
            band=np.zeros((n, 3)),
        ))
    l1, l2, l3 = layers
    l1.child, l2.child = l2, l3
    fess, e_fess = config.fess_state()
    e_init = {"hydrogen": l1.store.e_h, "methanol": l1.store.e_m, "caes": l2.energy,
              "bess": l3.energy, "fess": e_fess}

    # Marginal costs drive the band blending; the flywheel's uses its own
    # dispatch price with a unit cost weight. The periodic baseline drops
    # bands.
    mtip_cfg = config.mtip
    if not periodic:
        lam = [marginal_cost(layer.spec) for layer in layers] + [config.c_l4]
        for layer, lam_layer, lam_child in zip(layers, lam, lam[1:]):
            layer.gamma = blend_gamma(lam_layer, lam_child, mtip_cfg.kappa, mtip_cfg.chi_th)

    inject_tr = np.zeros(n_sec)
    resid_tr = np.zeros(n_sec)
    # Entry 0 is the run-start energy; the advances write every later one.
    soc_tr = {dev: np.full(n_sec // step + 1, e_init[dev]) for dev, step in soc_steps.items()}
    ledgers = {dev: DeviceLedger() for dev in soc_steps}
    for dev, st in (("caes", l2.store), ("bess", l3.store), ("fess", fess)):
        ledgers[dev].eta_c, ledgers[dev].eta_d = st.eta_c, st.eta_d
    events = {
        "band_clamped": 0, "band_dropped": 0, "eff_clamped": 0,
        "forced_recharge": 0, "coupling_slack": 0, "simultaneous_netted": 0,
    }
    vic = config.vic

    def layer_band(layer, k) -> MtipBounds | None:
        """Band of ``layer`` at step k: its child's physical band, clipped to
        the child's power cap and blended by the cost sigmoid; traced. None
        under the periodic baseline, which drops bands."""
        if periodic:
            return None
        child = layer.child
        if child is None:
            # The flywheel's micro forecast holds the minute's forecast, so
            # its fluctuation is zero and the band has the flat form.
            phy = flat_bounds(fess, e_fess, DT_H, minute)
            cap = fess.power_cap
        else:
            n = layer.step_s // child.step_s
            xi = child.forecast[k * n : (k + 1) * n] - layer.forecast[k]
            phy = physical_bounds(xi, child.store, child.energy, child.spec.dt_h)
            cap = child.store.power_cap
        lo = max(phy[0], -cap)
        hi = min(phy[1], cap)
        if lo > hi:
            # A band the cap clip leaves crossed (it lies wholly beyond
            # the cap) collapses to its midpoint.
            lo = hi = 0.5 * (lo + hi)
        b = adaptive_bounds((lo, hi), layer.gamma, mtip_cfg.eps_db)
        layer.band[k] = (b.r_lower, b.r_upper, b.gamma)
        return b

    def decide(layer, k, held):
        """Decide step k of ``layer`` below the held parent outputs: band,
        forecast window, bounds, then the law. Record the move for the
        store's next advance, book output, ledger and cost, and under
        ``inspect`` write the decision's line of the solve trace."""
        band = layer_band(layer, k)
        fc = layer.window(k, layer.plan, held)
        lo, hi, pattern, energy, demand = layer.rule(layer, k, fc)
        terminal = (np.array(pattern) * layer.spec.dt_h, e_init[layer.device] - energy,
                    demand) if periodic else None
        dec = law(layer, fc, lo, hi, band, terminal, events)
        if trace is not None:
            trace.write(_solve_line(layer.spec, t_start + k * layer.step_s, fc, lo, hi,
                                    band, terminal, dec))
        u = layer.pending = dec.u_applied
        dt_h = layer.spec.dt_h
        layer.output[k] = layer.y = dec.output
        for dev, charge, discharge in layer.rows:
            if charge is not None:
                ledgers[dev].charged_mwh += u[charge] * dt_h
            ledgers[dev].discharged_mwh += u[discharge] * dt_h
        layer.cost += dec.cost * dt_h

    df_prev = None
    sink = contextlib.nullcontext()
    if config.inspect:
        os.makedirs(config.out_dir, exist_ok=True)
        sink = open(os.path.join(config.out_dir, "solves.jsonl"), "w", encoding="utf-8")
    wall_start = time.perf_counter()
    with sink as trace:
        # One pass per minute, plus a last pass that only closes out the
        # state advances of the final intervals.
        for m in range(n_min + 1):
            t0 = m * minute

            # Store advances for the steps just completed: L3, L2, then L1.
            if m > 0:
                for layer in reversed(layers):
                    if t0 % layer.step_s == 0:
                        layer.advance(layer, t0 // layer.step_s)
            soc_tr["fess"][m] = e_fess
            if m == n_min:
                break

            # The due layers decide, top down, each below its parents' outputs.
            held = []
            for layer in layers:
                if t0 % layer.step_s == 0:
                    decide(layer, t0 // layer.step_s, held)
                held.append(layer.y)

            # Second-scale flywheel closure, one kernel call per minute.
            t1 = t0 + minute
            r_arr = av[t0:t1] - (l1.y + l2.y + l3.y)
            inject, e_fess, df_prev = close_residual(r_arr.tolist(), e_fess, df_prev, vic, fess)
            inject_tr[t0:t1] = inject
            np.subtract(r_arr, inject_tr[t0:t1], out=resid_tr[t0:t1])
    wall = time.perf_counter() - wall_start

    # Each side's samples are gathered, summed and freed before the other's.
    ledgers["fess"].discharged_mwh = float(inject_tr[inject_tr > 0.0].sum()) * DT_H
    ledgers["fess"].charged_mwh = float(-inject_tr[inject_tr < 0.0].sum()) * DT_H
    jcost = {layer.spec.layer_id: layer.cost for layer in layers}
    jcost["L4"] = config.c_l4 * float(np.abs(inject_tr).sum()) * DT_H

    # L1 decides at t = 0 of every valid run, so eff holds its last freeze.
    ledgers["hydrogen"].eta_c = eff.eta_hc
    ledgers["hydrogen"].eta_d = eff.eta_hd
    ledgers["methanol"].eta_c = eff.eta_hc * eff.eta_mc
    ledgers["methanol"].eta_d = eff.eta_md

    closure = _closure_gap(av, layers, inject_tr, resid_tr)
    if closure > 1e-9:
        raise LedgerClosureError(f"residual ledger mismatch {closure} MW")

    report = assemble_report(
        config.controller, config, data, resid_tr,
        {**{layer.spec.layer_id: (layer.step_s, layer.output) for layer in layers},
         "L4": (1, inject_tr)},
        soc_tr, ledgers, jcost,
        {layer.spec.layer_id: dataclasses.asdict(layer.stats) for layer in layers}, events,
    )
    report.solver_stats["wall_seconds"] = {"total": wall}
    if not periodic:
        for layer in layers:
            for col, part in enumerate(("lower", "upper", "gamma")):
                report.band_traces[f"{layer.spec.layer_id}_{part}"] = TimeSeries(
                    t_start, float(layer.step_s), layer.band[:, col]
                )
    return report


def assemble_report(controller: str, config: EngineConfig, data: ScenarioData, smoothed,
                    outputs, soc, ledgers, cost, stats, events) -> SimulationReport:
    """The report of one run over the scenario's actuals, with its metrics.

    smoothed is the net load left after every layer. outputs maps each layer
    to its (step in seconds, output per step); soc and ledgers map each
    device to its energy trace, one entry per :func:`soc_step_s` step, and
    its ledger, whose initial and final energies are set from the trace's
    ends. Layers and devices are taken in report order.
    """
    t0 = data.actuals.start_epoch
    soc_steps = soc_step_s()
    for dev in soc_steps:
        ledgers[dev].initial_energy = float(soc[dev][0])
        ledgers[dev].final_energy = float(soc[dev][-1])
    report = SimulationReport(
        controller=controller,
        seed=config.scenario.seed,
        original_netload=TimeSeries(t0, 1.0, data.actuals.values[: data.run_seconds]),
        smoothed_netload=TimeSeries(t0, 1.0, smoothed),
        layer_outputs={name: TimeSeries(t0, float(step), out)
                       for name, (step, out) in sorted(outputs.items())},
        soc_traces={dev: TimeSeries(t0, float(step), soc[dev]) for dev, step in soc_steps.items()},
        ledgers={dev: ledgers[dev] for dev in soc_steps},
        dispatch_cost=cost,
        solver_stats=stats,
        events=events,
    )
    _finalize_metrics(report, config, data)
    return report


def _closure_gap(av, layers, inject_tr, resid_tr) -> float:
    """Largest |actuals less every layer's held output and the flywheel's
    injection, less the residual trace| over the run (0.0 for an empty
    run): the ledger closure, reconstructed in blocks of whole L1 steps
    (the run is whole L1 steps, and each layer's step divides L1's). max is
    exact, so the blocks' maxima give the bits of the whole run's."""
    n = resid_tr.size
    step = LAYERS[0].step_s
    block = BLOCK // step * step
    gaps = [0.0]
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        recon = av[lo:hi].copy()
        for layer in layers:
            s = layer.step_s
            recon -= np.repeat(layer.output[lo // s : hi // s], s)
        recon -= inject_tr[lo:hi]
        recon -= resid_tr[lo:hi]
        gaps.append(np.abs(recon, out=recon).max())
    return float(np.max(gaps))


def _first_step_rows(spec: LayerSpec, store: EssState, energy: float,
                     n: int) -> tuple[tuple, tuple]:
    """Step-0 (charge, discharge) floor and cap rows of a single-store layer
    at the energy (MWh), whose plan n is one step."""
    return ((0.0, 0.0),), (first_step_caps(spec, store, energy),)


def _explicit_law(layer: _Layer, fc, lo, hi, band, terminal, events) -> LayerDecision:
    """The proposed controller's law: the explicit step on the step-0
    forecast, bounds and band (``terminal``, the periodic law's, is None). A
    dropped band counts once in each of ``band_clamped`` (a band the layer
    could not apply as offered), ``band_dropped`` and the layer's
    infeasible solves."""
    spec = layer.spec
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
    change over one step per MW through each input; the terminal row asks
    the planned steps to change the store's energy by ``target`` MWh. A
    charging move while the forecast residual ``demand`` asks for discharge
    is a forced recharge. A solve that stops short of optimal raises
    QpInfeasible.
    """
    spec = layer.spec
    pattern, target, demand = terminal
    st = build_layer_problem(spec, fc, band)
    sol = solve_qp(st, lo, hi, terminal=(pattern, target), mu_hint=layer.mu_hint)
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
    if delta > 0.0:
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


def _solve_line(spec: LayerSpec, t, fc, lo, hi, band, terminal, dec: LayerDecision) -> str:
    """One line of ``solves.jsonl``: the decision of a layer at epoch t.

    It holds the step form of the problem the law solved on the window fc
    (the blocks of :class:`~hessmpc.qp.StepStructure` but the band rows),
    the input boxes lo/hi with one row per planned step, the band
    ``[lower, upper]`` as offered (null when none was), the terminal row
    ``[pattern, target]`` (null without one), whether the band was dropped,
    and the applied move u. Standard JSON: a non-finite value raises."""
    st = build_layer_problem(spec, fc, band)
    rows = (st.n_steps, -1)
    return json.dumps({
        "layer": spec.layer_id, "t": t, "c_y": st.c_y.tolist(), "q": float(st.q),
        "price": st.price.tolist(), "rhat": st.rhat.tolist(),
        "var_lower": np.reshape(lo, rows).tolist(), "var_upper": np.reshape(hi, rows).tolist(),
        "band": None if band is None else [band.r_lower, band.r_upper],
        "terminal": None if terminal is None else [terminal[0].tolist(), terminal[1]],
        "dropped": dec.band_dropped, "u": np.asarray(dec.u_applied, dtype=float).tolist(),
    }, allow_nan=False) + "\n"


def _finalize_metrics(report: SimulationReport, config: EngineConfig, data: ScenarioData):
    original = report.original_netload
    smoothed = report.smoothed_netload
    report.metrics = {
        "smoothing_rate": smoothing_rate(original, smoothed),
        "smoothing_rate_rms": rms_smoothing_rate(original, smoothed),
        "minute_fluctuation_reduction": minute_fluctuation_reduction(original, smoothed),
        "round_trip_efficiency": round_trip_efficiency(report.ledgers),
        **{f"forecast_accuracy_{layer}": realized_accuracy(data.means[layer], fc)
           for layer, fc in data.forecasts.items()},
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
    report.economics["bess_cycle_cost"] = bess_cycle_cost(
        delta_lc, config.battery_deg, config.bess.energy_mwh)


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
    traces = {
        "original": report.original_netload,
        "smoothed": report.smoothed_netload,
        **{f"output_{name}": ts for name, ts in report.layer_outputs.items()},
        **{f"soc_{name}": ts for name, ts in report.soc_traces.items()},
        **{f"band_{name}": ts for name, ts in report.band_traces.items()},
    }
    # One write_csv call per time grid, so each grid's epochs are formatted once.
    grids = {}
    for name, ts in traces.items():
        grid = grids.setdefault((ts.start_epoch, ts.dt, len(ts)), {})
        grid[os.path.join(out_dir, f"{name}.csv")] = ts
    for files in grids.values():
        write_csv(files)
