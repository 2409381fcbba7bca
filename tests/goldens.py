"""Golden-file helpers: frozen device curves, an engine regression point,
the fill-order and coupled (terminal-row) solvers' outputs on seeded
problems, the sha256 of seeded scenarios and their forecasts, and the
sha256 of every report file on seeded runs.

After an intentional model change, regenerate the goldens it moves, and
only those, with ``python tests/goldens.py NAME.json ...``; the test suite
compares against the committed JSON bit-for-bit for the device curves, the
two solvers, the scenarios and the report files, and to tight relative
tolerance for the engine regression.
"""

import json
import os

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

AWE_GRID = [0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
PEMFC_GRID = [0.08, 0.1, 0.3, 0.5, 0.8, 1.0, 1.2]
MEOH_GRID = [0.2, 0.4, 0.6, 0.85, 1.0]
TURBINE_GRID = [0.35, 0.6, 0.85, 1.0]
SOH_GRID = [0.1, 0.5, 1.0]


def compute_device_curves() -> dict:
    from hessmpc.devices import (
        AweParams, BatteryDegParams, MeohParams, PemfcParams, TurbineParams,
        awe_cell_voltage, awe_hydrogen, battery_soh, faradaic_efficiency,
        meoh_conversion, pemfc_discharge_efficiency, pemfc_voltage,
        turbine_efficiency,
    )

    awe = AweParams()
    pemfc = PemfcParams()
    meoh = MeohParams()
    turbine = TurbineParams()
    deg = BatteryDegParams()

    out: dict = {"awe": [], "pemfc": [], "meoh": [], "turbine": [], "soh": []}
    for j in AWE_GRID:
        i = j * awe.area
        rate, eta = awe_hydrogen(i, awe)
        out["awe"].append({
            "j": j,
            "voltage": awe_cell_voltage(i, awe),
            "faradaic": faradaic_efficiency(i, awe),
            "rate_kg_h": rate,
            "eta_charge": eta,
        })
    for j in PEMFC_GRID:
        i = j * pemfc.area
        out["pemfc"].append({
            "j": j,
            "voltage": pemfc_voltage(i, pemfc),
            "eta_discharge": pemfc_discharge_efficiency(i, pemfc),
        })
    for rho in MEOH_GRID:
        x, s, eta = meoh_conversion(rho, meoh)
        out["meoh"].append({"rho": rho, "x_h": x, "s_hm": s, "eta_hm": eta})
    for x in TURBINE_GRID:
        out["turbine"].append({"x": x, "eta": turbine_efficiency(x, turbine)})
    for d in SOH_GRID:
        out["soh"].append({"d": d, "soh": battery_soh(d, deg)})
    return out


def compute_engine_regression() -> dict:
    from hessmpc import EngineConfig, run

    config = EngineConfig()
    config.scenario.duration_days = 1.0
    config.scenario.archetype = "balanced"
    config.scenario.seed = 3
    report = run(config)
    return {
        "y1_hourly": report.layer_outputs["L1"].values.tolist(),
        "y2_first8": report.layer_outputs["L2"].values[:8].tolist(),
        "metrics": {
            k: report.metrics[k]
            for k in (
                "smoothing_rate", "smoothing_rate_rms",
                "minute_fluctuation_reduction", "round_trip_efficiency",
            )
        },
        "final_soc": {k: ts.values[-1] for k, ts in report.soc_traces.items()},
    }


def coupled_cases():
    """Seeded stacked layer problems with a terminal-energy row, built the
    way the periodic-SOC baseline builds them but over the full horizon.

    Yields (name, structure, lo, hi, terminal, mu_hint); terminal is
    (pattern, k_end, target), whose row binds the steps before k_end, the
    steps the baseline plans. The cases cover L1 (four actuators,
    always the general fill-order path), L2 and L3 with targets that push a
    trial dual's price negative, targets beyond the box's reach (the slack
    branch), warm-start hints and short horizons.
    """
    import numpy as np

    from hessmpc import EngineConfig
    from hessmpc.mpc import (
        L1State, build_layer_problem, freeze_efficiencies, l1_bounds,
        simple_bounds,
    )

    config = EngineConfig()
    for i in range(42):
        rng = np.random.default_rng(1000 + i)
        layer = ("L1", "L2", "L3")[i % 3]
        short = i % 2 == 1
        config.n1, config.n2, config.n3 = (24, 16, 12) if short else (240, 96, 60)
        spec = config.layer_specs()[layer]
        n = spec.horizon
        k_end = int(rng.integers(1, n + 1)) if i % 4 == 3 else n
        scale = float(rng.choice([5.0, 30.0, 90.0]))
        fc = rng.normal(float(rng.normal(0.0, scale)), scale, n)
        if layer == "L1":
            eff = freeze_efficiencies(config.awe, config.pemfc, config.meoh, config.turbine)
            cap = config.tank_cap_mwh
            state = L1State(e_h=float(rng.uniform(0.02, 0.98)) * cap,
                            e_m=float(rng.uniform(0.0, 50.0)))
            conv_cap = config.meoh.rated_power / eff.eta_mc
            lo, hi = l1_bounds(spec, state, eff, (0.0, cap), fc, conv_cap)
            pattern = np.array([eff.eta_hc, -1.0 / eff.eta_hd, -1.0, 0.0])
        else:
            store = config.caes if layer == "L2" else config.bess
            st, _ = store.make_state()
            lo, hi = simple_bounds(spec, st, st.energy_at(float(rng.uniform(0.0, 1.0))), n)
            pattern = np.array([st.eta_c, -1.0 / st.eta_d])
        # The reach of the row is summed over the whole horizon, zero rows
        # after k_end included, as the targets were first drawn.
        a2 = np.zeros((n, pattern.size))
        a2[:k_end] = pattern * spec.dt_h
        h_max = float((np.where(a2 > 0, hi, lo) * a2).sum())
        h_min = float((np.where(a2 > 0, lo, hi) * a2).sum())
        kind = i % 7
        if kind == 5:
            b = h_max + float(rng.uniform(0.0, 0.2)) * (h_max - h_min)
        elif kind == 6:
            b = h_min - float(rng.uniform(0.0, 0.2)) * (h_max - h_min)
        else:
            # Near an edge of the reachable range the dual must grow large,
            # which turns a price negative and leaves the two-input closed form.
            frac = (0.5, 0.9, 0.98, 0.02, 0.1)[kind]
            b = h_min + (frac + float(rng.uniform(-0.02, 0.02))) * (h_max - h_min)
        hint = float(rng.normal(0.0, 2.0)) if i % 5 == 4 else None
        yield (f"{i:02d}-{layer}-n{n}-k{k_end}", build_layer_problem(spec, fc), lo, hi,
               (pattern * spec.dt_h, k_end, b), hint)


def compute_coupled_solver() -> dict:
    import hashlib

    import numpy as np

    from hessmpc.qp import solve_qp
    from oracles import split_steps

    out = {}
    for name, st, lo, hi, (pattern, k_end, b), hint in coupled_cases():
        # The row binds the steps before k_end; the rest solve apart.
        head, tail = split_steps(st, lo, hi, k_end)
        sol = solve_qp(*head, (pattern, b), mu_hint=hint)
        u = sol.u_star
        if k_end < st.n_steps:
            u = np.concatenate([u, solve_qp(*tail).u_star])
        out[name] = {
            "u_sha256": hashlib.sha256(u.tobytes()).hexdigest(),
            "iterations": sol.iterations,
            "status": sol.status,
            "coupling_slack": sol.coupling_slack,
            "mu_hint": sol.mu_hint,
        }
    return out


def fill_order_cases():
    """Seeded single problems for the fill-order solve (qp._solve_steps),
    drawn to hit its tie rules: one-step and short horizons, forecasts with
    exact and negative zeros, integer values that tie with the bounds, band
    edges at zero, steps without room, zero and negative prices, and output rows with one, two
    or three active inputs.

    Yields (name, structure, lo, hi, extra); extra, when not None, shifts
    the structure's price row.
    """
    import numpy as np

    from hessmpc.qp import StepStructure

    rows = ([-1.0, 1.0], [1.0, -1.0], [-1.0, 1.0, 0.0, 1.0], [0.5, -2.0, 1.0],
            [1.0, 0.0], [-0.0, 1.0, -3.0])
    for i in range(240):
        rng = np.random.default_rng(5000 + i)
        c_y = np.array(rows[i % len(rows)])
        nu = c_y.size
        n = int(rng.choice([1, 1, 1, 2, 3, 12]))
        rhat = rng.normal(0.0, 30.0, n) * (rng.random(n) < 0.7)
        rhat = np.where(rng.random(n) < 0.3, -0.0, np.round(rhat, int(rng.integers(0, 2))))
        lo = np.round(rng.uniform(0.0, 5.0, (n, nu))) * (rng.random((n, nu)) < 0.3)
        hi = lo + np.round(rng.uniform(0.0, 60.0, (n, nu))) * (rng.random((n, nu)) < 0.8)
        price = rng.choice([-1.0, 1.0], nu) * rng.choice([0.0, 0.0875, 0.3, 1.0], nu)
        band_lo = np.full(n, -np.inf)
        band_hi = np.full(n, np.inf)
        if i % 3 == 1:
            band_lo[0] = -float(rng.choice([0.0, np.round(abs(rng.normal(0.0, 10.0)))]))
            band_hi[0] = float(rng.choice([0.0, np.round(abs(rng.normal(0.0, 10.0)))]))
        st = StepStructure(
            c_y=c_y, q=float(rng.choice([0.1, 0.15, 0.27])), rhat=rhat,
            price=price, band_lo=band_lo, band_hi=band_hi,
        )
        extra = None
        if i % 2:
            extra = float(np.round(rng.normal(0.0, 3.0), 1)) * rng.choice(
                [-1.2, -0.25, 0.2, 0.9], nu)
        yield f"{i:03d}-nu{nu}-n{n}", st, lo, hi, extra
    # One-step problems whose best candidate is +0.0 against a window edge
    # of -0.0 (forecast -0.0, band edge 0.0): a clip kernel with the other
    # tie rule returns the other zero.
    ties = (
        ([1.0, -1.0], 1.0, [3.0, 1.0], [3.0, 41.6], [0.3, 0.0], -6.90381514189185, None),
        ([-1.0, 1.0, 0.0, 1.0], 0.1, [0.0] * 4, [49.0, 8.0, 51.0, 9.0],
         [-0.0, -0.0, -0.0, 0.0], -1.7432085204538281,
         [0.0, -0.16325186370483358, 0.0, 0.13060149096386686]),
        ([-0.0, 1.0, -3.0], 0.15, [0.0] * 3, [5.1, 21.7, 51.5], [0.3, -0.0, -0.0],
         -6.143749289014755, [-0.005893890262971486, -0.005893890262971486, 0.0]),
    )
    for j, (c_y, q, lo, hi, price, band_lo, extra) in enumerate(ties):
        st = StepStructure(
            c_y=np.array(c_y), q=q, rhat=np.array([-0.0]), price=np.array(price),
            band_lo=np.array([band_lo]), band_hi=np.array([0.0]),
        )
        extra = None if extra is None else np.array(extra)
        yield f"tie{j}-nu{len(c_y)}-n1", st, np.array([lo]), np.array([hi]), extra


def compute_fill_order() -> dict:
    import dataclasses
    import hashlib

    from hessmpc.qp import _solve_steps

    out = {}
    for name, st, lo, hi, extra in fill_order_cases():
        if extra is not None:
            st = dataclasses.replace(st, price=st.price + extra)
        u, y, ok = _solve_steps(st, lo, hi)
        out[name] = [hashlib.sha256(u.tobytes() + y.tobytes()).hexdigest()[:32], ok]
    return out


#: Forecast step in seconds and accuracy per layer of the scenario golden.
SCENARIO_FORECASTS = {"L1": (3600.0, 0.9), "L2": (900.0, 0.85), "L3": (60.0, 0.95)}


def scenario_cases():
    """Seeded scenario configs whose actuals and forecasts are pinned byte
    for byte: every archetype, two seeds, and 0.3, 1 and 2.5 days, so that
    runs end inside an hour (0.3 d) and inside a day (0.3 d, 2.5 d); plus
    the padded lengths the benchmark synthesizes, a 2-day balanced and a
    0.25-day oversupply run with the 240 h forecast pad (seed 8).

    Yields (name, ScenarioConfig).
    """
    from hessmpc.scenario import ARCHETYPES, ScenarioConfig

    cases = [(archetype, seed, days) for archetype in ARCHETYPES
             for seed in (1, 104729) for days in (0.3, 1.0, 2.5)]
    cases += [("balanced", 8, 12.0), ("oversupply", 8, 10.25)]
    for archetype, seed, days in cases:
        yield (f"{archetype}-s{seed}-{days}d",
               ScenarioConfig(seed=seed, duration_days=days, archetype=archetype))


def compute_scenario_digests() -> dict:
    """sha256 of ``synthesize(...).values`` per case, and of each layer's
    ``make_forecast`` values on the actuals cut to whole forecast steps."""
    import hashlib

    from hessmpc.scenario import make_forecast, synthesize
    from hessmpc.timeseries import TimeSeries

    out = {}
    for name, cfg in scenario_cases():
        actuals = synthesize(cfg)
        entry = {"actuals": hashlib.sha256(actuals.values.tobytes()).hexdigest()}
        for i, (layer, (step, acc)) in enumerate(SCENARIO_FORECASTS.items()):
            n = len(actuals) - len(actuals) % int(step)
            cut = TimeSeries(actuals.start_epoch, actuals.dt, actuals.values[:n])
            fc = make_forecast(cut, step, acc, cfg.seed * 1000 + i + 1)
            entry[layer] = hashlib.sha256(fc.values.tobytes()).hexdigest()
        out[name] = entry
    return out


def report_cases(work_dir: str):
    """Seeded runs whose report files are pinned byte for byte.

    Yields (name, config, data): data is a prepared scenario shared by the
    cases that run on the same scenario, or None. The CSV replay writes its
    input trace into ``work_dir`` first.
    """
    from hessmpc import EngineConfig
    from hessmpc.engine import prepare_scenario
    from hessmpc.scenario import synthesize
    from hessmpc.timeseries import write_csv

    def config(days, seed, archetype, **kw):
        cfg = EngineConfig(**kw)
        cfg.scenario.duration_days = days
        cfg.scenario.seed = seed
        cfg.scenario.archetype = archetype
        return cfg

    day = prepare_scenario(config(1.0, 3, "balanced"))
    yield "proposed-balanced-1d-s3", config(1.0, 3, "balanced"), day
    yield "proposed-inspect", config(1.0, 3, "balanced", inspect=True), day
    quarter = prepare_scenario(config(0.25, 8, "oversupply"))
    for controller in ("periodic_soc", "filter"):
        yield (f"{controller}-oversupply-0.25d-s8",
               config(0.25, 8, "oversupply", controller=controller), quarter)
    yield "periodic-inspect", config(0.25, 8, "oversupply", controller="periodic_soc",
                                     inspect=True), quarter
    # A second archetype for the coupled solve: the four-input L1 row, and
    # trial duals that turn a store's shifted price negative.
    yield ("periodic_soc-balanced-0.25d-s3",
           config(0.25, 3, "balanced", controller="periodic_soc"), None)
    csv_path = os.path.join(work_dir, "replay.csv")
    write_csv({csv_path: synthesize(config(0.125, 5, "deficit").scenario)})
    yield "csv-replay-3h", config(0.125, 5, "deficit", csv_path=csv_path), None


def compute_report_digests(work_dir: str) -> dict:
    """sha256 of every file each report case leaves in its output
    directory: the files ``write_report`` writes plus any solve trace."""
    import hashlib

    from hessmpc import run
    from hessmpc.engine import write_report

    out = {}
    for name, cfg, data in report_cases(work_dir):
        cfg.out_dir = os.path.join(work_dir, name)
        write_report(run(cfg, data), cfg.out_dir)
        out[name] = {}
        for fname in sorted(os.listdir(cfg.out_dir)):
            with open(os.path.join(cfg.out_dir, fname), "rb") as fh:
                out[name][fname] = hashlib.sha256(fh.read()).hexdigest()
    return out


def load(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _compute_reports() -> dict:
    import tempfile

    with tempfile.TemporaryDirectory() as work_dir:
        return compute_report_digests(work_dir)


#: How each golden file is computed, by file name.
GOLDENS = {
    "device_curves.json": compute_device_curves,
    "engine_regression.json": compute_engine_regression,
    "coupled_solver.json": compute_coupled_solver,
    "fill_order.json": compute_fill_order,
    "scenario_digests.json": compute_scenario_digests,
    "report_digests.json": _compute_reports,
}


def regenerate(names, golden_dir: str = GOLDEN_DIR) -> None:
    """Recompute and rewrite the named golden files, and only those."""
    unknown = sorted(set(names) - GOLDENS.keys())
    if unknown:
        raise ValueError(f"unknown golden: {', '.join(unknown)}")
    os.makedirs(golden_dir, exist_ok=True)
    for name in names:
        data = GOLDENS[name]()
        with open(os.path.join(golden_dir, name), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {name}")


if __name__ == "__main__":
    import sys

    if len(sys.argv) < 2:
        sys.exit("usage: python tests/goldens.py NAME.json ...\n"
                 "name the goldens an intended change moves: " + ", ".join(GOLDENS))
    regenerate(sys.argv[1:])
