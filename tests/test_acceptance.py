"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``criterion N: PASS`` line on success (visible with
``pytest -s``); a failure prints FAIL through the assertion itself. The
heavy multi-day simulations run here and nowhere else.
"""

import dataclasses
import json
import time

import numpy as np

import goldens
from hessmpc import EngineConfig, run
from hessmpc.devices import (
    BatteryDegParams, EssState, battery_soh, stress_factors,
    HHV_VOLTAGE, LHV_VOLTAGE,
)
from hessmpc.devices.battery import battery_damage
from hessmpc.engine import prepare_scenario
from hessmpc.qp import OPTIMAL
from hessmpc.scenario import ARCHETYPES
from hessmpc.timeseries import TimeSeries
from oracles import QpProblem, solve_dense
from test_mtip import oracle_gap


def _report(name: str, ok: bool, detail: str = ""):
    print(f"{name}: {'PASS' if ok else 'FAIL'}{'  (' + detail + ')' if detail else ''}")
    assert ok, f"{name} failed: {detail}"


def _config(days, seed, archetype, accuracy=0.9):
    cfg = EngineConfig()
    cfg.scenario.duration_days = days
    cfg.scenario.seed = seed
    cfg.scenario.archetype = archetype
    cfg.scenario.forecast_accuracy = {k: accuracy for k in ("L1", "L2", "L3")}
    return cfg


def _check_envelopes(cfg, rep):
    checks = {
        "hydrogen": (0.0, cfg.tank_cap_mwh),
        "caes": (cfg.caes.envelope_frac[0] * cfg.caes.energy_mwh,
                 cfg.caes.envelope_frac[1] * cfg.caes.energy_mwh),
        "bess": (cfg.bess.envelope_frac[0] * cfg.bess.energy_mwh,
                 cfg.bess.envelope_frac[1] * cfg.bess.energy_mwh),
        "fess": cfg.fess.energy_envelope,
    }
    for name, (lo, hi) in checks.items():
        vals = rep.soc_traces[name].values
        if vals.min() < lo - 1e-9 or vals.max() > hi + 1e-9:
            return name
    if rep.soc_traces["methanol"].values.min() < -1e-9:
        return "methanol"
    return None


def test_criterion_1_mtip_oracle_equivalence():
    rng = np.random.default_rng(20240101)
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for _ in range(1000):
        j = int(rng.integers(2, 97))
        dt = float(rng.choice([1.0 / 3600.0, 1.0 / 60.0, 0.25]))
        cap = float(rng.uniform(1.0, 100.0))
        e0 = float(rng.uniform(0.0, cap))
        eta_c = float(rng.uniform(0.5, 1.0))
        eta_d = float(rng.uniform(0.5, 1.0))
        xi = rng.normal(0.0, rng.uniform(0.1, 30.0), j)
        if rng.random() < 0.25:
            xi = np.zeros(j)
        st = EssState(envelope=(0.0, cap), power_cap=1e9, eta_c=eta_c, eta_d=eta_d)
        gap = oracle_gap(xi, st, e0, dt)
        if gap is not None:
            checked += 1
            worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (MTIP oracle equivalence)",
        worst < 1e-6 and elapsed < 30.0,
        f"worst gap {worst:.2e} MW over {checked} banded instances, {elapsed:.1f} s",
    )


def test_criterion_2_qp_matches_projected_gradient():
    from test_qp import projected_gradient_box

    rng = np.random.default_rng(77)
    worst = 0.0
    optimal = 0
    total = 0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n))
        h = a.T @ a + np.diag(rng.uniform(0.1, 1.0, n))
        f = rng.normal(scale=5.0, size=n)
        lo = rng.uniform(-3.0, 0.0, n)
        hi = lo + rng.uniform(0.5, 4.0, n)
        ref, converged = projected_gradient_box(h, f, lo, hi)
        if not converged:
            continue
        total += 1
        s = solve_dense(QpProblem(hessian=h, f=f, var_lower=lo, var_upper=hi))
        if s.status == OPTIMAL:
            optimal += 1
        worst = max(worst, float(np.abs(s.u_star - ref).max()))
    _report(
        "criterion 2 (QP vs projected-gradient oracle)",
        worst < 1e-5 and optimal == total,
        f"worst gap {worst:.2e}, {optimal}/{total} optimal",
    )


def test_criterion_3_soc_safety_full_grid():
    violations = []
    clamped = 0
    dropped = 0
    for archetype in ARCHETYPES:
        for seed in range(10):
            cfg = _config(7.0, seed, archetype)
            rep = run(cfg)
            bad = _check_envelopes(cfg, rep)
            if bad is not None:
                violations.append((archetype, seed, bad))
            clamped += rep.events["band_clamped"]
            dropped += rep.events["band_dropped"]
    _report(
        "criterion 3 (SOC safety, 4 archetypes x 10 seeds x 7 days)",
        not violations,
        f"violations={violations or 'none'}, clamped-band events={clamped}, "
        f"dropped-band events={dropped}",
    )


def test_criterion_4_smoothing_at_desk_scale():
    cfg = _config(7.0, 42, "balanced", accuracy=0.9)
    rep = run(cfg)
    rate = rep.metrics["smoothing_rate"]
    _report(
        "criterion 4 (balanced 7-day smoothing >= 0.90 at 90% accuracy)",
        rate >= 0.90,
        f"smoothing_rate={rate:.4f}",
    )


def test_criterion_5_robustness_ordering():
    seeds = (42, 7)
    levels = (0.95, 0.9, 0.8, 0.7)
    ok = True
    detail = []
    for seed in seeds:
        rates = []
        for acc in levels:
            cfg = _config(7.0, seed, "balanced", accuracy=acc)
            rates.append(run(cfg).metrics["smoothing_rate"])
        detail.append(f"seed {seed}: " + ", ".join(f"{r:.4f}" for r in rates))
        ok &= all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))
        ok &= rates[-1] >= 0.75
    _report(
        "criterion 5 (robustness ordering over accuracies)",
        ok, "; ".join(detail),
    )


def test_criterion_6_baseline_ordering():
    ok = True
    detail = []
    deficit_events = 0
    for archetype in ARCHETYPES:
        cfg = _config(2.0, 13, archetype)
        data = prepare_scenario(cfg)
        rep_p = run(cfg, data)
        rep_b = run(dataclasses.replace(cfg, controller="periodic_soc"), data)
        sp = rep_p.metrics["smoothing_rate"]
        sb = rep_b.metrics["smoothing_rate"]
        detail.append(f"{archetype}: proposed {sp:.4f} vs periodic {sb:.4f}")
        ok &= sp >= sb
        if archetype == "deficit":
            deficit_events = (rep_b.events["forced_recharge"]
                              + rep_b.events["coupling_slack"])
    ok &= deficit_events >= 1
    _report(
        "criterion 6 (proposed >= periodic baseline on all archetypes)",
        ok, "; ".join(detail) + f"; deficit periodic events={deficit_events}",
    )


def test_criterion_7_performance_budget():
    cfg_h = _config(1.0 / 24.0, 3, "balanced")
    data_h = prepare_scenario(cfg_h)
    hour_wall = min(
        run(cfg_h, data_h).solver_stats["wall_seconds"]["total"]
        for _ in range(3)
    )
    cfg_d = _config(1.0, 3, "balanced")
    data_d = prepare_scenario(cfg_d)
    day_wall = run(cfg_d, data_d).solver_stats["wall_seconds"]["total"]
    _report(
        "criterion 7 (one hour <= 0.02 s, one day <= 0.5 s)",
        hour_wall <= 0.02 and day_wall <= 0.5,
        f"hour={hour_wall * 1000:.1f} ms, day={day_wall:.3f} s",
    )


def test_criterion_8_round_trip_band():
    # Extreme calm with a stocked methanol store and a load heavy enough to
    # exceed the fuel-cell cap exercises every device: surplus charging
    # before the window, then battery, compressed air, hydrogen and methanol
    # discharge chains inside it.
    cfg = _config(3.0, 21, "extreme_calm")
    cfg.meoh_init_mwh = 2000.0
    cfg.scenario.load_peak = 320.0
    rep = run(cfg)
    eta = rep.metrics["round_trip_efficiency"]
    active = [k for k, led in rep.ledgers.items()
              if led.charged_mwh + led.discharged_mwh > 1.0]
    _report(
        "criterion 8 (comprehensive round-trip in [0.45, 0.70])",
        0.45 <= eta <= 0.70 and len(active) == 5,
        f"eta={eta:.4f}, active devices={sorted(active)}",
    )


def test_criterion_9_device_goldens_and_unit_consistency():
    gold = goldens.load("device_curves.json")
    fresh = goldens.compute_device_curves()
    identical = json.dumps(gold, sort_keys=True) == json.dumps(fresh, sort_keys=True)
    lhv_ok = abs(LHV_VOLTAGE - 1.2535) < 1e-3
    hhv_ok = abs(HHV_VOLTAGE - 1.4818) < 1e-3
    # A stack at exactly the break-even voltages converts at unit efficiency.
    eta_c_unit = 1.0 * LHV_VOLTAGE / LHV_VOLTAGE
    eta_d_unit = HHV_VOLTAGE / HHV_VOLTAGE
    _report(
        "criterion 9 (device golden files and break-even voltages)",
        identical and lhv_ok and hhv_ok
        and abs(eta_c_unit - 1.0) < 1e-3 and abs(eta_d_unit - 1.0) < 1e-3,
        f"bit-identical={identical}, LHV V={LHV_VOLTAGE:.4f}, HHV V={HHV_VOLTAGE:.4f}",
    )


def test_criterion_10_degradation_properties():
    p = BatteryDegParams()
    temps = lambda n: TimeSeries(0.0, 60.0, np.full(n, p.T_ref))

    def cyclic(k):
        vals = np.array([0.4, 0.9] * k + [0.4])
        ts = TimeSeries(0.0, 60.0, vals)
        total = battery_damage(ts, temps(len(vals)), p)
        span = (len(vals) - 1) * 60.0
        s_T, s_t, s_tau, _ = stress_factors(p.T_ref, span, float(vals.mean()), 1.0, p)
        return total - s_t * s_tau * s_T

    one = cyclic(1)
    linear_ok = all(
        abs(cyclic(k) - k * one) <= 1e-9 * abs(k * one) for k in (2, 5, 11)
    )
    grid = np.linspace(0.0, 2.0, 4001)
    vals = [battery_soh(float(d), p) for d in grid]
    monotone_ok = all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    _report(
        "criterion 10 (rainflow linearity and SOH monotonicity)",
        linear_ok and monotone_ok,
        f"linearity={linear_ok}, monotone={monotone_ok}",
    )
