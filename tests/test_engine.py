
import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldens
from hessmpc import EngineConfig, run
from hessmpc.baselines import run_filter_decomposition
from hessmpc.config import from_dict
from hessmpc.engine import _Layer, prepare_scenario, write_report
from hessmpc.mpc import LAYERS, periodic_plan
from hessmpc.errors import ConfigError
from hessmpc.scenario import ARCHETYPES
from hessmpc.timeseries import resample
from oracles import dense_problem, read_solve, write_dense


def _config(days=1.0, seed=3, archetype="balanced", **kw):
    cfg = EngineConfig(**kw)
    cfg.scenario.duration_days = days
    cfg.scenario.seed = seed
    cfg.scenario.archetype = archetype
    return cfg


@pytest.fixture(scope="module")
def day_run():
    cfg = _config()
    data = prepare_scenario(cfg)
    return cfg, data, run(cfg, data)


@pytest.mark.parametrize("controller", ["proposed", "periodic_soc", "filter"])
def test_ledger_energies_are_the_energy_trace_ends(controller):
    # Every ledger's initial and final energy is the first and last entry
    # of its device's energy trace (soc_<device>), bit for bit.
    rep = run(_config(days=2.0 / 24.0, controller=controller))
    assert list(rep.ledgers) == list(rep.soc_traces)
    for dev, led in rep.ledgers.items():
        trace = rep.soc_traces[dev].values
        got = np.array([led.initial_energy, led.final_energy])
        assert got.tobytes() == trace[[0, -1]].tobytes(), dev


def test_report_fields_populated(day_run):
    _, _, rep = day_run
    for key in ("smoothing_rate", "smoothing_rate_rms",
                "minute_fluctuation_reduction", "round_trip_efficiency"):
        assert np.isfinite(rep.metrics[key])
    for key in ("tou", "capacity", "dispatch_cost", "total"):
        assert key in rep.economics
    assert rep.solver_stats["L1"]["solves"] == 24
    assert rep.solver_stats["L2"]["solves"] == 96
    assert rep.solver_stats["L3"]["solves"] == 1440


def test_residual_identity_every_second(day_run):
    _, data, rep = day_run
    n = data.run_seconds
    recon = (
        data.actuals.values[:n]
        - np.repeat(rep.layer_outputs["L1"].values, 3600)
        - np.repeat(rep.layer_outputs["L2"].values, 900)
        - np.repeat(rep.layer_outputs["L3"].values, 60)
        - rep.layer_outputs["L4"].values
    )
    assert np.abs(recon - rep.smoothed_netload.values).max() <= 1e-9


def test_layer_table_sets_each_layer_clock(monkeypatch):
    # The layer table is the one place a layer's step is written: with L2
    # stepping every 1800 s there, the forecasts, the outputs and the
    # compressed-air trace of both MPC controllers take that grid, and
    # the ledger closes.
    import sys

    from hessmpc import mpc

    table = mpc.LAYERS
    rows = tuple(row._replace(step_s=1800) if row.layer_id == "L2" else row for row in table)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("hessmpc") \
                and getattr(module, "LAYERS", None) is table:
            monkeypatch.setattr(module, "LAYERS", rows)
    for controller in ("proposed", "periodic_soc"):
        cfg = from_dict({"controller": controller, "n1": 2, "baseline": {"soc_period_h": 2},
                         "scenario": {"duration_days": 2 / 24, "seed": 3}})
        data = prepare_scenario(cfg)
        fc = data.forecasts["L2"]
        assert (fc.dt, len(fc)) == (1800.0, (2 + 2) * 2)
        rep = run(cfg, data)
        out, soc = rep.layer_outputs["L2"], rep.soc_traces["caes"]
        assert (out.dt, len(out)) == (1800.0, 4)
        assert (soc.dt, len(soc)) == (1800.0, 5)
        assert rep.solver_stats["L2"]["solves"] == 4
        recon = data.actuals.values[: data.run_seconds] - rep.layer_outputs["L4"].values
        for layer in ("L1", "L2", "L3"):
            ts = rep.layer_outputs[layer]
            recon = recon - np.repeat(ts.values, int(ts.dt))
        assert np.abs(recon - rep.smoothed_netload.values).max() <= 1e-9


def test_soc_traces_inside_envelopes(day_run):
    cfg, _, rep = day_run
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
        assert vals.min() >= lo - 1e-9, name
        assert vals.max() <= hi + 1e-9, name
    assert rep.soc_traces["methanol"].values.min() >= -1e-9


def test_flywheel_power_saturated(day_run):
    cfg, _, rep = day_run
    assert np.abs(rep.layer_outputs["L4"].values).max() <= cfg.fess.power_cap + 1e-9


def test_engine_regression_golden(day_run):
    _, _, rep = day_run
    gold = goldens.load("engine_regression.json")
    assert np.allclose(rep.layer_outputs["L1"].values, gold["y1_hourly"], rtol=1e-9)
    assert np.allclose(rep.layer_outputs["L2"].values[:8], gold["y2_first8"], rtol=1e-9)
    for key, val in gold["metrics"].items():
        assert rep.metrics[key] == pytest.approx(val, rel=1e-9), key
    for key, val in gold["final_soc"].items():
        assert rep.soc_traces[key].values[-1] == pytest.approx(val, rel=1e-9), key


def test_report_digests_match_golden(tmp_path):
    # Every report file, byte for byte, on the pinned cases; a change that
    # moves one on purpose regenerates the golden and names the file.
    got = goldens.compute_report_digests(str(tmp_path))
    gold = goldens.load("report_digests.json")
    moved = sorted(f"{case}/{fname}"
                   for case in gold.keys() | got.keys()
                   for fname in gold.get(case, {}).keys() | got.get(case, {}).keys()
                   if gold.get(case, {}).get(fname) != got.get(case, {}).get(fname))
    assert moved == []


def test_duration_must_be_whole_hours():
    cfg = _config(days=0.03)
    with pytest.raises(ConfigError):
        run(cfg)


def test_csv_ingestion_path(tmp_path):
    from hessmpc.timeseries import TimeSeries, write_csv
    rng = np.random.default_rng(0)
    vals = rng.normal(40.0, 15.0, 3600)
    path = tmp_path / "netload.csv"
    write_csv({path: TimeSeries(0.0, 1.0, vals)})
    cfg = _config(days=1.0 / 24.0)
    cfg.csv_path = str(path)
    rep = run(cfg)
    # The run consumes exactly the CSV actuals (padded beyond the run end).
    assert np.array_equal(rep.original_netload.values, vals)


@pytest.mark.parametrize("controller", ["proposed", "filter"])
def test_csv_start_epoch_carries_into_report_and_tariff(tmp_path, controller):
    # A trace that starts at noon: every report series starts there too, and
    # the TOU hours follow it rather than midnight.
    from hessmpc.metrics import economic_benefit
    from hessmpc.timeseries import TimeSeries, write_csv
    rng = np.random.default_rng(4)
    path = tmp_path / "netload.csv"
    write_csv({path: TimeSeries(43200.0, 1.0, rng.normal(40.0, 15.0, 3 * 3600))})
    cfg = _config(days=3.0 / 24.0, controller=controller)
    cfg.csv_path = str(path)
    rep = run(cfg)
    write_report(rep, str(tmp_path / "out"))
    for csv in sorted((tmp_path / "out").glob("*.csv")):
        first = csv.read_text(encoding="utf-8").splitlines()[1]
        assert first.split(",")[0] == "43200", csv.name
    original, smoothed = rep.original_netload, rep.smoothed_netload
    cost = sum(rep.dispatch_cost.values())
    tou = economic_benefit(original, smoothed, cost, cfg.tariff)["tou"]
    assert rep.economics["tou"] == tou
    at_midnight = economic_benefit(
        TimeSeries(0.0, 1.0, original.values), TimeSeries(0.0, 1.0, smoothed.values),
        cost, cfg.tariff)["tou"]
    assert tou != at_midnight


def test_dropped_bands_counted_once_per_decision():
    # An oversupply run offers bands its children cannot meet; each is
    # dropped once, and counts once as clamped, dropped and infeasible.
    rep = run(_config(days=0.25, seed=12, archetype="oversupply"))
    infeasible = {name: rep.solver_stats[name]["infeasible"] for name in ("L1", "L2", "L3")}
    assert infeasible == {"L1": 2, "L2": 7, "L3": 82}
    assert rep.events["band_clamped"] == rep.events["band_dropped"] \
        == sum(infeasible.values()) == 91


@pytest.mark.parametrize("rows", ["nan,1.0\nnan,2.0\n", "0,1.0\n1,nan\n"])
def test_csv_with_nonfinite_field_exits_3(tmp_path, capsys, rows):
    # A runtime abort naming the line, like a malformed row, not a traceback.
    from hessmpc.cli import main
    path = tmp_path / "netload.csv"
    path.write_text("epoch_s,power_mw\n" + rows)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"csv_path": str(path)}))
    assert main(["run", "--config", str(cfg_path), "--days", str(1.0 / 24.0),
                 "--out", str(tmp_path / "out")]) == 3
    assert "line " in capsys.readouterr().err


def test_csv_shorter_than_run_is_rejected(tmp_path):
    from hessmpc.cli import main
    from hessmpc.timeseries import TimeSeries, write_csv
    path = tmp_path / "netload.csv"
    write_csv({path: TimeSeries(0.0, 1.0, np.full(3600, 40.0))})
    cfg = _config(days=2.0 / 24.0)
    cfg.csv_path = str(path)
    with pytest.raises(ConfigError, match=r"3600 s .* 7200 s run"):
        prepare_scenario(cfg)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"csv_path": str(path)}))
    assert main(["run", "--config", str(cfg_path), "--days", str(2.0 / 24.0),
                 "--out", str(tmp_path / "out")]) == 2


def test_csv_not_sampled_at_one_second_is_rejected_at_its_path(tmp_path, capsys):
    # The step error named no field, unlike the short-CSV error.
    from hessmpc.cli import main
    from hessmpc.timeseries import TimeSeries, write_csv
    path = tmp_path / "netload.csv"
    write_csv({path: TimeSeries(0.0, 2.0, np.full(7200, 40.0))})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"csv_path": str(path)}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--days", str(1.0 / 24.0),
                 "--out", str(out)]) == 2
    assert f"config error: csv_path: '{path}' is sampled every 2 s" in capsys.readouterr().err
    assert not out.exists()


def test_csv_start_off_the_whole_second_is_rejected_at_its_path(tmp_path, capsys):
    # The report CSVs write whole-second epochs: a trace from 1000.5 ran and
    # wrote 1000, 1002, 1002, ..., a file ingest_csv itself rejects.
    from hessmpc.cli import main
    path = tmp_path / "netload.csv"
    path.write_text("epoch_s,power_mw\n" + "".join(f"{1000.5 + i},40.0\n" for i in range(3600)))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"csv_path": str(path)}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--days", str(1.0 / 24.0),
                 "--out", str(out)]) == 2
    assert f"config error: csv_path: '{path}' starts at epoch 1000.5, off the whole second" \
        in capsys.readouterr().err
    assert not out.exists()


def test_periodic_baseline_schema_and_events():
    cfg = _config(days=1.0, seed=5, archetype="deficit")
    data = prepare_scenario(cfg)
    rep_p = run(cfg, data)
    rep_b = run(dataclasses.replace(cfg, controller="periodic_soc"), data)
    assert set(rep_b.metrics) == set(rep_p.metrics)
    assert set(rep_b.layer_outputs) == set(rep_p.layer_outputs)
    assert rep_b.controller == "periodic_soc"
    # Terminal-SOC pressure shows up as forced recharging on a deficit day.
    assert rep_b.events["forced_recharge"] + rep_b.events["coupling_slack"] >= 1
    assert rep_p.metrics["smoothing_rate"] >= rep_b.metrics["smoothing_rate"]


def test_filter_baseline_reconstruction():
    cfg = _config(days=0.5, seed=7)
    cfg.scenario.duration_days = 0.5
    data = prepare_scenario(cfg)
    rep = run_filter_decomposition(cfg, data)
    n = data.run_seconds
    total = sum(rep.layer_outputs[k].values for k in ("L1", "L2", "L3", "L4"))
    recon = data.actuals.values[:n] - total
    assert np.allclose(recon, rep.smoothed_netload.values, atol=1e-9)
    assert rep.controller == "filter"


def test_controllers_share_one_report_schema():
    # engine.run and the filter baseline build their reports in one helper;
    # round_trip_efficiency sums the ledgers in their key order, so the order
    # is part of the schema.
    data = prepare_scenario(_config(days=1.0 / 24.0))
    reports = [run(_config(days=1.0 / 24.0, controller=controller), data)
               for controller in ("proposed", "periodic_soc", "filter")]
    schemas = [(list(rep.ledgers), [(dev, ts.dt) for dev, ts in rep.soc_traces.items()],
                list(rep.layer_outputs), list(rep.dispatch_cost)) for rep in reports]
    assert schemas[0] == schemas[1] == schemas[2]
    assert schemas[0][0] == ["hydrogen", "methanol", "caes", "bess", "fess"]
    assert schemas[0][2] == schemas[0][3] == ["L1", "L2", "L3", "L4"]


@pytest.mark.parametrize("archetype", ARCHETYPES)
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), days=st.sampled_from([1.0 / 24.0, 0.25, 1.0]),
       n1=st.integers(1, 3))
def test_scenario_means_are_the_block_means_of_the_actuals(archetype, seed, days, n1):
    # Each layer's means are resample's block means of the padded actuals,
    # bit for bit, and their first rows are the run's own step means, which
    # the forecast de-bias reads.
    data = prepare_scenario(from_dict({
        "n1": n1, "scenario": {"duration_days": days, "seed": seed, "archetype": archetype}}))
    n_sec = data.run_seconds
    for row in LAYERS:
        means = data.means[row.layer_id]
        want = resample(data.actuals, float(row.step_s))
        assert (means.start_epoch, means.dt) == (want.start_epoch, want.dt)
        assert means.values.tobytes() == want.values.tobytes()
        n = n_sec // row.step_s
        run_means = data.actuals.values[:n_sec].reshape(n, row.step_s).mean(axis=1)
        assert means.values[:n].tobytes() == run_means.tobytes()


def test_runs_never_write_into_the_scenario(tmp_path):
    # A report's original net load is a view of the scenario's actuals, and
    # one prepared scenario serves every controller of a comparison.
    data = prepare_scenario(_config(days=1.0 / 24.0))
    before = [data.actuals.values.tobytes()] + [
        getattr(data, part)[layer].values.tobytes()
        for part in ("forecasts", "means") for layer in ("L1", "L2", "L3")]
    for controller in ("proposed", "periodic_soc", "filter"):
        rep = run(_config(days=1.0 / 24.0, controller=controller), data)
        write_report(rep, str(tmp_path / controller))
        assert np.shares_memory(rep.original_netload.values, data.actuals.values)
        after = [data.actuals.values.tobytes()] + [
            getattr(data, part)[layer].values.tobytes()
            for part in ("forecasts", "means") for layer in ("L1", "L2", "L3")]
        assert after == before, controller


def test_run_peak_memory_budget():
    # engine.run's traced peak above the prepared scenario: the residual and
    # injection traces the report keeps, plus one one-second array at a time
    # (a metric's operand, the tariff gain), and blocks. n1 = 1 keeps the
    # forecast pad (read by the accuracy metrics) small, and a 1,000-cycle
    # flywheel life keeps fess_lcoe's per-cycle arrays (four of 200,000
    # floats by default, a size set by the config, not by the run) out of
    # the count.
    cfg = from_dict({"n1": 1, "scenario": {"duration_days": 3.0, "seed": 1},
                     "fess": {"lifetime_cycles": 1000}})
    data = prepare_scenario(cfg)
    n = data.run_seconds
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(cfg, data)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * n, f"peak {peak / (8 * n):.2f} arrays"


def test_filter_run_peak_memory_budget():
    # The filter baseline's traced peak above the prepared scenario: the
    # four outputs and the residual the report keeps, the mean a band is
    # taken from and the next one (with the prefix sum and the index blocks
    # it is built from), and blocks of the band. It held every mean and
    # band of the cascade at once, 15 arrays.
    cfg = from_dict({"controller": "filter", "n1": 1,
                     "scenario": {"duration_days": 1.0, "seed": 1},
                     "fess": {"lifetime_cycles": 1000}})
    data = prepare_scenario(cfg)
    n = data.run_seconds
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(cfg, data)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 8 * n, f"peak {peak / (8 * n):.2f} arrays"


def test_filter_routes_fast_band_to_flywheel():
    # A pure fast sinusoid (20 s period) above the first corner lands in the
    # flywheel band almost entirely.
    from hessmpc.scenario import window_mean
    t = np.arange(86400)
    sig = 5.0 * np.sin(2 * np.pi * t / 20.0)
    ma = window_mean(sig, 59, 0)
    high = sig - ma
    assert (high**2).sum() >= 0.9 * (sig**2).sum()


def test_filter_dc_goes_to_trend():
    from hessmpc.scenario import window_mean
    sig = np.full(7200, 42.0)
    ma1 = window_mean(sig, 59, 0)
    assert np.allclose(sig - ma1, 0.0)


def test_controller_dispatch_by_kind():
    cfg = _config(days=1.0 / 24.0)
    cfg.controller = "filter"
    rep = run(cfg)
    assert rep.controller == "filter"
    assert rep.solver_stats == {}


def _first_lines(out_dir) -> dict:
    """Each layer's first line of the solve trace in ``out_dir``."""
    first = {}
    with open(out_dir / "solves.jsonl", encoding="utf-8") as fh:
        for line in fh:
            first.setdefault(json.loads(line)["layer"], line)
    return first


def _reject_constant(name):
    raise ValueError(f"{name} is no standard JSON")


def test_inspect_traces_every_decision(tmp_path):
    # Under inspect each L1-L3 decision writes one standard JSON line, in
    # decision order, and the report directory gains only solves.jsonl;
    # the filter baseline decides through no law and traces nothing.
    for controller in ("proposed", "periodic_soc", "filter"):
        dirs = {}
        for inspect in (False, True, True):
            out = tmp_path / f"{controller}-{inspect}-{len(dirs)}"
            cfg = _config(days=1.0 / 24.0, controller=controller, inspect=inspect,
                          out_dir=str(out))
            rep = run(cfg)
            write_report(rep, str(out))
            dirs[out] = {p.name: p.read_bytes() for p in out.iterdir()}
        off, on, again = dirs.values()
        assert on == again, controller
        trace = on.pop("solves.jsonl", None)
        assert on == off, controller
        if controller == "filter":
            assert trace is None
            continue
        records = [json.loads(line, parse_constant=_reject_constant)
                   for line in trace.decode().splitlines()]
        order = [(r["t"], r["layer"]) for r in records]
        assert order == sorted(order), controller
        for layer, stats in rep.solver_stats.items():
            if layer != "wall_seconds":
                assert sum(r["layer"] == layer for r in records) == stats["solves"]
        # The applied moves are the booked outputs.
        l3 = [r for r in records if r["layer"] == "L3"]
        assert [np.dot(r["c_y"], r["u"]) for r in l3] == \
            pytest.approx(rep.layer_outputs["L3"].values.tolist(), abs=1e-12)


def _dense(line):
    """The dense standard form of the problem a solve trace line holds;
    its terminal row binds every step."""
    st, lo, hi, terminal = read_solve(line)
    if terminal is not None:
        pattern, target = terminal
        terminal = (pattern, st.n_steps, target)
    return dense_problem(st, lo, hi, terminal)


def test_proposed_qp_dump_is_the_one_step_problem(tmp_path):
    # The explicit law solves one step: the step-0 forecast below the held
    # parent outputs, the step-0 caps and the band row it was offered.
    from hessmpc.mpc import first_step_caps

    cfg = _config(days=1.0 / 24.0, inspect=True, out_dir=str(tmp_path))
    data = prepare_scenario(cfg)
    rep = run(cfg, data)
    first = _first_lines(tmp_path)
    spec = cfg.layer_specs()["L3"]
    p = _dense(first["L3"])
    g, ineq_lower, ineq_upper = p.ineq_rows()
    r0 = (data.forecasts["L3"].values[0] - rep.layer_outputs["L1"].values[0]
          - rep.layer_outputs["L2"].values[0])
    c_y = spec.output_row
    assert np.array_equal(p.hessian, 2.0 * spec.tracking_weight * np.outer(c_y, c_y))
    assert np.array_equal(p.f, -2.0 * spec.tracking_weight * r0 * c_y + spec.cost_vec * spec.dt_h)
    assert p.var_lower.tolist() == [0.0, 0.0]
    assert p.var_upper.tolist() == list(first_step_caps(spec, *cfg.bess.make_state()))
    assert g.tolist() == [c_y.tolist()]
    lower = rep.band_traces["L3_lower"].values[0]
    upper = rep.band_traces["L3_upper"].values[0]
    assert ineq_lower.tolist() == [r0 - upper]
    assert ineq_upper.tolist() == [r0 - lower]
    for name, nu in (("L1", 4), ("L2", 2)):
        one_step = _dense(first[name])
        assert one_step.hessian.shape == (nu, nu), name
        assert one_step.ineq_rows()[0].shape == (1, nu), name


def test_periodic_qp_dump_holds_the_terminal_row(tmp_path):
    # The trace holds the problem the periodic baseline solves: the steps of
    # its plan, whose only constraint row is the terminal equality over all
    # of them, met at the run-start energy.
    from hessmpc.mpc import freeze_efficiencies, periodic_plan

    cfg = _config(days=1.0 / 24.0, controller="periodic_soc", inspect=True,
                  out_dir=str(tmp_path))
    run(cfg)
    first = _first_lines(tmp_path)
    eff = freeze_efficiencies(cfg.awe, cfg.pemfc, cfg.meoh, cfg.turbine)
    patterns = {
        "L1": [eff.eta_hc, -1.0 / eff.eta_hd, -1.0, 0.0],
        "L2": [cfg.caes.eta_c, -1.0 / cfg.caes.eta_d],
        "L3": [cfg.bess.eta_c, -1.0 / cfg.bess.eta_d],
    }
    for name, spec in cfg.layer_specs().items():
        g, ineq_lower, ineq_upper = _dense(first[name]).ineq_rows()
        plan = periodic_plan(spec, cfg.baseline.soc_period_h)
        row = np.tile(np.array(patterns[name]) * spec.dt_h, plan)
        assert g.shape == (1, row.size), name
        assert np.array_equal(g[0], row), name
        assert ineq_lower.tolist() == ineq_upper.tolist() == [0.0]


#: sha256 of the dense-form ``qp_L*.txt`` files that the two pinned
#: inspection cases of report_digests.json wrote as QP dump cases, before
#: the dump took the step form; the periodic L1 entry is that of its
#: 24-step plan, where the dense dump held the 240-step horizon.
DENSE_DUMP_DIGESTS = {
    "proposed-inspect": {
        "qp_L1.txt": "9fc144cd85c70b52ffe9e28b9e267b3e9fc0a9d2e6da21844ff7b58f6ba7a5b0",
        "qp_L2.txt": "9b6a44b7acf376c4adfbe53db98068ed377108723cae9aa3746b40c148350c1f",
        "qp_L3.txt": "0722ec5e512df6b3c7f408f645469a1d7991a12606d67e5ce9a0be20e8bb4d3b",
    },
    "periodic-inspect": {
        "qp_L1.txt": "1206a9be0017b4fc755c53cf21d794e954e7e1aca926d5832688ae9dc55489da",
        "qp_L2.txt": "d116c783d4dd8c89712113e2e5d5ded1df7b20f90fcaa53860d0834294057bf3",
        "qp_L3.txt": "b96650bfc5abe274a4611e24b07e3a287845aa4e6a6414a7dc8d79f3f0cdf73f",
    },
}


def test_step_form_dumps_rebuild_the_dense_dumps(tmp_path):
    # The trace loses nothing: the dense problem rebuilt from each layer's
    # first line writes the bytes the dense dump of its first decision wrote.
    got = {}
    for name, cfg, data in goldens.report_cases(str(tmp_path)):
        if name not in DENSE_DUMP_DIGESTS:
            continue
        cfg.out_dir = str(tmp_path / name)
        run(cfg, data)
        got[name] = {}
        for layer, line in sorted(_first_lines(tmp_path / name).items()):
            dense = tmp_path / name / f"dense_{layer}.txt"
            write_dense(_dense(line), dense)
            got[name][f"qp_{layer}.txt"] = hashlib.sha256(dense.read_bytes()).hexdigest()
        if got.keys() == DENSE_DUMP_DIGESTS.keys():
            break
    assert got == DENSE_DUMP_DIGESTS


def test_eff_clamp_events_counted(day_run):
    _, _, rep = day_run
    assert rep.events["eff_clamped"] >= 0


def test_dispatch_cost_prices_ledger_throughput():
    # Every controller books c . u . dt: with cost weights R = 2 the booked
    # cost is still the ledger throughput priced by c, as the filter books it.
    cfg = _config(days=0.25, seed=8, archetype="oversupply", r_weights=(2.0, 2.0, 2.0))
    data = prepare_scenario(cfg)
    for controller in ("proposed", "periodic_soc", "filter"):
        rep = run(dataclasses.replace(cfg, controller=controller), data)
        led = rep.ledgers
        priced = {
            "L1": led["hydrogen"].charged_mwh * cfg.c_l1[0]
            + led["hydrogen"].discharged_mwh * cfg.c_l1[1],
            "L2": led["caes"].charged_mwh * cfg.c_l2[0]
            + led["caes"].discharged_mwh * cfg.c_l2[1],
            "L3": led["bess"].charged_mwh * cfg.c_l3[0]
            + led["bess"].discharged_mwh * cfg.c_l3[1],
            "L4": cfg.c_l4 * (led["fess"].charged_mwh + led["fess"].discharged_mwh),
        }
        # The L1 actuators include conversion, which no ledger books.
        layers = ("L1", "L2", "L3", "L4") if controller == "filter" else ("L2", "L3", "L4")
        for name in layers:
            assert priced[name] > 0.0, (controller, name)
            assert rep.dispatch_cost[name] == pytest.approx(priced[name], rel=1e-9), \
                (controller, name)


def test_default_calm_window_lies_in_the_run():
    # Without a configured window the calm covers 0.25-0.65 of the run, not
    # of the run plus its forecast pad, which a 3-day run never reaches.
    from hessmpc.scenario import synthesize

    cfg = _config(days=3.0, seed=21, archetype="extreme_calm")
    data = prepare_scenario(cfg)
    uncalm = dataclasses.replace(cfg.scenario, duration_days=len(data.actuals) / 86400.0,
                                 calm_window_days=(0.0, 0.0))
    calm = np.flatnonzero(data.actuals.values != synthesize(uncalm).values)
    assert calm.size > 0.5 * 1.2 * 86400
    assert calm.min() >= 0.75 * 86400
    assert calm.max() < 1.95 * 86400


# Plan lengths the window serves: the proposed law's one step and each
# layer's periodic-SOC plan under the default configuration.
_PLANS = sorted({1, *(periodic_plan(spec, EngineConfig().baseline.soc_period_h)
                      for spec in EngineConfig().layer_specs().values())})
_EDGES = [0.0, -0.0, 5e-324, -5e-324]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from(_PLANS), k=st.one_of(st.just(0), st.integers(1, 5)),
       held=st.lists(st.one_of(st.sampled_from(_EDGES), st.floats(-300.0, 300.0)), max_size=2),
       decay=st.sampled_from([0.0, 0.5, 0.97, 1.0]), seed=st.integers(0, 2**32 - 1),
       edges=st.lists(st.tuples(st.integers(0, 200), st.sampled_from(_EDGES)), max_size=6))
def test_window_on_floats_matches_the_array_expression(n, k, held, decay, seed, edges):
    # The layer window is built on Python floats; every entry must carry
    # the bits of the array expression ((fc - y1) - y2) + err * bias_pow[:n].
    # Forecasts and means are random (so most sums round), with signed
    # zeros and subnormals at drawn places.
    rng = np.random.default_rng(seed)
    forecast, actual_mean = rng.normal(0.0, 100.0, (2, k + n))
    for i, v in edges:
        forecast[i % (k + n)] = v
        actual_mean[(i // 2) % (k + n)] = v
    held = [y * rng.uniform(0.5, 1.5) if y not in (0.0, 5e-324, -5e-324) else y for y in held]
    bias_pow = decay ** np.arange(1, max(_PLANS) + 1)
    layer = _Layer(spec=None, device="bess", step_s=60, store=None, energy=None, rule=None,
                   rows=(), advance=None, forecast=forecast, actual_mean=actual_mean,
                   bias_pow=bias_pow, plan=n, output=None, band=None)
    want = forecast[k : k + n]
    for y in held:
        want = want - y
    if k > 0:
        err = actual_mean[k - 1] - forecast[k - 1]
        want = want + err * bias_pow[:n]
    got = layer.window(k, n, held)
    assert all(type(v) is float for v in got)
    assert np.array(got).tobytes() == want.tobytes()
