import dataclasses
import json
import math
import numbers
import os
from functools import reduce

import pytest

from hessmpc.cli import main
from hessmpc.config import (
    EngineConfig, Finding, from_dict, load_config, save_config, to_dict, validate,
)
from hessmpc.engine import run
from hessmpc.errors import ConfigError
from oracles import read_solve


def test_default_config_has_no_findings():
    assert validate(EngineConfig()) == []


def test_bad_efficiency_reported_at_path():
    cfg = EngineConfig()
    cfg.bess.eta_c = 1.2
    findings = validate(cfg)
    assert any(f.severity == "error" and f.path == "bess.eta_c" for f in findings)


def test_bad_envelope_and_controller():
    cfg = EngineConfig()
    cfg.caes.envelope_frac = (0.9, 0.1)
    cfg.controller = "magic"
    paths = {f.path for f in validate(cfg) if f.severity == "error"}
    assert "caes.envelope_frac" in paths
    assert "controller" in paths


def test_short_horizon_warning():
    cfg = EngineConfig()
    cfg.n3 = 5
    findings = validate(cfg)
    assert any(f.severity == "warning" and f.path == "n3" for f in findings)


@pytest.mark.parametrize("key", ["n1", "n2", "n3"])
def test_horizon_below_one_step_is_a_config_error(tmp_path, capsys, key):
    # A zero horizon used to pass validate with a warning and then crash
    # run while building the layer (exit 1).
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: 0, "scenario": {"duration_days": 0.125}}))
    assert main(["validate", "--config", str(cfg_path)]) == 2
    assert f"error: {key}: horizon must hold at least one step" in capsys.readouterr().out
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert f"{key}: horizon must hold at least one step" in capsys.readouterr().err


def test_cubic_norm_flag(tmp_path, capsys):
    # Every layer tracks with the quadratic penalty; the knob of the cubic L3
    # variant fails as a misspelled key does.
    assert "l3_norm_power" not in to_dict(EngineConfig())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"l3_norm_power": 3}))
    assert main(["validate", "--config", str(cfg_path)]) == 2
    assert "unknown configuration keys: l3_norm_power" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--days", "0.041666666666666664",
                 "--out", str(out)]) == 2
    assert "unknown configuration keys: l3_norm_power" in capsys.readouterr().err
    assert not out.exists()


def test_config_round_trip(tmp_path):
    cfg = EngineConfig()
    cfg.scenario.seed = 17
    cfg.c_l3 = (0.7, 0.7)
    path = tmp_path / "config.json"
    save_config(cfg, str(path))
    back = load_config(str(path))
    assert back.scenario.seed == 17
    assert back.c_l3 == (0.7, 0.7)
    assert to_dict(back) == to_dict(cfg)


def test_include_mechanism(tmp_path):
    base = tmp_path / "devices.json"
    base.write_text(json.dumps({"bess": {
        "power_mw": 80.0, "energy_mwh": 160.0,
        "envelope_frac": [0.1, 0.9], "eta_c": 0.9, "eta_d": 0.9,
    }}))
    top = tmp_path / "main.json"
    top.write_text(json.dumps({
        "include": ["devices.json"],
        "scenario": {"seed": 5},
        "bess": {"eta_c": 0.92},
    }))
    cfg = load_config(str(top))
    assert cfg.bess.power_mw == 80.0
    assert cfg.bess.eta_c == 0.92      # own keys override includes
    assert cfg.scenario.seed == 5


def test_partial_mapping_loads_alike_direct_and_included(tmp_path):
    # A mapping merges key by key over the configuration built so far, as a
    # section does, whether a file holds it or an include reaches it; a file
    # over the defaults used to replace the whole mapping.
    partial = {"scenario": {"forecast_accuracy": {"L3": 0.6}}}
    (tmp_path / "direct.json").write_text(json.dumps(partial))
    (tmp_path / "part.json").write_text(json.dumps(partial))
    (tmp_path / "top.json").write_text(json.dumps({"include": ["part.json"]}))
    direct = load_config(str(tmp_path / "direct.json"))
    assert direct == load_config(str(tmp_path / "top.json")) == from_dict(partial)
    assert direct.scenario.forecast_accuracy == {"L1": 0.9, "L2": 0.9, "L3": 0.6}
    (tmp_path / "base.json").write_text(json.dumps(
        {"scenario": {"forecast_accuracy": {"L1": 0.8, "L2": 0.7}}}))
    (tmp_path / "over.json").write_text(json.dumps({"include": ["base.json"], **partial}))
    assert load_config(str(tmp_path / "over.json")).scenario.forecast_accuracy == {
        "L1": 0.8, "L2": 0.7, "L3": 0.6}


def test_unknown_key_of_a_chain_is_reported_once(tmp_path, capsys):
    (tmp_path / "base.json").write_text(json.dumps({"foo": 1, "mtip": {"kapa": 1}}))
    (tmp_path / "top.json").write_text(json.dumps(
        {"include": ["base.json"], "foo": 2, "mtip": {"kapa": 2}, "bar": 3}))
    unknown = []
    load_config(str(tmp_path / "top.json"), unknown)
    assert unknown == ["foo", "mtip.kapa", "bar"]
    with pytest.raises(ConfigError, match="^unknown configuration keys: foo, mtip.kapa, bar$"):
        load_config(str(tmp_path / "top.json"))
    assert main(["validate", "--config", str(tmp_path / "top.json")]) == 2
    assert capsys.readouterr().err == \
        "config error: unknown configuration keys: foo, mtip.kapa, bar\n"


def test_section_an_include_broke_stays_a_finding(tmp_path):
    # An object in a later file builds over the include's value; over a
    # non-object it cannot build a section, and the later object used to
    # win in silence.
    (tmp_path / "base.json").write_text(json.dumps({"mtip": 5}))
    (tmp_path / "top.json").write_text(json.dumps({"include": ["base.json"],
                                                   "mtip": {"kappa": 3.0}}))
    assert [f.path for f in validate(load_config(str(tmp_path / "top.json")))] == ["mtip"]


def test_accuracy_mapping_missing_a_layer_is_a_finding():
    # The engine filled a missing layer with its own 0.9 in silence.
    cfg = EngineConfig()
    cfg.scenario.forecast_accuracy = {"L1": 0.8}
    assert validate(cfg) == [Finding(
        "error", "scenario.forecast_accuracy",
        "must hold an entry for each of L1, L2, L3, missing L2, L3")]
    with pytest.raises(ConfigError, match="^scenario.forecast_accuracy: "):
        run(cfg)


def test_bad_json_raises_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))
    # A value that breaks a rule loads; validate names it.
    path2 = tmp_path / "badfield.json"
    path2.write_text(json.dumps({"scenario": {"archetype": "bogus"}}))
    assert [f.path for f in validate(load_config(str(path2)))] == ["scenario.archetype"]


def test_unknown_keys_named_by_path(tmp_path, capsys):
    with pytest.raises(ConfigError) as info:
        from_dict({"q_weigths": [0.3, 0.2, 0.1], "mtip": {"kapa": 3},
                   "scenario": {"duration_dayz": 2}})
    msg = str(info.value)
    for path in ("q_weigths", "mtip.kapa", "scenario.duration_dayz"):
        assert path in msg
    # Knobs that no longer exist are unknown keys too: validate and run exit
    # 2 naming the key, and run writes nothing. The middle four were read by
    # nothing, or only by a function nothing called; the solve trace of
    # ``inspect`` replaced the QP dump.
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "out"
    for section, key, value in (("vic", "dt_s", 2.0), ("pemfc", "n_cells", 500),
                                ("fess", "rotor_inertias", [1.0, 2.0]),
                                ("fess", "initial_elec_speed", 1500.0),
                                ("vic", "baseline_mw", 0.0), (None, "debug_qp_dump", True)):
        path = key if section is None else f"{section}.{key}"
        cfg_path.write_text(json.dumps({key: value} if section is None
                                       else {section: {key: value}}))
        for command in ("validate", "run"):
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
            assert f"config error: unknown configuration keys: {path}\n" \
                in capsys.readouterr().err, (command, key)
        assert not out.exists()


def test_cli_validate_unknown_keys(tmp_path, capsys):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"q_weigths": [0.3, 0.2, 0.1], "mtip": {"kapa": 3},
                                "scenario": {"duration_dayz": 2}}))
    rc = main(["validate", "--config", str(path)])
    assert rc == 2
    assert "mtip.kapa" in capsys.readouterr().err


def test_from_dict_tuple_coercion():
    cfg = from_dict({"q_weights": [0.3, 0.2, 0.1]})
    assert cfg.q_weights == (0.3, 0.2, 0.1)
    # A list reads back as a tuple wherever the default is one, in every
    # section, and stays a list where the default is a list.
    back = from_dict(to_dict(EngineConfig()))
    for path, default in _fields(EngineConfig()):
        if isinstance(default, (tuple, list)):
            assert type(reduce(getattr, path.split("."), back)) is type(default), path


def test_cli_validate_ok(capsys):
    rc = main(["validate"])
    assert rc == 0
    assert "valid" in capsys.readouterr().out


def test_cli_validate_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"bess": {
        "power_mw": 100.0, "energy_mwh": 200.0,
        "envelope_frac": [0.1, 0.9], "eta_c": 1.5, "eta_d": 0.95,
    }}))
    rc = main(["validate", "--config", str(path)])
    assert rc == 2
    assert "bess.eta_c" in capsys.readouterr().out


def test_cli_synth(tmp_path, capsys):
    rc = main(["synth", "--days", "0.125", "--seed", "4", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "netload.csv").exists()
    from hessmpc.timeseries import ingest_csv
    ts = ingest_csv(tmp_path / "netload.csv")
    assert len(ts) == 10800


def test_cli_run_writes_report(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--days", "0.041666666666666664", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    assert (out / "metrics.json").exists()
    doc = json.loads((out / "metrics.json").read_text())
    assert "smoothing_rate" in doc["metrics"]
    for name in ("original.csv", "smoothed.csv", "output_L1.csv",
                 "soc_bess.csv", "soc_fess.csv"):
        assert (out / name).exists()


def test_cli_run_rejects_partial_hours(tmp_path, capsys):
    rc = main(["run", "--days", "0.03", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("days", ["0", "-1", "0.01", "nan"])
def test_cli_rejects_runs_that_are_not_whole_positive_hours(tmp_path, capsys, days):
    # validate names the duration, and run and compare stop with the config
    # exit code before they synthesize anything.
    assert main(["validate", "--days", days]) == 2
    assert "error: scenario.duration_days:" in capsys.readouterr().out
    for command in ("run", "compare"):
        out = tmp_path / command
        assert main([command, "--days", days, "--out", str(out)]) == 2, command
        assert "config error: scenario.duration_days:" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("days", ["0", "-1", "0.01", "nan"])
def test_cli_synth_rejects_runs_that_are_not_whole_positive_hours(tmp_path, capsys, days):
    # synth applies validate's duration check: a negative length used to die
    # in numpy, and zero wrote an empty netload.csv.
    out = tmp_path / "synth"
    assert main(["synth", "--days", days, "--out", str(out)]) == 2
    assert "config error: scenario.duration_days:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_default_config(tmp_path):
    path = tmp_path / "defaults.json"
    rc = main(["default-config", "--out", str(path)])
    assert rc == 0
    cfg = load_config(str(path))
    assert validate(cfg) == []
    assert to_dict(cfg) == to_dict(EngineConfig())


@pytest.mark.parametrize("argv", [
    ["compare", "--controller", "filter"],
    ["synth", "--accuracy", "0.8"],
    ["synth", "--controller", "filter"],
    ["default-config", "--seed", "3"],
])
def test_commands_refuse_flags_they_do_not_read(tmp_path, capsys, argv):
    # compare ran all three controllers whatever --controller said, and the
    # others dropped these flags without a word.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out", str(out)])
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not out.exists()


def test_end_to_end_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["run", "--days", "0.041666666666666664", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in sorted(os.listdir(out1)):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, f"report file {name} differs between identical runs"


def test_cli_compare(tmp_path):
    out = tmp_path / "cmp"
    rc = main(["compare", "--days", "0.041666666666666664", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "compare.json").read_text())
    assert set(doc) == {"proposed", "periodic_soc", "filter"}
    for sub in ("proposed", "periodic_soc", "filter"):
        assert (out / sub / "metrics.json").exists()


def test_cli_compare_dumps_each_controller_in_its_directory(tmp_path):
    # Every controller used to dump into the compare root, the later over
    # the earlier; the filter controller traces nothing.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"inspect": True}))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg_path), "--days", "0.041666666666666664",
                 "--out", str(out)]) == 0
    traces = sorted(str(p.relative_to(out)) for p in out.rglob("solves.jsonl"))
    assert traces == ["periodic_soc/solves.jsonl", "proposed/solves.jsonl"]
    last = {sub: (out / sub / "solves.jsonl").read_text().splitlines()[-1]
            for sub in ("periodic_soc", "proposed")}
    terminal = read_solve(last["periodic_soc"])[3]
    assert terminal is not None and read_solve(last["proposed"])[3] is None


def test_band_traces_written(tmp_path):
    out = tmp_path / "bands"
    rc = main(["run", "--days", "0.041666666666666664", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    for layer in ("L1", "L2", "L3"):
        for comp in ("lower", "upper", "gamma"):
            assert (out / f"band_{layer}_{comp}.csv").exists()


def test_validate_reports_deadband_and_periodic_pad_together():
    cfg = EngineConfig()
    cfg.mtip.eps_db = -1.0
    cfg.n1 = 1
    cfg.controller = "periodic_soc"
    paths = {f.path for f in validate(cfg) if f.severity == "error"}
    assert {"mtip.eps_db", "n2"} <= paths


def test_tariff_without_schedule_keeps_the_default_schedule(tmp_path, capsys):
    # The tariff section is built over its default like every other section.
    cfg = from_dict({"tariff": {"capacity_rate": 5.0}})
    want = to_dict(EngineConfig())
    want["tariff"]["capacity_rate"] = 5.0
    assert to_dict(cfg) == want
    path = tmp_path / "tariff.json"
    path.write_text(json.dumps({"tariff": {"capacity_rate": 5.0}}))
    assert main(["validate", "--config", str(path)]) == 0
    assert "configuration valid" in capsys.readouterr().out


def test_non_finite_tariff_price_is_a_config_error():
    # A NaN price ran and wrote NaN into metrics.json.
    tariff = to_dict(EngineConfig())["tariff"]
    tariff["tou_schedule"][0][1] = float("nan")
    assert validate(from_dict({"tariff": tariff})) == [Finding(
        "error", "tariff.tou_schedule", "tou_schedule hours and prices must be finite")]


@pytest.mark.parametrize("override, path", [
    ({"r_weights": [1.0, 0.0, 1.0]}, "r_weights[1]"),
    ({"r_weights": [1.0, 1.0, 0.0]}, "r_weights[2]"),
    ({"c_l4": 0.0}, "c_l4"),
])
def test_zero_band_child_cost_is_a_config_error(tmp_path, capsys, override, path):
    # The proposed controller's band blend divides by the marginal cost of
    # each band child (L2, L3, L4); a zero one must stop before the run.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(override))
    assert main(["validate", "--config", str(cfg_path)]) == 2
    assert f"error: {path}: marginal cost of band child" in capsys.readouterr().out
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--days", "0.041666666666666664",
                 "--out", str(out)]) == 2
    assert path in capsys.readouterr().err
    # The baselines use no bands, so the same costs are valid for them.
    assert main(["validate", "--config", str(cfg_path), "--controller", "filter"]) == 0


@pytest.mark.parametrize("weights, path", [
    ([1.0, -0.001, 1.0], "r_weights[1]"),
    ([1.0, 1.0, -1.0], "r_weights[2]"),
    ([1.0, 0.0, 1.0], "r_weights[1]"),
])
def test_band_child_weight_is_one_finding(weights, path):
    # A negative weight breaks its own rule, which is the one message at its
    # path; the marginal-cost check skips it. A zero weight breaks no rule,
    # so it gets the marginal-cost message.
    found = validate(from_dict({"r_weights": weights}))
    assert [(f.severity, f.path) for f in found] == [("error", path)]
    want = "must be non-negative" if min(weights) < 0.0 else "marginal cost of band child"
    assert found[0].message.startswith(want)


def test_vic_target_is_an_unknown_key(tmp_path, capsys):
    # The flywheel layer has no target-trajectory knob; naming one stops the
    # run as a config error before anything is simulated.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"vic": {"target": [0, 1]}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--days", "0.041666666666666664",
                 "--out", str(out)]) == 2
    assert "unknown configuration keys: vic.target" in capsys.readouterr().err
    assert not out.exists()


def test_max_iter_coupled_solve_exits_with_solver_code(tmp_path, capsys, monkeypatch):
    # A terminal-row solve that runs out of iterations is not applied: the
    # run stops with exit code 4 and writes no report.
    from hessmpc import engine, qp

    def capped(st, lo, hi, terminal=None, mu_hint=None):
        sol = qp.solve_qp(st, lo, hi, terminal=terminal, mu_hint=mu_hint)
        return dataclasses.replace(sol, status=qp.MAX_ITER)

    monkeypatch.setattr(engine, "solve_qp", capped)
    out = tmp_path / "out"
    rc = main(["run", "--days", "0.041666666666666664", "--seed", "1",
               "--controller", "periodic_soc", "--out", str(out)])
    assert rc == 4
    assert "terminal-row solve ended max_iter" in capsys.readouterr().err
    assert not (out / "metrics.json").exists()


def test_periodic_horizon_past_the_forecast_pad_is_a_config_error(tmp_path, capsys):
    # The periodic law plans the full L2 and L3 horizons, and the forecast
    # reaches n1 hours past the run end. With n1 = 2 the 96-step L2 horizon
    # (24 h) outruns it, so the run stops before anything is simulated.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n1": 2}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--days", "0.125",
                 "--controller", "periodic_soc", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "n2: periodic-SOC horizon outruns the forecast" in err
    assert "at most 9 steps" in err
    assert "n3:" not in err
    assert not out.exists()
    # The last decision's window holds its own step and the pad's: a
    # horizon of that length runs, one step more does not.
    cfg = EngineConfig(controller="periodic_soc", n1=2, n2=9, n3=121)
    assert not [f for f in validate(cfg) if f.severity == "error"]
    cfg.n3 = 122
    assert [f.path for f in validate(cfg) if f.severity == "error"] == ["n3"]
    # The proposed controller plans one step, so the same horizons run.
    assert main(["validate", "--config", str(cfg_path)]) == 0


def test_periodic_plan_inside_the_forecast_pad_runs(tmp_path, capsys):
    # The periodic law plans the steps of one SOC period, at most the
    # horizon. With a 2 h period the L2 plan is 8 steps, inside the 2 h pad,
    # although the 96-step L2 horizon is not: the run goes ahead.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n1": 2, "baseline": {"soc_period_h": 2}}))
    assert main(["validate", "--config", str(cfg_path), "--controller", "periodic_soc"]) == 0
    assert "error" not in capsys.readouterr().out
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--days", "0.125",
                 "--controller", "periodic_soc", "--out", str(out)]) == 0
    assert (out / "metrics.json").exists()


@pytest.mark.parametrize("override, path", [
    ({"fess_init_frac": -0.1}, "fess_init_frac"),
    ({"fess_init_frac": 1.5}, "fess_init_frac"),
    ({"q_weights": [0.27, 0.15]}, "q_weights"),
    ({"r_weights": [1.0, 1.0, 1.0, 1.0]}, "r_weights"),
    ({"c_l2": [0.35]}, "c_l2"),
    ({"ambient_temp_c": -273.0}, "ambient_temp_c"),
    ({"ambient_temp_c": -300.0}, "ambient_temp_c"),
    ({"bess": {"self_discharge": 1.5}}, "bess.self_discharge"),
    ({"controller": "filter", "baseline": {"filter_cutoffs": [0.2, 900.0]}},
     "baseline.filter_cutoffs"),
    # These two stopped validate itself with a traceback.
    ({"q_weights": ["a", 0.15, 0.1]}, "q_weights"),
    ({"scenario": {"calm_window_days": [0.01]}}, "scenario.calm_window_days"),
    # A non-number inside a section's tuple.
    ({"fess": {"energy_envelope": ["a", 1.9]}}, "fess.energy_envelope"),
    # Device values that stopped the run with a traceback, or wrote NaN or
    # ran a flywheel that charged when asked to discharge.
    ({"h2_power_mw": -5}, "h2_power_mw"),
    ({"turbine": {"rated": -1}}, "turbine.rated"),
    ({"meoh": {"rated_power": -1}}, "meoh.rated_power"),
    ({"bess": {"energy_mwh": 0}}, "bess.energy_mwh"),
    ({"fess": {"lifetime_cycles": 0}}, "fess.lifetime_cycles"),
    ({"fess": {"discount_rate": -1}}, "fess.discount_rate"),
    ({"fess": {"power_cap": -1}}, "fess.power_cap"),
    ({"baseline": {"soc_period_h": float("nan")}}, "baseline.soc_period_h"),
    # Values of the wrong kind: a NaN or 1e400 (read as infinity) number or
    # tuple entry, a fractional integer. They stopped the run with a NaN
    # band, non-finite values or an envelope error, or with a TypeError
    # (exit 1), with an unaligned series (exit 3), or ran and wrote NaN into
    # metrics.json, which is no valid JSON.
    ({"mtip": {"kappa": float("nan")}}, "mtip.kappa"),
    ({"vic": {"k_pf": float("nan")}}, "vic.k_pf"),
    ({"forecast_bias_decay": float("nan")}, "forecast_bias_decay"),
    ({"mtip": {"eps_db": 1e400}}, "mtip.eps_db"),
    ({"meoh_init_mwh": 1e400}, "meoh_init_mwh"),
    ({"scenario": {"balanced_surplus_mw": 1e400}}, "scenario.balanced_surplus_mw"),
    ({"scenario": {"wind_capacity": float("nan")}}, "scenario.wind_capacity"),
    ({"bess": {"energy_mwh": 1e400}}, "bess.energy_mwh"),
    ({"c_l1": [0.6, float("nan"), 0.3, 0.9]}, "c_l1"),
    ({"c_l4": 1e400}, "c_l4"),
    ({"fess": {"decay_factor": float("nan")}}, "fess.decay_factor"),
    ({"battery_deg": {"invest": float("nan")}}, "battery_deg.invest"),
    ({"tariff": {**to_dict(EngineConfig())["tariff"], "capacity_rate": float("nan")}},
     "tariff.capacity_rate"),
    ({"scenario": {"seed": 1.5}}, "scenario.seed"),
    ({"n1": 2.5}, "n1"),
    # The flywheel's levelized cost builds one float per cycle of life: a
    # hundred billion cycles asked for terabytes.
    ({"fess": {"lifetime_cycles": 10**11, "decay_factor": 0}}, "fess.lifetime_cycles"),
    # A compressed-air store with no energy stopped the run with an
    # envelope error (lo < hi).
    ({"caes": {"energy_mwh": 0}}, "caes.energy_mwh"),
])
def test_values_that_crashed_the_run_are_config_errors(tmp_path, capsys, override, path):
    # Each used to pass validate and then stop the run with a traceback
    # (exit 1) or an envelope violation (exit 3).
    _assert_config_error(tmp_path, capsys, override, path)


def _assert_config_error(tmp_path, capsys, override, path):
    """validate and run both exit 2 on ``override`` naming ``path``, and run
    writes no output directory."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(override))
    assert main(["validate", "--config", str(cfg_path)]) == 2
    assert f"error: {path}: " in capsys.readouterr().out
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--days", "0.041666666666666664",
                 "--out", str(out)]) == 2
    assert f"config error: {path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override, path", [
    ({"scenario": {"archetype": "bogus"}}, "scenario.archetype"),
    ({"scenario": {"forecast_accuracy": {"L1": 1.5}}}, "scenario.forecast_accuracy.L1"),
    ({"scenario": {"forecast_accuracy": {"L2": float("nan")}}}, "scenario.forecast_accuracy.L2"),
    ({"scenario": {"forecast_accuracy": {"L3": None}}}, "scenario.forecast_accuracy.L3"),
    ({"tariff": {"tou_schedule": [[[0, 24], float("nan")]]}}, "tariff.tou_schedule"),
    ({"tariff": {"tou_schedule": [[[0, 13], 1], [[12, 24], 2]]}}, "tariff.tou_schedule"),
    ({"tariff": {"tou_schedule": [[[0, 11], 1], [[12, 24], 2]]}}, "tariff.tou_schedule"),
    ({"tariff": {"tou_schedule": [[[0, 12], 1]]}}, "tariff.tou_schedule"),
    ({"tariff": {"tou_schedule": [[0, 24, 5]]}}, "tariff.tou_schedule"),
    ({"tariff": {"tou_schedule": 5}}, "tariff.tou_schedule"),
    ({"vic": {"k_pf": -1}}, "vic.k_pf"),
    ({"vic": {"k_p": 0}}, "vic.k_p"),
    ({"vic": {"k_d": -25}}, "vic.k_d"),
    ({"fess": {"eta_c": 1.5}}, "fess.eta_c"),
    ({"fess": {"energy_envelope": [1.9, 0.1]}}, "fess.energy_envelope"),
    ({"fess": {"decay_factor": 1e-3, "lifetime_cycles": 2000}}, "fess.decay_factor"),
    ({"awe": {"area": 0}}, "awe.area"),
    ({"awe": {"n_cells": 0}}, "awe.n_cells"),
    ({"meoh": {"rho_min": 0.9}}, "meoh.rho_min"),
    ({"meoh": {"rho_star": 1.5}}, "meoh.rho_min"),
    ({"meoh": {"x_min": 0.9}}, "meoh.x_min"),
    ({"meoh": {"s_min": 0.99}}, "meoh.s_min"),
    ({"battery_deg": {"alpha_sei": 0.9}}, "battery_deg.alpha_sei"),
    # Prices are per whole hour: hour 6 was priced at 900 in full.
    ({"tariff": {"tou_schedule": [[[0, 6.5], 100], [[6.5, 24], 900]]}}, "tariff.tou_schedule"),
    # A negative flywheel loss term was dropped in silence, or cancelled
    # part of the others.
    ({"fess": {"bop_power": -1e5, "windage_coeff": -1}}, "fess.windage_coeff"),
    ({"fess": {"bop_power": -1e5}}, "fess.bop_power"),
    ({"fess": {"bearing_coeff": -1}}, "fess.bearing_coeff"),
    ({"fess": {"rated_speed": -1500}}, "fess.rated_speed"),
    # Efficiencies in (0, 1] but far below any device's (found by the
    # config fuzz test): the first stopped the run with a ZeroDivisionError
    # (exit 1), the second with an envelope violation (exit 3).
    ({"fess": {"eta_c": 5e-324}}, "fess.eta_c"),
    ({"bess": {"eta_d": 5e-324}, "scenario": {"seed": 1}}, "bess.eta_d"),
])
def test_section_value_rules_are_config_errors_at_their_path(tmp_path, capsys, override, path):
    # The sections checked these values themselves, inside from_dict: the
    # error came without its path and hid every other finding.
    _assert_config_error(tmp_path, capsys, override, path)


def test_section_rules_are_reported_with_every_other_finding(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"vic": {"k_pf": -1}, "meoh": {"x_min": 0.9},
                                    "bess": {"eta_c": 2}}))
    assert main(["validate", "--config", str(cfg_path)]) == 2
    out = capsys.readouterr().out
    for path in ("vic.k_pf", "meoh.x_min", "bess.eta_c"):
        assert f"error: {path}: " in out, path


@pytest.mark.parametrize("override, path", [
    ({"scenario": {"seed": 1.5}}, "scenario.seed"),
    ({"scenario": {"wind_capacity": float("nan")}}, "scenario.wind_capacity"),
])
def test_synth_checks_the_whole_config(tmp_path, capsys, override, path):
    # synth checked only the run length and the seed's sign: these stopped
    # it with a TypeError and a ValueError traceback (exit 1).
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(override))
    out = tmp_path / "synth"
    assert main(["synth", "--config", str(cfg_path), "--days", "0.125",
                 "--out", str(out)]) == 2
    assert f"config error: {path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, value", [
    ("wind_capacity", -425), ("pv_capacity", -1), ("load_peak", -200)])
def test_negative_scenario_capacities_are_config_errors(tmp_path, capsys, name, value):
    # A negative capacity ran in silence: the renewables turned into load,
    # or the load into generation.
    _assert_config_error(tmp_path, capsys, {"scenario": {name: value}}, f"scenario.{name}")


@pytest.fixture(scope="module")
def leak_free_filter_metrics(tmp_path_factory):
    out = tmp_path_factory.mktemp("leak_free") / "filter"
    assert main(["run", "--days", "0.25", "--controller", "filter", "--out", str(out)]) == 0
    return (out / "metrics.json").read_bytes()


@pytest.mark.parametrize("store", ["bess", "caes"])
def test_leaky_store_runs_under_every_controller(tmp_path, leak_free_filter_metrics, store):
    # A leak of half the energy per hour passes validate. The planned runs
    # used to stop with an envelope violation (exit 3), since the planners
    # sized their room from the energy before the leak, and the filter
    # baseline ignored the leak.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({store: {"self_discharge": 0.5}}))
    for controller in ("proposed", "periodic_soc", "filter"):
        assert main(["run", "--config", str(cfg_path), "--days", "0.25", "--controller",
                     controller, "--out", str(tmp_path / controller)]) == 0, controller
    assert (tmp_path / "filter" / "metrics.json").read_bytes() != leak_free_filter_metrics


def test_forecast_accuracy_keys_name_layers():
    # A misspelled layer used to run silently at the default accuracy.
    cfg = from_dict({"scenario": {"forecast_accuracy": {"l2": 0.5, "L4": 0.5, "L1": 0.8}}})
    assert [f.path for f in validate(cfg)] == [
        "scenario.forecast_accuracy.l2", "scenario.forecast_accuracy.L4",
    ]


@pytest.mark.parametrize("store", ["bess", "caes"])
def test_one_field_store_override_changes_only_that_field(store):
    # A store section is built over its default, so one key is enough.
    for field, value in (("power_mw", 50.0), ("energy_mwh", 123.0),
                         ("envelope_frac", [0.2, 0.8]), ("eta_c", 0.9), ("eta_d", 0.9),
                         ("self_discharge", 0.001), ("init_frac", 0.25)):
        want = to_dict(EngineConfig())
        want[store][field] = value
        assert to_dict(from_dict({store: {field: value}})) == want, field


def test_non_physical_hydrogen_efficiencies_are_findings():
    # The hydrogen chain's efficiencies at the idle point, under the device
    # section whose curve gave them; a curve that fails there is a finding
    # too, not a traceback.
    assert validate(from_dict({"awe": {"u_rev": 0.9}})) == [Finding(
        "error", "awe", "idle-point efficiency eta_hc must lie in (0, 1], "
        "got 1.0193848658305096")]
    assert [f.path for f in validate(from_dict({"turbine": {"eta_max": 1.2}}))] == ["turbine"]
    assert [f.path for f in validate(from_dict({"pemfc": {"delta_g": 337200.0}}))] == ["pemfc"]
    failing = validate(from_dict({"pemfc": {"j_max": 0.5}}))
    assert [f.path for f in failing] == ["awe, pemfc, meoh, turbine"]
    assert "current density 0.6" in failing[0].message


@pytest.mark.parametrize("override, path", [
    ({"awe": {"area": 0}}, "awe.area"),
    ({"meoh": {"rho_min": 0}}, "meoh.rho_min"),
])
def test_bad_chain_value_is_one_finding(override, path):
    # The idle-point check used to run on the broken value too and add a
    # second, less clear finding ("current must be positive", "float
    # division by zero").
    findings = validate(from_dict(override))
    assert [(f.severity, f.path) for f in findings] == [("error", path)]


def test_periodic_run_nets_a_vanishing_simultaneous_move(tmp_path, capsys):
    # With a battery discharge efficiency of 0.001, the relaxed terminal row
    # asked for 100 MW of charge beside 3e-18 MW of discharge. The periodic
    # law netted only pairs above 1e-9, so the store step refused the move
    # and the run exited 3.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "controller": "periodic_soc", "n1": 30, "tank_init_frac": 0.01,
        "bess": {"eta_d": 0.001},
        "scenario": {"archetype": "extreme_calm", "seed": 12,
                     "duration_days": 2.0 / 24.0},
    }))
    assert main(["validate", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["events"]["simultaneous_netted"] > 0


def test_negative_l1_prices_are_config_errors(tmp_path, capsys):
    # Both inputs priced negative start at their caps in the fill-order
    # base: validate passed, and the proposed run stopped with "simultaneous
    # charge and discharge in an applied L1 move" (exit 3).
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"c_l1": [-5, -5, 0.3, 0.9], "n1": 2,
                                    "scenario": {"duration_days": 1.0 / 24.0}}))
    assert main(["validate", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().out == ("error: c_l1[0]: must be non-negative, got -5\n"
                                       "error: c_l1[1]: must be non-negative, got -5\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "config error: c_l1[0]: must be non-negative, got -5" in capsys.readouterr().err
    assert not out.exists()


def test_bad_price_is_one_finding_per_entry():
    # A band child whose prices broke their rule takes no marginal-cost
    # finding beside them.
    findings = validate(from_dict({"c_l2": [-1.0, -1.0]}))
    assert [f.path for f in findings] == ["c_l2[0]", "c_l2[1]"]
    assert [f.path for f in validate(from_dict({"c_l3": [0.0, 0.0]}))] == ["c_l3"]


@pytest.mark.parametrize("controller", ["proposed", "periodic_soc", "filter"])
def test_non_physical_hydrogen_efficiency_is_a_config_error(tmp_path, capsys, controller):
    # With an electrolyzer that makes more hydrogen energy than it takes in,
    # validate passed; the filter run then died with a ValueError traceback
    # (exit 1), and the other controllers ran a tank that gained energy.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"awe": {"u_rev": 0.9}, "controller": controller}))
    assert main(["validate", "--config", str(cfg_path)]) == 2
    assert "error: awe: idle-point efficiency eta_hc" in capsys.readouterr().out
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--days", "0.041666666666666664",
                 "--out", str(out)]) == 2
    assert "config error: awe: " in capsys.readouterr().err
    assert not out.exists()


def test_pemfc_hhv_is_an_unknown_key(tmp_path, capsys):
    # The fuel cell's efficiency divides by the module's HHV voltage; the
    # field that looked like a knob for it is gone.
    assert "hhv" not in to_dict(EngineConfig())["pemfc"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pemfc": {"hhv": 40.0}}))
    assert main(["validate", "--config", str(cfg_path)]) == 2
    assert "unknown configuration keys: pemfc.hhv" in capsys.readouterr().err


def _fields(obj, prefix=""):
    """(dotted path, value) of every field of ``obj``, sections before the
    fields they hold."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        yield prefix + f.name, value
        if dataclasses.is_dataclass(value):
            yield from _fields(value, f"{prefix}{f.name}.")


def _wrong_kinds(default):
    """Values of another kind than ``default``'s, which validate must name."""
    if dataclasses.is_dataclass(default) or isinstance(default, dict):
        return [5]
    if isinstance(default, tuple):
        return [tuple(bad if j == i else v for j, v in enumerate(default))
                for i in range(len(default)) for bad in (math.nan, math.inf)]
    if isinstance(default, (bool, str)):
        return [1]
    if isinstance(default, numbers.Integral):
        return [math.nan, math.inf, 2.5]
    if isinstance(default, numbers.Real):
        return [math.nan, math.inf]
    return []


def test_validate_names_every_field_of_the_wrong_kind():
    # Walks the default tree, so a new field is covered as it is added: a
    # section or a mapping set to a number, a non-finite number or tuple
    # entry, a fractional integer, a bool or a string set to a number.
    checked = 0
    for path, default in _fields(EngineConfig()):
        *parents, name = path.split(".")
        for bad in _wrong_kinds(default):
            cfg = EngineConfig()
            # Device sections are frozen; each EngineConfig() has its own.
            object.__setattr__(reduce(getattr, parents, cfg), name, bad)
            assert [f.path for f in validate(cfg)] == [path], (path, bad)
            checked += 1
    assert checked > 300


@pytest.mark.parametrize("override, path", [
    ({"scenario": 5}, "scenario"),
    ({"scenario": {"forecast_accuracy": 5}}, "scenario.forecast_accuracy"),
])
def test_section_that_is_no_object_is_a_config_error(tmp_path, capsys, override, path):
    # Each stopped with an AttributeError (exit 1); the first in validate
    # itself. validate prints it as a finding, run stops on it.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(override))
    assert main(["validate", "--config", str(cfg_path)]) == 2
    assert f"error: {path}: must be an object, got 5" in capsys.readouterr().out
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {path}: must be an object, got 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_flags_leave_a_section_of_the_wrong_kind_to_validate(tmp_path, capsys):
    # The scenario flags set fields of the scenario section; on a section
    # that is no object they are not applied, and the section is reported.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": 5}))
    out = tmp_path / "out"
    for command in ("validate", "run", "compare", "synth"):
        assert main([command, "--config", str(cfg_path), "--seed", "1", "--days", "0.125",
                     "--out", str(out)]) == 2, command
        assert "error: scenario: must be an object, got 5" in "".join(capsys.readouterr())
    assert not out.exists()


def test_validate_reports_unknown_keys_with_every_other_finding(tmp_path, capsys):
    # validate stopped at the unknown key and said nothing of vic.k_pf.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pemfc": {"n_cells": 1}, "vic": {"k_pf": -1},
                                    "mtip": {"kapa": 3}}))
    assert main(["validate", "--config", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert "config error: unknown configuration keys: pemfc.n_cells, mtip.kapa\n" in err
    assert "error: vic.k_pf: must be positive, got -1" in out
    assert "configuration valid" not in out
    # Unknown keys alone still fail validation.
    cfg_path.write_text(json.dumps({"pemfc": {"n_cells": 1}}))
    assert main(["validate", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["validate", "run", "compare", "synth"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command):
    # numpy refuses a negative seed: the run stopped with a ValueError
    # traceback (exit 1) after validate had passed it.
    out = tmp_path / "out"
    assert main([command, "--seed", "-1", "--days", "0.041666666666666664",
                 "--out", str(out)]) == 2
    assert "scenario.seed: must be a non-negative integer, got -1" in "".join(capsys.readouterr())
    assert not out.exists()


@pytest.mark.parametrize("files, named", [
    ({}, "cfg.json"),
    ({"cfg.json": '{"include": ["gone.json"]}'}, "gone.json"),
    ({"cfg.json": "[1, 2]"}, "cfg.json"),
], ids=["missing", "missing_include", "not_an_object"])
def test_unreadable_config_file_is_a_config_error(tmp_path, capsys, files, named):
    # Each stopped every command with a traceback (exit 1).
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for command in ("validate", "run"):
        assert main([command, "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {tmp_path / named}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("files, named", [
    ({"cfg.json": '{"include": "x.json"}'}, "cfg.json"),
    ({"cfg.json": '{"include": [5]}'}, "cfg.json"),
    ({"cfg.json": '{"include": ["cfg.json"]}'}, "cfg.json"),
    ({"cfg.json": '{"include": ["b.json"]}', "b.json": '{"include": ["cfg.json"]}'},
     "b.json"),
], ids=["string", "not_a_name", "self", "cycle"])
def test_bad_include_is_a_config_error(tmp_path, capsys, files, named):
    # A string was read one character at a time, a number stopped with a
    # TypeError and a cycle with a RecursionError (both exit 1).
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for command in ("validate", "run"):
        assert main([command, "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {tmp_path / named}: include: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
