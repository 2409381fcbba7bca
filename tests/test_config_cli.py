import dataclasses
import json
import os

import pytest

from hessmpc.cli import main
from hessmpc.config import (
    EngineConfig, from_dict, load_config, save_config, to_dict, validate,
)
from hessmpc.errors import ConfigError


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


def test_cubic_norm_flag():
    cfg = EngineConfig()
    cfg.l3_norm_power = 3
    assert validate(cfg) == []
    cfg.controller = "periodic_soc"
    assert any(f.path == "l3_norm_power" for f in validate(cfg))
    cfg.l3_norm_power = 4
    cfg.controller = "proposed"
    assert any(f.path == "l3_norm_power" for f in validate(cfg))


def test_cubic_penalty_qp_dump_is_a_config_error(tmp_path, capsys):
    # The pair used to pass validate and then stop run with a traceback
    # (exit 1) when the first L3 dump asked for a dense cubic problem.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "l3_norm_power": 3, "debug_qp_dump": True,
        "scenario": {"duration_days": 1.0 / 24.0},
    }))
    assert main(["validate", "--config", str(cfg_path)]) == 2
    assert "error: debug_qp_dump:" in capsys.readouterr().out
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "debug_qp_dump:" in capsys.readouterr().err


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


def test_bad_json_raises_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))
    path2 = tmp_path / "badfield.json"
    path2.write_text(json.dumps({"scenario": {"archetype": "bogus"}}))
    with pytest.raises(ConfigError):
        load_config(str(path2))


def test_unknown_keys_named_by_path():
    with pytest.raises(ConfigError) as info:
        from_dict({"q_weigths": [0.3, 0.2, 0.1], "mtip": {"kapa": 3},
                   "scenario": {"duration_dayz": 2}})
    msg = str(info.value)
    for path in ("q_weigths", "mtip.kapa", "scenario.duration_dayz"):
        assert path in msg
    # Knobs that no longer exist are unknown keys too.
    with pytest.raises(ConfigError, match="vic.dt_s"):
        from_dict({"vic": {"dt_s": 2.0}})


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


def test_cli_default_config(tmp_path):
    path = tmp_path / "defaults.json"
    rc = main(["default-config", "--out", str(path)])
    assert rc == 0
    cfg = load_config(str(path))
    assert validate(cfg) == []
    assert to_dict(cfg) == to_dict(EngineConfig())


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


def test_band_traces_written(tmp_path):
    out = tmp_path / "bands"
    rc = main(["run", "--days", "0.041666666666666664", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    for layer in ("L1", "L2", "L3"):
        for comp in ("lower", "upper", "gamma"):
            assert (out / f"band_{layer}_{comp}.csv").exists()


def test_validate_reports_deadband_and_cubic_periodic_together():
    cfg = EngineConfig()
    cfg.mtip.eps_db = -1.0
    cfg.l3_norm_power = 3
    cfg.controller = "periodic_soc"
    paths = {f.path for f in validate(cfg) if f.severity == "error"}
    assert {"mtip.eps_db", "l3_norm_power"} <= paths


def test_tariff_without_schedule_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="tariff.tou_schedule"):
        from_dict({"tariff": {"capacity_rate": 5.0}})
    path = tmp_path / "tariff.json"
    path.write_text(json.dumps({"tariff": {"capacity_rate": 5.0}}))
    rc = main(["validate", "--config", str(path)])
    assert rc == 2
    assert "tariff.tou_schedule" in capsys.readouterr().err


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
