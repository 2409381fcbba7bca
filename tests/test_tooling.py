import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "benchmarks" / "tracer.py"

# Imports the CLI and the engine, then prepares, runs and writes a 1-hour
# report for each controller; prints every scipy module loaded on the way.
_NO_SCIPY_SCRIPT = """
import dataclasses, os, sys, tempfile
import hessmpc, hessmpc.cli, hessmpc.engine
from hessmpc.config import EngineConfig
from hessmpc.engine import prepare_scenario, run, write_report
cfg = EngineConfig()
cfg.scenario.duration_days = 1.0 / 24.0
data = prepare_scenario(cfg)
with tempfile.TemporaryDirectory() as out:
    for controller in ("proposed", "periodic_soc", "filter"):
        report = run(dataclasses.replace(cfg, controller=controller), data)
        write_report(report, os.path.join(out, controller))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_tracer_wraps_existing_names():
    # The benchmark tracer replaces these names in the module namespaces
    # where the program looks them up; each must exist there, or
    # `benchmarks/run.py --trace 1` fails to install.
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracer._WRAPS
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_write_report_calls_engine_write_csv_per_file(tmp_path, monkeypatch):
    # The tracer's timeseries.write_csv.* metrics count calls of the name
    # engine.write_csv; a writer reached any other way would read 0 there.
    from hessmpc import engine
    from hessmpc.config import EngineConfig

    cfg = EngineConfig()
    cfg.scenario.duration_days = 1.0 / 24.0
    report = engine.run(cfg)
    written = []
    write_csv = engine.write_csv

    def counting_write_csv(path, ts):
        written.append(Path(path).name)
        write_csv(path, ts)

    monkeypatch.setattr(engine, "write_csv", counting_write_csv)
    engine.write_report(report, str(tmp_path))
    csv_files = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert len(csv_files) == 20
    assert sorted(written) == csv_files


def test_periodic_run_calls_engine_solve_qp_per_coupled_solve(monkeypatch):
    # The tracer's qp.coupling span counts calls of the name engine.solve_qp;
    # a coupled solve reached any other way would read 0 there.
    from hessmpc import engine
    from hessmpc.config import EngineConfig

    cfg = EngineConfig(controller="periodic_soc")
    cfg.scenario.duration_days = 1.0 / 24.0
    calls = []
    solve_qp = engine.solve_qp

    def counting_solve_qp(*args, **kwargs):
        calls.append(args[0].n_steps)
        return solve_qp(*args, **kwargs)

    monkeypatch.setattr(engine, "solve_qp", counting_solve_qp)
    report = engine.run(cfg)
    solves = [report.solver_stats[name]["solves"] for name in ("L1", "L2", "L3")]
    assert solves == [1, 4, 60]
    assert len(calls) == sum(solves) == 65


def test_proposed_run_calls_engine_band_and_store_step_by_name(monkeypatch):
    # The tracer's mtip.physical_bounds and devices.ess_step spans count
    # calls of these names in the engine: one per L1 or L2 band (its child
    # fluctuates; the flywheel's flat band takes another path) and one per
    # store advance.
    from hessmpc import engine
    from hessmpc.config import EngineConfig

    cfg = EngineConfig()
    cfg.scenario.duration_days = 1.0 / 24.0
    calls = {"physical_bounds": [], "ess_step": []}
    for name, seen in calls.items():
        fn = getattr(engine, name)

        def counting(*args, _fn=fn, _seen=seen):
            _seen.append(args[0])
            return _fn(*args)

        monkeypatch.setattr(engine, name, counting)
    engine.run(cfg)
    assert [xi.size for xi in calls["physical_bounds"]] == [4, 15, 15, 15, 15]
    assert len(calls["ess_step"]) == 64


def test_runs_load_no_scipy():
    # Importing scipy.signal was most of the CLI's start-up; a run needs none
    # of scipy (the dense QP oracle imports scipy.linalg when it is called).
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout.strip() == "[]"


def test_regenerate_writes_only_the_named_goldens(tmp_path):
    import goldens

    goldens.regenerate(["device_curves.json"], str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["device_curves.json"]
    written = (tmp_path / "device_curves.json").read_text(encoding="utf-8")
    committed = Path(goldens.GOLDEN_DIR, "device_curves.json").read_text(encoding="utf-8")
    assert written == committed
    with pytest.raises(ValueError, match="unknown golden"):
        goldens.regenerate(["device_curve.json"], str(tmp_path))


def test_program_has_no_assert_statement():
    # python -O strips assert statements; every check in the program must
    # raise explicitly so it holds under -O too.
    found = []
    for path in sorted((ROOT / "src" / "hessmpc").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(ROOT)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
