import ast
import dataclasses
import importlib.util
import inspect
import os
import re
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


def test_config_sections_leave_their_value_rules_to_validate():
    # config.validate is the one home of the configuration's value rules: a
    # section that checked itself would raise inside from_dict, before
    # validate, with no field path and hiding every other finding.
    from hessmpc.config import EngineConfig

    sections = {type(v) for v in vars(EngineConfig()).values() if dataclasses.is_dataclass(v)}
    assert {"ScenarioConfig", "TariffConfig", "VicParams", "FessParams", "AweParams",
            "MeohParams", "BatteryDegParams"} <= {cls.__name__ for cls in sections}
    for cls in sections:
        tree = ast.parse(Path(inspect.getsourcefile(cls)).read_text())
        (node,) = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == cls.__name__]
        methods = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
        assert "__post_init__" not in methods, cls.__name__


def test_write_report_writes_each_csv_in_one_engine_write_csv_call(tmp_path, monkeypatch):
    # The tracer's timeseries.write_csv.* metrics time calls of the name
    # engine.write_csv; a file written any other way would be missing there.
    from hessmpc import engine
    from hessmpc.config import EngineConfig

    cfg = EngineConfig()
    cfg.scenario.duration_days = 1.0 / 24.0
    report = engine.run(cfg)
    written = []
    write_csv = engine.write_csv

    def counting_write_csv(files):
        written.extend(Path(path).name for path in files)
        write_csv(files)

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


@pytest.mark.parametrize("controller, stores", [
    ("proposed", 3), ("periodic_soc", 3), ("filter", 4),
])
def test_store_limits_are_built_once_per_run(monkeypatch, controller, stores):
    # An EssState holds a store's fixed limits only, and callers carry the
    # energy as a float: a run builds one per store (compressed air,
    # battery, flywheel; the filter's hydrogen tank too), none per advance.
    from hessmpc import engine
    from hessmpc.config import EngineConfig
    from hessmpc.devices import EssState

    built = []
    post_init = EssState.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(EssState, "__post_init__", counting)
    cfg = EngineConfig(controller=controller)
    cfg.scenario.duration_days = 1.0 / 24.0
    engine.run(cfg)
    assert len(built) == stores


def test_runs_load_no_scipy():
    # Importing scipy.signal was most of the CLI's start-up; a run needs none
    # of scipy (the dense QP oracle imports scipy.linalg when it is called).
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout.strip() == "[]"


def test_package_does_not_depend_on_scipy():
    # scipy is a test dependency: only the tests' oracles import it.
    found = []
    for path in sorted((ROOT / "src" / "hessmpc").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.relative_to(ROOT)}:{node.lineno}"
                      for name in names if name.split(".")[0] == "scipy"]
    assert found == []
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert not [dep for dep in project["dependencies"] if "scipy" in dep]


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


def test_store_losses_are_read_in_one_module():
    # The loss step has one implementation, in devices/storage.py; every
    # other module reaches the loss fields through EssState's helpers, and
    # config.py fills them in.
    readers = []
    for path in sorted((ROOT / "src" / "hessmpc").rglob("*.py")):
        if path.name in ("storage.py", "config.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        readers += [f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and node.attr in ("self_discharge", "standby_loss")]
    assert readers == []
    # The flywheel loop and the filter loop take saturate's limits and
    # losses from the one helper.
    for module, fn in (("vic.py", "close_residual"), ("baselines.py", "run_filter_decomposition")):
        tree = ast.parse((ROOT / "src" / "hessmpc" / module).read_text(encoding="utf-8"))
        body = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == fn)
        assert any(isinstance(node, ast.Attribute) and node.attr == "saturate_args"
                   for node in ast.walk(body)), fn


def _power_clips(path):
    """Names of the functions in ``path`` that clip one value to a bound
    from both sides, ``if p > cap: p = cap`` and ``if p < -cap: p = -cap``:
    the store's power clip."""
    found = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, ast.FunctionDef):
            continue
        clamps = {f"{ast.unparse(node.test)}: {ast.unparse(node.body[0])}"
                  for node in ast.walk(fn) if isinstance(node, ast.If) and len(node.body) == 1}
        upper = [re.fullmatch(r"(\w+) > (\w+): \1 = \2", clamp) for clamp in clamps]
        if any(m and "{0} < -{1}: {0} = -{1}".format(*m.groups()) in clamps for m in upper):
            found.append(fn.name)
    return found


def test_store_clip_is_written_once():
    # The loss, cap and envelope clip of a store has one implementation,
    # the block kernel; the flywheel law and the filter baseline call it.
    found = [f"{path.relative_to(ROOT)}: {name}"
             for path in sorted((ROOT / "src" / "hessmpc").rglob("*.py"))
             for name in _power_clips(path)]
    assert found == ["src/hessmpc/devices/storage.py: saturate_block"]


@pytest.mark.parametrize("controller, module, calls", [
    ("proposed", "vic", [60] * 60),
    # Flywheel and battery bands close per minute, compressed air per
    # quarter-hour and hydrogen per hour: one call per energy-trace step.
    ("filter", "baselines", [60] * 120 + [900] * 4 + [3600]),
])
def test_runs_call_the_clip_kernel_per_block(monkeypatch, controller, module, calls):
    # A 1-hour run calls the clip kernel once per minute (the flywheel) or
    # per energy-trace step (the filter baseline), never once per second.
    import importlib

    from hessmpc import engine
    from hessmpc.config import EngineConfig

    mod = importlib.import_module(f"hessmpc.{module}")
    seen = []
    kernel = mod.saturate_block

    def counting(requests, *args):
        seen.append(len(requests))
        return kernel(requests, *args)

    monkeypatch.setattr(mod, "saturate_block", counting)
    cfg = EngineConfig(controller=controller)
    cfg.scenario.duration_days = 1.0 / 24.0
    engine.run(cfg)
    assert seen == calls


def test_filter_run_calls_the_names_the_tracer_wraps(monkeypatch):
    # The tracer's baselines.run_filter_decomposition.run_share and
    # metrics.finalize.* metrics count calls of these names in the module
    # namespaces it wraps; a filter run that reached them any other way
    # would read 0 there.
    from hessmpc import engine
    from hessmpc.config import EngineConfig

    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    calls = {}
    for module, attr, name in tracer._WRAPS:
        if name.startswith(("baselines.", "metrics.finalize.")):
            calls[name] = 0

            def counting(*args, _fn=getattr(module, attr), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, attr, counting)
    cfg = EngineConfig(controller="filter")
    cfg.scenario.duration_days = 1.0 / 24.0
    engine.run(cfg)
    assert calls.pop("baselines.run_filter_decomposition") == 1
    assert sorted(calls) == sorted(f"metrics.finalize.{fn}" for fn in tracer._FINALIZE)
    assert [name for name, n in calls.items() if n == 0] == []


def test_finalize_calls_the_names_the_tracer_wraps(monkeypatch):
    # The tracer's metrics.finalize.* metrics time calls of these names in
    # engine's namespace; a metric that _finalize_metrics reached any other
    # way (inlined, split into blocks under another name, or bound at
    # import) would read 0 there.
    from hessmpc import engine
    from hessmpc.config import EngineConfig

    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    cfg = EngineConfig()
    cfg.scenario.duration_days = 1.0 / 24.0
    data = engine.prepare_scenario(cfg)
    report = engine.run(cfg, data)
    calls = dict.fromkeys(tracer._FINALIZE, 0)
    for fn in tracer._FINALIZE:
        def counting(*args, _fn=getattr(engine, fn), _name=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(engine, fn, counting)
    engine._finalize_metrics(report, cfg, data)
    # One call per metric; realized_accuracy once per layer, battery_soh for
    # the run's end and for a fresh battery.
    assert calls == {**dict.fromkeys(tracer._FINALIZE, 1), "realized_accuracy": 3,
                     "battery_soh": 2}


def test_engine_run_decides_every_layer_at_one_call_site():
    # L1, L2 and L3 decide through one routine: one call of the step law in
    # engine.run, and no L1-only pending move beside the layer records. The
    # solve trace is written at one site too, in that routine. The filter
    # baseline builds its report through the engine's public helper.
    src = ROOT / "src" / "hessmpc"
    tree = ast.parse((src / "engine.py").read_text(encoding="utf-8"))
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "run")
    nodes = list(ast.walk(body))
    decide = next(node for node in nodes
                  if isinstance(node, ast.FunctionDef) and node.name == "decide")
    in_decide = list(ast.walk(decide))
    laws = [node for node in nodes if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "law"]
    writes = [node for node in nodes if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute) and node.func.attr == "write"]
    assert len(laws) == len(writes) == 1
    assert laws[0] in in_decide and writes[0] in in_decide
    assert not [node for node in nodes if isinstance(node, ast.Name) and node.id == "pending_l1"]
    tree = ast.parse((src / "baselines.py").read_text(encoding="utf-8"))
    private = [f"{node.lineno}: {alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "engine"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_package_has_no_dense_form():
    # Every layer problem is solved, and traced, on its step structure; the
    # dense standard form is the tests' oracle, in tests/oracles.py.
    dense = {"QpProblem", "dense_problem"}
    found = []
    for path in sorted((ROOT / "src" / "hessmpc").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.split(".")[-1] for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                      for name in names if name in dense]
    assert found == []


def _nudges(value):
    """Values 5% off ``value`` (0.05 for a zero, one more for a small
    integer), one per entry of a tuple; none for an empty tuple."""
    if isinstance(value, tuple):
        return [value[:i] + (v,) + value[i + 1:]
                for i, entry in enumerate(value) for v in _nudges(entry)]
    if isinstance(value, int):
        return [value + max(1, value // 20)]
    return [value * 1.05 if value else 0.05]


def _device_outputs(cfg):
    """The device models' outputs at one operating point: the hydrogen
    chain at its idle, mid and clamped low loads, the electrolyzer's
    hydrogen rate and the L1 input caps, battery health, stress and cycle
    cost at an ambient temperature off T_ref, the flywheel's state, standby
    drain and levelized cost, and its law's answer to a residual step."""
    from hessmpc.devices import (awe_hydrogen, battery_soh, bess_cycle_cost, fess_lcoe,
                                 stress_factors)
    from hessmpc.mpc import freeze_efficiencies
    from hessmpc.vic import close_residual

    out = []
    for loads in (None, (0.6,) * 4, (0.01,) * 4):
        out += dataclasses.astuple(freeze_efficiencies(cfg.awe, cfg.pemfc, cfg.meoh,
                                                       cfg.turbine, loads))
    out.append(awe_hydrogen(cfg.awe.j_nominal * cfg.awe.area, cfg.awe)[0])
    out += cfg.layer_specs()["L1"].u_max.tolist()
    deg = cfg.battery_deg
    out += [battery_soh(0.1, deg), *stress_factors(cfg.ambient_temp_c, 3600.0, 0.6, 0.3, deg),
            bess_cycle_cost(1e-4, deg, cfg.bess.energy_mwh)]
    fess, energy = cfg.fess_state()
    out += [*dataclasses.astuple(fess), energy, fess_lcoe(cfg.fess)]
    out += close_residual([0.0, 5.0, 5.0, -3.0], energy, None, cfg.vic, fess)[0]
    return out


def test_every_device_field_moves_a_model_output():
    # A field no model reads is a setting no run can use. The operating
    # point has nonzero flywheel losses, so the rated speed sets the
    # standby drain, and an ambient temperature off T_ref, so the battery's
    # temperature stress reads its coefficient.
    from hessmpc.config import EngineConfig
    from hessmpc.devices import FessParams

    base = EngineConfig(fess=FessParams(windage_coeff=1e-9, bearing_coeff=1.0, bop_power=1e3,
                                        lifetime_cycles=1000), ambient_temp_c=35.0)
    want = _device_outputs(base)
    dead = []
    for section in ("awe", "pemfc", "meoh", "turbine", "battery_deg", "fess", "vic"):
        params = getattr(base, section)
        for f in dataclasses.fields(params):
            moved = [_device_outputs(dataclasses.replace(base, **{
                section: dataclasses.replace(params, **{f.name: v})})) != want
                for v in _nudges(getattr(params, f.name))]
            if not any(moved):
                dead.append(f"{section}.{f.name}")
    assert dead == []
