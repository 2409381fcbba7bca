import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


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
