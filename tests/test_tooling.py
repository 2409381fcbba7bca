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
