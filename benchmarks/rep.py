"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 benchmarks/rep.py '<spec json>'`` with ``PYTHONPATH`` set to
the repository's ``src``, or ``python3 benchmarks/rep.py --warm`` to import the
package once (compiling its bytecode) and exit.

A repetition is what one ``hessmpc run`` (one controller) or ``hessmpc
compare`` (several controllers on one shared scenario) does, made through
the public API: ``validate`` and ``prepare_scenario``, then ``run`` and
``write_report`` per controller. Each phase is timed from outside the
program, and the ``perf_counter`` interval of every timed call is returned
so that ``run.py`` can match it with its host-speed probes. The outputs are then checked (SOC envelopes, finite traces, file
digests) and the exact counts collected, outside the timed regions. The
last line of standard output is one JSON object.

Spec keys: ``controllers``, ``archetype``, ``days``, ``seed``, ``out`` (report
directory, removed afterwards), ``trace`` (wrap the layers and record spans),
``spans`` (file the spans are written to when tracing) and ``rep`` (the rep
id written with each span).
"""

import sys
import time

_t0 = time.perf_counter()
import hessmpc.cli  # noqa: E402,F401  (every CLI call pays this import)
import hessmpc.engine  # noqa: E402
_IMPORT_S = time.perf_counter() - _t0

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from hessmpc import engine  # noqa: E402
from hessmpc.config import EngineConfig, validate  # noqa: E402


def check_envelopes(cfg, rep):
    """Name of the first SOC trace outside its safety envelope, else None.

    Same rule as the acceptance suite's envelope check (criterion 3).
    """
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


def nonfinite_traces(rep):
    traces = {"original": rep.original_netload, "smoothed": rep.smoothed_netload}
    for group in ("layer_outputs", "soc_traces", "band_traces"):
        traces.update({f"{group}.{k}": v for k, v in getattr(rep, group).items()})
    return sorted(k for k, ts in traces.items() if not np.all(np.isfinite(ts.values)))


def file_digests(root):
    """sha256 and size of every file under ``root``, keyed by relative path."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                blob = fh.read()
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            out[rel] = (hashlib.sha256(blob).hexdigest(), len(blob))
    return dict(sorted(out.items()))


def combined_digest(files):
    lines = "".join(f"{rel} {sha}\n" for rel, (sha, _) in files.items())
    return hashlib.sha256(lines.encode()).hexdigest()


def main(spec):
    tracer = None
    if spec["trace"]:
        from tracer import Tracer  # this file's directory is on sys.path
        tracer = Tracer()
        tracer.add("import", _t0, _t0 + _IMPORT_S)
        tracer.install()
    phases = {"setup_s": 0.0, "run_s": 0.0, "report_s": 0.0}
    # perf_counter intervals of every timed call; the benchmark matches them
    # against its host-speed probes (same monotonic clock).
    intervals = {"import_s": [[_t0, _t0 + _IMPORT_S]], "setup_s": [], "run_s": [],
                 "report_s": []}

    def timed(phase, span, fn, *args):
        start = time.perf_counter()
        if tracer is None:
            result = fn(*args)
        else:
            with tracer.span(span):
                result = fn(*args)
        end = time.perf_counter()
        phases[phase] += end - start
        intervals[phase].append([start, end])
        return result

    def setup():
        config = EngineConfig()
        config.scenario.seed = spec["seed"]
        config.scenario.duration_days = spec["days"]
        config.scenario.archetype = spec["archetype"]
        errors = [f for f in validate(config) if f.severity == "error"]
        if errors:
            raise ValueError(f"invalid benchmark config: {errors}")
        return config, engine.prepare_scenario(config)

    config, data = timed("setup_s", "setup", setup)
    out_root = spec["out"]
    shutil.rmtree(out_root, ignore_errors=True)
    failures = []
    counts = {}
    coupling_iterations = 0
    for controller in spec["controllers"]:
        cfg = dataclasses.replace(config, controller=controller)
        out = out_root if len(spec["controllers"]) == 1 else os.path.join(out_root, controller)
        report = timed("run_s", "engine.run", engine.run, cfg, data)
        timed("report_s", "engine.write_report", engine.write_report, report, out)
        bad = check_envelopes(cfg, report)
        if bad is not None:
            failures.append(f"{controller}: {bad} SOC left its envelope")
        failures += [f"{controller}: {k} not finite" for k in nonfinite_traces(report)]
        for key, val in report.events.items():
            counts[f"events.{controller}.{key}"] = val
        for layer, st in report.solver_stats.items():
            for key in ("solves", "iterations", "infeasible"):
                if key in st:
                    counts[f"solver.{controller}.{layer}.{key}"] = st[key]
            if controller == "periodic_soc":
                coupling_iterations += st.get("iterations", 0)
        del report
    phases["import_s"] = _IMPORT_S
    phases["total_s"] = sum(phases.values())
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    files = file_digests(out_root)
    shutil.rmtree(out_root, ignore_errors=True)
    csv_bytes = sum(size for rel, (_, size) in files.items() if rel.endswith(".csv"))
    counts["report.files"] = len(files)
    counts["report.bytes"] = sum(size for _, size in files.values())
    result = {
        **phases,
        "peak_rss_mib": peak_rss_mib,
        "intervals": intervals,
        "digest": combined_digest(files),
        "files": {rel: sha for rel, (sha, _) in files.items()},
        "failures": failures,
        "counts": counts,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(counts, csv_bytes, coupling_iterations)
        result["layers"]["trace.total_s"] = phases["total_s"]
        result["counts"].update(tracer.call_counts())
        tracer.write(spec["spans"], spec["rep"])
    return result


if __name__ == "__main__":
    if sys.argv[1:] != ["--warm"]:
        print(json.dumps(main(json.loads(sys.argv[1]))))
