"""Command-line surface: run, validate, compare, synth.

Exit codes: 0 success, 2 invalid configuration, 3 runtime abort (ledger
failure), 4 solver hard failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .config import CONTROLLERS, EngineConfig, load_config, require_valid, save_config, validate
from .engine import prepare_scenario, run, write_report
from .errors import ConfigError, HessError, LedgerClosureError, QpInfeasible
from .mpc import LAYERS
from .scenario import ScenarioConfig, synthesize
from .timeseries import write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_SOLVER = 4


def _load(args, unknown: list[str] | None = None) -> EngineConfig:
    """The configuration of the command line; ``unknown`` as in
    :func:`~hessmpc.config.from_dict`. A scenario section of the wrong kind
    takes no flag; validate reports it."""
    config = load_config(args.config, unknown) if args.config else EngineConfig()
    scenario = config.scenario
    if isinstance(scenario, ScenarioConfig):
        if args.seed is not None:
            scenario.seed = args.seed
        if args.days is not None:
            scenario.duration_days = args.days
        if getattr(args, "accuracy", None) is not None:
            scenario.forecast_accuracy = {row.layer_id: args.accuracy for row in LAYERS}
    if getattr(args, "controller", None) is not None:
        config.controller = args.controller
    if args.out is not None:
        config.out_dir = args.out
    return config


#: Each command-line flag and its argparse settings.
_FLAGS = {
    "config": {"help": "JSON config file (supports 'include')"},
    "seed": {"type": int, "help": "scenario seed override"},
    "days": {"type": float, "help": "run length in days"},
    "accuracy": {"type": float, "help": "forecast accuracy for all layers"},
    "controller": {"choices": CONTROLLERS},
    "out": {"help": "output directory"},
}


def cmd_run(args) -> int:
    config = _load(args)
    report = run(config)
    write_report(report, config.out_dir)
    print(f"controller={report.controller} seed={report.seed}")
    for key, val in sorted(report.metrics.items()):
        print(f"  {key} = {val:.6g}")
    print(f"report written to {config.out_dir}/")
    return EXIT_OK


def cmd_validate(args) -> int:
    # Unknown keys are reported with every finding of the known ones.
    unknown = []
    config = _load(args, unknown)
    if unknown:
        print(f"config error: unknown configuration keys: {', '.join(unknown)}",
              file=sys.stderr)
    findings = validate(config)
    for f in findings:
        print(f"{f.severity}: {f.path}: {f.message}")
    if not findings and not unknown:
        print("configuration valid")
    return EXIT_CONFIG if unknown or any(f.severity == "error" for f in findings) else EXIT_OK


def cmd_compare(args) -> int:
    config = _load(args)
    data = prepare_scenario(config)
    rows = []
    for controller in CONTROLLERS:
        # Each controller's report, and solve trace if any, in its own directory.
        cfg = dataclasses.replace(config, controller=controller,
                                  out_dir=os.path.join(config.out_dir, controller))
        report = run(cfg, data)
        write_report(report, cfg.out_dir)
        rows.append((controller, report.metrics, sum(report.dispatch_cost.values())))
    keys = ["smoothing_rate", "minute_fluctuation_reduction", "round_trip_efficiency"]
    header = "controller".ljust(14) + "".join(k.ljust(30) for k in keys) + "dispatch_cost"
    print(header)
    for name, met, cost in rows:
        line = name.ljust(14)
        for k in keys:
            line += f"{met.get(k, float('nan')):<30.6g}"
        line += f"{cost:.6g}"
        print(line)
    with open(os.path.join(config.out_dir, "compare.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {name: {"metrics": met, "dispatch_cost": cost} for name, met, cost in rows},
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    return EXIT_OK


def cmd_synth(args) -> int:
    config = _load(args)
    require_valid(config)
    ts = synthesize(config.scenario)
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "netload.csv")
    write_csv({path: ts})
    print(f"wrote {len(ts)} samples to {path}")
    return EXIT_OK


def cmd_default_config(args) -> int:
    path = args.out or "config.json"
    save_config(EngineConfig(), path)
    print(f"wrote default configuration to {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hessmpc",
        description="Hierarchical multi-timescale storage dispatch simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command takes the flags it reads; validate takes every flag of
    # run, so any run command line can be checked.
    every = tuple(_FLAGS)
    for name, fn, flags in (
        ("run", cmd_run, every),
        ("validate", cmd_validate, every),
        ("compare", cmd_compare, ("config", "seed", "days", "accuracy", "out")),
        ("synth", cmd_synth, ("config", "seed", "days", "out")),
        ("default-config", cmd_default_config, ("out",)),
    ):
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (LedgerClosureError,) as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except QpInfeasible as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except HessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
