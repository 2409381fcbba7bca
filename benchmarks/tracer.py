"""Spans around the program's layer boundaries, recorded from outside.

``Tracer.install`` replaces public functions in the module namespaces where
their callers look them up (``hessmpc.engine`` for everything the loop calls,
``hessmpc.mpc`` for the solves inside ``receding_step``, ``hessmpc.baselines``
for the filter controller) with wrappers that record one span per call:
name, start, end and the index of the enclosing span. Spans stay in memory
until ``write``. A span's self time is its duration minus the durations of
its direct children.
"""

import json
import time

import numpy as np

from hessmpc import baselines, engine, mpc

# (module, attribute, span name). The engine calls ``solve_qp`` directly
# only for the coupled (periodic-SOC) solves, hence its own name.
_WRAPS = [
    (engine, "receding_step", "mpc.receding_step"),
    (engine, "physical_bounds", "mtip.physical_bounds"),
    (engine, "adaptive_bounds", "mtip.adaptive_bounds"),
    (engine, "ess_step", "devices.ess_step"),
    (engine, "l1_bounds", "mpc.l1_bounds"),
    (engine, "simple_bounds", "mpc.simple_bounds"),
    (engine, "synthesize", "scenario.synthesize"),
    (engine, "make_forecast", "scenario.make_forecast"),
    (engine, "write_csv", "timeseries.write_csv"),
    (engine, "solve_qp", "qp.coupling"),
    (engine, "build_layer_problem", "mpc.build_layer_problem"),
    (mpc, "solve_qp", "qp.solve_qp"),
    (mpc, "build_layer_problem", "mpc.build_layer_problem"),
    (baselines, "run_filter_decomposition", "baselines.run_filter_decomposition"),
]
# Metric calls made after the control loop (engine._finalize_metrics).
_FINALIZE = [
    "smoothing_rate", "rms_smoothing_rate", "minute_fluctuation_reduction",
    "round_trip_efficiency", "economic_benefit", "realized_accuracy",
    "battery_damage", "battery_soh", "bess_cycle_cost", "fess_lcoe",
]
_WRAPS += [(engine, fn, f"metrics.finalize.{fn}") for fn in _FINALIZE]

_LAYERED = {"mpc.receding_step"}
_PHASES = ["import", "setup", "engine.run", "engine.write_report"]
KNOWN = sorted(
    {name for _, _, name in _WRAPS if name not in _LAYERED}
    | {f"mpc.receding_step.{layer}" for layer in ("L1", "L2", "L3")}
    | set(_PHASES)
)
_EVENTS = ["band_clamped", "band_dropped", "forced_recharge", "simultaneous_netted"]


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self._stack = []

    def add(self, name, start, end):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent])

    def span(self, name):
        return _Span(self, name)

    def wrap(self, fn, name):
        layered = name in _LAYERED

        def traced(*args, **kwargs):
            with self.span(f"{name}.{args[0].layer_id}" if layered else name):
                return fn(*args, **kwargs)

        return traced

    def install(self):
        for module, attr, name in _WRAPS:
            setattr(module, attr, self.wrap(getattr(module, attr), name))

    def _by_name(self):
        dur = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        groups = {}
        for i, (name, _, _, _) in enumerate(self.spans):
            g = groups.setdefault(name, ([], [0.0]))
            g[0].append(dur[i])
            g[1][0] += dur[i] - child[i]
        return groups

    def call_counts(self):
        groups = self._by_name()
        return {f"calls.{name}": len(groups.get(name, ([], 0))[0])
                for name in sorted(set(KNOWN) | set(groups))}

    def layer_metrics(self, counts, csv_bytes, coupling_iterations):
        """Per-layer totals, self times and latency percentiles of one rep."""
        groups = self._by_name()
        out = {}
        for name in sorted(set(KNOWN) | set(groups)):
            d, self_s = groups.get(name, ([], [0.0]))
            us = np.asarray(d) * 1e6
            out[f"{name}.calls"] = len(d)
            out[f"{name}.s"] = float(sum(d))
            out[f"{name}.self_s"] = self_s[0]
            for q in (50, 90, 99):
                out[f"{name}.p{q}_us"] = float(np.percentile(us, q)) if d else 0.0
        receding = sum(out[f"mpc.receding_step.{k}.calls"] for k in ("L1", "L2", "L3"))
        solves = out["qp.solve_qp.calls"]
        out["qp.useful_solve_ratio"] = receding / solves if solves else 0.0
        out["qp.coupling.iterations"] = coupling_iterations
        # Shares of run time rather than seconds: both are exactly zero on
        # workloads without the periodic-SOC or filter controller.
        run_s = out["engine.run.s"]
        for name in ("qp.coupling", "baselines.run_filter_decomposition"):
            out[f"{name}.run_share"] = out[f"{name}.s"] / run_s if run_s else 0.0
        out["metrics.finalize.s"] = sum(
            out[f"metrics.finalize.{fn}.s"] for fn in _FINALIZE
        )
        write_s = out["timeseries.write_csv.s"]
        out["timeseries.write_csv.bytes"] = csv_bytes
        out["timeseries.write_csv.mb_per_s"] = csv_bytes / 1e6 / write_s if write_s else 0.0
        for event in _EVENTS:
            out[f"events.{event}"] = sum(
                v for k, v in counts.items()
                if k.startswith("events.") and k.endswith(f".{event}")
            )
        out["trace.self_sum_s"] = sum(self_s[0] for _, self_s in groups.values())
        return out

    def write(self, path, rep):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent, rep]) + "\n")


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.spans)
        t.spans.append([self.name, 0.0, 0.0, t._stack[-1] if t._stack else -1])
        t._stack.append(self.idx)
        t.spans[self.idx][1] = time.perf_counter()

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.idx][2] = time.perf_counter()
        t._stack.pop()
        return False
