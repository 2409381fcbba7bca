"""Outside-in benchmark of the hessmpc command-line paths.

Usage::

    python3 benchmarks/run.py --workload run_balanced [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmarks/run.py --workload compare --record-digests 0-127,837832-837839

Run it with the checkout's ``src`` as the package source; nothing needs
installing. The run's clock starts after one untimed warm-up import. Each
workload runs as a sequence of fresh child interpreters (``rep.py``), one at
a time, each making one ``hessmpc run`` or ``hessmpc compare`` equivalent
through the public API, until ``--seconds`` are used up (at least three
reps). Children run with one BLAS/OpenMP thread, and the benchmark and its
children stay on one CPU, so the figures measure the program rather than
the scheduler.

``--seed N`` selects the scenario seeds 8N to 8N+7, and the reps of an
untraced run cycle through them: how much work a scenario makes depends on
its weather (the dropped-band and re-solve counts of ``run_balanced`` and
the periodic dual's iterations on ``compare`` vary by scenario), so a
median over eight scenarios moves little from one seed to the next. A
traced run uses 8N only.

Host speed: on a shared host the same code runs up to three times slower,
in spells of a second to minutes. While each rep runs, the benchmark times
a fixed reference kernel (``reference_s``: half a millisecond of pure Python
and small numpy operations, none of the program's code) every
``PROBE_EVERY_S`` on the same CPU. Each timed call of a rep is scaled by
``REF_S`` over the median probe taken within ``PROBE_WINDOW_S`` of it, and
every end-to-end time is the median over the run's reps of these scaled
times: seconds on a host that runs the reference kernel in ``REF_S``
seconds. A change to the program moves these figures as it moves the raw
times, which are printed beside them and kept in ``result.json``. The
probes take about 1% of the CPU the reps run on.

With ``--trace 0`` the last line of output is a JSON object holding every
end-to-end metric named in ``BENCHMARK.json``.
With ``--trace 1`` untraced and traced reps alternate; the traced ones wrap
the program's layer functions (``tracer.py``), run under ``-X importtime``,
and give the per-layer metrics (raw times), and ``trace.overhead_s`` is the
traced minus the untraced median scaled ``total_s``.

A rep fails when it raises, when a SOC trace leaves its envelope, when a
trace is not finite, when the digest of its report files differs from the
digest recorded for this workload and scenario seed in ``digests.json``
(written by ``--record-digests``, which takes scenario seeds), or when any
exact count (events, solver counts, call counts, report bytes, digest)
differs from the run's other reps of the same scenario. Scenario seeds
without a recorded digest are checked for agreement between reps only.

The default seed of every workload is 1. Seed 104729 is held out: use it
only to confirm a gain measured on other seeds.

Detail (per-rep values, machine stanza) goes to
``.bench_out/<workload>-seed<seed>-trace<t>/result.json`` and the spans of
traced reps to ``spans-rep<k>.jsonl`` beside it.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
HELD_OUT_SEED = 104729
DEFAULT_SEED = 1
MIN_REPS = 3
SCENARIOS_PER_SEED = 8
# The unit of the scaled end-to-end times: seconds on a host that runs
# reference_s() in REF_S seconds, about its time on a 2-vCPU Intel Xeon VM
# while the host is not slowed.
REF_S = 0.00065
CHILD_TIMEOUT_S = 150
PROBE_EVERY_S = 0.05
# Probes within this many seconds of a timed call set its host speed.
PROBE_WINDOW_S = 0.5

WORKLOADS = {
    # The paper's headline case: separable L1-L3 solves, MTIP bands, the
    # L4 loop and the CSV writer carry the load; the coupling dual is idle.
    "run_balanced": {"controllers": ["proposed"], "archetype": "balanced", "days": 2.0},
    # hessmpc compare: one shared scenario, three controllers and reports;
    # the periodic-SOC coupling dual dominates run_s and the filter report
    # is the heaviest. Proposed-only changes should barely move it.
    "compare": {
        "controllers": ["proposed", "periodic_soc", "filter"],
        "archetype": "oversupply", "days": 0.25,
    },
}
_IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")
_IMPORTED = {"hessmpc.scenario": "import.hessmpc.scenario.s", "hessmpc.qp": "import.hessmpc.qp.s"}


_REF_MATRIX = np.linspace(-1.0, 1.0, 144).reshape(12, 12)


def reference_s():
    """Seconds taken by a fixed kernel that shares no code with the program.

    Pure-Python arithmetic and dict stores, then small numpy products: the
    two kinds of work the program's phases are made of. It takes about half
    a millisecond, and its time tracks how fast the host runs this CPU at the
    moment.
    """
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(3_000):
        acc += (i % 7) * 0.5 - (i & 3)
        table[i & 255] = acc
    v = _REF_MATRIX
    for _ in range(50):
        v = np.tanh(_REF_MATRIX @ v * 0.1)
    return time.perf_counter() - start


def pin_to_one_cpu():
    """Keep this process and the children it starts on one CPU; returns it.

    The reference kernel then runs where the reps run. None where the
    platform has no CPU affinity.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_rep(spec, probes):
    """One child interpreter; returns its result dict or {"error": ...}.

    While the child runs, ``reference_s`` is timed every ``PROBE_EVERY_S``
    on the same CPU and ``(midpoint, seconds)`` appended to ``probes``.
    """
    cmd = [sys.executable]
    if spec["trace"]:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "rep.py"), json.dumps(spec)]
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        while True:
            try:
                stdout, stderr = proc.communicate(timeout=PROBE_EVERY_S)
                break
            except subprocess.TimeoutExpired:
                if time.perf_counter() > deadline:
                    proc.kill()
                    proc.communicate()
                    return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
                t = time.perf_counter()
                d = reference_s()
                probes.append((t + d / 2, d))
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    result = json.loads(lines[-1])
    if spec["trace"]:
        for line in stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m and m.group(2) in _IMPORTED:
                result["layers"][_IMPORTED[m.group(2)]] = int(m.group(1)) / 1e6
    return result


def scaled_times(rep, probes):
    """The rep's phase times, each scaled to REF_S by the probes taken during it.

    A call's time is multiplied by REF_S over the median probe taken within
    PROBE_WINDOW_S of it (the run's median probe if none), so host slowdowns
    lasting a second or more cancel out. The child's phase intervals and
    the probes read the same monotonic clock.
    """
    run_median = statistics.median(d for _, d in probes)
    out = {}
    for phase, spans in rep["intervals"].items():
        out[phase] = 0.0
        for start, end in spans:
            near = [d for t, d in probes
                    if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
            out[phase] += (end - start) * REF_S / statistics.median(near or [run_median])
    out["total_s"] = sum(out.values())
    return out


def machine_stanza(reps, cpu):
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    versions = next((r["versions"] for r in reps if "versions" in r), {})
    return {"nproc": os.cpu_count(), "cpu": cpu_model, **versions, "commit": commit,
            "child_threads": 1, "pinned_cpu": cpu}


def scenario_seeds(seed):
    return [SCENARIOS_PER_SEED * seed + j for j in range(SCENARIOS_PER_SEED)]


def check_reps(reps, workload):
    """Mark failed reps in place; returns a one-line note on the digest check."""
    book = json.loads(DIGESTS.read_text()).get(workload, {}) if DIGESTS.is_file() else {}
    seen = {}
    unrecorded = set()
    for r in reps:
        if "error" in r:
            r["failed"] = r["error"]
            continue
        problems = list(r["failures"])
        golden = book.get("seeds", {}).get(str(r["seed"]))
        if golden is None:
            unrecorded.add(r["seed"])
        elif r["digest"] != golden:
            files = book.get("files", {}) if book.get("files_seed") == r["seed"] else {}
            changed = sorted(k for k, v in files.items() if r["files"].get(k) != v)
            problems.append("report digest differs from the recorded one"
                            + (f": {changed}" if changed else ""))
        exact = {**r["counts"], "digest": r["digest"]}
        ref = seen.setdefault(r["seed"], {})
        drift = sorted(k for k, v in exact.items() if ref.setdefault(k, v) != v)
        if drift:
            problems.append(f"exact counts drifted: {drift}")
        if problems:
            r["failed"] = "; ".join(problems)
    if unrecorded:
        return (f"no digest recorded for scenario seeds {sorted(unrecorded)}: "
                "their reps checked against each other")
    return "report digests checked against the recorded digests"


def record_digests(workload, seeds, out_dir):
    book = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    entry = book.setdefault(workload, {"seeds": {}})
    for seed in seeds:
        r = run_rep(spec_for(workload, seed, False, out_dir, 0), [])
        if "error" in r or r["failures"]:
            sys.exit(f"seed {seed}: {r.get('error') or r['failures']}")
        entry["seeds"][str(seed)] = r["digest"]
        if seed == scenario_seeds(DEFAULT_SEED)[0]:
            entry["files_seed"] = seed
            entry["files"] = r["files"]
        print(f"{workload} seed {seed}: {r['digest']}", flush=True)
    entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")


def spec_for(workload, seed, trace, out_dir, rep):
    return {**WORKLOADS[workload], "seed": seed, "trace": trace,
            "out": str(out_dir / f"report-rep{rep}"),
            "spans": str(out_dir / f"spans-rep{rep}.jsonl"), "rep": rep}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"run seed (default {DEFAULT_SEED}); {HELD_OUT_SEED} is held "
                    "out for confirming a gain found on other seeds")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", metavar="SEEDS",
                    help="record report digests for scenario seeds such as 0-95 and exit")
    args = ap.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file() or not (ROOT / "src" / "hessmpc" / "__init__.py").is_file():
        sys.exit(f"error: {ROOT} is not a hessmpc source checkout "
                 "(BENCHMARK.json and src/hessmpc are required)")
    bench = json.loads(bench_file.read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    cpu = pin_to_one_cpu()
    # Compile the bytecode and warm the file cache once, untimed.
    warm = subprocess.run([sys.executable, str(HERE / "rep.py"), "--warm"], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if warm.returncode != 0:
        sys.exit(f"error: hessmpc does not import:\n{warm.stderr}")
    if args.record_digests:
        record_digests(args.workload, parse_seeds(args.record_digests), out_dir)
        return 0

    modes = [False, True] if args.trace else [False]
    seeds = scenario_seeds(args.seed)[:1] if args.trace else scenario_seeds(args.seed)
    min_reps = MIN_REPS + 1 if args.trace else MIN_REPS
    reps, walls, refs = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and elapsed + walls[-1] > seconds:
            break
        trace = modes[len(reps) % len(modes)]
        seed = seeds[len(reps) % len(seeds)]
        t0 = time.perf_counter()
        r = run_rep(spec_for(args.workload, seed, trace, out_dir, len(reps)), refs)
        walls.append(time.perf_counter() - t0)
        r.update(traced=trace, seed=seed)
        reps.append(r)

    note = check_reps(reps, args.workload)
    ok = [r for r in reps if "failed" not in r]
    failed = len(reps) - len(ok)
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    machine = machine_stanza(reps, cpu)

    print(f"hessmpc benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={fmt(seconds)}")
    print("workload: " + " ".join(f"{k}={v}" for k, v in WORKLOADS[args.workload].items())
          + f" scenario_seeds={seeds}")
    print("machine: " + " ".join(f"{k}={v!r}" for k, v in machine.items()))
    print(f"checks: {note}; attempted={len(reps)} failed={failed} "
          f"failed_frac={failed / len(reps):.6g}")
    for i, r in enumerate(reps):
        if "failed" in r:
            print(f"  rep {i} FAILED: {r['failed']}", file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("error: no rep succeeded; no metrics to report", file=sys.stderr)
        return 1

    metrics, raw = {}, {}
    probe_s = [d for _, d in refs]
    print(f"host speed: reference kernel median {fmt(statistics.median(probe_s))} s over "
          f"{len(probe_s)} probes [{fmt(min(probe_s))}, {fmt(max(probe_s))}]; "
          f"times are scaled to REF_S={REF_S} s")
    for r in ok:
        r["scaled"] = scaled_times(r, refs)
    print(f"end-to-end metrics: median of {len(untraced)} untraced reps, scaled "
          "(times only); raw median [raw min, raw max]")
    for m in bench["end_to_end"]:
        vals = [r[m["name"]] for r in untraced]
        raw[m["name"]] = statistics.median(vals)
        value = raw[m["name"]]
        if m["unit"] == "s":
            value = statistics.median(r["scaled"][m["name"]] for r in untraced)
        if not args.trace:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<14} {fmt(value):>10} {m['unit']:<4} raw {fmt(raw[m['name']])} "
              f"[{fmt(min(vals))}, {fmt(max(vals))}]")
    if args.trace:
        overhead = (statistics.median(r["scaled"]["total_s"] for r in traced)
                    - statistics.median(r["scaled"]["total_s"] for r in untraced))
        print(f"per-layer metrics: median of {len(traced)} traced reps")
        for m in bench["per_layer"]:
            name = m["name"]
            value = overhead if name == "trace.overhead_s" else \
                statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": m["unit"]}
            print(f"  {name:<46} {fmt(value):>12} {m['unit']}")
        layers = traced[0]["layers"]
        selfs = sorted(((k[: -len(".self_s")], v) for k, v in layers.items()
                        if k.endswith(".self_s") and v > 0), key=lambda kv: -kv[1])
        print(f"self time by span in the first traced rep: sums to "
              f"{fmt(sum(v for _, v in selfs))} s of its total_s {fmt(layers['trace.total_s'])} s")
        for name, v in selfs:
            print(f"  {name:<46} {fmt(v):>12} s")

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "checks": note, "metrics": metrics,
              "raw_medians": raw, "ref_s": REF_S, "probe_s": probe_s,
              "reps": [{k: v for k, v in r.items() if k != "files"} for r in reps]}
    (out_dir / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
