"""latfit benchmark: one workload, timed end to end or traced per layer.

Usage (from the repository root):
    python3 perfbench/run.py --workload golden-field --seed 0 --seconds 35 --trace 0

Workloads (see workloads.py and README.md for why each was chosen):
golden-field, dipole-defects, golden-loops.  The seed sets the dislocation
core's offset in the unit cell; seed 0 is the committed geometry.  Inputs
are generated into perfbench/.work before anything is timed.

Each run is one fresh process, one client, closed loop.  It repeats the
workload's pipeline in whole rounds for about --seconds: it stops when one
more round would overshoot by more than it would fall short, after at least
one round.  It checks every pass against the generator's ground truth and
the paper's inequalities outside the timed region, and prints as its last
stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, from untraced passes.
Their times are scaled to a reference host speed (see CAL_REF_MS).
With --trace 1 untraced and traced passes alternate; the metrics are the
per-layer counts and times of the traced passes and bench.trace_overhead.
An environment record (host, versions, BLAS, thread settings, the raw pass
and probe times and the calibration kernel's times) is printed on the line
before the result.
The process exits non-zero without a result when latfit's source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")
SETUP_PROBES = 5
# The timing metrics are scaled to a host on which calibration_ms() reads
# CAL_REF_MS (about the median of a 2-core development VM).  There the CPU's
# speed shifts by up to 1.6x for minutes at a time; raw medians of the same
# code moved 46% between two sets of runs.  The kernel, timed just before and
# after each pass, follows those shifts, and the raw times stay in the
# environment record.
CAL_REF_MS = 30.0
# one thread: BLAS pools are pinned before numpy loads (probes inherit this)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("golden-field", "dipole-defects", "golden-loops"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seed >= 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_latfit():
    """Import latfit from this checkout's src/, never from anywhere else."""
    init = os.path.join(SRC, "latfit", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: no latfit source at {init}")
    sys.path.insert(0, SRC)
    import latfit
    if os.path.realpath(latfit.__file__) != os.path.realpath(init):
        raise SystemExit(f"perfbench: imported latfit from {latfit.__file__}, not {init}")
    return latfit


def calibration_ms(reps: int = 5) -> float:
    """Median time of a fixed small-matrix kernel shaped like latfit's inner loops."""
    import numpy as np
    rng = np.random.default_rng(0)
    mats = rng.standard_normal((500, 2, 2)) + 3.0 * np.eye(2)
    rel = rng.standard_normal((800, 2))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0.0
        for m in mats:
            inv = np.linalg.inv(m)
            acc += float(np.sum(np.cos(rel @ m.T))) * float(np.sum(inv * inv))
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def pin_threads() -> dict:
    """Run single-threaded; returns the thread settings found in the environment."""
    found = {k: v for k, v in sorted(os.environ.items())
             if k == "LATFIT_THREADS" or k.endswith("_NUM_THREADS")}
    os.environ.pop("LATFIT_THREADS", None)
    os.environ.update({k: "1" for k in THREAD_VARS})
    return found


def environment(found_threads: dict) -> dict:
    import numpy as np
    import scipy
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")
                if k in deps["blas"]}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_found": found_threads,
        "threads_used": {k: os.environ[k] for k in THREAD_VARS},
    }


def setup_seconds(inputs) -> float:
    """Process start to inputs ready, in one fresh probe process."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), SRC,
                           inputs.atoms, inputs.params],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - t0


def one_pass(workloads, wl, inputs, tracer=None):
    """(pipeline seconds, seconds including load, gate Outcome) of one pass."""
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        params, chi = workloads.load(inputs)
        t1 = time.perf_counter()
        try:
            result = wl.run(chi, params, inputs)
        except Exception as err:  # the gate reports it; the run keeps going
            traceback.print_exc(file=sys.stderr)
            result = err
        t2 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if isinstance(result, Exception):
        outcome = workloads.Outcome(n_ops=wl.n_ops, valid=[False] * wl.n_ops,
                                    h_hat=[math.nan] * wl.n_ops)
        outcome.fail(range(wl.n_ops), f"pipeline {workloads.describe_error(result)}")
    else:
        outcome = wl.check(result, chi, inputs)
    if outcome.n_ops != wl.n_ops or len(outcome.valid) != wl.n_ops:
        outcome.fail(range(wl.n_ops), f"pass had {outcome.n_ops} operations, expected {wl.n_ops}")
    return t2 - t1, t2 - t0, outcome


def main(argv=None) -> int:
    args = parse_args(argv)
    found_threads = pin_threads()
    latfit = import_latfit()
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        inputs = wl.make_inputs(args.seed, WORKDIR)
        env = environment(found_threads)

        tracer = Tracer(latfit) if args.trace else None
        walls, traced_walls, traced_totals, outcomes, rounds = [], [], [], [], []
        cals = []       # calibration before each round and after the last one
        setups = []     # (probe seconds, calibration just before it)
        # whole rounds, ending as close to --seconds as the round length allows
        while not rounds or sum(rounds) + statistics.median(rounds) / 2 < args.seconds:
            t_round = time.monotonic()
            cals.append(calibration_ms())
            if not args.trace and len(setups) < SETUP_PROBES:
                setups.append((setup_seconds(inputs), cals[-1]))   # spread over the run
            wall, _, outcome = one_pass(workloads, wl, inputs)
            walls.append(wall)
            outcomes.append(outcome)
            if tracer is not None:
                wall, total, outcome = one_pass(workloads, wl, inputs, tracer)
                traced_walls.append(wall)
                traced_totals.append(total)
                outcomes.append(outcome)
            rounds.append(time.monotonic() - t_round)
        cals.append(calibration_ms())
        while not args.trace and len(setups) < SETUP_PROBES:
            cal = calibration_ms()
            setups.append((setup_seconds(inputs), cal))
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    correct = True
    attempted = sum(o.n_ops for o in outcomes)
    failed = sum(len(o.failures) for o in outcomes)
    reasons = sorted({(i, r) for o in outcomes for i, r in o.failures.items()})
    for i, reason in reasons:
        print(f"FAIL {args.workload} seed {args.seed} operation {i}: {reason}")

    if tracer is None:
        valid = [v for o in outcomes for v in o.valid]
        h_valid = [h for o in outcomes for v, h in zip(o.valid, o.h_hat) if v and math.isfinite(h)]
        scaled = [w * CAL_REF_MS * 2.0 / (cals[i] + cals[i + 1]) for i, w in enumerate(walls)]
        wall = statistics.median(scaled)
        metrics = {
            "setup_s": (statistics.median(t * CAL_REF_MS / c for t, c in setups), "s"),
            "wall_s": (wall, "s"),
            "points_per_s": (wl.n_ops / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "passed_frac": (1.0 - failed / attempted, "fraction"),
            "valid_frac": (sum(valid) / len(valid), "fraction"),
            "h_hat_mean": (statistics.fmean(h_valid) if h_valid else 0.0, "1"),
        }
        env["pass_s"] = walls
        env["setup_s_samples"] = [t for t, _ in setups]
    else:
        metrics = tracer.metrics(wl.n_ops, len(traced_walls))
        metrics["bench.trace_overhead"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0, "fraction")
        metrics["bench.failed_frac"] = (failed / attempted, "fraction")
        env["pass_s"] = walls
        env["traced_pass_s"] = traced_walls
        env["self_s_total"] = tracer.self_time_total()
        env["traced_s_total"] = sum(traced_totals)
        if env["self_s_total"] > env["traced_s_total"]:
            print(f"FAIL {args.workload}: traced self times {env['self_s_total']:.6f} s exceed "
                  f"the traced wall time {env['traced_s_total']:.6f} s")
            correct = False

    env["calibration_ms"] = cals
    correct = correct and failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
