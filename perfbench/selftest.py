"""Self-test of the benchmark on a tiny instance (3x3 grids and one loop).

Usage (from the repository root): python3 perfbench/selftest.py

Checks that
- every metric BENCHMARK.json names is printed, with its unit, by one run of
  each workload in each trace mode, and that traced self times stay within
  the traced wall time;
- the gate flags deliberately corrupted outputs (a wrong Burgers t, a
  negative slack, a non-identity plaquette, a truncated CSV, a pipeline that
  raises), so it can fail;
- seed 0 is the committed geometry: the generated atoms equal
  tests/data/golden_atoms.csv and the half-width-10 loop, densified, equals
  tests/data/loop.csv densified;
- the tracer puts every wrapped function back when uninstalled;
- run.py exits non-zero without a result where latfit's source is missing.
Exits 1 when any check fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import run

HERE = run.HERE
ROOT = run.ROOT
latfit = run.import_latfit()

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from latfit import fields, fileio, topology  # noqa: E402
from tracer import Tracer  # noqa: E402

FAILURES: list[str] = []


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


TINY = {
    "golden-field": dataclasses.replace(
        W.WORKLOADS["golden-field"], n_ops=9,
        run=lambda chi, params, inputs: W.golden_field_run(
            chi, params, grid=dict(origin=(4.0, 4.0), h=2.0, nx=3, ny=3))),
    "dipole-defects": dataclasses.replace(
        W.WORKLOADS["dipole-defects"], n_ops=9,
        run=lambda chi, params, inputs: W.dipole_run(
            chi, params, grid=dict(origin=(-16.0, -10.0), h=2.0, nx=3, ny=3))),
    "golden-loops": dataclasses.replace(
        W.WORKLOADS["golden-loops"], n_ops=12,
        run=lambda chi, params, inputs: W.loops_run(chi, params, inputs.cores,
                                                    half_widths=(10.0,))),
}


def run_tiny(name: str, trace: int) -> tuple[dict, dict]:
    real = W.WORKLOADS
    W.WORKLOADS = TINY
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = run.main(["--workload", name, "--seed", "0", "--seconds", "0.01",
                             "--trace", str(trace)])
    finally:
        W.WORKLOADS = real
    lines = buf.getvalue().splitlines()
    check(code == 0, f"{name} trace={trace}: exit code 0")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def check_metrics() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(W.WORKLOADS),
          "BENCHMARK.json names the workloads run.py runs")
    for name in W.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            env, result = run_tiny(name, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} trace={trace}: result has exactly the four keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= TINY[name].n_ops,
                  f"{name} trace={trace}: tiny instance passes the gate")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{name} trace={trace}: prints every {key} metric with its unit")
            check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                      for v in result["metrics"].values()),
                  f"{name} trace={trace}: every value is a finite number")
            if trace:
                check(env["self_s_total"] <= env["traced_s_total"],
                      f"{name}: traced self times sum to at most the traced wall time")


def tiny_result(name: str, inputs):
    params, chi = W.load(inputs)
    return TINY[name].run(chi, params, inputs), chi


def check_gate(workdir: str) -> None:
    golden = W.golden_inputs(0, workdir)

    (field_grid, report, csv_text, svg_text), chi = tiny_result("golden-field", golden)
    check(not W.check_golden_field((field_grid, report, csv_text, svg_text), chi,
                                   golden).failures, "golden-field: clean output passes")
    bad = dataclasses.replace(report.entries[0], slack=-1e-6)
    bad_report = dataclasses.replace(report, entries=(bad,) + report.entries[1:])
    out = W.check_golden_field((field_grid, bad_report, csv_text, svg_text), chi, golden)
    check(any("slack" in r for r in out.failures.values()), "gate flags a negative slack")
    out = W.check_golden_field((field_grid, report, csv_text.split("\n", 2)[0], svg_text),
                               chi, golden)
    check(len(out.failures) == out.n_ops, "gate flags a truncated field CSV on every node")

    fits = [list(row) for row in field_grid.fits]
    fit = fits[1][1]
    fits[1][1] = dataclasses.replace(
        fit, aff_hat=latfit.AffinePair(fit.aff_hat.A, fit.aff_hat.tau + 0.5))
    out = W.check_golden_field((dataclasses.replace(field_grid, fits=fits), report,
                                csv_text, svg_text), chi, golden)
    check(any("plaquette" in r for r in out.failures.values()),
          "gate flags plaquettes around a fit shifted by half a cell")

    (loops, chi) = tiny_result("golden-loops", golden)
    check(not W.check_loops(loops, chi, golden).failures, "golden-loops: clean output passes")
    loop, res = loops[0]
    for t in ((0, 0), (1, 1), (0, 2)):
        wrong = topology.Reparam(res.product.B, np.array(t, dtype=np.int64))
        out = W.check_loops([(loop, dataclasses.replace(res, product=wrong))], chi, golden)
        check(len(out.failures) == out.n_ops, f"gate fails every sample of a loop with t={t}")
    out = W.check_loops([(loop, topology.IrregularSampleError("loop sample 3 is not regular"))],
                        chi, golden)
    check(len(out.failures) == out.n_ops
          and all("refused IrregularSampleError" in r for r in out.failures.values()),
          "gate names a refused loop on every sample")

    dipole = W.dipole_inputs(0, workdir)
    (field_grid, dmap), chi = tiny_result("dipole-defects", dipole)
    check(not W.check_dipole((field_grid, dmap), chi, dipole).failures,
          "dipole-defects: clean output passes")
    one_t = topology.Reparam(np.eye(2, dtype=np.int64), np.array([1, 0], dtype=np.int64))
    out = W.check_dipole((field_grid, dataclasses.replace(
        dmap, plaquettes={**dmap.plaquettes, (0, 0): one_t})), chi, dipole)
    check(any("plaquette (0,0)" in r for r in out.failures.values()),
          "gate flags a non-identity plaquette away from the cores")
    ring = ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1))
    inside = field_grid.geometry.node(1, 1)
    both_inside = dataclasses.replace(dipole, cores=(tuple(inside), tuple(inside)))
    cluster = fields.DefectCluster(nodes=((1, 1),), ring=ring, product=one_t,
                                   classification="translation-defect", unringable=False)
    out = W.check_dipole((field_grid, dataclasses.replace(dmap, clusters=(cluster,))), chi,
                         both_inside)
    check(any("both cores" in r for r in out.failures.values()),
          "gate flags a ring around both cores with a non-zero product")

    raising = dataclasses.replace(TINY["golden-field"], run=lambda *a: 1 / 0)
    with contextlib.redirect_stderr(io.StringIO()):     # the expected traceback
        _, _, out = run.one_pass(W, raising, golden)
    check(len(out.failures) == out.n_ops
          and all("unexpected ZeroDivisionError" in r for r in out.failures.values()),
          "a pipeline that raises fails every operation, named unexpected")


def check_seed0(workdir: str) -> None:
    golden = W.golden_inputs(0, workdir)
    gen, gen_int = fileio.read_atoms_csv(golden.atoms)
    ref, ref_int = fileio.read_atoms_csv(os.path.join(ROOT, "tests", "data", "golden_atoms.csv"))
    check(np.array_equal(gen, ref) and np.array_equal(gen_int, ref_int),
          "seed 0 atoms equal tests/data/golden_atoms.csv exactly")
    step = 1.2 * W.LAM
    ref_loop = np.loadtxt(os.path.join(ROOT, "tests", "data", "loop.csv"), delimiter=",",
                          skiprows=1)
    check(np.array_equal(topology.densify_loop(W.loop_corners(golden.cores[0], 10.0), step),
                         topology.densify_loop(ref_loop, step)),
          "seed 0 half-width-10 loop equals tests/data/loop.csv once densified")


def check_tracer() -> None:
    before = (fields.evaluate_grid, latfit.Configuration.__dict__["local_atoms"],
              latfit.fitting.assemble_j, latfit.core_model.assemble_j)
    tracer = Tracer(latfit)
    tracer.install()
    patched = fields.evaluate_grid is not before[0] and latfit.fitting.assemble_j is not before[2]
    tracer.uninstall()
    after = (fields.evaluate_grid, latfit.Configuration.__dict__["local_atoms"],
             latfit.fitting.assemble_j, latfit.core_model.assemble_j)
    check(patched and all(a is b for a, b in zip(before, after)),
          "tracer wraps functions where they are imported and restores them all")


def check_bare_copy() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns(".work*", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "golden-loops",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without latfit's source run.py exits non-zero and prints no result")


def main() -> int:
    check_tracer()
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-selftest-") as workdir:
        check_seed0(workdir)
        check_gate(workdir)
    check_metrics()
    check_bare_copy()
    print(f"selftest: {len(FAILURES)} failed" if FAILURES else "selftest: all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
