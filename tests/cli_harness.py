"""Shared helpers for the tests that drive `python -m latfit` in a subprocess.

The CLI tests run each command inside a temporary directory, so a relative
`src` on PYTHONPATH no longer resolves there; `cli_env` puts the absolute
source directory first. `field_csv_mismatches` and `loop_json_mismatches` are
the golden contracts for `field.csv` and `loop.json`.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
DATA = pathlib.Path(__file__).resolve().parent / "data"

# field.csv columns that must match the golden character for character; every
# other non-blank cell is a float compared with FIELD_ATOL + FIELD_RTOL * |golden|.
FIELD_EXACT_COLUMNS = ("ix", "iy", "x", "y", "valid", "component",
                       "align_B11", "align_B12", "align_B21", "align_B22",
                       "align_t1", "align_t2")
# Measured cross-platform drift of the float columns (numpy + OpenBLAS kernels) is
# at most 8.9e-16 absolute. The bound is ~100x that, and for the golden's h_hat
# (<= 0.043) it stays under 1.5e-13, below a 1e-12 h_hat regression gate.
# loop.json floats are held to the same bound.
FIELD_ATOL = 1e-13
FIELD_RTOL = 1e-12


def cli_env():
    """Environment for a latfit subprocess: absolute `src` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(*args, cwd):
    return subprocess.run([sys.executable, "-m", "latfit", *args], cwd=cwd,
                          env=cli_env(), capture_output=True, text=True)


def field_csv_mismatches(produced: str, golden: str) -> list:
    """Differences between two field.csv texts beyond the golden contract; [] if none."""
    got = produced.splitlines()
    want = golden.splitlines()
    if not want or not got or got[0] != want[0]:
        return ["header differs"]
    if len(got) != len(want):
        return [f"row count {len(got) - 1} != {len(want) - 1}"]
    header = want[0].split(",")
    problems = []
    for line, (row_got, row_want) in enumerate(zip(got[1:], want[1:]), start=2):
        cells_got = row_got.split(",")
        cells_want = row_want.split(",")
        if len(cells_got) != len(cells_want):
            problems.append(f"line {line}: {len(cells_got)} cells != {len(cells_want)}")
            continue
        for col, a, b in zip(header, cells_got, cells_want):
            if a == b:
                continue
            if (col in FIELD_EXACT_COLUMNS or not a or not b
                    or not abs(float(a) - float(b)) <= FIELD_ATOL + FIELD_RTOL * abs(float(b))):
                problems.append(f"line {line} {col}: {a!r} != {b!r}")
    return problems


def loop_json_mismatches(produced: str, golden: str) -> list:
    """Differences between two loop.json texts beyond the golden contract; [] if none.

    Structure, key order, list lengths, ints, bools, strings and nulls must match
    exactly; floats must satisfy |x - y| <= FIELD_ATOL + FIELD_RTOL * |golden|.
    """
    problems = []

    def walk(where, got, want):
        if type(got) is not type(want):
            problems.append(f"{where}: {got!r} != {want!r}")
        elif isinstance(want, dict):
            if list(got) != list(want):
                problems.append(f"{where}: keys {list(got)} != {list(want)}")
            else:
                for key in want:
                    walk(f"{where}.{key}", got[key], want[key])
        elif isinstance(want, list):
            if len(got) != len(want):
                problems.append(f"{where}: length {len(got)} != {len(want)}")
            else:
                for i, (a, b) in enumerate(zip(got, want)):
                    walk(f"{where}[{i}]", a, b)
        elif isinstance(want, float):
            if not abs(got - want) <= FIELD_ATOL + FIELD_RTOL * abs(want):
                problems.append(f"{where}: {got!r} != {want!r}")
        elif got != want:
            problems.append(f"{where}: {got!r} != {want!r}")

    walk("$", json.loads(produced), json.loads(golden))
    return problems
