"""Regenerate the committed CLI golden files (run from the repo root).

Usage: python tests/data/make_goldens.py [generate] [field] [loop]

With no target, all three run in order.  A target rewrites only its own
goldens, from the committed inputs in this directory:
  generate -> golden_atoms.csv, golden_truth.json
  field    -> golden_field.csv, golden_field.svg
  loop     -> golden_loop.json
The tests compare `golden_field.csv` cell by cell (integers, flags and blanks
exactly, fitted floats to 1e-13 + 1e-12 * |golden|, since BLAS kernels move the
last ulps between hosts) and every other golden byte for byte.
"""

import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
from cli_harness import cli_env  # noqa: E402

TARGETS = {
    "generate": ("generate", "--spec", "dislocation_spec.json", "--out", "golden_atoms.csv",
                 "--truth", "golden_truth.json"),
    "field": ("field", "--atoms", "golden_atoms.csv", "--params", "params.json",
              "--grid", "2,2,2,6,6", "--out", "golden_field.csv", "--svg", "golden_field.svg"),
    "loop": ("loop", "--atoms", "golden_atoms.csv", "--params", "params.json",
             "--loop", "loop.csv", "--out", "golden_loop.json"),
}


def run(*args):
    cmd = [sys.executable, "-m", "latfit", *args]
    print("+", " ".join(cmd))
    subprocess.run(cmd, check=True, cwd=HERE, env=cli_env())


def main(argv):
    unknown = [t for t in argv if t not in TARGETS]
    if unknown:
        sys.exit(f"unknown target(s) {', '.join(unknown)}; choose from {', '.join(TARGETS)}")
    for name in TARGETS:
        if not argv or name in argv:
            run(*TARGETS[name])


if __name__ == "__main__":
    main(sys.argv[1:])
