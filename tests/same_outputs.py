"""Canonical digests of the benchmark pipelines' outputs, to show that a change keeps them bit for bit.

Usage (from the repository root):
    python3 tests/same_outputs.py                      # this checkout
    python3 tests/same_outputs.py --root ../parent     # another checkout, e.g. the parent commit
    python3 tests/same_outputs.py --against ../parent  # both, then the lines that differ

For each workload of `perfbench/workloads.py` and each seed it runs the
timed pipeline once on the seed's generated inputs and prints one line,
`<workload> seed <s> <sha256> <float-free sha256>`.  The first hash is over
a canonical dump of the whole result: every fit's A and tau bytes and its
breakdown, iterations, n_candidates, converged and regular flags and
regularity report; the valid masks, components, invalid reasons and
`align`; the bytes of `a_tilde`, `tau_tilde` and `h_hat`; the defect map's
clusters, rings, products and plaquettes; the lower-bound entries; the
field CSV and SVG text; the loop results; and `params.constants`.  Floats
are dumped in hex, arrays as dtype, shape and raw bytes, so equal digests
mean equal bits.  The second hash is
over the same dump with every float dropped: a float or float array counts
by type and shape only, and every decimal number inside a string (the field
CSV, the SVG legend, error messages) is masked.  Equal float-free digests
with unequal first digests mark a change that moves floats alone: every
integer, flag, mask, shape and message stays.  Two checkouts keep the same
outputs when every line matches.  With --against ROOT the script computes
the digests of --root and of ROOT, each checkout in its own process, prints
the lines that differ, counts the equal lines and the equal float-free
digests, and exits 1 on any line that differs.

The file is not named test_*.py, so pytest does not collect it; it imports
latfit and the workloads from the checkout given by --root.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE_ROOT = Path(__file__).resolve().parent.parent
SEEDS = {"dipole-defects": (0, 1, 3, 5, 7), "golden-field": (0, 1, 13),
         "golden-loops": (0, 1, 13)}
# a number with a decimal point or an exponent, as a float prints inside a string
DECIMAL = re.compile(r"[-+]?(?:(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)"
                     r"|\b(?:nan|inf)\b")


def dump(obj, out: list, floats: bool = True) -> None:
    """Append a canonical, address-free byte form of obj to out (float-free without floats)."""
    if isinstance(obj, str) and not floats:
        out.append(f"str:{DECIMAL.sub('#', obj)!r};".encode())
    elif obj is None or isinstance(obj, (bool, int, str)):
        out.append(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, float):
        out.append(f"f:{obj.hex() if math.isfinite(obj) else repr(obj)};".encode() if floats
                   else b"f;")
    elif isinstance(obj, np.generic):
        dump(obj.item(), out, floats)
    elif isinstance(obj, np.ndarray):
        out.append(f"a:{obj.dtype.str}:{obj.shape}:".encode())
        if obj.dtype == object:
            for item in obj.ravel():
                dump(item, out, floats)
        elif floats or obj.dtype.kind not in "fc":
            out.append(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        out.append(f"{type(obj).__name__}[{len(obj)}]".encode())
        for item in obj:
            dump(item, out, floats)
    elif isinstance(obj, dict):
        out.append(f"dict[{len(obj)}]".encode())
        for key in sorted(obj, key=repr):
            dump(key, out, floats)
            dump(obj[key], out, floats)
    elif isinstance(obj, BaseException):
        out.append(f"err:{type(obj).__name__}:{obj};".encode())
    elif dataclasses.is_dataclass(obj):
        out.append(f"{type(obj).__name__}(".encode())
        for f in dataclasses.fields(obj):
            out.append(f"{f.name}=".encode())
            dump(getattr(obj, f.name), out, floats)
        out.append(b")")
    elif hasattr(obj, "__dict__"):
        out.append(f"{type(obj).__name__}{{".encode())
        for key in sorted(vars(obj)):
            out.append(f"{key}=".encode())
            dump(vars(obj)[key], out, floats)
        out.append(b"}")
    else:
        raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(workload: str, seed: int, workloads, workdir: str) -> tuple:
    """(digest, float-free digest) of one pipeline run at one seed."""
    w = workloads.WORKLOADS[workload]
    inputs = w.make_inputs(seed, workdir)
    params, chi = workloads.load(inputs)
    result = (w.run(chi, params, inputs), params.constants)
    hashes = []
    for floats in (True, False):
        parts: list = []
        for part in result:
            dump(part, parts, floats)
        hashes.append(hashlib.sha256(b"".join(parts)).hexdigest())
    return tuple(hashes)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", type=Path, default=HERE_ROOT,
                   help="checkout whose src/ and perfbench/ to run (default: this one)")
    p.add_argument("--workload", choices=sorted(SEEDS), action="append",
                   help="workload to digest, repeatable (default: all)")
    p.add_argument("--seed", type=int, action="append",
                   help="seed to digest, repeatable (default: each workload's list)")
    p.add_argument("--against", type=Path,
                   help="another checkout: digest both, print the lines that differ, exit 1 on any")
    args = p.parse_args(argv)
    root = args.root.resolve()
    if args.against is not None:
        return compare(root, args.against.resolve(), args)
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    print(f"# latfit from {Path(workloads.fitting.__file__).parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as workdir:
        for name in args.workload or sorted(SEEDS):
            for seed in args.seed or SEEDS[name]:
                print(f"{name} seed {seed} {' '.join(digest(name, seed, workloads, workdir))}",
                      flush=True)
    return 0


def compare(root: Path, other: Path, args) -> int:
    """Digest both checkouts, each in its own process; print the differing lines; 0 if none.

    The counts also say how many float-free digests (each line's last field) are equal.
    """
    picks = ([f"--workload={w}" for w in args.workload or ()]
             + [f"--seed={s}" for s in args.seed or ()])
    lines = []
    for checkout in (root, other):
        run = subprocess.run([sys.executable, __file__, f"--root={checkout}", *picks],
                             capture_output=True, text=True, check=True)
        lines.append(run.stdout.splitlines())
    differ = [(a, b) for a, b in zip(*lines) if a != b]
    if len(lines[0]) != len(lines[1]):
        differ.append((f"{len(lines[0])} lines", f"{len(lines[1])} lines"))
    float_free = sum(a.split()[-1] == b.split()[-1] for a, b in zip(*lines))
    for a, b in differ:
        print(f"- {a}  ({root})\n+ {b}  ({other})")
    print(f"{len(lines[0]) - len(differ)} of {len(lines[0])} lines equal, "
          f"{float_free} of {len(lines[0])} float-free digests equal", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
