"""Canonical digests of the benchmark pipelines' outputs, to show that a change keeps them bit for bit.

Usage (from the repository root):
    python3 tests/same_outputs.py                      # this checkout
    python3 tests/same_outputs.py --root ../parent     # another checkout, e.g. the parent commit

For each workload of `perfbench/workloads.py` and each seed it runs the
timed pipeline once on the seed's generated inputs and prints one line,
`<workload> seed <s> <sha256>`.  The hash is over a canonical dump of the
whole result: every fit's A and tau bytes and its breakdown, iterations,
n_candidates, converged and regular flags and regularity report; the valid
masks, components, invalid reasons and `align`; the bytes of `a_tilde`,
`tau_tilde` and `h_hat`; the defect map's clusters, rings, products and
plaquettes; the lower-bound entries; the field CSV and SVG text; the loop
results; and `params.constants`.  Floats are dumped in hex, arrays as dtype,
shape and raw bytes, so equal digests mean equal bits.  Two checkouts keep
the same outputs when every line matches.

The file is not named test_*.py, so pytest does not collect it; it imports
latfit and the workloads from the checkout given by --root.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE_ROOT = Path(__file__).resolve().parent.parent
SEEDS = {"dipole-defects": (0, 1, 3, 5, 7), "golden-field": (0, 1, 13),
         "golden-loops": (0, 1, 13)}


def dump(obj, out: list) -> None:
    """Append a canonical, address-free byte form of obj to out."""
    if obj is None or isinstance(obj, (bool, int, str)):
        out.append(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, float):
        out.append(f"f:{obj.hex() if math.isfinite(obj) else repr(obj)};".encode())
    elif isinstance(obj, np.generic):
        dump(obj.item(), out)
    elif isinstance(obj, np.ndarray):
        out.append(f"a:{obj.dtype.str}:{obj.shape}:".encode())
        if obj.dtype == object:
            for item in obj.ravel():
                dump(item, out)
        else:
            out.append(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        out.append(f"{type(obj).__name__}[{len(obj)}]".encode())
        for item in obj:
            dump(item, out)
    elif isinstance(obj, dict):
        out.append(f"dict[{len(obj)}]".encode())
        for key in sorted(obj, key=repr):
            dump(key, out)
            dump(obj[key], out)
    elif isinstance(obj, BaseException):
        out.append(f"err:{type(obj).__name__}:{obj};".encode())
    elif dataclasses.is_dataclass(obj):
        out.append(f"{type(obj).__name__}(".encode())
        for f in dataclasses.fields(obj):
            out.append(f"{f.name}=".encode())
            dump(getattr(obj, f.name), out)
        out.append(b")")
    elif hasattr(obj, "__dict__"):
        out.append(f"{type(obj).__name__}{{".encode())
        for key in sorted(vars(obj)):
            out.append(f"{key}=".encode())
            dump(vars(obj)[key], out)
        out.append(b"}")
    else:
        raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(workload: str, seed: int, workloads, workdir: str) -> str:
    w = workloads.WORKLOADS[workload]
    inputs = w.make_inputs(seed, workdir)
    params, chi = workloads.load(inputs)
    parts: list = []
    dump(w.run(chi, params, inputs), parts)
    dump(params.constants, parts)
    return hashlib.sha256(b"".join(parts)).hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", type=Path, default=HERE_ROOT,
                   help="checkout whose src/ and perfbench/ to run (default: this one)")
    p.add_argument("--workload", choices=sorted(SEEDS), action="append",
                   help="workload to digest, repeatable (default: all)")
    p.add_argument("--seed", type=int, action="append",
                   help="seed to digest, repeatable (default: each workload's list)")
    args = p.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    print(f"# latfit from {Path(workloads.fitting.__file__).parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as workdir:
        for name in args.workload or sorted(SEEDS):
            for seed in args.seed or SEEDS[name]:
                print(f"{name} seed {seed} {digest(name, seed, workloads, workdir)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
