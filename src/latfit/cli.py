"""Command-line surface: generate, fit, field, loop, check, report.

Exit codes: 0 ok, 1 invariant violation (check), 2 usage or file errors.
Evaluation points (`fit --at`, loop vertices, `field` grid nodes) must be
finite and inside the domain box: the params `domain`, or else the bounding
box of the interior atoms.  Any other point exits 2 with the point named.
All commands are deterministic given their input files and seeds.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fileio
from .checks import run_checks
from .fields import GridGeometry, evaluate_grid, fd_gradients, lower_bound_report
from .fileio import FileFormatError
from .fitting import FitError, fit_global
from .generators import GenerationError, generate
from .svg import heatmap_svg
from .topology import IrregularSampleError, ReparamError, burgers_loop, densify_loop


def _parse_point(text: str) -> np.ndarray:
    try:
        x = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise FileFormatError(f"bad coordinate list {text!r}; expected x,y[,z]") from None
    if not np.all(np.isfinite(x)):
        raise FileFormatError(f"--at: coordinates must be finite, got {text!r}")
    return x


def _require_in_domain(chi, point, where: str) -> None:
    """Reject an evaluation point outside the domain box, naming `where`, the point and the box."""
    box = chi.domain
    if not box.contains(point)[0]:
        coords = ", ".join(f"{v:g}" for v in point)
        lo = ", ".join(f"{v:g}" for v in box.lo)
        hi = ", ".join(f"{v:g}" for v in box.hi)
        raise FileFormatError(f"{where}: point ({coords}) lies outside the domain box "
                              f"[{lo}] .. [{hi}]")


def _load_configuration(args):
    params, domain = fileio.load_params(args.params)
    positions, interior = fileio.read_atoms_csv(args.atoms)
    chi = fileio.configuration_from_arrays(positions, interior, params, domain)
    return params, chi


def cmd_generate(args) -> int:
    spec = fileio.load_spec(args.spec)
    chi, truth = generate(spec)
    fileio.write_atoms_csv(args.out, chi)
    truth_path = args.truth if args.truth else args.out + ".truth.json"
    doc = {"kind": truth.kind, "meta": truth.meta}
    if truth.burgers is not None:
        doc["burgers"] = [int(v) for v in truth.burgers]
    if truth.core is not None:
        doc["core"] = [float(v) for v in truth.core]
    fileio.write_json(truth_path, doc)
    print(f"wrote {chi.n_atoms} atoms to {args.out} (truth: {truth_path})")
    return 0


def cmd_fit(args) -> int:
    params, chi = _load_configuration(args)
    x = _parse_point(args.at)
    if x.shape != (params.d,):
        raise FileFormatError(f"--at needs {params.d} coordinates")
    _require_in_domain(chi, x, "--at")
    fit = fit_global(chi, x, params)
    fileio.write_json(args.out, fileio.fit_to_dict(fit))
    print(f"h_hat = {fit.breakdown.total:.6g} (regular: {fit.regular}) -> {args.out}")
    return 0


def cmd_field(args) -> int:
    params, chi = _load_configuration(args)
    parts = args.grid.split(",")
    if len(parts) != 5:
        raise FileFormatError("--grid needs ox,oy,h,nx,ny")
    try:
        geom = GridGeometry(origin=(float(parts[0]), float(parts[1])), h=float(parts[2]),
                            nx=int(parts[3]), ny=int(parts[4]))
    except ValueError as err:
        raise FileFormatError(f"bad --grid: {err}") from None
    if not (np.all(np.isfinite(geom.origin)) and np.isfinite(geom.h)):
        raise FileFormatError(f"bad --grid: ox, oy and h must be finite, got {args.grid!r}")
    for iy in range(geom.ny):
        for ix in range(geom.nx):
            _require_in_domain(chi, geom.node(ix, iy), f"--grid node ({ix}, {iy})")
    field = evaluate_grid(chi, geom, params)
    grads = fd_gradients(field)
    report = lower_bound_report(field, grads)
    fileio.write_field_csv(args.out, field, report.entries)
    msg = f"{int(field.valid.sum())}/{field.valid.size} valid nodes, "
    if report.entries:
        msg += f"min slack {report.min_slack:.3e}"
    else:
        msg += "no lower-bound node checked: none has a valid full 3x3 stencil"
    if args.svg:
        bands = _field_bands_from_grid(field, report)
        fileio.atomic_write_text(args.svg, heatmap_svg(bands, title="latfit field"))
        msg += f", svg -> {args.svg}"
    print(f"field -> {args.out} ({msg})")
    return 0


def _field_bands_from_grid(field, report):
    ny, nx = field.shape
    h_hat = np.array(field.h_hat)
    det_a = np.full((ny, nx), np.nan)
    for iy in range(ny):
        for ix in range(nx):
            bp = field.branch[iy][ix]
            if bp is not None:
                det_a[iy, ix] = float(np.linalg.det(bp.aff_tilde.A))
    slack = np.full((ny, nx), np.nan)
    for e in report.entries:
        slack[e.node[1], e.node[0]] = e.slack
    return [("h_hat", h_hat), ("det_A_tilde", det_a), ("slack", slack)]


def cmd_loop(args) -> int:
    params, chi = _load_configuration(args)
    pts = []
    with open(args.loop, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") not in ("x,y", "x,y,z"):
            raise FileFormatError(f"{args.loop}:1: expected header x,y[,z]")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                point = np.array([float(v) for v in line.split(",")], dtype=float)
            except ValueError:
                raise FileFormatError(f"{args.loop}:{lineno}: bad coordinates") from None
            if point.shape != (params.d,):
                raise FileFormatError(f"{args.loop}:{lineno}: expected {params.d} coordinates")
            if not np.all(np.isfinite(point)):
                raise FileFormatError(f"{args.loop}:{lineno}: coordinates must be finite, "
                                      f"got {line!r}")
            _require_in_domain(chi, point, f"{args.loop}:{lineno}")
            pts.append(point)
    loop = densify_loop(np.array(pts, dtype=float), 1.2 * params.lam)
    result = burgers_loop(chi, loop, params)
    fileio.write_json(args.out, fileio.loop_to_dict(result))
    print(f"loop product B={result.product.B.tolist()} t={result.product.t.tolist()} "
          f"({result.classification}) -> {args.out}")
    return 0


def cmd_check(args) -> int:
    if args.seed < 0:
        raise FileFormatError(f"--seed must be a non-negative integer, got {args.seed}")
    params, chi = _load_configuration(args)
    report = run_checks(chi, params, seed=args.seed)
    for line in report.lines():
        print(line)
    if report.ok:
        print("check: all invariants hold")
        return 0
    print("check: VIOLATIONS found")
    return 1


def cmd_report(args) -> int:
    data = fileio.read_field_csv(args.field)
    nx = int(np.max(data["ix"])) + 1
    ny = int(np.max(data["iy"])) + 1
    names = [s.strip() for s in args.scalars.split(",")] if args.scalars else \
        ["h_hat", "det_A_tilde", "slack"]
    bands = []
    for name in names:
        if name not in data:
            raise FileFormatError(f"unknown field column {name!r}")
        arr = np.full((ny, nx), np.nan)
        arr[data["iy"].astype(int), data["ix"].astype(int)] = data[name]
        bands.append((name, arr))
    fileio.atomic_write_text(args.svg, heatmap_svg(bands, title="latfit report"))
    print(f"report -> {args.svg} ({', '.join(names)})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latfit",
        description="Reference-free local lattice fitting and defect topology for atom clouds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a seeded configuration with ground truth")
    p.add_argument("--spec", required=True, help="generator spec JSON")
    p.add_argument("--out", required=True, help="output atoms CSV")
    p.add_argument("--truth", default=None, help="ground-truth JSON (default: <out>.truth.json)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", help="fit the local lattice at one point")
    p.add_argument("--atoms", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--at", required=True, help="evaluation point x,y[,z]")
    p.add_argument("--out", required=True, help="output fit JSON")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("field", help="fit a grid of points and evaluate the lower bound")
    p.add_argument("--atoms", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--grid", required=True, help="ox,oy,h,nx,ny")
    p.add_argument("--out", required=True, help="output field CSV")
    p.add_argument("--svg", default=None, help="optional SVG heatmap")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("loop", help="Burgers product around a closed loop")
    p.add_argument("--atoms", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--loop", required=True, help="loop polyline CSV with header x,y")
    p.add_argument("--out", required=True, help="output loop JSON")
    p.set_defaults(func=cmd_loop)

    p = sub.add_parser("check", help="run the full invariant suite (exit 1 on violation)")
    p.add_argument("--atoms", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("report", help="render field CSV scalars as an SVG heatmap")
    p.add_argument("--field", required=True)
    p.add_argument("--svg", required=True)
    p.add_argument("--scalars", default=None, help="comma list (default h_hat,det_A_tilde,slack)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, GenerationError, FitError, ReparamError,
            IrregularSampleError, OSError, ValueError) as err:
        print(f"latfit: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
