"""The three benchmark workloads: seeded inputs, the timed pipeline, and the correctness gate.

Every workload is built from one of the paper's constructions as the test
suite runs it, and keeps the units of work the ROADMAP names: the grid node
(fit, align, branch minimizer, F_C and slack) and the loop sample.

- golden-field: what `latfit field --grid 2,2,2,6,6 --svg` does, on the golden
  edge dislocation (8,460 atoms, lam=8).  36 nodes, 16 with a lower-bound
  entry.  Multistart `fit_global` dominates, but `f_c` is 15-30% of the
  run, so this is the only workload where an `f_c` change shows.
- dipole-defects: the setup of tests/test_fields.py::test_dipole_ring_cancels,
  a 17x11 grid with tight thresholds and `defect_map`.  187 nodes, about 46
  invalid around the cores, so the alignment BFS crosses large valid regions
  and runs into invalid clusters; `find_reparam` and `defect_map` run here.
- golden-loops: `burgers_loop` around four squares centred on the core
  (half-widths 6, 8, 10, 12; the 10 one is tests/data/loop.csv), densified at
  1.2 lam as `latfit loop` does: 40 samples 9.6 apart, beyond lam/4, so grid
  continuation and neighbour reuse cannot help there.  Half-width 5 is
  refused by design (tau-rounding gap 0.27 > 0.25 next to the core).

The seed sets the dislocation core's offset inside the unit cell; seed 0 is
the committed geometry.  Both dipole cores shift by the same offset and the
loops stay centred on the core.

The timed pipelines call latfit through module attributes (`fields.f(...)`)
so that the tracer's wrappers, installed on those modules, see every call.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from latfit import core_model, fields, fileio, fitting, generators, svg, topology

LAM = 8.0
GOLDEN_OFFSET = (0.5, 0.5)    # tests/data/dislocation_spec.json's core
SLACK_TOL = 1e-10

# errors latfit raises with a named reason; anything else is unexpected
NAMED_ERRORS = (fitting.FitError, topology.ReparamError, topology.IrregularSampleError,
                ValueError)


def core_offset(seed: int) -> np.ndarray:
    """The dislocation core's position in the unit cell [0, 1)^2 for a seed."""
    if seed == 0:
        return np.array(GOLDEN_OFFSET)
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=2)


@dataclass(frozen=True)
class Inputs:
    atoms: str
    params: str
    cores: tuple            # ground-truth defect cores, (x, y) each


@dataclass
class Outcome:
    """Gate verdict for one pass: one entry per operation (node or loop sample)."""

    n_ops: int
    valid: list = field(default_factory=list)         # bool per operation
    h_hat: list = field(default_factory=list)         # float per operation (nan if none)
    failures: dict = field(default_factory=dict)      # operation index -> reason

    def fail(self, ops, reason: str) -> None:
        for i in ops:
            self.failures.setdefault(i, reason)


def _params_doc(half: float) -> dict:
    return {"d": 2, "lambda": LAM, "s0": 0.5, "vartheta": 1.0,
            "domain": {"lo": [-half, -half], "hi": [half, half]}}


def _write(workdir: str, tag: str, chi, params_doc: dict) -> tuple[str, str]:
    atoms = os.path.join(workdir, f"{tag}_atoms.csv")
    params = os.path.join(workdir, f"{tag}_params.json")
    fileio.write_atoms_csv(atoms, chi)
    fileio.write_json(params, params_doc)
    return atoms, params


def golden_inputs(seed: int, workdir: str) -> Inputs:
    """tests/data/dislocation_spec.json with the core moved to the seed's offset."""
    spec = generators.GeneratorSpec(kind="edge_dislocation", domain_lo=(-14, -14),
                                    domain_hi=(14, 14), lam=LAM, seed=1, burgers=(1, 0),
                                    core=tuple(float(v) for v in core_offset(seed)))
    chi, truth = generators.generate(spec)
    atoms, params = _write(workdir, f"golden_s{seed}", chi, _params_doc(14.0))
    return Inputs(atoms, params, (tuple(float(v) for v in truth.core),))


def dipole_inputs(seed: int, workdir: str) -> Inputs:
    shift = core_offset(seed) - np.array(GOLDEN_OFFSET)
    box = core_model.Box(np.array([-24.0, -24.0]), np.array([24.0, 24.0]))
    c1 = np.array([-6.5, 0.5]) + shift
    c2 = np.array([7.5, 0.5]) + shift
    chi, _ = generators.edge_dipole(box, LAM, core1=c1, core2=c2)
    atoms, params = _write(workdir, f"dipole_s{seed}", chi, _params_doc(24.0))
    return Inputs(atoms, params, (tuple(c1.tolist()), tuple(c2.tolist())))


def load(inputs: Inputs):
    """The set-up every CLI command pays: params, atoms CSV, Configuration."""
    params, domain = fileio.load_params(inputs.params)
    positions, interior = fileio.read_atoms_csv(inputs.atoms)
    return params, fileio.configuration_from_arrays(positions, interior, params, domain)


# ---------------------------------------------------------------------------
# grid workloads
# ---------------------------------------------------------------------------

GOLDEN_GRID = dict(origin=(2.0, 2.0), h=2.0, nx=6, ny=6)
DIPOLE_GRID = dict(origin=(-16.0, -10.0), h=2.0, nx=17, ny=11)


def field_bands(field_grid, report):
    """The three heatmap bands `latfit field --svg` renders."""
    ny, nx = field_grid.shape
    det_a = np.full((ny, nx), np.nan)
    for iy in range(ny):
        for ix in range(nx):
            bp = field_grid.branch[iy][ix]
            if bp is not None:
                det_a[iy, ix] = float(np.linalg.det(bp.aff_tilde.A))
    slack = np.full((ny, nx), np.nan)
    for e in report.entries:
        slack[e.node[1], e.node[0]] = e.slack
    return [("h_hat", np.array(field_grid.h_hat)), ("det_A_tilde", det_a), ("slack", slack)]


def golden_field_run(chi, params, grid=GOLDEN_GRID):
    geom = fields.GridGeometry(**grid)
    field_grid = fields.evaluate_grid(chi, geom, params)
    grads = fields.fd_gradients(field_grid)
    report = fields.lower_bound_report(field_grid, grads)
    csv_text = fileio.field_to_csv(field_grid, report.entries)
    svg_text = svg.heatmap_svg(field_bands(field_grid, report), title="latfit field")
    return field_grid, report, csv_text, svg_text


def dipole_run(chi, params, grid=DIPOLE_GRID):
    geom = fields.GridGeometry(**grid)
    tight = core_model.low_energy_thresholds(0.01, params)
    field_grid = fields.evaluate_grid(chi, geom, params, thresholds=tight)
    return field_grid, fields.defect_map(field_grid, chi)


def _node_index(field_grid, ix: int, iy: int) -> int:
    return iy * field_grid.geometry.nx + ix


def _grid_outcome(field_grid) -> Outcome:
    ny, nx = field_grid.shape
    out = Outcome(n_ops=nx * ny)
    for iy in range(ny):
        for ix in range(nx):
            out.valid.append(bool(field_grid.valid[iy, ix]))
            out.h_hat.append(float(field_grid.h_hat[iy, ix]))
    return out


def _square_near_core(geom, ix: int, iy: int, cores, margin: float) -> bool:
    """Whether a core lies within `margin` of the plaquette with lower-left node (ix, iy)."""
    lo = geom.node(ix, iy)
    hi = lo + geom.h
    for c in cores:
        gap = np.maximum(np.maximum(lo - np.asarray(c), np.asarray(c) - hi), 0.0)
        if float(np.linalg.norm(gap)) <= margin:
            return True
    return False


def check_plaquettes(out: Outcome, field_grid, products: dict, cores, margin: float) -> None:
    """Every all-valid plaquette farther than `margin` from a core has product (Id, 0)."""
    geom = field_grid.geometry
    for iy in range(geom.ny - 1):
        for ix in range(geom.nx - 1):
            quad = [(ix, iy), (ix + 1, iy), (ix + 1, iy + 1), (ix, iy + 1)]
            if not all(field_grid.valid[j, i] for i, j in quad):
                continue
            if _square_near_core(geom, ix, iy, cores, margin):
                continue
            ops = [_node_index(field_grid, i, j) for i, j in quad]
            prod = products.get((ix, iy))
            if prod is None:
                out.fail(ops, f"plaquette ({ix},{iy}): reparametrisation refused")
            elif not prod.is_identity:
                out.fail(ops, f"plaquette ({ix},{iy}): product B={prod.B.tolist()} "
                              f"t={prod.t.tolist()}, expected identity")


def check_golden_field(result, chi, inputs: Inputs) -> Outcome:
    field_grid, report, csv_text, svg_text = result
    out = _grid_outcome(field_grid)
    everything = range(out.n_ops)
    rows = csv_text.count("\n") - 1
    if rows != out.n_ops:
        out.fail(everything, f"field CSV has {rows} rows, expected {out.n_ops}")
    if "<svg" not in svg_text or "</svg>" not in svg_text:
        out.fail(everything, "heatmap is not an SVG document")
    for e in report.entries:
        if not e.slack >= -SLACK_TOL:
            out.fail([_node_index(field_grid, *e.node)],
                     f"node {e.node}: lower-bound slack {e.slack:.3e} < -{SLACK_TOL:g}")
    check_plaquettes(out, field_grid, fields.plaquette_products(field_grid, chi),
                     inputs.cores, margin=0.0)
    return out


def _ring_encloses(field_grid, ring, cores) -> list[bool]:
    pts = np.array([field_grid.geometry.node(ix, iy) for ix, iy in ring])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    return [bool(np.all(lo < c) and np.all(np.asarray(c) < hi)) for c in cores]


def check_dipole(result, chi, inputs: Inputs) -> Outcome:
    field_grid, dmap = result
    out = _grid_outcome(field_grid)
    for cl in dmap.clusters:
        if cl.unringable:
            continue
        if all(_ring_encloses(field_grid, cl.ring, inputs.cores)) and not cl.product.is_identity:
            out.fail([_node_index(field_grid, *n) for n in cl.ring],
                     f"ring around both cores: product B={cl.product.B.tolist()} "
                     f"t={cl.product.t.tolist()}, expected identity (net Burgers 0)")
    check_plaquettes(out, field_grid, dmap.plaquettes, inputs.cores, margin=LAM / 2.0)
    return out


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------

LOOP_HALF_WIDTHS = (6.0, 8.0, 10.0, 12.0)
_SQUARE = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])


def loop_corners(core, half_width: float) -> np.ndarray:
    return np.asarray(core, dtype=float) + half_width * _SQUARE


def loops_run(chi, params, cores, half_widths=LOOP_HALF_WIDTHS):
    """One (densified loop, LoopResult or the exception it raised) per half-width."""
    out = []
    for hw in half_widths:
        loop = topology.densify_loop(loop_corners(cores[0], hw), 1.2 * params.lam)
        try:
            res = topology.burgers_loop(chi, loop, params)
        except Exception as err:  # judged by the gate: named refusal or unexpected
            res = err
        out.append((loop, res))
    return out


def describe_error(err: Exception) -> str:
    kind = "refused" if isinstance(err, NAMED_ERRORS) else "unexpected"
    return f"{kind} {type(err).__name__}: {err}"


def check_loops(result, chi, inputs: Inputs) -> Outcome:
    out = Outcome(n_ops=sum(len(loop) - 1 for loop, _ in result))
    start = 0
    for loop, res in result:
        ops = range(start, start + len(loop) - 1)
        start += len(loop) - 1
        hw = float(np.max(np.abs(loop - np.asarray(inputs.cores[0]))))
        if isinstance(res, Exception):
            out.valid.extend(False for _ in ops)
            out.h_hat.extend(math.nan for _ in ops)
            out.fail(ops, f"loop half-width {hw:g}: {describe_error(res)}")
            continue
        out.valid.extend(bool(f.regular) for f in res.fits)
        out.h_hat.extend(float(f.breakdown.total) for f in res.fits)
        b, t = res.product.B, res.product.t
        if not (np.array_equal(b, np.eye(2, dtype=np.int64))
                and sorted(np.abs(t).tolist()) == [0, 1]):
            out.fail(ops, f"loop half-width {hw:g}: product B={b.tolist()} t={t.tolist()}, "
                          f"expected B=I and |t|=[0,1] (one edge dislocation)")
    return out


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    n_ops: int              # grid nodes or loop samples per pass
    make_inputs: object     # (seed, workdir) -> Inputs
    run: object             # (chi, params, inputs) -> result; the timed region
    check: object           # (result, chi, inputs) -> Outcome; outside the timed region


WORKLOADS = {
    "golden-field": Workload(
        36, golden_inputs, lambda chi, params, inputs: golden_field_run(chi, params),
        check_golden_field),
    "dipole-defects": Workload(
        187, dipole_inputs, lambda chi, params, inputs: dipole_run(chi, params), check_dipole),
    "golden-loops": Workload(
        40, golden_inputs, lambda chi, params, inputs: loops_run(chi, params, inputs.cores),
        check_loops),
}
