"""Grid evaluation of fits, branch-aligned finite differences, and the lower bound.

Grid nodes are fitted by natural-parameter continuation: in seed order
(distance from the grid center, then iy, then ix) each node starts one
Newton on h from a valid neighbour's fit transported by the node spacing
and scaled onto the node's det A = rho ridge, and keeps it when it
converges to a regular pair; the first node, and any node whose step
fails, gets the full multistart fit.  Fitted parameters of
nearby low-energy points differ little, which is what makes the transported
fit a good start.  A continued fit inherits its neighbour's integer
parametrisation, so most nodes share the seed's gauge.  The nodes fall into
rounds (wavefronts): a node's round follows those of all its neighbours
earlier in seed order, so it continues from the neighbour it would pick one
node at a time.  Each round is one `fitting._continue`, the policy loops
use too: its continuation steps run as one lockstep Newton over the round's
per-node gathers, and its nodes whose step is refused, or that have no valid
earlier neighbour, get the multistart, all in one stack.  The branch
minimizers run stacked by the same rounds.

The integer reparametrisation between the raw fits of two 4-adjacent
nodes, a link, is rounded once per grid and kept in the grid's link table
(`FieldGrid.link`), or the message of `round_reparam`'s refusal in its
place.  Fits at the grid nodes are glued onto one parametrization branch by
a spanning tree of links from a seed node: a node's alignment composes the
links on its tree path, and plaquettes and defect rings fold the links
round them, so the align stage hands on integers only and the tau field is
a single-valued Lagrangian coordinate whose finite differences approximate
grad tau and its second derivatives.  The certified lower bound at a node
is F_C(grad tau) plus a second-gradient term; the companion first-gradient
estimate is checked at every node.

F_C is an infimum over (A1, B, A2) of a coupling functional.  `f_c` does not
minimise it: it evaluates the functional at two explicit feasible points,
B = I with A1 = A2 the point of E SO(d) nearest to grad tau, and the best
relabeling (A1, A2) = (A, B^{-1} A), and returns the smaller value.  Any
feasible value is an upper bound on the infimum, so h_hat >= value + grad
term still certifies the theorem's inequality h_hat >= F_C + grad term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from itertools import product as iter_product

import numpy as np

from .core_model import Configuration, ModelParams, local_density
from .fitting import FitError, _continue, minimize_j_stack
from .potentials import c_con, c_tilde_nabla
from .topology import (
    Reparam,
    ReparamError,
    chain_product,
    classify_product,
    compose,
    round_reparam,
)


@dataclass(frozen=True)
class GridGeometry:
    """Rectangular node grid: node (ix, iy) sits at origin + h*(ix, iy)."""

    origin: np.ndarray
    h: float
    nx: int
    ny: int

    def __post_init__(self):
        origin = np.array(self.origin, dtype=float)
        if origin.shape != (2,):
            raise ValueError("grid origin must be a 2-vector")
        if self.h <= 0 or self.nx < 1 or self.ny < 1:
            raise ValueError("grid needs h > 0 and at least one node per axis")
        origin.setflags(write=False)
        object.__setattr__(self, "origin", origin)

    def node(self, ix: int, iy: int) -> np.ndarray:
        return self.origin + self.h * np.array([ix, iy], dtype=float)


_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


@dataclass
class FieldGrid:
    """Per-node fits, branch points, and alignment onto one parametrization branch.

    `evaluate_grid`'s stages fill one grid: `_fit_nodes` makes it with align,
    component, branch, a_tilde and tau_tilde empty, and `_align_nodes` and
    `_branch_points` fill them.  `valid` marks the nodes whose fit converged
    to a pair regular under `params.thresholds`, the params the grid was
    fitted with.  A stage assigns fresh arrays rather than writing into the
    grid's, so a grid made by `dataclasses.replace` never shares them with
    its source.
    """

    geometry: GridGeometry
    params: ModelParams
    fits: list                 # (ny, nx) nested list of FitResult | None
    branch: list               # (ny, nx) nested list of BranchPoint | None
    valid: np.ndarray          # (ny, nx) bool
    align: list                # (ny, nx) nested list of Reparam | None: raw fit -> branch
    component: np.ndarray      # (ny, nx) int, -1 where invalid
    a_tilde: np.ndarray        # (ny, nx, d, d) aligned branch A
    tau_tilde: np.ndarray      # (ny, nx, d) aligned branch tau (unwrapped)
    h_hat: np.ndarray          # (ny, nx) fitted energy density
    rho_l: np.ndarray
    rho_2l: np.ndarray
    invalid_reason: list

    def __post_init__(self):
        # the link table is no field: dataclasses.replace starts a fresh one
        self._links = {}

    @property
    def shape(self) -> tuple[int, int]:
        return self.valid.shape

    def link(self, u: tuple[int, int], v: tuple[int, int]) -> Reparam | str:
        """The raw-fit step u -> v between 4-adjacent nodes, or why `round_reparam` refused it.

        Rounded on first use and kept, so the align stage, the plaquettes and
        the defect rings round each link once.  Keys are directed: v -> u is
        rounded on its own, not taken as the inverse, so a step that fails to
        invert shows in the plaquettes.  A link needs the integers alone, so
        no jump residual or bound is computed.
        """
        if (u, v) not in self._links:
            try:
                self._links[u, v] = round_reparam(self.fits[u[1]][u[0]], self.fits[v[1]][v[0]])[0]
            except ReparamError as refusal:
                self._links[u, v] = str(refusal)
        return self._links[u, v]


def evaluate_grid(chi: Configuration, geom: GridGeometry, params: ModelParams,
                  thresholds=None) -> FieldGrid:
    """Fit every node, mask irregular ones, and align fits on one branch.

    Three stages, each its own function, fill one `FieldGrid`: fit
    (`_fit_nodes`, which makes it), align (`_align_nodes`, which hands on
    integers only) and branch minimizers (`_branch_points`).  Seed order is
    distance from the grid center, then iy, then ix; `grid_rounds` groups
    the nodes into rounds by it, and the fit and the branch stage each run
    one stacked Newton per round.  The links the align stage rounds stay in
    the grid's link table for `plaquette_products` and `defect_map`.  A
    node is valid when its fit converged to a pair regular under
    `params.thresholds`; `thresholds`, when given, replace those for the
    whole grid, and the grid's params record them.
    """
    if geom.h > params.lam / 4.0 + 1e-9:
        raise ValueError(f"grid spacing {geom.h:g} exceeds lam/4 = {params.lam / 4.0:g}")
    if chi.d != 2:
        raise ValueError("field grids are 2-D (planar slices for d=3 are out of scope)")
    params = params if thresholds is None else replace(params, thresholds=thresholds)
    order, rounds = grid_rounds(geom)
    grid = _fit_nodes(chi, geom, params, order, rounds)
    _align_nodes(grid, order)
    _branch_points(grid, chi, rounds)
    return grid


def grid_rounds(geom: GridGeometry):
    """(the nodes (ix, iy) in seed order, the same nodes grouped into rounds).

    A node's round is one more than the latest round among its 4-neighbours
    earlier in seed order (0 when it has none).  So every neighbour a node
    could continue from is finished before its round starts, and the nodes
    of one round do not depend on each other.  Each round keeps seed order.
    """
    nx, ny = geom.nx, geom.ny
    center = ((nx - 1) / 2.0, (ny - 1) / 2.0)
    order = sorted(((ix, iy) for iy in range(ny) for ix in range(nx)),
                   key=lambda n: (float(np.hypot(n[0] - center[0], n[1] - center[1])),
                                  n[1], n[0]))
    depth = {}
    for ix, iy in order:
        earlier = [depth[n] for n in ((ix + dx, iy + dy) for dx, dy in _STEPS) if n in depth]
        depth[(ix, iy)] = 1 + max(earlier) if earlier else 0
    rounds = [[] for _ in range(max(depth.values()) + 1)]
    for n in order:
        rounds[depth[n]].append(n)
    return order, rounds


def _fit_nodes(chi: Configuration, geom: GridGeometry, params: ModelParams,
               order: list, rounds: list) -> FieldGrid:
    """Fit stage: natural-parameter continuation, one `fitting._continue` per round.

    A node's end is its valid 4-neighbour earliest in seed order, with that
    neighbour's fit, or None where it has none (the first node, for one).
    `_continue` keeps the continuation step from the end when it converged
    to a regular pair under `params.thresholds`; every other node of the
    round gets the multistart, each the `fit_global` run of its node, bit
    for bit.  A continued node's raw fit stays in its neighbour's integer
    parametrisation, so `align` is mostly the identity.  Returns the grid,
    with align, component, branch, a_tilde and tau_tilde still empty.
    """
    ny, nx = geom.ny, geom.nx
    rank = {n: i for i, n in enumerate(order)}
    fits, reasons, align, branch = ([[None] * nx for _ in range(ny)] for _ in range(4))
    valid = np.zeros((ny, nx), dtype=bool)
    h_hat, rho_l, rho_2l = (np.full((ny, nx), np.nan) for _ in range(3))
    for wave in rounds:
        ends = []
        for ix, iy in wave:
            parents = [(ix + dx, iy + dy) for dx, dy in _STEPS
                       if 0 <= ix + dx < nx and 0 <= iy + dy < ny and valid[iy + dy, ix + dx]]
            end = None
            if parents:
                px, py = min(parents, key=rank.__getitem__)
                end = (geom.node(px, py), fits[py][px].aff_hat)
            ends.append(end)
        xs = [geom.node(ix, iy) for ix, iy in wave]
        for (ix, iy), x, out in zip(wave, xs, _continue(ends, chi, xs, params)):
            if isinstance(out, FitError):
                reasons[iy][ix] = f"fit failed: {out}"
                continue
            fits[iy][ix] = out
            h_hat[iy, ix] = out.breakdown.total
            rho_l[iy, ix] = out.breakdown.rho
            rho_2l[iy, ix] = local_density(chi, x, 2.0 * params.lam)
            if not out.converged:
                reasons[iy][ix] = "fit did not converge"
            elif not out.regular:
                reasons[iy][ix] = "fit not a regular pair"
            else:
                valid[iy, ix] = True
    return FieldGrid(geometry=geom, params=params, fits=fits, valid=valid, h_hat=h_hat, rho_l=rho_l,
                     rho_2l=rho_2l, invalid_reason=reasons, align=align, branch=branch,
                     component=np.full((ny, nx), -1), a_tilde=np.full((ny, nx, 2, 2), np.nan),
                     tau_tilde=np.full((ny, nx, 2), np.nan))


def _align_nodes(grid: FieldGrid, order: list) -> None:
    """Align stage: fills grid.align and grid.component by a spanning tree of raw-fit steps.

    Alignment propagates by breadth-first search from a seed (the valid node
    first in seed order); disconnected valid regions get their own seeds,
    recorded in `component`.  Edge u -> v is the grid's link u -> v, which
    rounds the two raw fits (no gather, no J), and
    align[v] = compose(align[u], step); a refused link is not a tree edge.
    """
    ny, nx = grid.shape
    align = [[None] * nx for _ in range(ny)]
    component = np.full((ny, nx), -1, dtype=int)
    comp = 0
    for seed in order:
        sx, sy = seed
        if not grid.valid[sy, sx] or component[sy, sx] >= 0:
            continue
        component[sy, sx] = comp
        align[sy][sx] = Reparam.identity(2)
        queue = [seed]
        while queue:
            cx, cy = queue.pop(0)
            for dx, dy in _STEPS:
                nx_, ny_ = cx + dx, cy + dy
                inside = 0 <= nx_ < nx and 0 <= ny_ < ny
                if not (inside and grid.valid[ny_, nx_]) or component[ny_, nx_] >= 0:
                    continue
                step = grid.link((cx, cy), (nx_, ny_))
                if isinstance(step, str):
                    continue
                component[ny_, nx_] = comp
                align[ny_][nx_] = compose(align[cy][cx], step)
                queue.append((nx_, ny_))
        comp += 1
    grid.align, grid.component = align, component


def _branch_points(grid: FieldGrid, chi: Configuration, rounds: list) -> None:
    """Branch stage: J-minimizers from align[v].apply(fits[v].aff_hat), one stack per round.

    Fills grid.branch, a_tilde and tau_tilde.  A node whose minimizer leaves
    the convexity basin is marked invalid in copies of valid, component and
    invalid_reason, which replace the grid's.
    """
    ny, nx = grid.shape
    valid, component = grid.valid.copy(), grid.component.copy()
    reasons = [row[:] for row in grid.invalid_reason]
    branch = [[None] * nx for _ in range(ny)]
    a_tilde, tau_tilde = np.full((ny, nx, 2, 2), np.nan), np.full((ny, nx, 2), np.nan)
    for wave in rounds:
        # invalid nodes have no component: every valid node is reached or seeds
        todo = [(ix, iy) for ix, iy in wave if component[iy, ix] >= 0]
        if not todo:
            continue
        points = minimize_j_stack([grid.align[iy][ix].apply(grid.fits[iy][ix].aff_hat)
                                   for ix, iy in todo],
                                  chi, [grid.geometry.node(ix, iy) for ix, iy in todo], grid.params)
        for (ix, iy), bp in zip(todo, points):
            if bp is None:
                valid[iy, ix] = False
                component[iy, ix] = -1
                reasons[iy][ix] = "branch minimizer left convexity basin"
                continue
            branch[iy][ix] = bp
            a_tilde[iy, ix] = bp.aff_tilde.A
            tau_tilde[iy, ix] = bp.aff_tilde.tau
    grid.branch, grid.a_tilde, grid.tau_tilde = branch, a_tilde, tau_tilde
    grid.valid, grid.component, grid.invalid_reason = valid, component, reasons


def _ring_product(field: FieldGrid, ring) -> Reparam | None:
    """Fold of the grid's links round a closed ring of nodes; None if invalid or refused."""
    if not all(field.valid[iy, ix] for ix, iy in ring):
        return None
    steps = []
    for u, v in zip(ring, ring[1:] + ring[:1]):
        step = field.link(u, v)
        if isinstance(step, str):
            return None
        steps.append(step)
    return chain_product(steps)


def plaquette_products(field: FieldGrid, chi: Configuration) -> dict[tuple[int, int], Reparam]:
    """Product of the four raw-fit links around each all-valid plaquette.

    Keyed by the lower-left node (ix, iy); (Id, 0) away from enclosed defects.
    The links come from the grid's link table, rounded once per grid; chi,
    the configuration the grid was fitted on, is not read.
    """
    ny, nx = field.shape
    products = {(ix, iy): _ring_product(field, [(ix, iy), (ix + 1, iy), (ix + 1, iy + 1),
                                                (ix, iy + 1)])
                for iy in range(ny - 1) for ix in range(nx - 1)}
    return {node: p for node, p in products.items() if p is not None}


@dataclass(frozen=True)
class FieldGradients:
    """Central/one-sided differences of the aligned branch fields."""

    grad_tau: np.ndarray    # (ny, nx, d, d): [k, l] = d tau_k / d x_l
    grad_a: np.ndarray      # (ny, nx, d, d, d): [k, l, m] = d A_kl / d x_m
    hess_tau: np.ndarray    # (ny, nx, d, d, d): [k, l, m] = d2 tau_k / d x_l d x_m
    order: np.ndarray       # (ny, nx): 2 central, 1 one-sided, 0 unavailable
    hess_ok: np.ndarray     # (ny, nx) bool: full second-difference stencil


def fd_gradients(field: FieldGrid) -> FieldGradients:
    """Finite differences of tau~ and A~ on the aligned branch.

    Central differences where both axis neighbors are valid and on the same
    component; one-sided stencils at component boundaries are flagged
    lower-order.  Second differences (incl. mixed) need the full 3x3 ring.
    Every stencil is an array slice of the grid padded by one invalid node;
    `np.where` keeps the stencil each node is entitled to.
    """
    ny, nx = field.shape
    h = field.geometry.h
    comp = field.component
    pad_c = np.pad(comp, 1, constant_values=-1)
    pad_tau = np.pad(field.tau_tilde, ((1, 1), (1, 1), (0, 0)), constant_values=np.nan)
    pad_a = np.pad(field.a_tilde, ((1, 1), (1, 1), (0, 0), (0, 0)), constant_values=np.nan)
    valid = comp >= 0

    def at(arr, dx, dy):
        """arr at every node's neighbour (ix + dx, iy + dy)."""
        return arr[1 + dy: 1 + dy + ny, 1 + dx: 1 + dx + nx]

    def same(dx, dy):
        return valid & (at(pad_c, dx, dy) == comp)

    def diff(pad, dx, dy, has_p, has_m):
        """Central, forward or backward difference along (dx, dy); trailing axes kept."""
        p, c, m = at(pad, dx, dy), at(pad, 0, 0), at(pad, -dx, -dy)
        shape = has_p.shape + (1,) * (pad.ndim - 2)
        has_p, has_m = has_p.reshape(shape), has_m.reshape(shape)
        return np.where(has_p & has_m, (p - m) / (2 * h), np.where(has_p, (p - c) / h, (c - m) / h))

    grad_tau = np.empty((ny, nx, 2, 2))
    grad_a = np.empty((ny, nx, 2, 2, 2))
    ok = valid.copy()
    central = valid.copy()
    for axis, (dx, dy) in enumerate(((1, 0), (0, 1))):
        has_p, has_m = same(dx, dy), same(-dx, -dy)
        ok &= has_p | has_m
        central &= has_p & has_m
        grad_tau[..., axis] = diff(pad_tau, dx, dy, has_p, has_m)
        grad_a[..., axis] = diff(pad_a, dx, dy, has_p, has_m)
    grad_tau[~ok] = np.nan
    grad_a[~ok] = np.nan
    order = np.where(ok, np.where(central, 2, 1), 0)

    hess_ok = ok.copy()
    for dx, dy in iter_product((-1, 0, 1), repeat=2):
        hess_ok &= same(dx, dy)
    hess_tau = np.full((ny, nx, 2, 2, 2), np.nan)

    def tau(dx, dy):
        return at(pad_tau, dx, dy)[hess_ok]

    hess_tau[hess_ok, :, 0, 0] = (tau(1, 0) - 2 * tau(0, 0) + tau(-1, 0)) / h**2
    hess_tau[hess_ok, :, 1, 1] = (tau(0, 1) - 2 * tau(0, 0) + tau(0, -1)) / h**2
    mixed = (tau(1, 1) - tau(-1, 1) - tau(1, -1) + tau(-1, -1)) / (4 * h**2)
    hess_tau[hess_ok, :, 0, 1] = mixed
    hess_tau[hess_ok, :, 1, 0] = mixed
    return FieldGradients(grad_tau=grad_tau, grad_a=grad_a, hess_tau=hess_tau,
                          order=order, hess_ok=hess_ok)


# ---------------------------------------------------------------------------
# the certified lower bound
# ---------------------------------------------------------------------------

B_ENTRY_RANGE = 2       # f_c's B have entries in [-2, 2]; larger |B| cost lam^2 couplings
SLACK_TOL = 1e-10       # a lower-bound slack above -SLACK_TOL is roundoff, not a violation


@cache
def unimodular_matrices(d: int, entry_range: int = 2) -> list[np.ndarray]:
    """All d x d integer matrices with entries in [-range, range] and det = 1."""
    vals = range(-entry_range, entry_range + 1)
    out = []
    for flat in iter_product(vals, repeat=d * d):
        b = np.array(flat, dtype=np.int64).reshape(d, d)
        if round(float(np.linalg.det(b))) == 1:
            out.append(b)
    return out


@cache
def _inverse_stack(d: int) -> np.ndarray:
    """B^{-1} for every B of `unimodular_matrices(d, B_ENTRY_RANGE)`, as one (n, d, d) stack."""
    return np.linalg.inv(unimodular_matrices(d, B_ENTRY_RANGE))


@dataclass(frozen=True)
class FCResult:
    """Certified upper bound on the relaxation F_C(A) and the remark-level minimum."""

    value: float
    remark_value: float     # min_B F(B^{-1} A), the lambda -> inf limit
    fallback: bool = False  # never set; perfbench/tracer.py reads it


def f_c(grad_tau, params: ModelParams, rho_ratio: float,
        rho_lambda: float | None = None) -> FCResult:
    """Relaxed elastic density, evaluated at two explicit feasible points.

    F_C(A) is the inf over (A1, B, A2) of the coupling functional

    U = F(A2) + (1/3) C_con C_rep^{-1} |(B A2)^{-1}|^2 det(A) lam^2 |B A2 - A1|^2
      + (1/2) C~ (rho ratio) |A1^{-1}|^2 det(A) lam^2 |A - A1|^2.

    The value returned is the smaller of U at two feasible points:
    - B = I, A1 = A2 = E R, the point of E SO(d) nearest to A.  There
      F(A2) = 0 and the B-coupling vanishes, so U = k3 |E^{-1}|^2 |A - E R|^2
      with k3 the last term's weight (|(E R)^{-1}| = |E^{-1}| for a rotation R)
      and R = P Q^T from the SVD E^T A = P S Q^T.
    - (A1, A2) = (A, B^{-1} A) for the B with entries in [-B_ENTRY_RANGE,
      B_ENTRY_RANGE] minimising F(B^{-1} A): U = F(B^{-1} A), the remark value,
      from one kernel call on the stack, bit for bit `f_el` of each row.
    Each is an upper bound on the infimum, so h_hat >= value + grad term
    implies h_hat >= F_C + grad term: the lower-bound check stays sound.
    """
    a = np.asarray(grad_tau, dtype=float)
    d = a.shape[0]
    det_a = float(np.linalg.det(a))
    if det_a <= 0:
        raise ValueError(f"f_c requires det(grad tau) > 0, got {det_a:g}")
    el = params.elastic
    constants = params.constants
    rho_l = det_a if rho_lambda is None else rho_lambda
    ctn = c_tilde_nabla(rho_ratio, c_con(rho_l, det_a, d, constants), constants)
    k3 = 0.5 * ctn * det_a * params.lam**2
    # |A - E R|^2 directly: |A|^2 + |E|^2 - 2 sum sigma loses ~1e-13 relative
    p, _, qt = np.linalg.svd(el.E.T @ a)
    u_rot = k3 * float(np.sum(np.linalg.inv(el.E) ** 2)) * float(np.sum((a - el.E @ p @ qt) ** 2))
    relabeled = _inverse_stack(d) @ a
    remark = float(np.min(el._value(relabeled, np.linalg.det(relabeled))))
    return FCResult(value=min(u_rot, remark), remark_value=remark)


@dataclass(frozen=True)
class LowerBoundEntry:
    node: tuple[int, int]
    h_hat: float
    f_c_value: float
    grad_term: float        # the stated 1/5-weighted second-gradient term
    grad_term_half: float   # the proof's intermediate 1/2 weighting, reported
    rhs: float
    slack: float


@dataclass(frozen=True)
class LowerBoundReport:
    entries: tuple
    min_slack: float

    @property
    def ok(self) -> bool:
        return self.min_slack >= -SLACK_TOL


def theorem2_check(field: FieldGrid, node: tuple[int, int],
                   grads: FieldGradients) -> LowerBoundEntry:
    """Lower-bound entry at one node: slack = h_hat - F_C - gradient term."""
    ix, iy = node
    if not grads.hess_ok[iy, ix]:
        raise ValueError(f"node {node} lacks the full second-difference stencil")
    params = field.params
    dc = params.constants
    gt = grads.grad_tau[iy, ix]
    det_gt = float(np.linalg.det(gt))
    x_ratio = float(field.rho_2l[iy, ix] / field.rho_l[iy, ix])
    fc = f_c(gt, params, x_ratio, rho_lambda=float(field.rho_l[iy, ix]))
    c_con_val = c_con(float(field.rho_l[iy, ix]), det_gt, params.d, dc)
    ctn = c_tilde_nabla(x_ratio, c_con_val, dc)
    hess_sq = float(np.sum(grads.hess_tau[iy, ix] ** 2))
    inv_sq = float(np.sum(np.linalg.inv(gt) ** 2))
    lam4 = params.lam**4
    grad_term = 0.2 * ctn * inv_sq * lam4 * hess_sq * det_gt
    grad_term_half = 0.5 * ctn * inv_sq * lam4 * hess_sq * det_gt
    h_hat = float(field.h_hat[iy, ix])
    rhs = fc.value + grad_term
    return LowerBoundEntry(node=node, h_hat=h_hat, f_c_value=fc.value,
                           grad_term=grad_term, grad_term_half=grad_term_half,
                           rhs=rhs, slack=h_hat - rhs)


def lower_bound_report(field: FieldGrid, grads: FieldGradients | None = None) -> LowerBoundReport:
    """Theorem-2 slack at every valid node with a full stencil."""
    if grads is None:
        grads = fd_gradients(field)
    entries = [theorem2_check(field, (int(ix), int(iy)), grads)
               for iy, ix in np.argwhere(field.valid & grads.hess_ok)]
    min_slack = min((e.slack for e in entries), default=math.inf)
    return LowerBoundReport(entries=tuple(entries), min_slack=min_slack)


def gradient_bound_check(field: FieldGrid, grads: FieldGradients | None = None):
    """First-gradient estimate at every differentiable node: J >= rhs.

    rhs = C_con^2 |A~^{-1}|^2 / (alpha 2^d |grad sqrt(phi~)|^2) * rho^2/rho_2l
          * lam^2 (lam^2 |grad A~|^2 + |grad tau~ - A~|^2).
    """
    if grads is None:
        grads = fd_gradients(field)
    params = field.params
    dc = params.constants
    lam2 = params.lam**2
    out = []
    for iy, ix in np.argwhere(field.valid & (grads.order == 2)):
        a_t = field.a_tilde[iy, ix]
        inv_sq = float(np.sum(np.linalg.inv(a_t) ** 2))
        rho = float(field.rho_l[iy, ix])
        rho2 = float(field.rho_2l[iy, ix])
        ccv = c_con(rho, float(np.linalg.det(a_t)), params.d, dc)
        grad_part = (lam2 * float(np.sum(grads.grad_a[iy, ix] ** 2))
                     + float(np.sum((grads.grad_tau[iy, ix] - a_t) ** 2)))
        rhs = (ccv**2 * inv_sq / (dc.alpha_nabla * 2.0**params.d * dc.norm_grad_sqrt_phi**2)
               * rho**2 / rho2 * lam2 * grad_part)
        lhs = field.branch[iy][ix].j_value
        out.append(((int(ix), int(iy)), lhs, rhs))
    return out


# ---------------------------------------------------------------------------
# defect map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DefectCluster:
    nodes: tuple
    ring: tuple | None          # ordered ring nodes (ix, iy), counterclockwise
    product: Reparam | None
    classification: str | None
    unringable: bool


@dataclass(frozen=True)
class DefectMap:
    clusters: tuple
    plaquettes: dict


def defect_map(field: FieldGrid, chi: Configuration) -> DefectMap:
    """Cluster invalid nodes and ring each cluster with a minimal valid loop.

    Each ring's chain product, a fold of the grid's links, is the enclosed
    Burgers content; the links the align stage rounded are not rounded
    again.  A ring with a refused link gives way to the next larger one;
    clusters with no usable ring inside the grid are reported unringable.
    chi, the configuration the grid was fitted on, is not read.
    """
    ny, nx = field.shape
    seen = field.valid.copy()       # a valid node joins no cluster
    clusters = []
    for iy in range(ny):
        for ix in range(nx):
            if seen[iy, ix]:
                continue
            stack = [(ix, iy)]
            seen[iy, ix] = True
            nodes = []
            while stack:
                cx, cy = stack.pop()
                nodes.append((cx, cy))
                for dx, dy in _STEPS:
                    jx, jy = cx + dx, cy + dy
                    if 0 <= jx < nx and 0 <= jy < ny and not seen[jy, jx]:
                        seen[jy, jx] = True
                        stack.append((jx, jy))
            clusters.append(tuple(sorted(nodes)))

    out = []
    for nodes in clusters:
        xs, ys = zip(*nodes)
        cluster = DefectCluster(nodes=nodes, ring=None, product=None,
                                classification=None, unringable=True)
        for m in range(1, max(nx, ny)):
            x0, x1 = min(xs) - m, max(xs) + m
            y0, y1 = min(ys) - m, max(ys) + m
            if x0 < 0 or y0 < 0 or x1 >= nx or y1 >= ny:
                break
            ring = ([(x, y0) for x in range(x0, x1)]
                    + [(x1, y) for y in range(y0, y1)]
                    + [(x, y1) for x in range(x1, x0, -1)]
                    + [(x0, y) for y in range(y1, y0, -1)])
            product = _ring_product(field, ring)
            if product is not None:
                cluster = DefectCluster(nodes=nodes, ring=tuple(ring), product=product,
                                        classification=classify_product(product),
                                        unringable=False)
                break
        out.append(cluster)
    return DefectMap(clusters=tuple(out), plaquettes=plaquette_products(field, chi))
