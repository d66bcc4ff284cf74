"""Grid evaluation of fits, branch-aligned finite differences, and the lower bound.

Grid nodes are fitted by natural-parameter continuation: in seed order
(distance from the grid center, then iy, then ix) each node starts one
Newton on h from a valid neighbour's fit transported by the node spacing,
and keeps it when it converges to a regular pair; the first node, and any
node whose step fails, gets the full multistart fit.  Fitted parameters of
nearby low-energy points differ little, which is what makes the transported
fit a good start.  A continued fit inherits its neighbour's integer
parametrisation, so most nodes share the seed's gauge.

Fits at the grid nodes are glued onto one parametrization branch by a
spanning tree of integer reparametrisations from a seed node, so the tau
field is a single-valued Lagrangian coordinate whose finite differences
approximate grad tau and its second derivatives.  The certified lower bound
at a node is F_C(grad tau) plus a second-gradient term; the companion
first-gradient estimate is checked at every node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np
from scipy.optimize import minimize as scipy_minimize

from .core_model import AffinePair, Configuration, ModelParams, local_density
from .fitting import (
    BasinEscapeError,
    BranchPoint,
    FitError,
    fit_from,
    fit_global,
    minimize_j_local,
)
from .potentials import DerivedConstants, c_con, c_tilde_nabla
from .topology import (
    Reparam,
    ReparamError,
    chain_product,
    classify_product,
    find_reparam,
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
    """Per-node fits, branch points, and alignment onto one parametrization branch."""

    geometry: GridGeometry
    params: ModelParams
    fits: list                 # (ny, nx) nested list of FitResult | None
    branch: list               # (ny, nx) nested list of BranchPoint | None
    valid: np.ndarray          # (ny, nx) bool
    align: list                # (ny, nx) nested list of Reparam | None
    component: np.ndarray      # (ny, nx) int, -1 where invalid
    a_tilde: np.ndarray        # (ny, nx, d, d) aligned branch A
    tau_tilde: np.ndarray      # (ny, nx, d) aligned branch tau (unwrapped)
    h_hat: np.ndarray          # (ny, nx) fitted energy density
    rho_l: np.ndarray
    rho_2l: np.ndarray
    invalid_reason: list

    @property
    def shape(self) -> tuple[int, int]:
        return self.valid.shape


def evaluate_grid(chi: Configuration, geom: GridGeometry, params: ModelParams,
                  thresholds=None) -> FieldGrid:
    """Fit every node, mask irregular ones, and align fits on one branch.

    Nodes are fitted in seed order: distance from the grid center, then iy,
    then ix.  A node with an already-fitted valid 4-neighbour (the earliest
    in that order) is fitted by one damped Newton on h from the neighbour's
    transported fit (A_n, tau_n + A_n dx), and the result is kept when it
    converged and is a regular pair under `thresholds`.  Otherwise, at the
    first node and on any FitError, the full multistart `fit_global` runs.
    A continued node's raw fit therefore stays in its neighbour's integer
    parametrisation, so `align` is mostly the identity.

    Alignment propagates by breadth-first search from a seed (the valid node
    first in seed order); disconnected valid regions get their own seeds,
    recorded in `component`.
    """
    if geom.h > params.lam / 4.0 + 1e-9:
        raise ValueError(f"grid spacing {geom.h:g} exceeds lam/4 = {params.lam / 4.0:g}")
    if chi.d != 2:
        raise ValueError("field grids are 2-D (planar slices for d=3 are out of scope)")
    ny, nx = geom.ny, geom.nx
    nodes = [(ix, iy) for iy in range(ny) for ix in range(nx)]
    center = np.array([(nx - 1) / 2.0, (ny - 1) / 2.0])
    order = sorted(nodes, key=lambda n: (float(np.hypot(n[0] - center[0], n[1] - center[1])),
                                         n[1], n[0]))
    rank = {n: i for i, n in enumerate(order)}
    fits = [[None] * nx for _ in range(ny)]
    reasons = [[None] * nx for _ in range(ny)]
    valid = np.zeros((ny, nx), dtype=bool)
    h_hat = np.full((ny, nx), np.nan)
    rho_l = np.full((ny, nx), np.nan)
    rho_2l = np.full((ny, nx), np.nan)
    for ix, iy in order:
        x = geom.node(ix, iy)
        parents = [(ix + dx, iy + dy) for dx, dy in _STEPS
                   if 0 <= ix + dx < nx and 0 <= iy + dy < ny and valid[iy + dy, ix + dx]]
        out = None
        if parents:
            px, py = min(parents, key=rank.__getitem__)
            aff = fits[py][px].aff_hat
            pred = AffinePair(aff.A, aff.tau + aff.A @ (x - geom.node(px, py)))
            try:
                out = fit_from(pred, chi, x, params, thresholds)
            except FitError:
                pass
        if out is None or not (out.converged and out.regular):
            try:
                out = fit_global(chi, x, params, thresholds=thresholds)
            except FitError as err:
                reasons[iy][ix] = f"fit failed: {err}"
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

    # spanning-tree alignment from per-component seeds
    align = [[None] * nx for _ in range(ny)]
    aligned_aff = [[None] * nx for _ in range(ny)]
    component = np.full((ny, nx), -1, dtype=int)
    comp = 0
    for seed in order:
        sx, sy = seed
        if not valid[sy, sx] or component[sy, sx] >= 0:
            continue
        component[sy, sx] = comp
        align[sy][sx] = Reparam.identity(2)
        aligned_aff[sy][sx] = fits[sy][sx].aff_hat
        queue = [seed]
        while queue:
            cx, cy = queue.pop(0)
            for dx, dy in _STEPS:
                nx_, ny_ = cx + dx, cy + dy
                if not (0 <= nx_ < nx and 0 <= ny_ < ny):
                    continue
                if not valid[ny_, nx_] or component[ny_, nx_] >= 0:
                    continue
                try:
                    step = find_reparam((geom.node(cx, cy), aligned_aff[cy][cx]),
                                        fits[ny_][nx_], chi, params)
                except ReparamError:
                    continue
                component[ny_, nx_] = comp
                align[ny_][nx_] = step.reparam
                aligned_aff[ny_][nx_] = step.reparam.apply(fits[ny_][nx_].aff_hat)
                queue.append((nx_, ny_))
        comp += 1

    # branch points: local J-minimizers seeded at the aligned fits
    branch = [[None] * nx for _ in range(ny)]
    a_tilde = np.full((ny, nx, 2, 2), np.nan)
    tau_tilde = np.full((ny, nx, 2), np.nan)
    for ix, iy in nodes:
        if component[iy, ix] < 0:    # invalid: every valid node is reached or seeds
            continue
        try:
            bp = minimize_j_local(aligned_aff[iy][ix], chi, geom.node(ix, iy), params,
                                  check_regular=False)
        except BasinEscapeError:
            valid[iy, ix] = False
            component[iy, ix] = -1
            reasons[iy][ix] = "branch minimizer left convexity basin"
            continue
        bp = BranchPoint(position=bp.position, aff_tilde=bp.aff_tilde, j_value=bp.j_value,
                         grad_norm=bp.grad_norm, iterations=bp.iterations,
                         converged=bp.converged, provenance=align[iy][ix])
        branch[iy][ix] = bp
        a_tilde[iy, ix] = bp.aff_tilde.A
        tau_tilde[iy, ix] = bp.aff_tilde.tau

    return FieldGrid(geometry=geom, params=params, fits=fits, branch=branch, valid=valid,
                     align=align, component=component, a_tilde=a_tilde, tau_tilde=tau_tilde,
                     h_hat=h_hat, rho_l=rho_l, rho_2l=rho_2l, invalid_reason=reasons)


def plaquette_products(field: FieldGrid, chi: Configuration) -> dict[tuple[int, int], Reparam]:
    """Product of the four raw-fit edge reparams around each all-valid plaquette.

    Keyed by the lower-left node (ix, iy); (Id, 0) away from enclosed defects.
    """
    geom = field.geometry
    out = {}
    for iy in range(geom.ny - 1):
        for ix in range(geom.nx - 1):
            quad = [(ix, iy), (ix + 1, iy), (ix + 1, iy + 1), (ix, iy + 1)]
            if not all(field.valid[j, i] for i, j in quad):
                continue
            fits = [field.fits[j][i] for i, j in quad]
            try:
                steps = [find_reparam(fits[k], fits[(k + 1) % 4], chi, field.params)
                         for k in range(4)]
            except ReparamError:
                continue
            out[(ix, iy)] = chain_product(steps)
    return out


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
    """
    ny, nx = field.shape
    h = field.geometry.h
    tau = field.tau_tilde
    a = field.a_tilde
    comp = field.component

    grad_tau = np.full((ny, nx, 2, 2), np.nan)
    grad_a = np.full((ny, nx, 2, 2, 2), np.nan)
    hess_tau = np.full((ny, nx, 2, 2, 2), np.nan)
    order = np.zeros((ny, nx), dtype=int)
    hess_ok = np.zeros((ny, nx), dtype=bool)

    def same(iy, ix, jy, jx):
        return (0 <= jx < nx and 0 <= jy < ny and comp[jy, jx] >= 0
                and comp[jy, jx] == comp[iy, ix])

    for iy in range(ny):
        for ix in range(nx):
            if comp[iy, ix] < 0:
                continue
            node_order = 2
            gt = np.empty((2, 2))
            ga = np.empty((2, 2, 2))
            ok = True
            for axis, (dx, dy) in enumerate(((1, 0), (0, 1))):
                has_p = same(iy, ix, iy + dy, ix + dx)
                has_m = same(iy, ix, iy - dy, ix - dx)
                if has_p and has_m:
                    gt[:, axis] = (tau[iy + dy, ix + dx] - tau[iy - dy, ix - dx]) / (2 * h)
                    ga[:, :, axis] = (a[iy + dy, ix + dx] - a[iy - dy, ix - dx]) / (2 * h)
                elif has_p:
                    gt[:, axis] = (tau[iy + dy, ix + dx] - tau[iy, ix]) / h
                    ga[:, :, axis] = (a[iy + dy, ix + dx] - a[iy, ix]) / h
                    node_order = 1
                elif has_m:
                    gt[:, axis] = (tau[iy, ix] - tau[iy - dy, ix - dx]) / h
                    ga[:, :, axis] = (a[iy, ix] - a[iy - dy, ix - dx]) / h
                    node_order = 1
                else:
                    ok = False
            if not ok:
                continue
            grad_tau[iy, ix] = gt
            grad_a[iy, ix] = ga
            order[iy, ix] = node_order

            ring = all(same(iy, ix, iy + dy, ix + dx)
                       for dx, dy in iter_product((-1, 0, 1), repeat=2))
            if not ring:
                continue
            ht = np.empty((2, 2, 2))
            ht[:, 0, 0] = (tau[iy, ix + 1] - 2 * tau[iy, ix] + tau[iy, ix - 1]) / h**2
            ht[:, 1, 1] = (tau[iy + 1, ix] - 2 * tau[iy, ix] + tau[iy - 1, ix]) / h**2
            mixed = (tau[iy + 1, ix + 1] - tau[iy + 1, ix - 1]
                     - tau[iy - 1, ix + 1] + tau[iy - 1, ix - 1]) / (4 * h**2)
            ht[:, 0, 1] = mixed
            ht[:, 1, 0] = mixed
            hess_tau[iy, ix] = ht
            hess_ok[iy, ix] = True

    return FieldGradients(grad_tau=grad_tau, grad_a=grad_a, hess_tau=hess_tau,
                          order=order, hess_ok=hess_ok)


# ---------------------------------------------------------------------------
# the certified lower bound
# ---------------------------------------------------------------------------

_UNIMODULAR_CACHE: dict[tuple[int, int], list[np.ndarray]] = {}

B_ENTRY_RANGE = 2       # f_c's B have entries in [-2, 2]; larger |B| cost lam^2 couplings
TOP_B = 8               # most B that get f_c's inner (A1, A2) minimization
REMARK_MARGIN = 1.0     # ... and only those whose remark value is this close to the best
SLACK_TOL = 1e-10       # a lower-bound slack above -SLACK_TOL is roundoff, not a violation


def unimodular_matrices(d: int, entry_range: int = 2) -> list[np.ndarray]:
    """All d x d integer matrices with entries in [-range, range] and det = 1."""
    key = (d, entry_range)
    cached = _UNIMODULAR_CACHE.get(key)
    if cached is not None:
        return cached
    vals = range(-entry_range, entry_range + 1)
    out = []
    for flat in iter_product(vals, repeat=d * d):
        b = np.array(flat, dtype=np.int64).reshape(d, d)
        if round(float(np.linalg.det(b))) == 1:
            out.append(b)
    _UNIMODULAR_CACHE[key] = out
    return out


@dataclass(frozen=True)
class FCResult:
    """Certified relaxation F_C(A) and the coarse remark-level minimum."""

    value: float
    remark_value: float     # min_B F(B A), the lambda -> inf limit
    best_b: np.ndarray
    fallback: bool          # inner minimization failed somewhere, value clamped


def f_c(grad_tau, params: ModelParams, constants: DerivedConstants, rho_ratio: float,
        rho_lambda: float | None = None) -> FCResult:
    """Relaxed elastic density: inf over (A1, B, A2) of the coupling functional.

    U = F(A2) + (1/3) C_con C_rep^{-1} |(B A2)^{-1}|^2 det(A) lam^2 |B A2 - A1|^2
      + (1/2) C~ (rho ratio) |A1^{-1}|^2 det(A) lam^2 |A - A1|^2.

    B is enumerated with entries in [-B_ENTRY_RANGE, B_ENTRY_RANGE]; the inner
    (A1, A2) minimization runs only for the TOP_B lowest remark values F(B^{-1} A)
    within REMARK_MARGIN of the best (a feasible point shows U_min(B) <= F(B^{-1}A),
    and the lam^2 couplings push distant B far above the retained minimum).
    """
    a = np.asarray(grad_tau, dtype=float)
    d = a.shape[0]
    det_a = float(np.linalg.det(a))
    if det_a <= 0:
        raise ValueError(f"f_c requires det(grad tau) > 0, got {det_a:g}")
    el = params.elastic
    lam2 = params.lam**2
    rho_l = det_a if rho_lambda is None else rho_lambda
    c_con_val = c_con(rho_l, det_a, d, constants)
    ctn = c_tilde_nabla(rho_ratio, c_con_val, constants)
    k2 = c_con_val / (3.0 * constants.C_rep) * det_a * lam2
    k3 = 0.5 * ctn * det_a * lam2

    bs = unimodular_matrices(d, B_ENTRY_RANGE)
    remark = []
    for b in bs:
        try:
            remark.append(el.f_el(np.linalg.inv(b) @ a))
        except ValueError:
            remark.append(math.inf)
    remark = np.array(remark)
    v_min = float(np.min(remark))
    order = np.argsort(remark, kind="stable")
    cand = [i for i in order[:TOP_B] if remark[i] <= v_min + REMARK_MARGIN]
    id_idx = next(i for i, b in enumerate(bs) if np.array_equal(b, np.eye(d, dtype=np.int64)))
    if id_idx not in cand:
        cand.append(id_idx)

    def u_value(b, a1, a2):
        ba2 = b @ a2
        return (el.f_el(a2)
                + k2 * float(np.sum(np.linalg.inv(ba2) ** 2)) * float(np.sum((ba2 - a1) ** 2))
                + k3 * float(np.sum(np.linalg.inv(a1) ** 2)) * float(np.sum((a - a1) ** 2)))

    best = math.inf
    best_b = np.eye(d, dtype=np.int64)
    fallback = False
    for i in cand:
        b = bs[i].astype(float)
        binv = np.linalg.inv(b)
        a2 = binv @ a
        a1 = a.copy()
        u_prev = u_value(b, a1, a2)
        converged = False
        for _ in range(40):
            # A1 step: weighted average with frozen norm weights
            c2w = k2 * float(np.sum(np.linalg.inv(b @ a2) ** 2))
            c3w = k3 * float(np.sum(np.linalg.inv(a1) ** 2))
            a1 = (c2w * (b @ a2) + c3w * a) / (c2w + c3w) if (c2w + c3w) > 0 else a.copy()

            # A2 step: smooth small minimization in Y = B A2
            def g_obj(yflat, a1=a1):
                y = yflat.reshape(d, d)
                if np.linalg.det(y) <= 1e-8:
                    return 1e6
                yinv = np.linalg.inv(y)
                return (el.f_el(binv @ y)
                        + k2 * float(np.sum(yinv**2)) * float(np.sum((y - a1) ** 2)))

            def g_grad(yflat, a1=a1):
                y = yflat.reshape(d, d)
                if np.linalg.det(y) <= 1e-8:
                    return np.zeros(d * d)
                yinv = np.linalg.inv(y)
                n_inv = float(np.sum(yinv**2))
                n_diff = float(np.sum((y - a1) ** 2))
                g = binv.T @ el.f_el_grad(binv @ y)
                g = g + k2 * (n_inv * 2.0 * (y - a1) - n_diff * 2.0 * yinv.T @ yinv @ yinv.T)
                return g.ravel()

            res = scipy_minimize(g_obj, (b @ a2).ravel(), jac=g_grad, method="L-BFGS-B",
                                 options={"maxiter": 200, "gtol": 1e-12, "ftol": 1e-15})
            a2 = binv @ res.x.reshape(d, d)
            u_now = u_value(b, a1, a2)
            if abs(u_prev - u_now) <= 1e-13 * (1.0 + abs(u_now)):
                converged = True
                break
            u_prev = u_now
        val = u_value(b, a1, a2)
        if not (converged and math.isfinite(val)):
            fallback = True
            val = min(val, float(remark[i])) if math.isfinite(val) else float(remark[i])
        if val < best:
            best = val
            best_b = bs[i]
    best = min(best, v_min)  # (A1, A2) = (A, B^{-1}A) is always feasible
    return FCResult(value=best, remark_value=v_min, best_b=best_b, fallback=fallback)


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
    fc = f_c(gt, params, dc, x_ratio, rho_lambda=float(field.rho_l[iy, ix]))
    c_con_val = c_con(float(field.rho_l[iy, ix]), det_gt, 2, dc)
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
    entries = []
    ny, nx = field.shape
    for iy in range(ny):
        for ix in range(nx):
            if field.valid[iy, ix] and grads.hess_ok[iy, ix]:
                entries.append(theorem2_check(field, (ix, iy), grads))
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
    ny, nx = field.shape
    for iy in range(ny):
        for ix in range(nx):
            if not (field.valid[iy, ix] and grads.order[iy, ix] == 2):
                continue
            a_t = field.a_tilde[iy, ix]
            inv_sq = float(np.sum(np.linalg.inv(a_t) ** 2))
            rho = float(field.rho_l[iy, ix])
            rho2 = float(field.rho_2l[iy, ix])
            ccv = c_con(rho, float(np.linalg.det(a_t)), 2, dc)
            grad_part = (lam2 * float(np.sum(grads.grad_a[iy, ix] ** 2))
                         + float(np.sum((grads.grad_tau[iy, ix] - a_t) ** 2)))
            rhs = (ccv**2 * inv_sq / (dc.alpha_nabla * 2.0**2 * dc.norm_grad_sqrt_phi**2)
                   * rho**2 / rho2 * lam2 * grad_part)
            lhs = field.branch[iy][ix].j_value
            out.append(((ix, iy), lhs, rhs))
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

    Each ring's chain product (from the already-computed node fits) is the
    enclosed Burgers content.  A ring with a refused reparametrisation step
    gives way to the next larger one; clusters with no usable ring inside
    the grid are reported unringable.
    """
    ny, nx = field.shape
    seen = np.zeros((ny, nx), dtype=bool)
    clusters = []
    for iy in range(ny):
        for ix in range(nx):
            if field.valid[iy, ix] or seen[iy, ix]:
                continue
            stack = [(ix, iy)]
            seen[iy, ix] = True
            nodes = []
            while stack:
                cx, cy = stack.pop()
                nodes.append((cx, cy))
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    jx, jy = cx + dx, cy + dy
                    if 0 <= jx < nx and 0 <= jy < ny and not field.valid[jy, jx] \
                            and not seen[jy, jx]:
                        seen[jy, jx] = True
                        stack.append((jx, jy))
            clusters.append(tuple(sorted(nodes)))

    out = []
    for nodes in clusters:
        xs = [n[0] for n in nodes]
        ys = [n[1] for n in nodes]
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
            if not all(field.valid[j, i] for i, j in ring):
                continue
            fits = [field.fits[j][i] for i, j in ring]
            try:
                steps = [find_reparam(fits[k], fits[(k + 1) % len(fits)], chi, field.params)
                         for k in range(len(fits))]
            except ReparamError:
                continue
            product = chain_product(steps)
            cluster = DefectCluster(nodes=nodes, ring=tuple(ring), product=product,
                                    classification=classify_product(product), unringable=False)
            break
        out.append(cluster)
    return DefectMap(clusters=tuple(out), plaquettes=plaquette_products(field, chi))
