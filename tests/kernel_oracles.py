"""Loop-form reference versions of the fit kernels, and the references tests check against.

These are the straightforward per-entry assemblies that `core_model.assemble_j`,
`core_model._g_hess`, `ElasticDensity.f_el_hess` and `fitting._Objective`
replace with closed tensor forms: the J Hessian built block by block from the
diagonal well Hessian, the Hessian of |A^{-1}|_F^2 and of F column by column
over the basis matrices E_ab, and every det A and A^{-1} recomputed where it is
used.  F's value and gradient take the singular values and vectors of E^T A
where the kernels use the d = 2 closed form, and `a_init_candidates` clusters
the difference vectors one at a time, point by point, where the fit code
runs the points of a round through array passes.
`evaluate_grid` fits, aligns and minimizes node by node, one continuation
step per node with `fit_from` (one row of `fitting._fit_from_rows`) and one
`minimize_j_local` per node, where the grid runs one stacked Newton per
round.  It aligns each node by rounding its raw fit against its tree
parent's aligned (y, A, tau) (`align_nodes`), where the grid composes the
raw-fit steps.  `ring_product` rounds every step of a ring afresh, where
the grid folds its link table.  `fd_gradients` differences node by node
where the grid code slices arrays.  `local_atoms` is the gather at one point as
the per-point cell scan took it: the cell box from Python floats, the
candidates by fancy index, the kept indices sorted and the positions
indexed again, where `Configuration.local_atoms` takes the boxes of G
points in one array pass and every row once.  `objective_arrays` builds
an `_Objective`'s gathers one `gather_weights` call per point, padding
each point's row in a loop, where the objective makes one query and one
scatter.  `fit_loop` runs its two sweeps one
after the other and `fit_between` its two continuations one call each, one
single-row `fit_from` per step, where the fit code steps both as one 2-row
`fitting._continue`.  `fit_global` is the multistart one point at a time,
its starts on h one after the other, and `fit_global_stack` the multistart
of a grid round with start k of every point as one stack on h, k = 0, 1,
..., each bar known when its stack starts, where the fit code runs every
start of every point as one stack with deferred bars.  `newton_step` is one
row of `fitting._newton_steps` as the per-row loop computed it: `pd_solve`
factors the equilibrated Hessian with LAPACK potrf and solves with potrs,
where the kernel takes one eigendecomposition of the whole stack.  `phi_root_norms` samples the
cutoff-root sups over one whole `linspace`, where `potentials` takes the same
points in fixed chunks.  They are slow and obviously correct;
the kernel tests compare against them.

The well W with its Hessian, the cutoff's derivatives, the half-plane atom
count of an edge dislocation and the frame change of a loop product are
closed forms the tests check the package's constants and results against;
no pipeline uses them.
"""

import math
from itertools import combinations
from itertools import product as iter_product

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from latfit import fields, fitting
from latfit.core_model import AffinePair, gather_weights, j_features, local_density
from latfit.fitting import (
    MAX_CANDIDATES,
    MAX_ITER_H,
    N_DIRECTIONS,
    NU_SMOOTH_FACTOR,
    STEP_CAP,
    TOL_GRAD,
    BasinEscapeError,
    FitError,
    _canonical_signs,
    _exact,
    _finish,
    _fit_from_rows,
    _guard,
    _newton,
    _Objective,
    _tau_phase,
    minimize_j_local,
    pack,
    unpack,
)
from latfit.potentials import _smoothstep7, _smoothstep7_d1, _smoothstep7_d2
from latfit.topology import (
    AmbiguousReparamError,
    Reparam,
    ReparamError,
    chain_product,
    find_reparam,
)

TWO_PI = 2.0 * math.pi


def local_atoms(chi, x, r):
    """(indices, relative positions, distances) of the atoms within r of one point x (d,).

    The cells that meet the box |p - x|_inf <= r (widened by 1e-9 r, so an
    atom on a cell boundary just past fl(x + r) is scanned) are taken row by
    row; the atoms with dx*dx + dy*dy (+ dz*dz) <= r*r are kept, their
    indices sorted, their positions indexed again and the norms taken by
    `np.linalg.norm`.
    """
    grid = chi._grid
    x = np.asarray(x, dtype=float)
    reach = r * (1.0 + 1e-9)
    box = []
    for xk, lo, n in zip(x.tolist(), grid.lo.tolist(), grid.shape):
        c0 = max(math.floor((xk - reach - lo) / grid.edge) + 1, 1)
        c1 = min(math.floor((xk + reach - lo) / grid.edge) + 1, n - 2)
        box.append((c0, c1))
    near = []
    if all(c0 <= c1 for c0, c1 in box):
        begins = grid.start[:-1].reshape(grid.shape)
        ends = grid.start[1:].reshape(grid.shape)
        rows = tuple(slice(c0, c1 + 1) for c0, c1 in box[:-1])
        for a, b in zip(begins[rows + (box[-1][0],)].ravel(), ends[rows + (box[-1][1],)].ravel()):
            near.extend(range(a, b))
    near = np.array(near, dtype=np.intp)
    diff = grid.points[near] - x
    d2 = diff[:, 0] * diff[:, 0]
    for k in range(1, diff.shape[1]):
        d2 = d2 + diff[:, k] * diff[:, k]
    idx = np.sort(grid.order[near[d2 <= r * r]])
    rel = chi.positions[idx] - x
    return idx, rel, np.linalg.norm(rel, axis=1)


def objective_arrays(chi, xs, lam):
    """The gathers an `_Objective` at the points xs (G, d) holds, one `gather_weights` call per point.

    Returns sizes, rel and w zero-padded to the longest gather (one point
    unpadded), c, rho = c sum(w) of each point's own gather, eps_nu and the
    J feature blocks.
    """
    gathers = [gather_weights(chi, p, lam) for p in xs]
    sizes = [w.size for _, w, _ in gathers]
    if len(gathers) == 1:
        rel, w = gathers[0][0][None], gathers[0][1][None]
    else:
        rel = np.zeros((len(gathers), max(sizes), chi.d))
        w = np.zeros((len(gathers), max(sizes)))
        for i, (rel_i, w_i, _) in enumerate(gathers):
            rel[i, : w_i.size] = rel_i
            w[i, : w_i.size] = w_i
    rho = np.array([float(np.sum(w_i)) * c for _, w_i, c in gathers])
    return dict(sizes=sizes, rel=rel, w=w, c=np.array([c for _, _, c in gathers]), rho=rho,
                eps_nu=NU_SMOOTH_FACTOR * np.maximum(rho, 1e-30), features=j_features(rel))


def g_hess(ainv):
    """Hessian of g(A) = |A^{-1}|_F^2, one basis matrix E_ab per column."""
    d = ainv.shape[0]
    k = ainv
    out = np.empty((d * d, d * d))
    for a in range(d):
        for b in range(d):
            m = np.zeros((d, d))
            m[a, b] = 1.0
            dg1 = 2.0 * (k.T @ m.T @ k.T @ k @ k.T + k.T @ k @ m @ k @ k.T
                         + k.T @ k @ k.T @ m.T @ k.T)
            out[:, a * d + b] = dg1.ravel()
    return 0.5 * (out + out.T)


def assemble_j(rel, w, A, tau, c):
    """(J, gradient, Hessian) in row-major A then tau, assembled block by block."""
    d = A.shape[0]
    n = d * d + d
    z = rel @ A.T + tau
    ainv = np.linalg.inv(A)
    g = float(np.sum(ainv * ainv))
    cos_z = np.cos(TWO_PI * z)
    s_val = float(np.sum((1.0 - cos_z).sum(axis=1) * w)) / (2.0 * math.pi**2)
    value = c * g * s_val

    gw = (np.sin(TWO_PI * z) / math.pi) * w[:, None]
    sg_tau = gw.sum(axis=0)
    sg_a = gw.T @ rel
    g1 = -2.0 * ainv.T @ ainv @ ainv.T
    grad = np.empty(n)
    grad[: d * d] = c * (g1 * s_val + g * sg_a).ravel()
    grad[d * d:] = c * g * sg_tau

    hw = (2.0 * cos_z) * w[:, None]
    h_tt = np.diag(hw.sum(axis=0))
    t_mat = hw.T @ rel
    h_at = np.zeros((d * d, d))
    for k in range(d):
        h_at[k * d: (k + 1) * d, k] = t_mat[k]
    h_aa = np.zeros((d * d, d * d))
    for k in range(d):
        h_aa[k * d: (k + 1) * d, k * d: (k + 1) * d] = rel.T @ (rel * hw[:, k: k + 1])

    g1v = g1.ravel()
    sgav = sg_a.ravel()
    hess = np.zeros((n, n))
    hess[: d * d, : d * d] = c * (g_hess(ainv) * s_val + np.outer(g1v, sgav)
                                  + np.outer(sgav, g1v) + g * h_aa)
    hess[: d * d, d * d:] = c * (np.outer(g1v, sg_tau) + g * h_at)
    hess[d * d:, : d * d] = hess[: d * d, d * d:].T
    hess[d * d:, d * d:] = c * g * h_tt
    return value, grad, 0.5 * (hess + hess.T)


def f_el_hess(el, A):
    """Hessian of F for d = 2, one basis matrix E_ab per column, det and inverses recomputed."""
    det_a = float(np.linalg.det(A))
    e = el.E
    g = e.T @ A
    det_g = float(np.linalg.det(g))
    s = math.sqrt(float(np.sum(g * g)) + 2.0 * det_g)
    ginv = np.linalg.inv(g)
    grad_s = (e @ g + det_g * e @ ginv.T) / s
    ainv = np.linalg.inv(A)
    c_det = det_a * ainv.T
    ee = e @ e.T
    det_e = float(np.linalg.det(e))
    h = np.empty((4, 4))
    for i in range(4):
        m = np.zeros((2, 2))
        m.flat[i] = 1.0
        cm = float(np.sum(c_det * m))
        d_cdet = cm * ainv.T - det_a * ainv.T @ m.T @ ainv.T
        h_det = 2.0 * el.C1_el * (cm * c_det + (det_a - det_e) * d_cdet)
        trm = float(np.trace(ginv @ e.T @ m))
        d_num = ee @ m + trm * det_g * e @ ginv.T - det_g * e @ ginv.T @ m.T @ e @ ginv.T
        d_grad_s = d_num / s - grad_s * float(np.sum(grad_s * m)) / s
        h_dist = 2.0 * el.C2_el * (m - d_grad_s)
        h[:, i] = (h_det + h_dist).ravel()
    return 0.5 * (h + h.T)


def nu_smooth_terms(det_a, ainv, rho, eps_nu, vartheta):
    """(value, gradient, Hessian) of the smoothed vacancy cost vt (sqrt(u^2 + e^2) - e), u = det A - rho."""
    d = ainv.shape[0]
    u = det_a - rho
    r = math.hypot(u, eps_nu)
    value = vartheta * (r - eps_nu)
    grad = vartheta * u / r * det_a * ainv.T
    c_vec = (det_a * ainv.T).ravel()
    hdet = det_a * (np.einsum("ji,lk->ijkl", ainv, ainv)
                    - np.einsum("jk,li->ijkl", ainv, ainv)).reshape(d * d, d * d)
    hess = vartheta * (eps_nu**2 / r**3 * np.outer(c_vec, c_vec) + (u / r) * hdet)
    return value, grad, hess


def objective_terms(obj, theta):
    """(value, gradient, Hessian) of a fitting._Objective at theta from the oracles above.

    J comes from `assemble_j`; for the full h, F's value and gradient from the
    public ElasticDensity methods, its Hessian from `f_el_hess`, and nu from
    `nu_smooth_terms`, each with its own det A and A^{-1}.
    """
    d = obj.d
    A = theta[: d * d].reshape(d, d)
    rel, w, c = obj.gather()
    val, grad, hess = assemble_j(rel, w, A, theta[d * d:], c)
    if obj.j_only:
        return val, grad, hess
    el = obj.params.elastic
    det_a = float(np.linalg.det(A))
    nu_val, nu_grad, nu_hess = nu_smooth_terms(det_a, np.linalg.inv(A), obj.rho[0], obj.eps_nu[0],
                                               obj.params.vartheta)
    grad = grad.copy()
    hess = hess.copy()
    grad[: d * d] += (el.f_el_grad(A) + nu_grad).ravel()
    hess[: d * d, : d * d] += f_el_hess(el, A) + nu_hess
    return val + el.f_el(A) + nu_val, grad, hess


def f_el_value(el, A):
    """F(A) with sum sigma_i(E^T A) from the singular values."""
    s = np.linalg.svd(el.E.T @ A, compute_uv=False)
    dist2 = max(float(np.sum(A * A) + np.sum(el.E * el.E) - 2.0 * np.sum(s)), 0.0)
    return el.C1_el * (float(np.linalg.det(el.E)) - float(np.linalg.det(A))) ** 2 + el.C2_el * dist2


def f_el_grad(el, A):
    """Gradient of F with d sum sigma_i(E^T A) / dA = E U V^T from the full SVD."""
    det_a = float(np.linalg.det(A))
    u, _, vt = np.linalg.svd(el.E.T @ A)
    g_det = 2.0 * el.C1_el * (det_a - float(np.linalg.det(el.E))) * det_a * np.linalg.inv(A).T
    return g_det + 2.0 * el.C2_el * (A - el.E @ u @ vt)


def directions(diffs, order):
    """The refined directions of `a_init_candidates` from its differences and their order by length.

    Each difference, in order, opens a direction unless one kept so far lies
    within a quarter of its length; each direction is then the mean of its
    sign-aligned cluster.
    """
    reps = []
    rep_norms = []
    for v in diffs[order]:
        if reps:
            arr = np.asarray(reps)
            near = np.minimum(np.linalg.norm(arr - v, axis=1),
                              np.linalg.norm(arr + v, axis=1))
            if np.any(near <= 0.25 * np.asarray(rep_norms)):
                continue
        reps.append(v)
        rep_norms.append(float(np.linalg.norm(v)))
        if len(reps) >= N_DIRECTIONS:
            break
    refined = []
    for r in reps:
        dist_p = np.linalg.norm(diffs - r, axis=1)
        dist_m = np.linalg.norm(diffs + r, axis=1)
        tol = 0.25 * np.linalg.norm(r)
        aligned = np.where((dist_p < tol)[:, None], diffs, -diffs)
        members = aligned[np.minimum(dist_p, dist_m) < tol]
        refined.append(members.mean(axis=0) if members.shape[0] else r)
    return refined


def a_init_candidates(chi, x, lam):
    """The A candidates of `fitting.a_init_candidates`, clustering one difference at a time.

    Each difference, in order of length, is tested against every direction
    kept so far, and each basis against every kept candidate's freshly
    computed inverse.
    """
    d = chi.d
    _, rel, dist = chi.local_atoms(x, lam)
    if rel.shape[0] < d + 1:
        raise FitError(f"too few atoms near {np.asarray(x)}: {rel.shape[0]} < {d + 1}")
    order = np.argsort(dist, kind="stable")
    sel = rel[order[: min(rel.shape[0], 48)]]

    m = sel.shape[0]
    ii, jj = np.triu_indices(m, 1)
    diffs = sel[jj] - sel[ii]
    lengths = np.linalg.norm(diffs, axis=1)
    keep = lengths > 1e-9
    diffs, lengths = diffs[keep], lengths[keep]
    diffs = _canonical_signs(diffs)
    order = np.lexsort(tuple(diffs[:, c] for c in reversed(range(d))) + (lengths,))
    reps = directions(diffs, order)

    candidates = []
    keys = []
    for combo in combinations(range(len(reps)), d):
        binv = np.column_stack([reps[c] for c in combo])
        det = float(np.linalg.det(binv))
        vol = float(np.prod([np.linalg.norm(reps[c]) for c in combo]))
        if abs(det) < 0.15 * vol:
            continue
        if det < 0:
            binv = binv.copy()
            binv[:, -1] *= -1.0
        a = np.linalg.inv(binv)
        duplicate = False
        for kept in candidates:
            r = a @ np.linalg.inv(kept)
            rr = np.round(r)
            if np.max(np.abs(r - rr)) <= 0.1 and abs(round(float(np.linalg.det(rr)))) == 1:
                duplicate = True
                break
        if not duplicate:
            basis_len = sum(float(np.linalg.norm(reps[c])) for c in combo)
            candidates.append(a)
            keys.append((basis_len, tuple(np.round(a, 9).ravel())))
    order = sorted(range(len(candidates)), key=lambda i: keys[i])
    return [candidates[i] for i in order[:MAX_CANDIDATES]]


def pd_solve(hs, gs):
    """Newton direction -hs^{-1} gs via equilibrated Cholesky with refinement.

    Jacobi equilibration plus two iterative-refinement passes; one Cholesky
    factor serves the solve and both passes.  Raises LinAlgError when hs is
    not positive definite.
    """
    dj = np.sqrt(np.maximum(np.diag(hs), 1e-300))
    heq = hs / dj[:, None] / dj[None, :]
    low, info = dpotrf(heq, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("Hessian is not positive definite")

    def solve(rhs):
        return dpotrs(low, rhs / dj, lower=1)[0] / dj

    ps = -solve(gs)
    for _ in range(2):
        resid = hs @ ps + gs
        ps -= solve(resid)
    return ps


def newton_direction(hs, gs, require_pd):
    """-hs^{-1} gs; on an indefinite hs the eigenvalue-floored direction, or None under require_pd."""
    try:
        return pd_solve(hs, gs)
    except np.linalg.LinAlgError:
        if require_pd:
            return None
    evals, evecs = np.linalg.eigh(hs)
    floor = max(1e-8 * float(np.max(np.abs(evals))), 1e-12)
    evals = np.maximum(evals, floor)
    return -evecs @ ((evecs.T @ gs) / evals)


def newton_step(g, hs, f, tol_grad, require_pd):
    """One row of `fitting._newton_steps`: (grad_norm, converged, escaped, step, slope, blind).

    A row that stops (converged or escaped) has no step, slope or blind flag.
    """
    gn = math.sqrt(g @ g)
    if gn <= tol_grad:
        return gn, True, False, None, None, None
    ps = newton_direction(hs, g, require_pd)
    if ps is None:
        return gn, False, True, None, None, None
    step_len = math.sqrt(ps @ ps)
    if step_len > STEP_CAP:
        ps *= STEP_CAP / step_len
    slope = g @ ps
    return gn, False, False, ps, slope, -slope <= 1e-13 * (1.0 + abs(f))


def fit_global(chi, x, params, warm_starts=()):
    """`fitting.fit_global` one point at a time, its starts on h run one after the other.

    Each start's abort bar is 1.05 times the best total before it, plus 1e-6.
    """
    x = np.asarray(x, dtype=float)
    starts = []
    try:
        raw = fitting.a_init_candidates(chi, x, lam=params.lam)
    except FitError:
        raw = []
    if raw:
        starts.extend(pre_converge(raw, chi, x, params))
    starts.extend(warm_starts)
    if not starts:
        raise FitError(f"no fit candidates at {x}")

    obj = _Objective(chi, x, params, j_only=False)
    outcomes = []
    best_seen = math.inf
    for aff0 in starts:
        abort_above = 1.05 * best_seen + 1e-6 if math.isfinite(best_seen) else None
        try:
            out = run_start(obj, aff0, params, abort_above)
        except FitError:
            continue
        best_seen = min(best_seen, out[1].total)
        outcomes.append(out)
    if not outcomes:
        raise FitError(f"all fit candidates failed at {x}")

    best_total = min(o[1].total for o in outcomes)
    tied = [o for o in outcomes if o[1].total <= best_total + 1e-12]
    tied.sort(key=lambda o: (tuple(o[0].tau), tuple(o[0].A.ravel())))
    aff, breakdown, res = tied[0]
    return _finish(x, aff, breakdown, res.iterations, res.grad_norm, chi, params,
                   converged=any(o[2].converged for o in tied), n_candidates=len(starts))


def fit_global_stack(chi, xs, params, warm_starts=None, aborted=None):
    """`fitting.fit_global_stack` with start k of every point as its own stack on h, k = 0, 1, ...

    Each row's abort bar is its own point's 1.05 best + 1e-6 over its starts
    before k, so every bar is known when its stack starts.  An aborted start
    keeps its outcome and its exact total counts towards its point's best.
    When aborted is a list, it receives (g, exact total, g's final best) of
    every aborted start.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1, chi.d)
    if warm_starts is None:
        warm_starts = [()] * len(xs)
    starts = fitting._half_stage(chi, xs, params)
    for g, warm in enumerate(warm_starts):
        starts[g].extend(pack(a) for a in warm)
    live = [g for g in range(len(xs)) if starts[g]]
    outcomes = [[] for _ in xs]
    best = np.full(len(xs), math.inf)
    dropped = []
    if live:
        obj = _Objective(chi, xs[live], params, j_only=False)
    for k in range(max((len(starts[g]) for g in live), default=0)):
        rows = [i for i, g in enumerate(live) if len(starts[g]) > k]
        nodes = [live[i] for i in rows]
        try:
            res = _newton(obj, np.stack([starts[g][k] for g in nodes]), TOL_GRAD, MAX_ITER_H,
                          require_pd=False, abort_above=1.05 * best[nodes] + 1e-6,
                          points=rows)
        except FitError:
            continue
        for r, (i, g) in enumerate(zip(rows, nodes)):
            if math.isfinite(res.value[r]):
                aff, breakdown = _exact(obj, res.theta[r], params, i)
                best[g] = min(best[g], breakdown.total)
                outcomes[g].append((aff, breakdown, int(res.iterations[r]),
                                    float(res.grad_norm[r]), bool(res.converged[r])))
                if res.aborted[r]:
                    dropped.append((g, breakdown.total))
    if aborted is not None:
        aborted.extend((g, total, best[g]) for g, total in dropped)
    return fitting._pick_fits(xs, starts, outcomes, chi, params)


def pre_converge(raw, chi, x, params):
    """The A candidates of one point pre-converged on J at lam/2, at most 4 of them kept."""
    obj = _Objective(chi, x, params, j_only=True, lam=params.lam / 2.0)
    if obj.rho[0] <= 0.0:
        return []
    a = np.asarray(raw)
    rel, w, _ = obj.gather()
    theta0 = np.concatenate([a.reshape(len(raw), -1), _tau_phase(a, rel, w)], axis=1)
    try:
        res = _newton(obj, theta0, 1e-8, 15, require_pd=False)
    except FitError:
        return []
    finite = np.isfinite(res.value)
    j_half, theta_half = res.value[finite], res.theta[finite]
    if j_half.size == 0:
        return []
    bar = max(25.0 * float(np.min(j_half)), 1e-9)
    return [unpack(th, chi.d) for th in theta_half[j_half <= bar][:4]]


def run_start(obj, aff0, params, abort_above=None):
    """Newton on h from one start, then tau wrapped to [0, 1) and the exact energy from obj's gather."""
    res = _newton(obj, pack(aff0), TOL_GRAD, MAX_ITER_H, require_pd=False,
                  abort_above=abort_above)
    return (*_exact(obj, res.theta, params), res)


def evaluate_grid(chi, geom, params):
    """`fields.evaluate_grid` one node at a time: fit, align, then one branch minimizer per node.

    Nodes are fitted in seed order: distance from the grid center, then iy,
    then ix.  A node with an already-fitted valid 4-neighbour (the earliest
    in that order) is fitted by one damped Newton on h from the neighbour's
    transported fit (A_n, tau_n + A_n dx), and the result is kept when it
    converged and is a regular pair under `params.thresholds`.  Otherwise, at the
    first node and on any FitError, the full multistart `fit_global` runs.
    A continued node's raw fit therefore stays in its neighbour's integer
    parametrisation, so `align` is mostly the identity.

    Alignment is `align_nodes`.
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
        parents = [(ix + dx, iy + dy) for dx, dy in fields._STEPS
                   if 0 <= ix + dx < nx and 0 <= iy + dy < ny and valid[iy + dy, ix + dx]]
        out = None
        if parents:
            px, py = min(parents, key=rank.__getitem__)
            aff = fits[py][px].aff_hat
            pred = AffinePair(aff.A, aff.tau + aff.A @ (x - geom.node(px, py)))
            try:
                out = fit_from(pred, chi, x, params)
            except FitError:
                pass
        if out is None or not (out.converged and out.regular):
            try:
                out = fit_global(chi, x, params)
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

    align, aligned_aff, component = align_nodes(chi, geom, params, order, fits, valid)

    # branch points: local J-minimizers seeded at the aligned fits
    branch = [[None] * nx for _ in range(ny)]
    a_tilde = np.full((ny, nx, 2, 2), np.nan)
    tau_tilde = np.full((ny, nx, 2), np.nan)
    for ix, iy in nodes:
        if component[iy, ix] < 0:    # invalid: every valid node is reached or seeds
            continue
        try:
            bp = minimize_j_local(aligned_aff[iy][ix], chi, geom.node(ix, iy), params)
        except BasinEscapeError:
            valid[iy, ix] = False
            component[iy, ix] = -1
            reasons[iy][ix] = "branch minimizer left convexity basin"
            continue
        branch[iy][ix] = bp
        a_tilde[iy, ix] = bp.aff_tilde.A
        tau_tilde[iy, ix] = bp.aff_tilde.tau

    return fields.FieldGrid(geometry=geom, params=params, fits=fits, branch=branch, valid=valid,
                     align=align, component=component, a_tilde=a_tilde, tau_tilde=tau_tilde,
                     h_hat=h_hat, rho_l=rho_l, rho_2l=rho_2l, invalid_reason=reasons)


def align_nodes(chi, geom, params, order, fits, valid):
    """(align, aligned pairs, component): alignment by rounding against the aligned parent.

    Alignment propagates by breadth-first search from a seed (the valid node
    first in seed order); disconnected valid regions get their own seeds,
    recorded in `component`.  A tree edge rounds the child's raw fit against
    the parent's aligned pair (y, B A, B tau + t), which gives the child's
    alignment directly, where `fields._align_nodes` rounds the two raw fits
    and composes.
    """
    ny, nx = geom.ny, geom.nx
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
            for dx, dy in fields._STEPS:
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
    return align, aligned_aff, component


def ring_product(field, ring, chi):
    """Product of the raw-fit steps round a closed ring of nodes; None if invalid or refused.

    Every step is a fresh `find_reparam` of the two raw fits, where
    `fields._ring_product` folds the grid's link table.
    """
    if not all(field.valid[iy, ix] for ix, iy in ring):
        return None
    fits = [field.fits[iy][ix] for ix, iy in ring]
    try:
        return chain_product([find_reparam(fits[k], fits[(k + 1) % len(fits)], chi, field.params)
                              for k in range(len(fits))])
    except ReparamError:
        return None


def fd_gradients(field):
    """`fields.fd_gradients` node by node: finite differences of tau~ and A~ on the aligned branch.

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

    return fields.FieldGradients(grad_tau=grad_tau, grad_a=grad_a, hess_tau=hess_tau,
                                 order=order, hess_ok=hess_ok)


def fit_from(aff0, chi, x, params):
    """One continuation Newton on h from aff0 at x: `fitting._fit_from_rows` on one row.

    Raises FitError when aff0 has det A <= 0.
    """
    x = np.asarray(x, dtype=float)
    obj = _Objective(chi, x, params, j_only=False)
    out = _fit_from_rows(obj, [aff0], x[None], chi, params, [0])[0]
    if out is None:
        raise FitError("starting point has det A <= 0")
    return out


def continue_step(y, aff, chi, x, params):
    """One continuation step from the pair (y, aff) to x; the multistart when it is refused."""
    pred = AffinePair(aff.A, aff.tau + aff.A @ (x - np.asarray(y, dtype=float)))
    try:
        out = fit_from(pred, chi, x, params)
    except FitError:
        out = None
    if out is not None and out.converged and out.regular:
        return out
    return fit_global(chi, x, params)


def fit_loop(chi, points, params):
    """`fitting.fit_loop` with the forward sweep run to the end before the backward one starts."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    first = fit_global(chi, pts[0], params)
    fwd = [first]
    for x in pts[1:]:
        fwd.append(continue_step(fwd[-1].position, fwd[-1].aff_hat, chi, x, params))
    bwd = [first]
    for x in pts[:0:-1]:
        bwd.append(continue_step(bwd[-1].position, bwd[-1].aff_hat, chi, x, params))
    bwd = [first] + bwd[:0:-1]
    return [_guard(f, b, chi, params) for f, b in zip(fwd, bwd)]


def fit_between(chi, x, params, ends):
    """`fitting.fit_between` with one continuation call per end."""
    x = np.asarray(x, dtype=float)
    (y1, aff1), (y2, aff2) = ends
    return _guard(continue_step(y1, aff1, chi, x, params),
                  continue_step(y2, aff2, chi, x, params), chi, params)


def w_eval(z):
    """W(z) = sum_k (1 - cos 2 pi z_k) / (2 pi^2), vectorized over leading axes."""
    z = np.asarray(z, dtype=float)
    return np.sum((1.0 - np.cos(TWO_PI * z)) / (2.0 * math.pi**2), axis=-1)


def w_hess_diag(z):
    """Diagonal of the (diagonal) Hessian of W: 2 cos(2 pi z_k)."""
    z = np.asarray(z, dtype=float)
    return 2.0 * np.cos(TWO_PI * z)


def w_hess(z):
    """Full d x d Hessian of W (diagonal for the separable cosine well)."""
    diag = w_hess_diag(z)
    out = np.zeros(diag.shape + (diag.shape[-1],))
    idx = np.arange(diag.shape[-1])
    out[..., idx, idx] = diag
    return out


def phi_grad(r):
    """d phi / d r; identically 0 outside (1, 2) and <= 0 everywhere."""
    r = np.asarray(r, dtype=float)
    u = np.clip(r - 1.0, 0.0, 1.0)
    return -_smoothstep7_d1(u)


def phi_hess(r):
    """d^2 phi / d r^2 (continuous; the profile is C^3)."""
    r = np.asarray(r, dtype=float)
    u = np.clip(r - 1.0, 0.0, 1.0)
    return -_smoothstep7_d2(u)


def phi_root_norms(d):
    """`potentials._phi_root_norms` as one whole-array sample of 400,001 points.

    The package takes the same points in fixed chunks with a running max,
    which must give these floats exactly.
    """
    # parametrize by v = 2 - r: phi(r) = S(v) exactly on the transition, which
    # stays accurate where 1 - S(r - 1) would cancel
    v = np.linspace(1e-9, 1.0, 400001)
    r = 2.0 - v
    p = _smoothstep7(v)
    dp = -_smoothstep7_d1(v)        # d phi / d r
    d2p = _smoothstep7_d2(v)        # d^2 phi / d r^2

    sqrt_p = np.sqrt(p)
    f1 = dp / (2.0 * sqrt_p)
    f2 = d2p / (2.0 * sqrt_p) - dp**2 / (4.0 * p * sqrt_p)
    q1 = dp / (4.0 * p**0.75)

    grad_sqrt = float(np.max(np.abs(f1)))
    hess_sqrt = float(np.max(np.sqrt(f2**2 + (d - 1) * (f1 / r) ** 2)))
    hess_sqrt = max(hess_sqrt, 2.0 * math.sqrt(35.0))          # r -> 2 limit
    grad_quart = max(float(np.max(np.abs(q1))), 35.0**0.25)    # r -> 2 limit
    return grad_sqrt, hess_sqrt, grad_quart


def half_plane_count_oracle(chi, core, axis_dir, width, offsets=(3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)):
    """Net extra atom columns above vs below the core, counted combinatorially.

    Counts atoms in thin strips parallel to the Burgers direction at +-offset
    from the core, spanning `width` to each side.  An inserted half-plane adds
    one column to every strip on its side; averaging the above-minus-below
    count over several strip offsets washes out the +-1 jitter of columns
    sitting on the window edge.  Independent of the fitting machinery.
    """
    core = np.asarray(core, dtype=float)
    e1 = np.asarray(axis_dir, dtype=float)
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.array([-e1[1], e1[0]])
    rel = chi.positions - core
    s = rel @ e1
    t = rel @ e2

    def strip_count(t0):
        band = (np.abs(t - t0) < 0.5) & (np.abs(s) <= width)
        return int(np.count_nonzero(band))

    diffs = [strip_count(o) - strip_count(-o) for o in offsets]
    return int(round(float(np.mean(diffs))))


def express_in_frame(product, base_aff, reference_a):
    """Rewrite a loop product in the label frame of a reference lattice matrix.

    The raw product lives in the label frame of the loop's base fit; if that
    fit is an integer relabeling B0 of the reference frame (B0 = rounding of
    A_base A_ref^{-1}), the frame-independent content is (B0^{-1} B B0,
    B0^{-1} t).
    """
    r = base_aff.A @ np.linalg.inv(np.asarray(reference_a, dtype=float))
    b0 = np.round(r)
    if float(np.max(np.abs(r - b0))) > 0.25:
        raise AmbiguousReparamError("base fit is not an integer relabeling of the reference frame")
    b0 = Reparam(b0.astype(np.int64), np.zeros(product.d, dtype=np.int64))
    b0_inv = b0.inverse()
    return Reparam(b0_inv.B @ product.B @ b0.B, b0_inv.B @ product.t)
