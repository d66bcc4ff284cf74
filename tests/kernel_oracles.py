"""Loop-form reference versions of the fit kernels, kept as test oracles.

These are the straightforward per-entry assemblies that `core_model.assemble_j`,
`core_model._g_hess`, `ElasticDensity.f_el_hess` and `fitting._Objective`
replace with closed tensor forms: the J Hessian built block by block from the
diagonal well Hessian, the Hessian of |A^{-1}|_F^2 and of F column by column
over the basis matrices E_ab, and every det A and A^{-1} recomputed where it is
used.  F's value and gradient take the singular values and vectors of E^T A
where the kernels use the d = 2 closed form, and `a_init_candidates` clusters
the difference vectors one at a time where the fit code masks them.  They are
slow and obviously correct; the kernel tests compare against them.
"""

import math
from itertools import combinations

import numpy as np

from latfit.fitting import MAX_CANDIDATES, N_DIRECTIONS, FitError, _canonical_signs

TWO_PI = 2.0 * math.pi


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
    val, grad, hess = assemble_j(obj.rel, obj.w, A, theta[d * d:], obj.c)
    if obj.j_only:
        return val, grad, hess
    el = obj.params.elastic
    det_a = float(np.linalg.det(A))
    nu_val, nu_grad, nu_hess = nu_smooth_terms(det_a, np.linalg.inv(A), obj.rho, obj.eps_nu,
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
    reps = refined

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
