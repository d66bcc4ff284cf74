"""Minimization of the pre-energy over (A, tau) and continuation of minimizer branches.

The misfit J is locally convex around regular pairs, so a damped Newton with
the exact analytic gradient/Hessian converges in a handful of steps.  The
global fit is a deterministic multistart: candidate A's from short difference
vectors, tau from the phase of the weighted lattice sum, then Newton on the
full h = J + F + nu (nu smoothed so it is C^2; reported energies always use
the exact |.|).  The reported h_hat is an upper bound on the true infimum.
`fit_from` runs one start alone, from a caller's predictor; both finish a
start the same way (canonical tau, exact energy, regular-pair test).

`fit_loop` fits the samples of a closed loop by continuation: the multistart
runs at sample 0, and two sweeps, one each way round the loop, carry that
fit from sample to sample with `fit_from`.  Samples 1.2 lam apart can still
land in a higher neighbouring basin, so where the sweeps disagree the
sample gets the multistart warm-started from both (the basin guard).  A
sample the sweeps agree on keeps the forward fit, in sample 0's integer
gauge.  `fit_between` applies the same guard to one point between two fits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from .core_model import (
    AffinePair,
    Configuration,
    EnergyBreakdown,
    ModelParams,
    RegularityReport,
    assemble_j,
    gather_weights,
    is_regular_pair,
    pre_energy,
)

if TYPE_CHECKING:
    from .topology import Reparam

TWO_PI = 2.0 * math.pi

TOL_GRAD = 1e-10        # dual lambda-norm of the gradient at convergence
MAX_ITER = 50           # Newton steps on J per branch point
MAX_ITER_H = 60         # Newton steps on h per fit start
DELTA_AFF = 0.2         # basin radius in lambda-norm units, validated by the PD check
STEP_CAP = 1.0          # longest Newton step in the lambda-scaled metric: one period of the tau wells
ARMIJO_C1 = 1e-4
N_DIRECTIONS = 12       # difference-vector directions combined into A candidates
MAX_CANDIDATES = 10     # A candidates kept; fit_global pre-converges them and keeps <= 4
# eps_nu = factor * rho; 1e-5 keeps the smoothed-ridge curvature vartheta/eps_nu
# low enough that det-A roundoff cannot push the gradient floor above TOL_GRAD
NU_SMOOTH_FACTOR = 1e-5
GUARD_TOL = 1e-12       # two continuations of one loop sample agreeing to this share a basin


class FitError(RuntimeError):
    """No usable fit could be produced at the requested point."""


class BasinEscapeError(FitError):
    """Newton on J left the convexity basin (Hessian stopped being PD)."""


def pack(aff: AffinePair) -> np.ndarray:
    return np.concatenate([aff.A.ravel(), aff.tau])


def unpack(theta: np.ndarray, d: int) -> AffinePair:
    return AffinePair(theta[: d * d].reshape(d, d), theta[d * d:])


def lam_norm(d_a: np.ndarray, d_tau: np.ndarray, lam: float) -> float:
    """|(M, mu)|_lam = sqrt(lam^2 |M|_F^2 + |mu|^2)."""
    return math.sqrt(lam**2 * float(np.sum(d_a * d_a)) + float(np.sum(d_tau * d_tau)))


def aff_distance(a1: AffinePair, a2: AffinePair, lam: float) -> float:
    return lam_norm(a1.A - a2.A, a1.tau - a2.tau, lam)


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------

class _Objective:
    """h (or J alone) as a function of theta, with gradient and Hessian.

    The neighbor gather (relative positions and cutoff weights) is fixed per
    point and hoisted out of the iteration; rho is likewise constant during
    the (A, tau) optimization.  det A <= 0 evaluates to +inf so line searches
    stay orientation-preserving.
    """

    def __init__(self, chi: Configuration, x, params: ModelParams, j_only: bool,
                 lam: float | None = None):
        self.chi = chi
        self.x = np.asarray(x, dtype=float)
        self.params = params
        self.j_only = j_only
        self.d = chi.d
        self.lam = params.lam if lam is None else lam
        self.rel, self.w, self.c = gather_weights(chi, self.x, self.lam)
        self.rho = float(np.sum(self.w)) * self.c
        self.eps_nu = NU_SMOOTH_FACTOR * max(self.rho, 1e-30)

    def _nu_smooth(self, det_a: float) -> float:
        e = self.eps_nu
        return self.params.vartheta * (math.hypot(det_a - self.rho, e) - e)

    def _nu_smooth_grad(self, a: np.ndarray) -> np.ndarray:
        det_a = float(np.linalg.det(a))
        r = math.hypot(det_a - self.rho, self.eps_nu)
        return self.params.vartheta * (det_a - self.rho) / r * det_a * np.linalg.inv(a).T

    def _nu_smooth_hess(self, a: np.ndarray) -> np.ndarray:
        # nu_s = vt (r - e), r = sqrt(u^2 + e^2), u = det A - rho:
        # hess = vt [ (e^2 / r^3) C (x) C + (u / r) hess(det) ] with C = grad det
        d = a.shape[0]
        det_a = float(np.linalg.det(a))
        u = det_a - self.rho
        r = math.hypot(u, self.eps_nu)
        ainv = np.linalg.inv(a)
        c_vec = (det_a * ainv.T).ravel()
        # d^2 det / dA_ij dA_kl = det A [ Ainv_ji Ainv_lk - Ainv_jk Ainv_li ]
        hdet = det_a * (np.einsum("ji,lk->ijkl", ainv, ainv)
                        - np.einsum("jk,li->ijkl", ainv, ainv)).reshape(d * d, d * d)
        vt = self.params.vartheta
        return vt * (self.eps_nu**2 / r**3 * np.outer(c_vec, c_vec) + (u / r) * hdet)

    def value(self, theta: np.ndarray) -> float:
        d = self.d
        a = theta[: d * d].reshape(d, d)
        det_a = float(np.linalg.det(a))
        if det_a <= 1e-12:
            return math.inf
        aff = AffinePair(a, theta[d * d:])
        val = assemble_j(self.rel, self.w, aff, self.c, want_grad=False)[0]
        if not self.j_only:
            val += self.params.elastic.f_el(a) + self._nu_smooth(det_a)
        return val

    def value_grad_hess(self, theta: np.ndarray):
        d = self.d
        aff = unpack(theta, d)
        val, grad, hess = assemble_j(self.rel, self.w, aff, self.c)
        if self.j_only:
            return val, grad, hess
        a = aff.A
        el = self.params.elastic
        val = val + el.f_el(a) + self._nu_smooth(float(np.linalg.det(a)))
        grad = grad.copy()
        grad[: d * d] += (el.f_el_grad(a) + self._nu_smooth_grad(a)).ravel()
        hess = hess.copy()
        hess[: d * d, : d * d] += el.f_el_hess(a) + self._nu_smooth_hess(a)
        return val, grad, hess


@dataclass
class _NewtonResult:
    theta: np.ndarray
    converged: bool
    iterations: int
    grad_norm: float


def _pd_solve(hs: np.ndarray, gs: np.ndarray) -> np.ndarray:
    """Newton direction -hs^{-1} gs via equilibrated Cholesky with refinement.

    The smoothed nu ridge makes hs conditioned like 1e10; Jacobi equilibration
    plus two iterative-refinement passes recover full gradient accuracy.
    Raises LinAlgError when hs is not positive definite.
    """
    dj = np.sqrt(np.maximum(np.diag(hs), 1e-300))
    heq = hs / dj[:, None] / dj[None, :]
    low = np.linalg.cholesky(heq)

    def solve(rhs):
        y = np.linalg.solve(low, rhs / dj)
        return np.linalg.solve(low.T, y) / dj

    ps = -solve(gs)
    for _ in range(2):
        resid = hs @ ps + gs
        ps -= solve(resid)
    return ps


def _newton(obj: _Objective, theta0: np.ndarray, tol_grad: float, max_iter: int,
            require_pd: bool, abort_above: float | None = None) -> _NewtonResult:
    """Damped Newton in the lambda-scaled metric; steps accepted only on decrease.

    It stops in one of five ways:
    - converged: the scaled gradient norm is at most tol_grad;
    - abort_above: from iteration 10 on, the value is still above abort_above
      (a multistart's bar: the descent is monotone, so such a run cannot win);
    - line-search failure: no step length down to 2^-40 decreases the value;
    - max-iter: max_iter steps taken;
    - BasinEscapeError: require_pd and the Hessian is not positive definite.
    Raises FitError when theta0 has det A <= 0.
    """
    d = obj.d
    lam = obj.lam
    scale = np.concatenate([np.full(d * d, lam), np.ones(d)])
    theta = np.array(theta0, dtype=float)
    f_cur = obj.value(theta)
    if not math.isfinite(f_cur):
        raise FitError("starting point has det A <= 0")
    grad_norm = math.inf
    for it in range(max_iter):
        if abort_above is not None and it >= 10 and f_cur > abort_above:
            return _NewtonResult(theta, False, it, grad_norm)
        _, grad, hess = obj.value_grad_hess(theta)
        gs = grad / scale
        grad_norm = float(np.linalg.norm(gs))
        if grad_norm <= tol_grad:
            return _NewtonResult(theta, True, it, grad_norm)
        hs = hess / scale[:, None] / scale[None, :]
        try:
            ps = _pd_solve(hs, gs)
        except np.linalg.LinAlgError:
            if require_pd:
                raise BasinEscapeError("left convexity basin: Hessian not positive definite")
            evals, evecs = np.linalg.eigh(hs)
            floor = max(1e-8 * float(np.max(np.abs(evals))), 1e-12)
            evals = np.maximum(evals, floor)
            ps = -evecs @ ((evecs.T @ gs) / evals)
        step_len = float(np.linalg.norm(ps))
        if step_len > STEP_CAP:
            ps *= STEP_CAP / step_len
        p = ps / scale
        slope = float(gs @ ps)
        # predicted decrease below value roundoff: take the full Newton step,
        # the line search cannot see improvements at that scale
        if -slope <= 1e-13 * (1.0 + abs(f_cur)):
            theta = theta + p
            f_cur = obj.value(theta)
            continue
        t = 1.0
        accepted = False
        while t >= 2.0**-40:
            f_new = obj.value(theta + t * p)
            if f_new <= f_cur + ARMIJO_C1 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return _NewtonResult(theta, grad_norm <= tol_grad, it, grad_norm)
        theta = theta + t * p
        f_cur = f_new
    _, grad, _ = obj.value_grad_hess(theta)
    grad_norm = float(np.linalg.norm(grad / scale))
    return _NewtonResult(theta, grad_norm <= tol_grad, max_iter, grad_norm)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def tau_init(A, chi: Configuration, x, lam: float) -> np.ndarray:
    """Phase of the cutoff-weighted lattice sum; exact for a perfect lattice.

    tau_k = -arg( sum_i phi_i exp(2 pi i (A(x_i - x))_k) ) / 2 pi, in [0, 1).
    """
    A = np.asarray(A, dtype=float)
    rel, w, _ = gather_weights(chi, x, lam)
    if float(np.sum(w)) <= 0.0:
        raise FitError(f"no atoms in range of {np.asarray(x)}")
    y = rel @ A.T
    u = np.sum(w[:, None] * np.exp(1j * TWO_PI * y), axis=0)
    tau = (-np.angle(u) / TWO_PI) % 1.0
    return tau


def _canonical_signs(diffs: np.ndarray) -> np.ndarray:
    """Flip each row so its first nonzero component is positive."""
    signs = np.ones(diffs.shape[0])
    undecided = np.ones(diffs.shape[0], dtype=bool)
    for c in range(diffs.shape[1]):
        decide = undecided & (np.abs(diffs[:, c]) > 1e-12)
        signs[decide] = np.sign(diffs[decide, c])
        undecided &= ~decide
    return diffs * signs[:, None]


def a_init_candidates(chi: Configuration, x, lam: float | None = None) -> list[np.ndarray]:
    """Up to MAX_CANDIDATES A matrices from the N_DIRECTIONS shortest distinct differences near x.

    Difference vectors of atoms in B_lam(x) are sign-canonicalized and
    clustered into directions; each direction is refined as the mean of its
    cluster (a single noisy pair would land outside the Newton basin).  The
    directions are combined into orientation-fixed bases, deduplicated up to
    the integer-unimodular action (same spanned lattice).
    """
    if lam is None:
        lam = chi.lam
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

    reps: list[np.ndarray] = []
    rep_norms: list[float] = []
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
    # refine each direction by averaging its sign-aligned cluster members
    refined = []
    for r in reps:
        dist_p = np.linalg.norm(diffs - r, axis=1)
        dist_m = np.linalg.norm(diffs + r, axis=1)
        tol = 0.25 * np.linalg.norm(r)
        aligned = np.where((dist_p < tol)[:, None], diffs, -diffs)
        members = aligned[np.minimum(dist_p, dist_m) < tol]
        refined.append(members.mean(axis=0) if members.shape[0] else r)
    reps = refined

    candidates: list[np.ndarray] = []
    keys: list[tuple] = []
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


# ---------------------------------------------------------------------------
# local and global fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchPoint:
    """A local minimizer of J at a position, tagged with its branch provenance."""

    position: np.ndarray
    aff_tilde: AffinePair
    j_value: float
    grad_norm: float
    iterations: int
    converged: bool
    provenance: Reparam | None = None


@dataclass(frozen=True)
class FitResult:
    """A fit of h at a point: the best multistart candidate, or one continuation step."""

    position: np.ndarray
    aff_hat: AffinePair
    breakdown: EnergyBreakdown
    regular: bool
    report: RegularityReport
    iterations: int
    converged: bool
    grad_norm: float
    n_candidates: int


def minimize_j_local(aff0: AffinePair, chi: Configuration, x, params: ModelParams,
                     check_regular: bool = True) -> BranchPoint:
    """Damped Newton on J inside the convexity basin around aff0.

    Raises BasinEscapeError when the Hessian stops being positive definite;
    a start at an exact minimizer returns unchanged with 0 iterations.
    """
    if check_regular:
        ok, _ = is_regular_pair(x, aff0, chi, params)
        if not ok:
            warnings.warn(f"minimize_j_local started at an irregular pair near {np.asarray(x)}",
                          stacklevel=2)
    obj = _Objective(chi, x, params, j_only=True)
    res = _newton(obj, pack(aff0), TOL_GRAD, MAX_ITER, require_pd=True)
    aff = unpack(res.theta, chi.d)
    return BranchPoint(position=np.array(x, dtype=float), aff_tilde=aff,
                       j_value=obj.value(res.theta), grad_norm=res.grad_norm,
                       iterations=res.iterations, converged=res.converged)


def fit_global(chi: Configuration, x, params: ModelParams, warm_starts=(),
               thresholds=None) -> FitResult:
    """Multistart damped Newton on h = J + F + smoothed nu; lowest total wins.

    The returned total is an upper bound on the true infimum by construction.
    Ties within 1e-12 break to the lexicographically smallest (tau, A).
    """
    x = np.asarray(x, dtype=float)
    starts: list[AffinePair] = []
    try:
        raw = a_init_candidates(chi, x, lam=params.lam)
    except FitError:
        raw = []
    if raw:
        # pre-converge each candidate on J at lam/2: the convexity basin is
        # twice as wide there, which tolerates the noise of the init vectors
        lam_half = params.lam / 2.0
        obj_half = _Objective(chi, x, params, j_only=True, lam=lam_half)
        staged = []
        for a in raw:
            try:
                aff0 = AffinePair(a, tau_init(a, chi, x, lam_half))
                res0 = _newton(obj_half, pack(aff0), 1e-8, 15, require_pd=False)
                staged.append((obj_half.value(res0.theta), unpack(res0.theta, chi.d)))
            except FitError:
                continue
        if staged:
            # drop candidates stuck on the incoherent plateau; finer
            # sublattices also fit J well and are left for nu to reject
            j_best = min(s[0] for s in staged)
            staged = [s for s in staged if s[0] <= max(25.0 * j_best, 1e-9)][:4]
            starts.extend(aff for _, aff in staged)
    starts.extend(warm_starts)
    if not starts:
        raise FitError(f"no fit candidates at {x}")

    obj = _Objective(chi, x, params, j_only=False)
    outcomes = []
    best_seen = math.inf
    for aff0 in starts:
        abort_above = 1.05 * best_seen + 1e-6 if math.isfinite(best_seen) else None
        try:
            out = _run_start(obj, aff0, chi, x, params, abort_above)
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
    return _finish(x, aff, breakdown, res, chi, params, thresholds,
                   converged=any(o[2].converged for o in tied), n_candidates=len(starts))


def fit_from(aff0: AffinePair, chi: Configuration, x, params: ModelParams,
             thresholds=None) -> FitResult:
    """One damped Newton on h from aff0, finished exactly as a multistart start is.

    The continuation step of a grid fit: aff0 is a neighbour's fit transported
    to x, and the result keeps aff0's integer parametrisation (tau wrapped to
    [0, 1)).  Raises FitError when aff0 has det A <= 0.
    """
    x = np.asarray(x, dtype=float)
    obj = _Objective(chi, x, params, j_only=False)
    aff, breakdown, res = _run_start(obj, aff0, chi, x, params)
    return _finish(x, aff, breakdown, res, chi, params, thresholds,
                   converged=res.converged, n_candidates=1)


def fit_loop(chi: Configuration, points, params: ModelParams, thresholds=None) -> list[FitResult]:
    """Fits of the samples of a closed loop by two-way continuation with a basin guard.

    `points` are the distinct samples in loop order (the closing point not
    repeated).  Sample 0 gets the multistart `fit_global`.  A forward sweep
    (1 -> n-1) and a backward sweep (n-1 -> 1) each fit a sample by one
    continuation step from the previous fit of that sweep, transported as
    (A, tau + A dx); a step that fails, does not converge or is not regular
    under `thresholds` falls back to `fit_global`.  Where the two sweeps'
    totals differ by more than GUARD_TOL, one sweep sits in a higher basin,
    and the sample gets `fit_global` warm-started from both; elsewhere it
    keeps the forward fit, which stays in sample 0's integer gauge.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    first = fit_global(chi, pts[0], params, thresholds=thresholds)
    fwd = [first]
    for x in pts[1:]:
        fwd.append(_continue(fwd[-1].position, fwd[-1].aff_hat, chi, x, params, thresholds))
    bwd = [first]
    for x in pts[:0:-1]:
        bwd.append(_continue(bwd[-1].position, bwd[-1].aff_hat, chi, x, params, thresholds))
    bwd = [first] + bwd[:0:-1]
    return [_guard(f, b, chi, params, thresholds) for f, b in zip(fwd, bwd)]


def fit_between(chi: Configuration, x, params: ModelParams, ends, thresholds=None) -> FitResult:
    """Fit of a point from two nearby fitted pairs (y, AffinePair), guarded as a loop sample is."""
    x = np.asarray(x, dtype=float)
    (y1, aff1), (y2, aff2) = ends
    return _guard(_continue(y1, aff1, chi, x, params, thresholds),
                  _continue(y2, aff2, chi, x, params, thresholds), chi, params, thresholds)


def _continue(y, aff: AffinePair, chi: Configuration, x, params: ModelParams,
              thresholds) -> FitResult:
    """One continuation step from the pair (y, aff) to x; the multistart when it is refused."""
    pred = AffinePair(aff.A, aff.tau + aff.A @ (x - np.asarray(y, dtype=float)))
    try:
        out = fit_from(pred, chi, x, params, thresholds)
    except FitError:
        out = None
    if out is not None and out.converged and out.regular:
        return out
    return fit_global(chi, x, params, thresholds=thresholds)


def _guard(a: FitResult, b: FitResult, chi: Configuration, params: ModelParams,
           thresholds) -> FitResult:
    """a when two fits of one point agree in total to GUARD_TOL; else the multistart from both."""
    if abs(a.breakdown.total - b.breakdown.total) <= GUARD_TOL:
        return a
    return fit_global(chi, a.position, params, warm_starts=(a.aff_hat, b.aff_hat),
                      thresholds=thresholds)


def _run_start(obj: _Objective, aff0: AffinePair, chi: Configuration, x, params: ModelParams,
               abort_above: float | None = None):
    """Newton on h from one start, then tau wrapped to [0, 1) and the exact energy."""
    res = _newton(obj, pack(aff0), TOL_GRAD, MAX_ITER_H, require_pd=False,
                  abort_above=abort_above)
    aff = unpack(res.theta, chi.d).canonical_tau()
    return aff, pre_energy(aff, chi, x, params), res


def _finish(x, aff: AffinePair, breakdown: EnergyBreakdown, res: _NewtonResult,
            chi: Configuration, params: ModelParams, thresholds, converged: bool,
            n_candidates: int) -> FitResult:
    """The regular-pair test of the chosen fit, packed into a FitResult."""
    regular, report = is_regular_pair(x, aff, chi, params, thresholds)
    return FitResult(position=x, aff_hat=aff, breakdown=breakdown, regular=regular,
                     report=report, iterations=res.iterations, converged=converged,
                     grad_norm=res.grad_norm, n_candidates=n_candidates)


def track_minimizer(branch: BranchPoint, path, chi: Configuration,
                    params: ModelParams) -> list[BranchPoint]:
    """Continuation of a J-minimizer branch along a path of nearby points.

    Each step warm-starts Newton from the transported predictor
    (A_prev, tau_prev + A_prev dx); the branch is truncated (with a warning
    naming the reason) when regularity fails, the convexity basin is left,
    or the new minimizer is farther than DELTA_AFF from the predictor.
    """
    path = np.atleast_2d(np.asarray(path, dtype=float))
    if np.linalg.norm(path[0] - branch.position) > 1e-9:
        raise ValueError("path must start at the branch position")
    steps = np.linalg.norm(np.diff(path, axis=0), axis=1)
    if np.any(steps > params.lam / 4.0 + 1e-9):
        raise ValueError(f"path step {float(np.max(steps)):g} exceeds lam/4 = {params.lam / 4.0:g}")

    out = [branch]
    cur = branch
    for i, x_new in enumerate(path[1:], start=1):
        dx = x_new - cur.position
        pred = AffinePair(cur.aff_tilde.A, cur.aff_tilde.tau + cur.aff_tilde.A @ dx)
        ok, _ = is_regular_pair(x_new, pred, chi, params)
        if not ok:
            warnings.warn(f"track_minimizer truncated at step {i}: predictor not regular",
                          stacklevel=2)
            break
        try:
            bp = minimize_j_local(pred, chi, x_new, params, check_regular=False)
        except BasinEscapeError:
            warnings.warn(f"track_minimizer truncated at step {i}: left convexity basin",
                          stacklevel=2)
            break
        if aff_distance(bp.aff_tilde, pred, params.lam) >= DELTA_AFF:
            warnings.warn(f"track_minimizer truncated at step {i}: branch identity lost",
                          stacklevel=2)
            break
        bp = BranchPoint(position=bp.position, aff_tilde=bp.aff_tilde, j_value=bp.j_value,
                         grad_norm=bp.grad_norm, iterations=bp.iterations,
                         converged=bp.converged, provenance=cur.provenance)
        out.append(bp)
        cur = bp
    return out
