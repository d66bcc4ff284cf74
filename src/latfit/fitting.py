"""Minimization of the pre-energy over (A, tau) and continuation of minimizer branches.

The misfit J is locally convex around regular pairs, so a damped Newton with
the exact analytic gradient/Hessian converges in a handful of steps.  The
global fit is a deterministic multistart: candidate A's from short difference
vectors, tau from the phase of the weighted lattice sum, then Newton on the
full h = J + F + nu (nu smoothed so it is C^2; reported energies always use
the exact |.|).  The reported h_hat is an upper bound on the true infimum.
A continuation step (`_continue`, the one policy for grids, loops and
`fit_between`) runs one start alone from a caller's predictor, a
neighbour's fit carried over by `transport`, with its A scaled onto the
det A = rho(x) ridge of nu, the kink Newton would otherwise cross back and
forth for its first steps.  Its Newton also cuts a step that would carry an
iterate off the ridge across it (`_ridge_cut`): the step stops where its
linearized det A meets rho, so an iterate that has left the ridge comes
back to it in one step instead of overshooting and halving its way back.
A step that fails, does not converge or is not regular under
`params.thresholds`, and a point with no predictor, get the multistart,
whose starts are never scaled and whose steps are never cut (Allgower &
Georg, *Introduction to Numerical Continuation Methods*, ch. 2).  Both
finish a start the same way (canonical tau, exact energy from the Newton's
own gather, regular-pair test under `params.thresholds` on that energy's
rho and J, with no second gather).  A caller that wants other thresholds
passes `dataclasses.replace(params, thresholds=...)`.

`_Objective` and `_newton` take one start (n,) or a stack of K starts (K, n)
on a leading axis.  A stack is stepped in lockstep: one evaluation of the
value, gradient and Hessian per step, and one value per line-search trial,
serve every start still running, and each start keeps its own exit
(converged, cap, line-search failure, abort bar, det A <= 0, and under
require_pd leaving the convexity basin).  The objective holds the points'
gathers, zero-padded to the longest, and nothing about a run: `_newton`
takes each row's point (`points`), so the starts share one point or sit on
several, in any order, and the continuation steps of a grid round
(`_fit_from_rows`) and its branch minimizers (`minimize_j_stack`) each run
as one stack.  Every row is computed as that start alone at the same
padding width, so the lockstep run equals K single runs on that objective
bit for bit; a row on a short gather can move by an ulp when the width
changes.  The multistart (`fit_global_stack`) serves the points of a grid
round together.  One lam/2 objective gathers each point once; one
`a_init_candidates` call takes every point's A candidates from those
gathers, as array passes over the round; one stack pre-converges every
candidate of every point on J at lam/2, each point's gather also giving its
candidates' tau; then one stack on h runs every start of every point,
grouped by point in start order.  Each start's abort bar comes from the
best total of its own point's starts before it, so it is pending until
they are done; `_newton` records the row's values meanwhile and drops the
row when the bar arrives if they went above it, which is where the starts
run one after the other would have aborted it.  An aborted start can
neither lower nor tie its point's best, so the fits are those of that
sequential schedule, bit for bit.  A round with no refused point runs no
multistart.  `fit_global` and `minimize_j_local` pass one point through the
same code; `minimize_j_local` alone raises BasinEscapeError for a row that
left the basin.

One Newton step costs one value, gradient and Hessian per start.
`_Objective` builds each point's J feature block (`j_features`) once, with
its gather, and computes det A and A^{-1} once per evaluation (2 x 2 closed
forms for d = 2, in an `_Iterate`, not an AffinePair); it hands them to J
(`assemble_j`), F (`ElasticDensity._value`, `_grad`, `_hess`, closed forms
for d = 2) and the smoothed nu; F and nu share one Hessian of det
(`det_hessian`).  `_newton` keeps the cos pass of each running row from
the evaluation at its accepted iterate and hands it to the next
`value_grad_hess` instead of redoing it.  Rows on one point read that
point's feature block in place.  `_newton_steps` gives every row its step
as one expression from one batched eigendecomposition, with no solve or
inverse per row.

`fit_loop` fits the samples of a closed loop by continuation: the multistart
runs at sample 0, and two sweeps, one each way round the loop, carry that
fit from sample to sample.  The sweeps are independent chains, so each step
of both runs as one 2-row `_continue` on one objective over the loop's
samples, each row at its own sample: each sample is gathered once, not
once per sweep.  Samples
1.2 lam apart can still land in a higher neighbouring basin, so where the
sweeps disagree the sample gets the multistart warm-started from both (the
basin guard).  A sample the sweeps agree on keeps the forward fit, in sample
0's integer gauge.  `fit_between` applies the same guard to one point
between two fits, its two continuation steps one 2-row stack on one gather
as well.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .core_model import (
    AffinePair,
    Configuration,
    EnergyBreakdown,
    ModelParams,
    RegularityReport,
    _regularity,
    assemble_j,
    gather_weights,
    j_features,
    j_phases,
    sample_energy,
)
from .potentials import det_hessian

TWO_PI = 2.0 * math.pi

TOL_GRAD = 1e-10        # dual lambda-norm of the gradient at convergence
MAX_ITER = 50           # Newton steps on J per branch point
MAX_ITER_H = 60         # Newton steps on h per fit start
STEP_CAP = 1.0          # longest Newton step in the lambda-scaled metric: one period of the tau wells
ARMIJO_C1 = 1e-4
N_DIRECTIONS = 12       # difference-vector directions combined into A candidates
MAX_CANDIDATES = 10     # A candidates kept; fit_global pre-converges them and keeps <= 4
# eps_nu = factor * rho; 1e-5 keeps the smoothed-ridge curvature vartheta/eps_nu
# low enough that det-A roundoff cannot push the gradient floor above TOL_GRAD
NU_SMOOTH_FACTOR = 1e-5
COPY_TOL = 1e-9         # tied multistart outcomes this close in (tau, A) are one minimizer
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

class _Iterate(NamedTuple):
    """K Newton iterates (A, tau) stacked on a leading axis, with det A and A^{-1} computed once.

    J (through `assemble_j`), F and nu all read the same det A and A^{-1};
    it stands in for AffinePairs, which would copy and re-check det A.
    """

    A: np.ndarray       # (K, d, d)
    tau: np.ndarray     # (K, d)
    det_a: np.ndarray   # (K,)
    ainv: np.ndarray    # (K, d, d)


def _det(a: np.ndarray) -> np.ndarray:
    """det of a stack of matrices (K, d, d); the 2 x 2 closed form for d = 2."""
    if a.shape[-1] != 2:
        return np.linalg.det(a)
    return a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]


def _inv(a: np.ndarray, det_a: np.ndarray) -> np.ndarray:
    """Inverse of a stack of matrices with nonzero det_a; the adjugate over det_a for d = 2."""
    if a.shape[-1] != 2:
        return np.linalg.inv(a)
    return a[:, ::-1, ::-1].transpose(0, 2, 1) * _ADJ_SIGN / det_a[:, None, None]


_ADJ_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])    # adj A = _ADJ_SIGN * (A reversed, transposed)


class _Objective:
    """h (or J alone) as a function of theta, with gradient and Hessian.

    x is one point (d,) or G points (G, d).  Each point's neighbor gather
    (relative positions and cutoff weights) is fixed and hoisted out of the
    iteration, zero-padded to the longest: one `gather_weights` query takes
    every point's, and its CSR blocks are scattered into the padded rows.
    rho (the sum of each point's own unpadded weights) and the nu smoothing
    are likewise constant per point during the (A, tau) optimization.  theta is
    one start (n,) or a stack of K starts (K, n) on a leading axis, and
    points names the point of each row: by default row k sits at point k,
    and one point serves every row.  `restricted` keeps some of the points,
    padded as if built at them alone.  The value, gradient and Hessian come
    back with theta's leading axis, each row computed as that start alone at
    the same padding width, so a lockstep Newton over K starts follows K
    single runs bit for bit.  Each evaluation computes det A and A^{-1} once
    per row (`_iterate`, 2 x 2 closed forms for d = 2) and shares them
    between J, F and nu.  A row with det A <= 0 evaluates to +inf so line
    searches stay orientation-preserving.  `_value` also returns each row's
    cos pass, which `value_grad_hess` takes back as cos_z at the same theta.
    Each point's J feature block (`j_features`) is built once, with the
    gathers; `value_grad_hess` hands the blocks, with each row's point, to
    `assemble_j`, which reads them in place, and `_value` never reads them.
    A selection of the points' gathers by row is copied once and reused
    while the same points come again, as they do through a Newton step and
    its line search.
    """

    def __init__(self, chi: Configuration, x, params: ModelParams, j_only: bool,
                 lam: float | None = None):
        self.params = params
        self.j_only = j_only
        self.d = d = chi.d
        self.lam = params.lam if lam is None else lam
        rel, w, c, start = gather_weights(chi, np.reshape(x, (-1, d)), self.lam)
        sizes = start[1:] - start[:-1]
        self.sizes = sizes.tolist()
        if sizes.size == 1:             # nothing to pad: a single start copies no gather
            self.rel, self.w = rel[None], w[None]
        else:                           # the CSR blocks scattered into the padded rows
            pad = np.arange(max(self.sizes)) < sizes[:, None]
            self.rel = np.zeros(pad.shape + (d,))
            self.w = np.zeros(pad.shape)
            self.w[pad] = w
            for k in range(d):          # numpy scatters scalars much faster than rows
                self.rel[..., k][pad] = rel[:, k]
        self.c = np.full(sizes.size, c)
        self.rho = np.array([float(np.sum(w[a:b])) * c for a, b in zip(start[:-1], start[1:])])
        self.eps_nu = NU_SMOOTH_FACTOR * np.maximum(self.rho, 1e-30)
        self.features = j_features(self.rel)
        self._sel = None        # (row arrays, (feature blocks, row points)) of the last selection

    def restricted(self, points) -> _Objective:
        """This objective at points only, padded to their longest gather: the one built there."""
        points = list(points)
        out = copy.copy(self)
        out.sizes = [self.sizes[p] for p in points]
        m = max(out.sizes)
        out.rel, out.w = self.rel[points, :m], self.w[points, :m]
        out.features = self.features[points, :, :m]
        out.c, out.rho, out.eps_nu = self.c[points], self.rho[points], self.eps_nu[points]
        out._sel = None
        return out

    def gather(self, i: int = 0):
        """(rel, w, c) of point i, unpadded."""
        m = self.sizes[i]
        return self.rel[i, :m], self.w[i, :m], float(self.c[i])

    def _points(self, points: np.ndarray, features: bool = False):
        """(rel, w, c, rho, eps_nu, feature blocks or None) of the points of a stack's rows.

        One point broadcasts over every row, and all points in order are the
        arrays themselves, feature blocks included.  Any other selection is
        the last one's when the points are the same; its gathers are copied
        by row, but its feature blocks are the objective's own per-point
        blocks with the points as their map (`assemble_j` reads them in
        place), so no (K, n_rows, m) block is copied.
        """
        if self.w.shape[0] == 1 or np.array_equal(points, np.arange(self.w.shape[0])):
            return (self.rel, self.w, self.c, self.rho, self.eps_nu,
                    self.features if features else None)
        if self._sel is None or not np.array_equal(self._sel[1][1], points):
            self._sel = None            # let the last selection go before copying the next
            points = points.copy()
            self._sel = ((self.rel[points], self.w[points], self.c[points], self.rho[points],
                          self.eps_nu[points]), (self.features, points))
        return (*self._sel[0], self._sel[1] if features else None)

    def _iterate(self, theta: np.ndarray, det_floor: float):
        """(the iterates of the rows of theta with det A > det_floor, the mask of those rows)."""
        d = self.d
        a = theta[:, : d * d].reshape(-1, d, d)
        det_a = _det(a)
        ok = det_a > det_floor
        if not ok.all():
            theta, a, det_a = theta[ok], a[ok], det_a[ok]
        ainv = _inv(a, det_a) if det_a.size else np.empty_like(a)
        return _Iterate(a, theta[:, d * d:], det_a, ainv), ok

    def _nu_smooth(self, det_a: np.ndarray, rho: np.ndarray, eps: np.ndarray) -> np.ndarray:
        return self.params.vartheta * (np.hypot(det_a - rho, eps) - eps)

    def _nu_smooth_grad_hess(self, it: _Iterate, h_det: np.ndarray, rho: np.ndarray,
                             eps: np.ndarray):
        # nu_s = vt (r - e), r = sqrt(u^2 + e^2), u = det A - rho, C = grad det,
        # h_det = hess(det): grad = vt (u / r) C, hess = vt [ (e^2 / r^3) C (x) C + (u / r) h_det ]
        u = it.det_a - rho
        r = np.hypot(u, eps)
        vt = self.params.vartheta
        c_mat = it.det_a[:, None, None] * it.ainv.transpose(0, 2, 1)
        grad = (vt * u / r)[:, None, None] * c_mat
        c_vec = c_mat.reshape(len(u), -1)
        hess = vt * ((eps**2 / r**3)[:, None, None] * (c_vec[:, :, None] * c_vec[:, None, :])
                     + (u / r)[:, None, None] * h_det)
        return grad, hess

    def _value(self, theta: np.ndarray, points: np.ndarray):
        """(the value at each start of theta (K, n), (K,); each row's cos pass, (K, d, m)).

        Row k sits at point points[k].  A row with det A <= 1e-12 has value
        +inf and no cos pass (NaN).
        """
        it, ok = self._iterate(theta, 1e-12)
        if not ok.all():
            points = points[ok]
        if it.det_a.size:
            rel, w, c, rho, eps, _ = self._points(points)
            cos_z = j_phases(rel, it.A, it.tau)
            np.cos(cos_z, out=cos_z)    # the cos pass takes the phases' place
            val = assemble_j(rel, w, it, c, want_grad=False, cos_z=cos_z)[0]
            if not self.j_only:
                val = val + (self.params.elastic._value(it.A, it.det_a)
                             + self._nu_smooth(it.det_a, rho, eps))
        if ok.all():
            return val, cos_z
        out = np.full(ok.shape, math.inf), np.full((ok.size, self.d, self.w.shape[-1]), math.nan)
        if it.det_a.size:
            out[0][ok], out[1][ok] = val, cos_z
        return out

    def value(self, theta: np.ndarray, points=None):
        """h (or J) at one start, a float, or at a stack of starts, a (K,) array."""
        theta = np.asarray(theta, dtype=float)
        flat = theta.reshape(-1, theta.shape[-1])
        val = self._value(flat, np.arange(len(flat)) if points is None else np.asarray(points))[0]
        return float(val[0]) if theta.ndim == 1 else val

    def value_grad_hess(self, theta: np.ndarray, points=None, cos_z=None):
        """(value, gradient, Hessian) at one start or at a stack of starts; det A > 0 required.

        cos_z is the stack's cos pass from `_value` at this theta, when the
        caller holds it.
        """
        theta = np.asarray(theta, dtype=float)
        flat = theta.reshape(-1, theta.shape[-1])
        it, ok = self._iterate(flat, 0.0)
        if not ok.all():
            raise ValueError("value_grad_hess requires det A > 0")
        rel, w, c, rho, eps, feat = self._points(
            np.arange(len(flat)) if points is None else np.asarray(points), features=True)
        val, grad, hess = assemble_j(rel, w, it, c, cos_z=cos_z, features=feat)
        if not self.j_only:
            d = self.d
            el = self.params.elastic
            val = val + (el._value(it.A, it.det_a) + self._nu_smooth(it.det_a, rho, eps))
            h_det = det_hessian(it.det_a, it.ainv)
            nu_grad, nu_hess = self._nu_smooth_grad_hess(it, h_det, rho, eps)
            grad[:, : d * d] += (el._grad(it.A, it.det_a, it.ainv) + nu_grad).reshape(len(val), -1)
            hess[:, : d * d, : d * d] += el._hess(it.A, it.det_a, it.ainv, h_det) + nu_hess
        if theta.ndim == 1:
            return float(val[0]), grad[0], hess[0]
        return val, grad, hess


@dataclass
class _NewtonResult:
    """Where `_newton` stopped: per start, or (K,)-arrays for a stack of K starts."""

    theta: np.ndarray
    converged: bool
    iterations: int
    grad_norm: float
    value: float
    escaped: bool       # left the convexity basin (require_pd only)
    aborted: bool       # stopped by its abort bar; a late bar leaves it where the run was


def _newton_steps(gs: np.ndarray, hs: np.ndarray, f_rows: np.ndarray, tol_grad: float,
                  require_pd: bool):
    """(grad_norm, converged, escaped, step, slope, blind) of every row of a lockstep stack.

    gs (K, n) and hs (K, n, n) are lambda-scaled.  One batched eigh of the
    Jacobi-equilibrated D^-1 hs D^-1, which has hs's inertia (Sylvester), tests
    each row: positive definite when its smallest eigenvalue exceeds n eps
    times its largest.  Every row's step is -V diag(1/w) V^T g.  A positive
    definite row takes that decomposition, V = D^-1 (its eigenvectors).  Any
    other row that has not converged takes the eigh of hs itself with its
    eigenvalues floored (Nocedal & Wright, sec. 3.4), or under require_pd
    escapes the basin; there and at a converged row that is not positive
    definite w = inf, so the step is 0.  Steps are capped at STEP_CAP.  Each
    row is bit for bit that row alone.
    """
    k_rows, n = gs.shape
    grad_norm = np.sqrt((gs * gs).sum(axis=1))
    converged = grad_norm <= tol_grad
    dj = np.sqrt(np.maximum(hs.reshape(k_rows, -1)[:, :: n + 1], 1e-300))    # sqrt diag hs
    w, v = np.linalg.eigh(hs / dj[:, :, None] / dj[:, None, :])
    pd = w[:, 0] > n * np.finfo(float).eps * w[:, -1]
    indefinite = ~(pd | converged)
    escaped = indefinite & require_pd
    v = v / dj[:, :, None]              # hs^-1 = V diag(1/w) V^T at a positive definite row
    w = np.where(pd[:, None], w, np.inf)    # the other rows divide by inf: step 0
    if not require_pd and indefinite.any():
        wf, v[indefinite] = np.linalg.eigh(hs[indefinite])
        w[indefinite] = np.maximum(wf, np.maximum(1e-8 * np.abs(wf).max(axis=1), 1e-12)[:, None])
    step = -(v @ ((v.transpose(0, 2, 1) @ gs[:, :, None]) / w[:, :, None]))[:, :, 0]
    step *= (STEP_CAP / np.maximum(np.sqrt((step * step).sum(axis=1)), STEP_CAP))[:, None]
    slope = (gs * step).sum(axis=1)
    # predicted decrease below value roundoff: the line search takes the full step
    blind = slope >= -1e-13 * (1.0 + np.abs(f_rows))
    return grad_norm, converged, escaped, step, slope, blind


def _ridge_cut(obj: _Objective, base: np.ndarray, p: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Per row, the step length t_c at which step p's linearized det A reaches the nu ridge, else 1.

    u = det A - rho at the row's base iterate moves along p as
    u + t det A tr(A^{-1} P) to first order (P is p's A block).  A row more
    than eps_nu off the ridge whose full step would land more than eps_nu
    beyond it, on the other side, stops at t_c = -u / (det A tr(A^{-1} P)),
    in (0, 1), the breakpoint of the piecewise-smooth nu (Nocedal & Wright,
    ch. 3 and sec. 16.7).  Every other row keeps t = 1.  Elementwise per row,
    for any d.
    """
    d = obj.d
    a = base[:, : d * d].reshape(-1, d, d)
    det_a = _det(a)
    rho, eps = obj._points(points)[3:5]
    u0 = det_a - rho
    du = det_a * (_inv(a, det_a).transpose(0, 2, 1) * p[:, : d * d].reshape(-1, d, d)
                  ).reshape(len(u0), -1).sum(axis=1)
    u1 = u0 + du
    cut = (np.abs(u0) > eps) & (np.abs(u1) > eps) & ((u0 > 0.0) != (u1 > 0.0))
    t_c = np.ones_like(u0)
    t_c[cut] = -u0[cut] / du[cut]
    return t_c


def _newton(obj: _Objective, theta0: np.ndarray, tol_grad: float, max_iter: int,
            require_pd: bool, abort_above: float | np.ndarray | None = None,
            points=None, on_stop=None, ridge_cut: bool = False) -> _NewtonResult:
    """Damped Newton in the lambda-scaled metric; steps accepted only on decrease.

    theta0 is one start (n,) or K starts (K, n) stepped in lockstep: one
    stacked evaluation of obj per step and per line-search trial serves every
    row still running, one `_newton_steps` call gives all of them their
    steps, and each row follows exactly the run it would make alone.  Row k
    sits at obj's point points[k]: by default point k, or the one point of a
    one-point obj.  The run keeps the cos pass of each running row at its
    current iterate, from the first evaluation and then from the trial its
    line search accepts (Nocedal & Wright, ch. 3), aligned with the running
    rows, and hands it to every `value_grad_hess`, so no gradient redoes it
    and none copies it; when a whole line search accepts at once its trial's
    passes are kept as they are.  A row stops in one of six ways:
    - converged: the scaled gradient norm is at most tol_grad;
    - abort_above: from iteration 10 on, the value at the top of an
      iteration is above the row's bar (a multistart's bar: the descent is
      monotone, so such a run cannot win).  abort_above is one bar for every
      row or a (K,) array of bars, one per row, where inf is no bar;
    - line-search failure: no step length down to 2^-40 decreases the value;
    - max-iter: max_iter steps taken;
    - det A <= 0 at the start: value +inf, 0 iterations;
    - left the basin (`escaped`): require_pd and the Hessian is not positive
      definite.
    Under ridge_cut (on h only, not J alone) a step is capped a second time,
    after STEP_CAP: a row more than eps_nu off the det A = rho ridge whose
    step would land more than eps_nu beyond it takes the step, and its
    slope, scaled by `_ridge_cut`'s t_c < 1, so the line search starts on
    the ridge.  The factor is elementwise per row, so each row is still its
    single run.
    A bar may be pending (NaN): the caller learns it only once other rows
    have stopped.  Such a row runs on as if it had no bar, with its highest
    value at an iteration top from iteration 10 on recorded.  A row is done
    for good once it has stopped and its bar is known; on_stop(rows, result)
    then hears of the rows done since its last call, with the run's current
    arrays as a `_NewtonResult` (read only), and returns (rows, bars) of the
    bars it now knows.  A bar that arrives aborts its row if the row's
    recorded value is above it, running or stopped: where the bar, known
    from the start, would have stopped the run.  Otherwise the row goes on,
    or stays, exactly as its run with that bar.  An aborted row's theta,
    value and iterations are where the run left it (`aborted`), not its
    run's with the bar.  Raises FitError when every start has det A <= 0.
    """
    d = obj.d
    scale = np.concatenate([np.full(d * d, obj.lam), np.ones(d)])
    theta = np.array(theta0, dtype=float)
    single = theta.ndim == 1
    theta = theta.reshape(-1, scale.size)
    k_rows = theta.shape[0]
    points = np.arange(k_rows) if points is None else np.asarray(points)
    bars = None if abort_above is None else \
        np.array(np.broadcast_to(abort_above, k_rows), dtype=float)
    f_cur, cos_z = obj._value(theta, points)
    cos_rows = np.arange(k_rows)        # the rows cos_z holds the passes of, in order
    running = np.isfinite(f_cur)
    if not running.any():
        raise FitError("starting point has det A <= 0")
    converged, escaped, aborted, settled = np.zeros((4, k_rows), dtype=bool)
    iterations = np.zeros(k_rows, dtype=int)
    grad_norm = np.full(k_rows, math.inf)
    high = np.full(k_rows, -math.inf)   # highest value at an iteration top from iteration 10 on
    res = _NewtonResult(theta, converged, iterations, grad_norm, f_cur, escaped, aborted)

    def settle(it: int) -> None:
        # abort the rows above a known bar, then hand on the rows done for good
        # until no new bar arrives
        if bars is None:
            return
        while True:
            over = ~aborted & (high > bars)         # a pending (NaN) bar compares False
            iterations[over & running] = it
            running[over], aborted[over] = False, True
            done = ~running & ~settled & ~np.isnan(bars)
            if on_stop is None or not done.any():
                return
            settled[done] = True
            rows, new = on_stop(done.nonzero()[0], res)
            bars[rows] = new

    for it in range(max_iter):
        if bars is not None and it >= 10:
            np.maximum(high, f_cur, out=high, where=running)
        settle(it)
        rows = running.nonzero()[0]
        if rows.size == 0:
            break
        if rows.size < cos_rows.size:       # rows stopped since their passes were kept
            cos_z, cos_rows = cos_z[running[cos_rows]], rows
        base = theta[rows]
        _, grad, hess = obj.value_grad_hess(base, points[rows], cos_z)
        cos_z = None                        # the accepted trials bring the next passes
        grad_norm[rows], done, esc, step, slope, blind = _newton_steps(
            grad / scale, hess / scale[:, None] / scale[None, :], f_cur[rows], tol_grad,
            require_pd)
        stop = done | esc
        converged[rows], escaped[rows] = done, esc
        if stop.any():
            iterations[rows[stop]] = it
            running[rows[stop]] = False
            settle(it)                      # the bars they settle may abort rows still running
            go = running[rows]
            if not go.any():
                break
            rows, base, step, slope, blind = rows[go], base[go], step[go], slope[go], blind[go]
        p = step / scale
        if ridge_cut and not obj.j_only:
            t_c = _ridge_cut(obj, base, p, points[rows])
            p, slope = p * t_c[:, None], slope * t_c
        f_rows = f_cur[rows]
        cos_rows, slot = rows, np.arange(rows.size)
        # every row still searching has the same step length t
        t = 1.0
        trial = base + p
        while True:
            f_new, cos_new = obj._value(trial, points[rows])
            ok = blind | (f_new <= f_rows + ARMIJO_C1 * t * slope)
            if cos_z is None and ok.all():
                theta[rows], f_cur[rows], cos_z = trial, f_new, cos_new
                break
            if cos_z is None:
                cos_z = np.empty((cos_rows.size,) + cos_new.shape[1:])
            acc = rows[ok]
            theta[acc], f_cur[acc], cos_z[slot[ok]] = trial[ok], f_new[ok], cos_new[ok]
            if ok.all():
                break
            rows, base, p, slot = rows[~ok], base[~ok], p[~ok], slot[~ok]
            blind, f_rows, slope = blind[~ok], f_rows[~ok], slope[~ok]
            t *= 0.5
            if t < 2.0**-40:
                iterations[rows] = it
                running[rows] = False
                break
            trial = base + t * p
    else:
        rows = running.nonzero()[0]
        if rows.size:
            if rows.size < cos_rows.size:
                cos_z = cos_z[running[cos_rows]]
            gs = obj.value_grad_hess(theta[rows], points[rows], cos_z)[1] / scale
            grad_norm[rows] = np.sqrt((gs * gs).sum(axis=1))
            converged[rows] = grad_norm[rows] <= tol_grad
            iterations[rows] = max_iter
            running[rows] = False
        it = max_iter
    settle(it)
    if single:
        return _NewtonResult(theta[0], bool(converged[0]), int(iterations[0]),
                             float(grad_norm[0]), float(f_cur[0]), bool(escaped[0]),
                             bool(aborted[0]))
    return res


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
    return _tau_phase(A, rel, w)


def _tau_phase(A: np.ndarray, rel: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`tau_init` from a gather the caller holds; A (d, d) gives (d,), a stack (K, d, d) gives (K, d)."""
    y = rel @ np.swapaxes(A, -1, -2)
    u = np.sum(w[:, None] * np.exp(1j * TWO_PI * y), axis=-2)
    return (-np.angle(u) / TWO_PI) % 1.0


def _canonical_signs(diffs: np.ndarray) -> np.ndarray:
    """Flip each difference (..., d) so its first nonzero component is positive."""
    signs = np.ones(diffs.shape[:-1])
    undecided = np.ones(diffs.shape[:-1], dtype=bool)
    for c in range(diffs.shape[-1]):
        decide = undecided & (np.abs(diffs[..., c]) > 1e-12)
        signs[decide] = np.sign(diffs[..., c][decide])
        undecided &= ~decide
    return diffs * signs[..., None]


def a_init_candidates(chi: Configuration, x, lam: float | None = None, rels=None) -> list:
    """Up to MAX_CANDIDATES A matrices per point from the N_DIRECTIONS shortest distinct differences near it.

    x is one point (d,), or the G points (G, d) of a multistart round.  One
    point gives its list of candidates and raises FitError when B_lam(x)
    holds fewer than d + 1 atoms; G points give one list per point, [] for
    such a point.  rels are the points' gathers of B_lam(x) when the caller
    holds them: one array of positions relative to the point per point, in
    `local_atoms` order.  `_half_stage` passes its lam/2 objective's, whose
    radius 2 (lam/2) is lam, so no point is gathered twice.

    At each point the differences of its 48 nearest atoms are
    sign-canonicalized and clustered into directions greedily in order of
    length: the shortest difference no direction covers yet opens the next
    one, and one masking pass over all differences marks its cluster.  Each
    direction is refined as the mean of its cluster (a single noisy pair
    would land outside the Newton basin).  The directions are combined into
    orientation-fixed bases, deduplicated up to the integer-unimodular action
    (same spanned lattice) in order, and ranked by basis length.  The points
    of a round go through each stage together (`_differences`, `_directions`,
    `_bases`), and every point's list is bit for bit the one it gets alone.
    """
    if lam is None:
        lam = chi.lam
    d = chi.d
    if rels is None:
        rels = [rel for _, rel, _ in chi.local_atoms(np.reshape(x, (-1, d)), lam)]
    out = [[] for _ in rels]
    some = [g for g, rel in enumerate(rels) if rel.shape[0] >= d + 1]
    if some:
        for g, cands in zip(some, _bases(*_directions(*_differences([rels[g] for g in some])))):
            out[g] = cands
    if np.ndim(x) > 1:
        return out
    if not some:
        raise FitError(f"too few atoms near {np.asarray(x)}: {rels[0].shape[0]} < {d + 1}")
    return out[0]


def _differences(rels: list):
    """The canonical differences of each point's 48 nearest atoms, as one block over the points.

    Returns diffs (d, G, P), components first, and each difference's rank in
    its point's order by length, then components: P for a zero difference
    and for the masked ones.  Point g's differences are those of
    `np.triu_indices` over its m_g <= 48 nearest atoms (stably by distance),
    in that order, so masking the others out of the triangle over the
    longest selection keeps them in order.  The masked ones sit at 1e150,
    where no cluster reaches them.
    """
    g_pts, d = len(rels), rels[0].shape[1]
    n = max(rel.shape[0] for rel in rels)
    rel_pad = np.zeros((g_pts, n, d))
    dist = np.full((g_pts, n), np.inf)          # padding sorts last
    for g, rel in enumerate(rels):
        rel_pad[g, : rel.shape[0]] = rel
        dist[g, : rel.shape[0]] = np.linalg.norm(rel, axis=1)
    m = min(n, 48)
    sel = np.take_along_axis(rel_pad, np.argsort(dist, axis=1, kind="stable")[:, :m, None], axis=1)
    ii, jj = np.triu_indices(m, 1)
    diffs = np.moveaxis(_canonical_signs(sel[:, jj] - sel[:, ii]), -1, 0).copy()
    own = jj < np.minimum([rel.shape[0] for rel in rels], m)[:, None]
    diffs[:, ~own] = 1e150
    lengths = _norms(diffs)
    keys = tuple(diffs[c] for c in reversed(range(d))) + (lengths,)
    rank = np.argsort(np.lexsort(keys, axis=-1), axis=-1)
    return diffs, np.where(own & (lengths > 1e-9), rank, ii.size)


def _norms(v: np.ndarray) -> np.ndarray:
    """`np.linalg.norm(v, axis=0)` bit for bit: the squares summed in component order, then sqrt."""
    sq = v[0] * v[0]
    for c in range(1, v.shape[0]):
        sq = sq + v[c] * v[c]
    return np.sqrt(sq)


def _directions(diffs: np.ndarray, rank: np.ndarray):
    """(directions (G, N_DIRECTIONS, d), the number each point found): one greedy pass per direction.

    rank is each difference's rank, P where it is not free: masked out or
    covered by a direction.  Pass k opens direction k at every point with a
    free difference, from the one of lowest rank, and covers its cluster at
    all those points at once.  The 1-D `np.linalg.norm(r)` behind the
    cluster tolerance is a BLAS dot, which `np.vecdot` computes row by row.
    The cluster mean sums its members in their order, as `members.mean` does
    from 0.0: a running sum over every difference, the others adding +-0.0,
    which leaves it unchanged up to the sign of a zero, and 0.0 + that sum
    restores the sign.
    """
    d, g_pts, n_pairs = diffs.shape
    reps = np.zeros((g_pts, N_DIRECTIONS, d))
    n_reps = np.zeros(g_pts, dtype=int)
    rank = rank.copy()
    for k in range(N_DIRECTIONS):
        first = rank.argmin(axis=1)
        live = np.flatnonzero(rank[np.arange(g_pts), first] < n_pairs)
        if live.size == 0:
            break
        r = np.ascontiguousarray(diffs[:, live, first[live]].T)
        tol = 0.25 * np.sqrt(np.vecdot(r, r))[:, None]
        near_set = diffs if live.size == g_pts else diffs[:, live]
        dist_p = _norms(near_set - r.T[:, :, None])
        near = np.minimum(dist_p, _norms(near_set + r.T[:, :, None]))
        rank[live] = np.where(near > tol, rank[live], n_pairs)
        # refine the direction by averaging its sign-aligned cluster members; r is one of them
        members = near < tol
        aligned = near_set * (np.where(dist_p < tol, 1.0, -1.0) * members)
        sums = 0.0 + np.cumsum(aligned, axis=-1)[:, :, -1]
        reps[live, k] = (sums / np.count_nonzero(members, axis=-1)).T
        n_reps[live] += 1
    return reps, n_reps


def _bases(reps: np.ndarray, n_reps: np.ndarray) -> list:
    """Per point, its candidate A's from d-combinations of its directions, deduplicated and ranked.

    The combinations of all points are built and tested from index arrays
    at once: a point's own are a prefix-ordered subset of those of
    N_DIRECTIONS.  Candidate i of a point is dropped when A_i A_j^{-1} rounds,
    to within 0.1, to a unimodular matrix for a kept j < i.  The products of
    all pairs are one stacked matmul per point, and the in-order pass over
    them tests one bit set per candidate.
    """
    g_pts, _, d = reps.shape
    combos = np.array(list(combinations(range(N_DIRECTIONS), d)))
    norms = np.sqrt(np.vecdot(reps, reps))      # `np.linalg.norm` of each direction, as above
    binv = reps[:, combos].swapaxes(-1, -2)     # column j of basis q: direction combos[q, j]
    det = np.linalg.det(binv)
    usable = ((combos[:, -1] < n_reps[:, None])
              & (np.abs(det) >= 0.15 * norms[:, combos].prod(axis=-1)))
    binv[usable & (det < 0), :, -1] *= -1.0
    a_all = np.linalg.inv(binv[usable])         # point by point, in combination order
    a_all_inv = np.linalg.inv(a_all)
    basis_len = norms[:, combos].sum(axis=-1)[usable]
    counts = usable.sum(axis=1)
    ti, tj = np.tril_indices(max(counts.max(), 1), -1)      # pairs j < i, ordered by i
    out = []
    for start, u in zip(np.cumsum(counts) - counts, counts.tolist()):
        if u == 0:
            out.append([])
            continue
        a, a_inv = a_all[start: start + u], a_all_inv[start: start + u]
        pairs = u * (u - 1) // 2
        r = a[ti[:pairs]] @ a_inv[tj[:pairs]]
        rr = np.round(r)
        close = np.flatnonzero(np.max(np.abs(r - rr), axis=(1, 2)) <= 0.1)
        close = close[np.abs(np.round(np.linalg.det(rr[close]))) == 1]
        dup = [0] * u                   # bit j of dup[i]: A_i duplicates A_j, j < i
        for i, j in zip(ti[close].tolist(), tj[close].tolist()):
            dup[i] |= 1 << j
        kept, kept_bits = [], 0
        for i in range(u):
            if not dup[i] & kept_bits:
                kept.append(i)
                kept_bits |= 1 << i
        flat = np.round(a[kept], 9).reshape(len(kept), -1)
        ranked = np.lexsort(tuple(flat[:, c] for c in reversed(range(d * d)))
                            + (basis_len[start: start + u][kept],))
        out.append([a[kept[j]] for j in ranked[:MAX_CANDIDATES]])
    return out


# ---------------------------------------------------------------------------
# local and global fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchPoint:
    """A local minimizer of J at a position, in the integer parametrisation of its start."""

    position: np.ndarray
    aff_tilde: AffinePair
    j_value: float
    grad_norm: float
    iterations: int
    converged: bool


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


def minimize_j_local(aff0: AffinePair, chi: Configuration, x, params: ModelParams) -> BranchPoint:
    """Damped Newton on J inside the convexity basin around aff0.

    Raises BasinEscapeError when the Hessian stops being positive definite;
    a start at an exact minimizer returns unchanged with 0 iterations.  One
    row of `minimize_j_stack`.
    """
    out = minimize_j_stack([aff0], chi, [x], params)[0]
    if out is None:
        raise BasinEscapeError("left convexity basin: Hessian not positive definite")
    return out


def minimize_j_stack(affs, chi: Configuration, xs, params: ModelParams) -> list:
    """`minimize_j_local` at K points in one lockstep Newton.

    Row k starts from affs[k] at xs[k] on that point's own gather.  Each row is
    the run `minimize_j_local` makes alone, bit for bit; a row that leaves the
    convexity basin comes back as None.
    """
    xs = np.asarray(xs, dtype=float).reshape(len(affs), chi.d)
    obj = _Objective(chi, xs, params, j_only=True)
    res = _newton(obj, np.stack([pack(a) for a in affs]), TOL_GRAD, MAX_ITER, require_pd=True)
    if not np.all(np.isfinite(res.value)):
        raise FitError("starting point has det A <= 0")
    return [None if res.escaped[k] else
            BranchPoint(position=xs[k].copy(), aff_tilde=unpack(res.theta[k], chi.d),
                        j_value=float(res.value[k]), grad_norm=float(res.grad_norm[k]),
                        iterations=int(res.iterations[k]), converged=bool(res.converged[k]))
            for k in range(len(affs))]


def fit_global(chi: Configuration, x, params: ModelParams, warm_starts=()) -> FitResult:
    """Multistart damped Newton on h = J + F + smoothed nu; lowest total wins.

    The returned total is an upper bound on the true infimum by construction.
    Ties within 1e-12 break to the lexicographically smallest (tau, A); of
    the copies of that minimizer, (tau, A) within 1e-9 of it, the one from
    the earliest start is reported, so roundoff cannot pick the copy.  The
    warm starts run after the pre-converged candidates.  One row of
    `fit_global_stack`; raises its row's FitError.
    """
    return _raise_errors(fit_global_stack(chi, [x], params, warm_starts=[warm_starts]))[0]


def fit_global_stack(chi: Configuration, xs, params: ModelParams, warm_starts=None) -> list:
    """`fit_global` at G points in lockstep: the multistart fallbacks of a grid round.

    Row g is the run `fit_global` makes alone at xs[g] (with warm_starts[g]),
    bit for bit: its FitResult, or in its place the FitError it would raise.
    The lam/2 stage (`_half_stage`) takes the A candidates of all points
    from one `a_init_candidates` call on its gathers and pre-converges them
    in one lockstep Newton on J over every candidate of every point.  Then
    one Newton on h runs every start of every point, rows grouped by point
    in start order.  Start k's abort bar is 1.05 times the best exact total
    of its point's starts before k, plus 1e-6 (none for k = 0), so it is
    known only once those starts are done: until then it is pending, and
    `_newton` aborts the row when the bar arrives if its run went above it.
    An aborted start is dropped with no exact energy.  Its smoothed total is
    above 1.05 best + 1e-6 and its exact total is no lower (nu >= its
    smoothing), so it could neither lower a point's best nor tie with it,
    and every outcome that is read is the one starts run one after the
    other give.  Outcomes are kept in start order, so ties still go to the
    earliest start.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1, chi.d)
    if warm_starts is None:
        warm_starts = [()] * len(xs)
    starts = _half_stage(chi, xs, params)
    for g, warm in enumerate(warm_starts):
        starts[g].extend(pack(a) for a in warm)
    live = [g for g in range(len(xs)) if starts[g]]
    outcomes = [[] for _ in xs]
    best = np.full(len(xs), math.inf)
    if live:
        obj = _Objective(chi, xs[live], params, j_only=False)
        point = np.repeat(np.arange(len(live)), [len(starts[g]) for g in live])
        node = np.asarray(live)[point]
        bars = np.full(point.size, math.nan)
        bars[np.r_[True, point[1:] != point[:-1]]] = math.inf      # each point's first start

        def on_stop(rows, res):
            # a point's starts are done in start order: each hands its bar to the next
            for r in rows:
                g = node[r]
                if not res.aborted[r] and math.isfinite(res.value[r]):
                    aff, breakdown = _exact(obj, res.theta[r], params, point[r])
                    best[g] = min(best[g], breakdown.total)
                    outcomes[g].append((aff, breakdown, int(res.iterations[r]),
                                        float(res.grad_norm[r]), bool(res.converged[r])))
            nxt = [r + 1 for r in rows if r + 1 < point.size and point[r + 1] == point[r]]
            return nxt, 1.05 * best[node[nxt]] + 1e-6      # inf: no bar

        try:
            _newton(obj, np.stack([s for g in live for s in starts[g]]), TOL_GRAD, MAX_ITER_H,
                    require_pd=False, abort_above=bars, points=point, on_stop=on_stop)
        except FitError:
            pass
    return _pick_fits(xs, starts, outcomes, chi, params)


def _pick_fits(xs: np.ndarray, starts: list, outcomes: list, chi: Configuration,
               params: ModelParams) -> list:
    """Per point, the multistart's fit from its outcomes in start order, or its FitError.

    outcomes[g] holds (pair, breakdown, iterations, grad_norm, converged) of
    point g's starts.  Of the outcomes within 1e-12 of the lowest total, the
    lexicographically smallest (tau, A) wins, reported by the earliest start
    among its copies.
    """
    out = []
    for g, x in enumerate(xs):
        if not starts[g]:
            out.append(FitError(f"no fit candidates at {x}"))
            continue
        if not outcomes[g]:
            out.append(FitError(f"all fit candidates failed at {x}"))
            continue
        best = min(o[1].total for o in outcomes[g])
        tied = [o for o in outcomes[g] if o[1].total <= best + 1e-12]
        lead = pack(min(tied, key=lambda o: (tuple(o[0].tau), tuple(o[0].A.ravel())))[0])
        # copies of one minimizer differ by roundoff: the earliest start reports it
        aff, breakdown, iterations, grad_norm, _ = next(
            o for o in tied if np.max(np.abs(pack(o[0]) - lead)) <= COPY_TOL)
        out.append(_finish(x.copy(), aff, breakdown, iterations, grad_norm, chi, params,
                           converged=any(o[4] for o in tied), n_candidates=len(starts[g])))
    return out


def _half_stage(chi: Configuration, xs: np.ndarray, params: ModelParams) -> list:
    """Per point, its A candidates pre-converged on J at lam/2 as starts (n,), at most 4 kept.

    The convexity basin is twice as wide at lam/2, which tolerates the noise
    of the init vectors.  One lam/2 objective gathers every point once.  Its
    gathers reach 2 (lam/2) = lam, the ball `a_init_candidates` draws its
    differences from, so one call on them gives the candidates of the whole
    round.  The Newton then runs on the objective `restricted` to the points
    with candidates, so its padding is the one their gathers alone give;
    each point's gather also gives its candidates' tau, and one lockstep
    Newton steps the candidates of every point.  A point whose candidates
    all stay on the incoherent plateau, or that has none, keeps no start.
    """
    kept = [[] for _ in xs]
    if not kept:
        return kept
    obj = _Objective(chi, xs, params, j_only=True, lam=params.lam / 2.0)
    raw = a_init_candidates(chi, xs, params.lam, rels=[obj.gather(g)[0] for g in range(len(xs))])
    todo = [g for g in range(len(xs)) if raw[g]]
    if not todo:
        return kept
    if len(todo) < len(xs):
        obj = obj.restricted(todo)      # padded as if built at the points with candidates alone
    point, theta0 = [], []
    for i, g in enumerate(todo):
        if obj.rho[i] <= 0.0:
            continue
        a = np.asarray(raw[g])
        rel, w, _ = obj.gather(i)
        theta0.append(np.concatenate([a.reshape(len(a), -1), _tau_phase(a, rel, w)], axis=1))
        point.extend([i] * len(a))
    if not theta0:
        return kept
    try:
        res = _newton(obj, np.concatenate(theta0), 1e-8, 15, require_pd=False, points=point)
    except FitError:
        return kept
    point = np.asarray(point)
    for i, g in enumerate(todo):
        mine = (point == i) & np.isfinite(res.value)
        j_half, theta_half = res.value[mine], res.theta[mine]
        if j_half.size == 0:
            continue
        # drop candidates stuck on the incoherent plateau; finer sublattices also
        # fit J well and are left for nu to reject
        bar = max(25.0 * float(np.min(j_half)), 1e-9)
        kept[g] = list(theta_half[j_half <= bar][:4])
    return kept


def _fit_from_rows(obj: _Objective, affs, xs, chi: Configuration, params: ModelParams,
                   points) -> list:
    """One continuation Newton on h per row, all rows one lockstep stack on obj's gathers.

    Row k starts from affs[k] at xs[k], on obj's point points[k], with A
    scaled onto that point's det A = rho ridge (`_on_ridge`), and its Newton
    cuts every step that would cross the ridge from off it (ridge_cut).
    Each row is the run it makes alone, bit for bit, and keeps affs[k]'s
    integer parametrisation (tau wrapped to [0, 1)).  A row whose start has
    det A <= 0 comes back as None.
    """
    theta0 = _on_ridge(np.stack([pack(a) for a in affs]), obj.rho[points], chi.d)
    try:
        res = _newton(obj, theta0, TOL_GRAD, MAX_ITER_H, require_pd=False, points=points,
                      ridge_cut=True)
    except FitError:
        return [None] * len(affs)
    out = []
    for k in range(len(affs)):
        if not math.isfinite(res.value[k]):
            out.append(None)
            continue
        aff, breakdown = _exact(obj, res.theta[k], params, points[k])
        out.append(_finish(xs[k].copy(), aff, breakdown, int(res.iterations[k]),
                           float(res.grad_norm[k]), chi, params,
                           converged=bool(res.converged[k]), n_candidates=1))
    return out


def transport(y, aff: AffinePair, x) -> AffinePair:
    """The continuation predictor: the fit aff at y carried to x as (A, tau + A (x - y))."""
    return AffinePair(aff.A, aff.tau + aff.A @ np.subtract(x, y, dtype=float))


def _on_ridge(theta: np.ndarray, rho: np.ndarray, d: int) -> np.ndarray:
    """Starts (K, n) with each row's A scaled by (rho_k / det A_k)^(1/d); tau unchanged.

    A transported predictor keeps its neighbour's det A, off the kink of
    nu = vartheta |det A - rho| at the new point, and Newton would spend its
    first steps crossing the smoothed ridge back and forth.  The scaled start
    has det A = rho_k.  Rows with det A <= 0 or rho_k <= 0 are left as they are.
    """
    det_a = _det(theta[:, : d * d].reshape(-1, d, d))
    ok = (det_a > 0.0) & (rho > 0.0)
    scale = np.ones_like(det_a)
    scale[ok] = (rho[ok] / det_a[ok]) ** (1.0 / d)
    return np.concatenate([theta[:, : d * d] * scale[:, None], theta[:, d * d:]], axis=1)


def fit_loop(chi: Configuration, points, params: ModelParams) -> list[FitResult]:
    """Fits of the samples of a closed loop by two-way continuation with a basin guard.

    `points` are the distinct samples in loop order (the closing point not
    repeated).  Sample 0 gets the multistart `fit_global`.  A forward sweep
    (1 -> n-1) and a backward sweep (n-1 -> 1) each fit a sample by one
    continuation step from the previous fit of that sweep (`_continue`); the
    two sweeps are independent chains, so step i of both, to samples i and
    n-i, runs as one 2-row stack on one objective over samples 1..n-1, so
    each sample is gathered once.  A step that fails, does not
    converge or is not regular under `params.thresholds` gets the multistart.
    Where the two sweeps' totals differ by more than GUARD_TOL, one sweep
    sits in a higher basin, and the sample gets `fit_global` warm-started
    from both; elsewhere it keeps the forward fit, which stays in sample 0's
    integer gauge.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    first = fit_global(chi, pts[0], params)
    fwd, bwd = [first], [first]
    obj = _Objective(chi, pts[1:], params, j_only=False) if n > 1 else None
    for i in range(1, n):
        ends = [(fwd[-1].position, fwd[-1].aff_hat), (bwd[-1].position, bwd[-1].aff_hat)]
        f, b = _raise_errors(_continue(ends, chi, [pts[i], pts[n - i]], params,
                                       obj, [i - 1, n - i - 1]))
        fwd.append(f)
        bwd.append(b)
    bwd = [first] + bwd[:0:-1]
    return [_guard(f, b, chi, params) for f, b in zip(fwd, bwd)]


def fit_between(chi: Configuration, x, params: ModelParams, ends) -> FitResult:
    """Fit of a point from two nearby fitted pairs (y, AffinePair), guarded as a loop sample is."""
    x = np.asarray(x, dtype=float)
    obj = _Objective(chi, x, params, j_only=False)
    return _guard(*_raise_errors(_continue(ends, chi, [x, x], params, obj, [0, 0])), chi, params)


def _continue(ends, chi: Configuration, xs, params: ModelParams,
              obj: _Objective | None = None, points=None) -> list:
    """Row k: one continuation step to xs[k] from ends[k] = (y_k, aff_k), or the multistart.

    The rows with an end start from it transported to xs[k] (`transport`),
    all as one `_fit_from_rows` on obj, where the i-th row with an end sits
    at obj's point points[i]; without obj, one is built over their points,
    so a row with no end is not gathered here.  A row with no end or at
    rho = 0 takes no step; it and a row whose step fails, does not converge
    or is not regular under `params.thresholds` are refused: each gets the
    multistart, all in one `fit_global_stack`, which is not called when no
    row is refused.  Row k is its FitResult, or its multistart's FitError.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1, chi.d)
    outs = [None] * len(xs)
    go = [k for k, end in enumerate(ends) if end is not None]
    if go:
        if obj is None:
            obj, points = _Objective(chi, xs[go], params, j_only=False), np.arange(len(go))
        live = obj.rho[points] > 0.0        # no atoms in range: never a regular pair
        go = [k for k, ok in zip(go, live) if ok]
    if go:
        steps = _fit_from_rows(obj, [transport(*ends[k], xs[k]) for k in go], xs[go], chi,
                               params, np.asarray(points)[live])
        for k, out in zip(go, steps):
            outs[k] = out
    refused = [k for k, out in enumerate(outs)
               if out is None or not (out.converged and out.regular)]
    if refused:
        for k, out in zip(refused, fit_global_stack(chi, xs[refused], params)):
            outs[k] = out
    return outs


def _raise_errors(outs: list) -> list:
    """outs, unless one of them is a FitError: the first such is raised."""
    for out in outs:
        if isinstance(out, FitError):
            raise out
    return outs


def _guard(a: FitResult, b: FitResult, chi: Configuration, params: ModelParams) -> FitResult:
    """a when two fits of one point agree in total to GUARD_TOL; else the multistart from both."""
    if abs(a.breakdown.total - b.breakdown.total) <= GUARD_TOL:
        return a
    return fit_global(chi, a.position, params, warm_starts=(a.aff_hat, b.aff_hat))


def _exact(obj: _Objective, theta: np.ndarray, params: ModelParams, point: int = 0):
    """(the pair of theta with tau wrapped to [0, 1), its exact energy from the point's gather)."""
    aff = unpack(theta, obj.d).canonical_tau()
    rel, w, c = obj.gather(point)
    return aff, sample_energy(aff, rel, w, c, params)


def _finish(x, aff: AffinePair, breakdown: EnergyBreakdown, iterations: int, grad_norm: float,
            chi: Configuration, params: ModelParams, converged: bool,
            n_candidates: int) -> FitResult:
    """The regular-pair test of the chosen fit on its energy's rho and J, packed into a FitResult."""
    regular, report = _regularity(x, aff, breakdown.rho, breakdown.j_term, chi, params)
    return FitResult(position=x, aff_hat=aff, breakdown=breakdown, regular=regular,
                     report=report, iterations=iterations, converged=converged,
                     grad_norm=grad_norm, n_candidates=n_candidates)
