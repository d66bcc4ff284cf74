"""Integer reparametrisations between fitted lattices and their chain topology.

Two fits of the same lattice differ by an integer relabeling (B, t) with
det B = 1; rounding A1 A2^{-1} and the transported phase recovers it whenever
both pairs are regular and close (|y1 - y2| <= 3 lam / 2).  Products of the
step reparametrisations along closed chains are the generalized Burgers
vectors; they are exact integers, so every chain identity is tested exactly.

`burgers_loop` fits its samples with `fitting.fit_loop`: one multistart at
sample 0, continuation both ways round the loop with both sweeps stepped
together as one 2-row stack, and a multistart warm-started from both
sweeps wherever they disagree.  A loop product depends only on the integer
gauge of the base fit (sample 0, still the multistart's): the gauges of the
other samples cancel step by step.  So continuation changes the integers
of the individual steps (most become B = I) but not the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_model import AffinePair, Configuration, ModelParams, is_regular_pair, j_lambda
from .fitting import FitResult, fit_between, fit_loop


class ReparamError(RuntimeError):
    """Raised when no valid integer reparametrisation connects two fits."""


class AmbiguousReparamError(ReparamError):
    """Rounding gap too large: the points are not mutually regular enough."""


class IrregularSampleError(RuntimeError):
    """A chain/loop sample point failed the regular-pair gate."""


def _int_det(b: np.ndarray) -> int:
    d = b.shape[0]
    if d == 2:
        return int(b[0, 0]) * int(b[1, 1]) - int(b[0, 1]) * int(b[1, 0])
    if d == 3:
        return (int(b[0, 0]) * (int(b[1, 1]) * int(b[2, 2]) - int(b[1, 2]) * int(b[2, 1]))
                - int(b[0, 1]) * (int(b[1, 0]) * int(b[2, 2]) - int(b[1, 2]) * int(b[2, 0]))
                + int(b[0, 2]) * (int(b[1, 0]) * int(b[2, 1]) - int(b[1, 1]) * int(b[2, 0])))
    return int(round(float(np.linalg.det(b))))


@dataclass(frozen=True)
class Reparam:
    """Integer lattice relabeling (B, t) with det B = 1; acts as (A, tau) -> (BA, B tau + t)."""

    B: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        b = np.array(self.B, dtype=np.int64)
        t = np.array(self.t, dtype=np.int64)
        if b.ndim != 2 or b.shape[0] != b.shape[1] or t.shape != (b.shape[0],):
            raise ValueError(f"inconsistent shapes B {b.shape}, t {t.shape}")
        if _int_det(b) != 1:
            raise ValueError(f"reparametrisation requires det B = 1, got {_int_det(b)}")
        b.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "t", t)

    @classmethod
    def identity(cls, d: int) -> "Reparam":
        return cls(np.eye(d, dtype=np.int64), np.zeros(d, dtype=np.int64))

    @property
    def d(self) -> int:
        return self.B.shape[0]

    @property
    def is_identity(self) -> bool:
        return bool(np.array_equal(self.B, np.eye(self.d, dtype=np.int64))
                    and np.all(self.t == 0))

    def apply(self, aff: AffinePair) -> AffinePair:
        return AffinePair(self.B @ aff.A, self.B @ aff.tau + self.t)

    def inverse(self) -> "Reparam":
        binv = np.round(np.linalg.inv(self.B)).astype(np.int64)
        return Reparam(binv, -binv @ self.t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Reparam):
            return NotImplemented
        return bool(np.array_equal(self.B, other.B) and np.array_equal(self.t, other.t))

    def __hash__(self):
        return hash((self.B.tobytes(), self.t.tobytes()))


def compose(b1: Reparam, b2: Reparam) -> Reparam:
    """Composition of the affine relabelings: (B1 B2, B1 t2 + t1)."""
    return Reparam(b1.B @ b2.B, b1.B @ b2.t + b1.t)


def chain_product(steps) -> Reparam:
    """Left fold of the step reparametrisations (ChainSteps or Reparams)."""
    reps = [s.reparam if isinstance(s, ChainStep) else s for s in steps]
    if not reps:
        raise ValueError("chain_product needs at least one step")
    out = reps[0]
    for r in reps[1:]:
        out = compose(out, r)
    return out


@dataclass(frozen=True)
class ChainStep:
    """One jump between fitted pairs with its residuals and theorem bounds."""

    y1: np.ndarray
    y2: np.ndarray
    aff1: AffinePair
    aff2: AffinePair
    reparam: Reparam
    delta_a: float          # |id - A1^{-1} B A2|_F
    delta_tau: float        # |B tau2 + t - tau1 - ((B A2 + A1)/2)(y2 - y1)|
    bound_a: float
    bound_tau: float
    j1: float
    j2: float
    gap: float              # max distance to the nearest integer before rounding


def _as_point_aff(fit):
    """Accept (y, AffinePair) or FitResult."""
    if hasattr(fit, "aff_hat"):
        return np.asarray(fit.position, dtype=float), fit.aff_hat
    y, aff = fit
    return np.asarray(y, dtype=float), aff


def _misfit(fit, chi: Configuration, lam: float) -> float:
    """J_lam of a fitted pair; a FitResult carries it from its energy breakdown."""
    if hasattr(fit, "breakdown"):
        return fit.breakdown.j_term
    y, aff = _as_point_aff(fit)
    return j_lambda(aff, chi, y, lam)


def round_reparam(fit1, fit2) -> tuple[Reparam, float]:
    """(the reparametrisation connecting two nearby fitted pairs, its rounding gap).

    Endpoints are FitResults or (y, AffinePair).  B is the rounding of
    A1 A2^{-1}; t rounds the transported phase mismatch
    tau1 + ((B A2 + A1)/2)(y2 - y1) - B tau2.  A rounding gap above 0.25
    means the integer candidate is not safely unique and raises
    AmbiguousReparamError; a B with det B != 1 raises ReparamError.  The gap
    is the larger of the two.  No residual, bound or J is computed: a grid
    link (`FieldGrid.link`) needs only the integers.
    """
    y1, aff1 = _as_point_aff(fit1)
    y2, aff2 = _as_point_aff(fit2)
    r = aff1.A @ np.linalg.inv(aff2.A)
    b = np.round(r)
    gap_b = float(np.max(np.abs(r - b)))
    if gap_b > 0.25:
        raise AmbiguousReparamError(
            f"ambiguous reparametrisation: A-rounding gap {gap_b:.3f} > 0.25")
    b = b.astype(np.int64)
    if _int_det(b) != 1:
        raise ReparamError(f"orientation/volume mismatch: det B = {_int_det(b)}")
    t_real = aff1.tau + 0.5 * (b @ aff2.A + aff1.A) @ (y2 - y1) - b @ aff2.tau
    t = np.round(t_real)
    gap_t = float(np.max(np.abs(t_real - t)))
    if gap_t > 0.25:
        raise AmbiguousReparamError(
            f"ambiguous reparametrisation: tau-rounding gap {gap_t:.3f} > 0.25")
    return Reparam(b, t.astype(np.int64)), max(gap_b, gap_t)


def _chain_step(fit1, fit2, lam: float) -> tuple[Reparam, float, float]:
    """(`round_reparam` of two fits, its gap, their distance), for fits at most 1.5 lam apart."""
    sep = float(np.linalg.norm(_as_point_aff(fit2)[0] - _as_point_aff(fit1)[0]))
    if sep > 1.5 * lam + 1e-9:
        raise ValueError(f"points are {sep:g} apart; chain steps require <= 1.5*lam = {1.5 * lam:g}")
    return (*round_reparam(fit1, fit2), sep)


def find_reparam(fit1, fit2, chi: Configuration, params: ModelParams) -> ChainStep:
    """Unique reparametrisation connecting two nearby fitted pairs, with residuals and bounds.

    Endpoints are FitResults or (y, AffinePair), at most 1.5 lam apart.  The
    integers and the refusals are `round_reparam`'s; this adds the jump
    residuals and the theorem's bounds on them.  A FitResult's J is taken
    from its breakdown, not recomputed.
    """
    y1, aff1 = _as_point_aff(fit1)
    y2, aff2 = _as_point_aff(fit2)
    lam = params.lam
    dy = y2 - y1
    rep, gap, sep = _chain_step(fit1, fit2, lam)

    ba2 = rep.B @ aff2.A
    delta_a = float(np.linalg.norm(np.eye(chi.d) - np.linalg.inv(aff1.A) @ ba2))
    delta_tau = float(np.linalg.norm(rep.B @ aff2.tau + rep.t - aff1.tau - 0.5 * (ba2 + aff1.A) @ dy))

    j1 = _misfit(fit1, chi, lam)
    j2 = _misfit(fit2, chi, lam)
    jmax = max(j1, j2)
    det2 = float(np.linalg.det(aff2.A))
    geom = (2.0 * lam / (2.0 * lam - sep)) ** (chi.d / 2.0)
    dc = params.constants
    bound_a = dc.cA_J / math.sqrt(det2) * geom * math.sqrt(jmax) / lam
    bound_tau = dc.ctau_J * float(np.linalg.norm(aff1.A, 2)) / math.sqrt(det2) * geom * math.sqrt(jmax)

    return ChainStep(y1=y1, y2=y2, aff1=aff1, aff2=aff2, reparam=rep,
                     delta_a=delta_a, delta_tau=delta_tau,
                     bound_a=bound_a, bound_tau=bound_tau,
                     j1=j1, j2=j2, gap=gap)


def chain_refinement_invariance(chain, insert_index: int, new_fit, chi: Configuration,
                                params: ModelParams) -> bool:
    """Product invariance when a point regular under params.thresholds is inserted at insert_index.

    Endpoints are FitResults or (y, AffinePair).  Each step of the chain,
    and the two steps to and from the inserted point, is rounded once, as
    `find_reparam` rounds it (its 1.5 lam gate, `round_reparam`'s integers
    and refusals).  By the group law the refined product equals the chain's
    exactly when those two steps compose to the one they replace, so the
    check needs the integers alone and gathers no J.  An inserted FitResult
    carries its regular-pair test from its fit's own gather (`regular`), so
    it is not gathered again; a bare pair is tested here.
    """
    fits = [_as_point_aff(f) for f in chain]
    if not 1 <= insert_index <= len(fits) - 1:
        raise ValueError("insert_index must be interior to the chain")
    y_new, aff_new = _as_point_aff(new_fit)
    lam = params.lam
    for nb in (fits[insert_index - 1][0], fits[insert_index][0]):
        if np.linalg.norm(y_new - nb) > 1.5 * lam + 1e-9:
            raise ValueError("inserted point must be within 1.5*lam of both neighbors")
    regular = new_fit.regular if isinstance(new_fit, FitResult) else \
        is_regular_pair(y_new, aff_new, chi, params)[0]
    if not regular:
        raise IrregularSampleError(
            f"inserted point at {np.array2string(y_new, precision=3)} is not a regular pair")

    replaced = [_chain_step(a, b, lam)[0] for a, b in zip(fits, fits[1:])][insert_index - 1]
    return compose(_chain_step(fits[insert_index - 1], new_fit, lam)[0],
                   _chain_step(new_fit, fits[insert_index], lam)[0]) == replaced


@dataclass(frozen=True)
class LoopResult:
    """Closed-chain product around a loop of fitted pairs."""

    points: np.ndarray
    steps: tuple
    product: Reparam
    classification: str     # trivial | translation-defect | rotational-defect
    max_delta_a: float
    max_delta_tau: float
    fits: tuple


def classify_product(product: Reparam) -> str:
    if not np.array_equal(product.B, np.eye(product.d, dtype=np.int64)):
        return "rotational-defect"
    if np.any(product.t != 0):
        return "translation-defect"
    return "trivial"


def densify_loop(points: np.ndarray, max_step: float) -> np.ndarray:
    """Linear interpolation so consecutive samples are at most max_step apart."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = [points[0]]
    for a, b in zip(points[:-1], points[1:]):
        n = max(1, int(math.ceil(np.linalg.norm(b - a) / max_step)))
        for j in range(1, n + 1):
            out.append(a + (b - a) * (j / n))
    return np.array(out)


def burgers_loop(chi: Configuration, loop, params: ModelParams, fits=None,
                 verify_refinement: bool = False) -> LoopResult:
    """Fit every loop sample, connect consecutive fits, and fold the product.

    The loop must be closed (first point equals last) with steps <= 1.5*lam,
    and its distinct samples must number at least three and not all lie on
    one line: a loop that encloses nothing is refused with a ValueError.
    Without `fits`, the samples are fitted by `fit_loop`: the multistart at
    sample 0, then a forward and a backward sweep of continuation steps,
    stepped together, each transported from the sweep's previous fit, put
    on the det A = rho ridge and kept when it converges to a pair regular
    under `params.thresholds` (the multistart runs otherwise).  Where the two
    sweeps' totals differ by more than 1e-12 one of them sits in a higher
    basin, and the sample gets the multistart warm-started from both fits;
    elsewhere it keeps the forward fit, so most samples stay in sample 0's
    integer gauge and most steps have B = I.
    Any irregular sample refuses the loop, naming the sample, so the caller
    can reroute around defect cores.  A fit from `fit_loop` carries its
    regular-pair test under `params.thresholds`; caller-supplied `fits` are
    tested here.  With `verify_refinement`, the midpoint of the longest step
    is fitted from both its neighbours the same way, and inserting it there
    must leave the product unchanged (`chain_refinement_invariance` on that
    step's two fits, integers only).
    """
    pts = np.atleast_2d(np.asarray(loop, dtype=float))
    if pts.shape[0] < 3:
        raise ValueError("a loop needs at least 3 points (closed)")
    if np.linalg.norm(pts[0] - pts[-1]) > 1e-9:
        raise ValueError("loop is not closed (first point must equal last)")
    core = pts[:-1]
    distinct = np.array(list(dict.fromkeys(map(tuple, core.tolist()))))
    if len(distinct) < 3:
        raise ValueError(f"a loop needs at least 3 distinct points, got {len(distinct)}: "
                         "it encloses nothing")
    rel = distinct[1:] - distinct[0]
    u = rel[np.argmax(np.sum(rel * rel, axis=1))]       # the line to the farthest point
    if np.max(np.abs(rel - np.outer(rel @ u, u) / (u @ u))) <= 1e-9:
        raise ValueError("loop points all lie on one line: it encloses nothing")
    seps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    if np.any(seps > 1.5 * params.lam + 1e-9):
        raise ValueError(f"loop step {float(np.max(seps)):g} exceeds 1.5*lam; densify first")

    tested = fits is None       # fit_loop's fits carry their regular-pair test
    fits = fit_loop(chi, core, params) if tested else list(fits)
    pairs = [_as_point_aff(f) for f in fits]

    for i, (f, (y, aff)) in enumerate(zip(fits, pairs)):
        ok = f.regular if tested else is_regular_pair(y, aff, chi, params)[0]
        if not ok:
            raise IrregularSampleError(
                f"loop sample {i} at {np.array2string(y, precision=3)} is not a regular pair")

    steps = [find_reparam(fits[i], fits[(i + 1) % len(fits)], chi, params)
             for i in range(len(fits))]
    product = chain_product(steps)

    if verify_refinement:
        i_long = int(np.argmax(seps[: len(pairs)]))
        ends = [i_long, (i_long + 1) % len(pairs)]
        left, right = pairs[ends[0]], pairs[ends[1]]
        mid_fit = fit_between(chi, 0.5 * (left[0] + right[0]), params, (left, right))
        if not chain_refinement_invariance([fits[k] for k in ends], 1, mid_fit, chi, params):
            raise ReparamError("loop product changed under refinement")

    return LoopResult(points=pts, steps=tuple(steps), product=product,
                      classification=classify_product(product),
                      max_delta_a=max(s.delta_a for s in steps),
                      max_delta_tau=max(s.delta_tau for s in steps),
                      fits=tuple(fits))


@dataclass(frozen=True)
class DriftBound:
    """Accumulated-drift estimate along a chain of regular fits (lhs <= rhs)."""

    lhs_a: float
    rhs_a: float
    lhs_tau: float
    rhs_tau: float
    steps: tuple


def chain_drift_bound(fits, chi: Configuration, params: ModelParams) -> DriftBound:
    """Quantitative drift of A and tau along a chain versus the chained bound.

    b_hat per step uses the geometric factor and the larger endpoint misfit;
    the tau side compares the product translation against the midpoint
    transport between the chain ends.
    """
    fits = list(fits)
    if len(fits) < 2:
        raise ValueError("chain needs at least two fits")
    lam = params.lam
    dc = params.constants
    d = chi.d

    steps = []
    b_hats = []
    seps = []
    for i in range(len(fits) - 1):
        step = find_reparam(fits[i], fits[i + 1], chi, params)
        steps.append(step)
        sep = float(np.linalg.norm(step.y2 - step.y1))
        seps.append(sep)
        geom = (2.0 * lam / (2.0 * lam - sep)) ** (d / 2.0)
        det_j = float(np.linalg.det(step.aff2.A))
        b_hats.append(geom / math.sqrt(det_j) * math.sqrt(max(step.j1, step.j2)))

    prod = chain_product(steps)
    y0, aff0 = _as_point_aff(fits[0])
    yn, affn = _as_point_aff(fits[-1])
    bn = prod.B @ affn.A
    lhs_a = float(np.linalg.norm(np.eye(d) - np.linalg.inv(aff0.A) @ bn, 2))
    s_hat = float(np.sum(b_hats))
    rhs_a = dc.cA_J / lam * s_hat * math.exp(dc.cA_J / lam * s_hat)

    lhs_tau = float(np.linalg.norm(
        prod.t + prod.B @ affn.tau - aff0.tau - 0.5 * (bn + aff0.A) @ (yn - y0)))
    a0_op = float(np.linalg.norm(aff0.A, 2))
    rhs_tau = ((dc.C_A * dc.C_absA * dc.ctau_J + dc.cA_J / lam * float(np.sum(seps)))
               * a0_op * s_hat * math.exp(dc.cA_J / lam * s_hat))

    return DriftBound(lhs_a=lhs_a, rhs_a=rhs_a, lhs_tau=lhs_tau, rhs_tau=rhs_tau,
                      steps=tuple(steps))
