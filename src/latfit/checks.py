"""Aggregated invariant suite over a configuration: the acceptance gate of `check`.

Each check samples the given configuration (seeded, deterministic), verifies
one of the quantitative statements behind the model (jump bounds, misfit
sandwich, irregular-density bound, local convexity, minimizer distance,
transfer to shifted scales, chain drift, plaquette consistency, and the
certified lower bound), and reports one PASS, FAIL or SKIP line.  Conditional
checks skip samples that fail their regularity hypotheses; a check that could
not run at all reports SKIP, which fails nothing and passes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_model import (
    AffinePair,
    Configuration,
    ModelParams,
    default_beta,
    dist_to_lattice,
    gather_weights,
    gradw_sum_diagnostic,
    is_regular_pair,
    j_lambda,
    j_value_grad_hess,
    local_density,
    low_energy_thresholds,
    split_regular_atoms,
)
from .fields import (
    GridGeometry,
    evaluate_grid,
    fd_gradients,
    gradient_bound_check,
    lower_bound_report,
    plaquette_products,
)
from .fitting import BasinEscapeError, FitError, aff_distance, fit_global, minimize_j_local
from .potentials import c_con
from .topology import (
    ReparamError,
    chain_drift_bound,
    compose,
    find_reparam,
)


PASS, SKIP, FAIL = "PASS", "SKIP", "FAIL"
GRID_NODES = 5          # nodes per side of the lam/4 check grid; its inner 3x3 have full stencils


def _verdict(ok: bool) -> str:
    return PASS if ok else FAIL


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str         # PASS, FAIL, or SKIP when the check could not run
    detail: str


@dataclass(frozen=True)
class CheckReport:
    results: tuple

    @property
    def ok(self) -> bool:
        """No check failed; a skipped check neither passes nor fails the report."""
        return all(r.status != FAIL for r in self.results)

    def lines(self) -> list[str]:
        return [f"[{r.status}] {r.name}: {r.detail}" for r in self.results]


def _sampled(name: str, n_tested: int, ok: bool, detail: str, none_why: str) -> CheckResult:
    """PASS or FAIL over the tested samples; SKIP, saying why, when none was tested."""
    if n_tested == 0:
        return CheckResult(name, SKIP, f"skipped ({none_why})")
    return CheckResult(name, _verdict(ok), detail)


def _lam_metric_mineig(hess: np.ndarray, lam: float, d: int) -> float:
    scale = np.concatenate([np.full(d * d, lam), np.ones(d)])
    hs = hess / scale[:, None] / scale[None, :]
    return float(np.min(np.linalg.eigvalsh(hs)))


def run_checks(chi: Configuration, params: ModelParams, seed: int = 0,
               n_samples: int = 6) -> CheckReport:
    rng = np.random.default_rng(seed)
    results = []
    d = chi.d
    lam = params.lam
    dc = params.constants
    eps_hat = params.low_energy_cutoff()
    no_regular = "no regular sample fit"

    # 1. hardcore gate
    pairs = chi.hardcore_pairs(params.s0)
    results.append(CheckResult("hardcore", _verdict(len(pairs) == 0),
                               f"{len(pairs)} pair(s) closer than s0"))

    # sample points and fits
    lo, hi = chi.domain.lo, chi.domain.hi
    margin = np.minimum(0.25 * (hi - lo), lam)
    pts = lo + margin + rng.random((n_samples, d)) * (hi - lo - 2 * margin)
    fits = []
    for p in pts:
        try:
            fits.append(fit_global(chi, p, params))
        except FitError:
            fits.append(None)
    good = [f for f in fits if f is not None and f.converged]
    results.append(CheckResult("fits", _verdict(len(good) >= max(2, n_samples // 2)),
                               f"{len(good)}/{n_samples} sample fits converged"))

    # 2. low-energy points are regular (lemma thresholds)
    thr = low_energy_thresholds(eps_hat, params)
    low = [f for f in good if f.breakdown.total <= eps_hat]
    bad = []
    for f in low:
        ok, _ = is_regular_pair(f.position, f.aff_hat, chi, params, thr)
        if not ok:
            bad.append(f.position)
        if float(np.linalg.det(f.aff_hat.A)) > 1.5 * params.elastic.det_e + 1e-9:
            bad.append(f.position)
    results.append(_sampled("low_energy_regular", len(low), not bad,
                            f"{len(low)} low-energy fits, {len(bad)} regularity failures",
                            f"no sample fit below eps_hat = {eps_hat:.3g}"))

    regular = [f for f in good if f.regular]

    # 3. misfit sandwich under reparametrisation (and the dist-sum bounds)
    worst = 0.0
    n_tested = 0
    for f in regular[:4]:
        rel, w, c = gather_weights(chi, f.position, lam)
        s_dist = float(np.sum(dist_to_lattice(f.aff_hat, rel) ** 2 * w)) * c
        j_val = f.breakdown.j_term
        a = f.aff_hat.A
        na = float(np.sum(a * a))
        nai = float(np.sum(np.linalg.inv(a) ** 2))
        lower = dc.C0_W * s_dist
        upper = dc.C1_W * na * nai * s_dist
        if j_val < lower - 1e-12 or j_val > upper + 1e-12:
            worst = max(worst, lower - j_val, j_val - upper)
        for _ in range(2):
            b = np.eye(d, dtype=np.int64)
            b[0, 1] = int(rng.integers(-1, 2))
            rep_aff = AffinePair(b @ a, b @ f.aff_hat.tau)
            j_rep = j_lambda(rep_aff, chi, f.position, lam)
            cap = dc.C1_W * float(np.sum(rep_aff.A**2)) * float(np.sum(np.linalg.inv(rep_aff.A) ** 2)) \
                / dc.C0_W * j_val
            if j_rep > cap + 1e-12:
                worst = max(worst, j_rep - cap)
            n_tested += 1
    results.append(_sampled("misfit_sandwich", n_tested, worst == 0.0,
                            f"{n_tested} reparametrised misfits within bounds (worst excess {worst:.2e})",
                            no_regular))

    # 4. irregular-density bound rho_irr <= J / (C0_W beta^2)
    worst = -math.inf
    n_tested = 0
    for f in regular[:4]:
        for beta in (default_beta(f.aff_hat, params), params.s0 / 3.0, 0.1):
            _, _, _, rho_irr = split_regular_atoms(chi, f.aff_hat, beta, f.position, lam)
            cap = f.breakdown.j_term / (dc.C0_W * beta**2)
            worst = max(worst, rho_irr - cap)
            n_tested += 1
    results.append(_sampled("irregular_density", n_tested, worst <= 1e-12,
                            f"{n_tested} splits obey the J/(C0 beta^2) cap (worst excess {worst:.2e})",
                            no_regular))

    # 5. jump bounds + triangle identity on nearby regular pairs
    jump_fail = 0
    tri_fail = 0
    anti_fail = 0
    n_steps = 0
    n_pairs = 0             # regular pairs handed to find_reparam, refused ones too
    for f in regular[:4]:
        for _ in range(2):
            offset = rng.uniform(-1.0, 1.0, size=d)
            offset *= rng.uniform(0.3, 1.4) * lam / max(np.linalg.norm(offset), 1e-12)
            y2 = f.position + offset
            if not np.all(chi.domain.contains(y2)):
                continue
            try:
                f2 = fit_global(chi, y2, params)
            except FitError:
                continue
            if not f2.regular:
                continue
            n_pairs += 1
            try:
                step = find_reparam(f, f2, chi, params)
                back = find_reparam(f2, f, chi, params)
            except ReparamError:
                jump_fail += 1
                continue
            n_steps += 1
            if step.delta_a >= step.bound_a or step.delta_tau >= step.bound_tau:
                jump_fail += 1
            if not compose(step.reparam, back.reparam).is_identity:
                anti_fail += 1
            mid = 0.5 * (f.position + f2.position)
            try:
                f3 = fit_global(chi, mid, params)
                if f3.regular:
                    s13 = find_reparam(f, f3, chi, params)
                    s32 = find_reparam(f3, f2, chi, params)
                    if compose(s13.reparam, s32.reparam) != step.reparam:
                        tri_fail += 1
            except (FitError, ReparamError):
                pass
    no_pair = "no regular pair of nearby sample fits"
    results.append(_sampled("jump_bounds", n_pairs, jump_fail == 0,
                            f"{n_steps} steps within the jump bounds ({jump_fail} failures)",
                            no_pair))
    results.append(_sampled("triangle_identity", n_steps, tri_fail == 0 and anti_fail == 0,
                            f"{n_steps} triangles/inverses exact ({tri_fail}+{anti_fail} failures)",
                            no_pair))

    # 6. local convexity at branch minimizers
    conv_fail = 0
    n_conv = 0
    branches = []
    for f in regular[:4]:
        try:
            bp = minimize_j_local(f.aff_hat, chi, f.position, params, check_regular=False)
        except BasinEscapeError:
            conv_fail += 1
            continue
        branches.append(bp)
        hess = j_value_grad_hess(bp.aff_tilde, chi, bp.position, lam)[2]
        mineig = _lam_metric_mineig(hess, lam, d)
        rho = local_density(chi, bp.position, lam)
        nai = float(np.sum(np.linalg.inv(bp.aff_tilde.A) ** 2))
        floor = c_con(rho, float(np.linalg.det(bp.aff_tilde.A)), d, dc) * nai * rho
        n_conv += 1
        if mineig <= 0 or mineig < floor - 1e-12:
            conv_fail += 1
        # minimizer-distance estimate (start at the h-fit)
        bound = math.sqrt(f.breakdown.j_term / (0.5 * c_con(rho, float(np.linalg.det(f.aff_hat.A)), d, dc)
                                                * float(np.sum(np.linalg.inv(f.aff_hat.A) ** 2)) * rho))
        if aff_distance(bp.aff_tilde, f.aff_hat, lam) > bound + 1e-12:
            conv_fail += 1
    results.append(_sampled("local_convexity", len(regular[:4]), conv_fail == 0,
                            f"{n_conv} branch Hessians above the convexity floor", no_regular))

    # 7. gradient-sum diagnostic J >= alpha^{-1} sum |grad W|^2 phi ...
    diag_fail = 0
    for f in regular[:4]:
        lhs, rhs = gradw_sum_diagnostic(f.aff_hat, chi, f.position, lam, dc)
        if lhs < rhs - 1e-12:
            diag_fail += 1
    results.append(_sampled("gradw_diagnostic", len(regular[:4]), diag_fail == 0,
                            f"{len(regular[:4])} points with J >= gradient-sum bound", no_regular))

    # 8. transfer to a shifted base point and shrunken scale
    tr_fail = 0
    n_tr = 0
    for f in regular[:3]:
        for _ in range(2):
            shift = rng.uniform(-1.0, 1.0, size=d)
            shift *= rng.uniform(0.2, 0.8) * lam / max(np.linalg.norm(shift), 1e-12)
            y = f.position + shift
            lam_t = lam - float(np.linalg.norm(shift))
            moved = AffinePair(f.aff_hat.A, f.aff_hat.tau + f.aff_hat.A @ shift)
            j_moved = j_lambda(moved, chi, y, lam_t)
            cap = (lam / lam_t) ** d * f.breakdown.j_term
            n_tr += 1
            if j_moved > cap + 1e-12:
                tr_fail += 1
    results.append(_sampled("scale_transfer", n_tr, tr_fail == 0,
                            f"{n_tr} shifted evaluations under the (lam/lam~)^d cap", no_regular))

    # 9. chain drift bound on a short chain through the samples
    status = SKIP
    detail = f"skipped ({len(regular)} regular fits, needs >= 3)"
    if len(regular) >= 3:
        chain = sorted(regular, key=lambda f: tuple(f.position))
        chain_fits = []
        for f in chain:
            if not chain_fits or np.linalg.norm(f.position - chain_fits[-1].position) <= 1.5 * lam:
                chain_fits.append(f)
        if len(chain_fits) < 2:
            detail = "skipped (no two regular fits within 1.5 lam)"
        else:
            try:
                db = chain_drift_bound(chain_fits, chi, params)
                status = _verdict(db.lhs_a <= db.rhs_a + 1e-12
                                  and db.lhs_tau <= db.rhs_tau + 1e-12)
                detail = (f"A drift {db.lhs_a:.2e} <= {db.rhs_a:.2e}, "
                          f"tau drift {db.lhs_tau:.2e} <= {db.rhs_tau:.2e}")
            except ReparamError as err:
                detail = f"skipped ({err})"
    results.append(CheckResult("chain_drift", status, detail))

    # 10. grid: plaquettes, lower bound, first-gradient bound
    extent = hi - lo
    h_grid = lam / 4.0
    n_side = min(GRID_NODES, int(np.floor(min(extent) / h_grid)) + 1)
    if n_side >= 3:
        center = 0.5 * (lo + hi)
        origin = center - 0.5 * (n_side - 1) * h_grid
        geom = GridGeometry(origin=origin, h=h_grid, nx=n_side, ny=n_side)
        field = evaluate_grid(chi, geom, params)
        grads = fd_gradients(field)

        plq = plaquette_products(field, chi)
        plq_bad = sum(0 if v.is_identity else 1 for v in plq.values())
        results.append(CheckResult("plaquette_consistency", _verdict(plq_bad == 0),
                                   f"{len(plq)} computable plaquettes, {plq_bad} nontrivial"))

        rep = lower_bound_report(field, grads)
        results.append(CheckResult("lower_bound_slack", _verdict(rep.ok),
                                   f"{len(rep.entries)} nodes, min slack {rep.min_slack:.3e}"))

        gb = gradient_bound_check(field, grads)
        gb_bad = sum(0 if lhs >= rhs - 1e-12 else 1 for _, lhs, rhs in gb)
        results.append(CheckResult("gradient_bound", _verdict(gb_bad == 0),
                                   f"{len(gb)} nodes obey the first-gradient bound"))
    else:
        results.append(CheckResult("grid_checks", SKIP, "skipped (domain too small for a grid)"))

    return CheckReport(results=tuple(results))
