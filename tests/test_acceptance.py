"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Desk scale: d = 2, lam in {8, 12, 16} (32 only for the density study),
seeded and deterministic throughout.
"""

import math
import pathlib
import shutil
import time
from dataclasses import replace

import numpy as np

from latfit.core_model import (
    AffinePair,
    Box,
    Configuration,
    ModelParams,
    is_regular_pair,
    j_lambda,
    j_value_grad_hess,
    local_density,
    low_energy_thresholds,
    split_regular_atoms,
)
from latfit.fields import GridGeometry, evaluate_grid, fd_gradients, gradient_bound_check, lower_bound_report
from latfit.fitting import fit_global, minimize_j_local
from latfit.generators import GeneratorSpec, edge_dipole, generate
from latfit.potentials import c_con, phi_eval
from latfit.topology import (
    Reparam,
    chain_drift_bound,
    chain_product,
    densify_loop,
    find_reparam,
    burgers_loop,
)

from cli_harness import field_csv_mismatches, loop_json_mismatches, run_cli
from conftest import exact_lattice, random_a
from kernel_oracles import express_in_frame, half_plane_count_oracle

DATA = pathlib.Path(__file__).resolve().parent / "data"


def report(num, name, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def noisy_config(sigma, lam, seed, box_size=6.0):
    """Unit lattice with zero phase plus Gaussian noise: the true fit at x is (I, x mod 1)."""
    rng = np.random.default_rng(seed)
    chi = exact_lattice(np.eye(2), np.zeros(2), lam, box_size)
    pts = chi.positions + sigma * rng.standard_normal(chi.positions.shape)
    pts = pts[chi.domain.contains(pts, pad=4.0 * lam)]
    return Configuration(pts, chi.domain.contains(pts), chi.domain, lam)


def square_loop(center, radius, max_step):
    c = np.asarray(center, dtype=float)
    corners = np.array([c + [-radius, -radius], c + [radius, -radius],
                        c + [radius, radius], c + [-radius, radius],
                        c + [-radius, -radius]])
    return densify_loop(corners, max_step)


def test_criterion_01_density_convergence():
    t0 = time.time()
    rng = np.random.default_rng(100)
    lams = (8.0, 16.0, 32.0)
    worst = {lam: 0.0 for lam in lams}
    n_points = 0
    while n_points < 50:
        a = random_a(rng)
        det = float(np.linalg.det(a))
        if not 0.5 <= det <= 2.0:
            continue
        tau = rng.random(2)
        for lam in lams:
            chi = exact_lattice(a, tau, lam)
            for _ in range(10):
                x = rng.uniform(0.0, 6.0, size=2)
                worst[lam] = max(worst[lam], abs(local_density(chi, x, lam) - det))
        n_points += 10
    errs = np.array([worst[lam] for lam in lams])
    order = -np.polyfit(np.log(lams), np.log(errs), 1)[0]
    elapsed = time.time() - t0
    report(1, "density convergence", order >= 1.8 and elapsed < 30.0,
           f"max dev {dict((int(k), float(f'{v:.3e}')) for k, v in worst.items())}, "
           f"fitted order {order:.2f} >= 1.8, {elapsed:.1f}s < 30s")


def test_criterion_02_analytic_derivatives():
    t0 = time.time()
    rng = np.random.default_rng(200)
    params = ModelParams(lam=12.0)
    configs = [noisy_config(s, params.lam, 200 + i) for i, s in enumerate((0.005, 0.01, 0.02))]
    step = 1e-5
    worst_g = worst_h = 0.0
    checked = 0
    while checked < 100:
        chi = configs[checked % 3]
        x = rng.uniform(1.0, 5.0, size=2)
        aff = AffinePair(np.eye(2) + 0.01 * rng.standard_normal((2, 2)), rng.random(2))
        ok, _ = is_regular_pair(x, aff, chi, params)
        if not ok:
            continue
        theta = np.concatenate([aff.A.ravel(), aff.tau])
        _, grad, hess = j_value_grad_hess(aff, chi, x, params.lam)
        fd_g = np.empty(6)
        fd_h = np.empty((6, 6))
        for i in range(6):
            e = np.zeros(6)
            e[i] = step
            ap = AffinePair((theta + e)[:4].reshape(2, 2), (theta + e)[4:])
            am = AffinePair((theta - e)[:4].reshape(2, 2), (theta - e)[4:])
            fd_g[i] = (j_lambda(ap, chi, x, params.lam)
                       - j_lambda(am, chi, x, params.lam)) / (2 * step)
            fd_h[:, i] = (j_value_grad_hess(ap, chi, x, params.lam)[1]
                          - j_value_grad_hess(am, chi, x, params.lam)[1]) / (2 * step)
        worst_g = max(worst_g, np.linalg.norm(fd_g - grad) / np.linalg.norm(grad))
        worst_h = max(worst_h, np.linalg.norm(fd_h - hess) / np.linalg.norm(hess))
        checked += 1
    elapsed = time.time() - t0
    report(2, "analytic derivatives", worst_g <= 1e-6 and worst_h <= 1e-6 and elapsed < 60.0,
           f"100 regular instances, grad rel err {worst_g:.2e}, hess rel err {worst_h:.2e}, "
           f"{elapsed:.1f}s < 60s")


def test_criterion_03_local_convexity():
    rng = np.random.default_rng(300)
    params = ModelParams(lam=12.0)
    configs = [noisy_config(s, params.lam, 300 + i) for i, s in enumerate((0.005, 0.02))]
    scale = np.concatenate([np.full(4, params.lam), np.ones(2)])
    n_checked = 0
    min_margin = math.inf
    while n_checked < 100:
        chi = configs[n_checked % 2]
        x = rng.uniform(1.0, 5.0, size=2)
        start = AffinePair(np.eye(2), (np.eye(2) @ x) % 1.0)
        bp = minimize_j_local(start, chi, x, params)
        ok, _ = is_regular_pair(x, bp.aff_tilde, chi, params)
        if not ok:
            continue
        hess = j_value_grad_hess(bp.aff_tilde, chi, x, params.lam)[2]
        hs = hess / scale[:, None] / scale[None, :]
        mineig = float(np.min(np.linalg.eigvalsh(hs)))
        rho = local_density(chi, x, params.lam)
        nai = float(np.sum(np.linalg.inv(bp.aff_tilde.A) ** 2))
        floor = c_con(rho, float(np.linalg.det(bp.aff_tilde.A)), 2, params.constants) * nai * rho
        assert mineig > 0.0, "negative Hessian eigenvalue at a regular fit"
        min_margin = min(min_margin, mineig - floor)
        n_checked += 1
    report(3, "local convexity", min_margin >= 0.0,
           f"100 regular fits, smallest (eig - C_con bound) margin {min_margin:.3e} >= 0")


def test_criterion_04_reparam_recovery():
    t0 = time.time()
    rng = np.random.default_rng(400)
    params = ModelParams(lam=12.0)
    chi = exact_lattice(np.eye(2), np.array([0.2, 0.6]), params.lam)
    y = np.array([3.0, 3.0])
    from latfit.fitting import tau_init
    aff = AffinePair(np.eye(2), tau_init(np.eye(2), chi, y, params.lam))
    n_ok = 0
    n_tested = 0
    while n_tested < 1000:
        b = np.array([[1, 0], [0, 1]], dtype=np.int64)
        for _ in range(rng.integers(1, 6)):
            s = np.eye(2, dtype=np.int64)
            if rng.random() < 0.5:
                s[0, 1] = rng.integers(-2, 3)
            else:
                s[1, 0] = rng.integers(-2, 3)
            b = b @ s
        if np.max(np.abs(b)) > 3:
            continue
        rep = Reparam(b, rng.integers(-3, 4, size=2))
        step = find_reparam((y, rep.apply(aff)), (y, aff), chi, params)
        n_ok += int(step.reparam == rep)
        n_tested += 1
    elapsed = time.time() - t0
    report(4, "reparametrisation recovery", n_ok == 1000 and elapsed < 10.0,
           f"{n_ok}/1000 exact recoveries, {elapsed:.1f}s < 10s")


def test_criterion_05_jump_bounds():
    t0 = time.time()
    rng = np.random.default_rng(500)
    params = ModelParams(lam=12.0)
    n_steps = 0
    worst_a = worst_tau = -math.inf
    for sigma in (0.01, 0.02, 0.05):
        chi = noisy_config(sigma, params.lam, int(sigma * 1000), box_size=10.0)
        while n_steps < 500 * ((0.01, 0.02, 0.05).index(sigma) + 1) / 3.0:
            y1 = rng.uniform(1.0, 9.0, size=2)
            offset = rng.uniform(-1.0, 1.0, size=2)
            offset *= rng.uniform(0.3, 1.45) * params.lam / np.linalg.norm(offset)
            y2 = y1 + offset
            fits = []
            for y in (y1, y2):
                start = AffinePair(np.eye(2), (np.eye(2) @ y) % 1.0)
                bp = minimize_j_local(start, chi, y, params)
                ok, _ = is_regular_pair(y, bp.aff_tilde, chi, params)
                fits.append((y, bp.aff_tilde) if ok else None)
            if None in fits:
                continue
            step = find_reparam(fits[0], fits[1], chi, params)
            worst_a = max(worst_a, step.delta_a - step.bound_a)
            worst_tau = max(worst_tau, step.delta_tau - step.bound_tau)
            n_steps += 1
    elapsed = time.time() - t0
    report(5, "jump bounds", worst_a < 0.0 and worst_tau < 0.0 and elapsed < 120.0,
           f"{n_steps} chain steps, worst (delta - bound): A {worst_a:.2e}, "
           f"tau {worst_tau:.2e}, {elapsed:.1f}s < 120s")


def test_criterion_06_homotopy_invariance():
    rng = np.random.default_rng(600)
    params = ModelParams(lam=12.0)
    configs = [noisy_config(s, params.lam, 600 + i, box_size=10.0)
               for i, s in enumerate((0.01, 0.02))]
    n_chains = 0
    failures = 0
    while n_chains < 200:
        chi = configs[n_chains % 2]
        # random walk of 4 regular fitted points
        pos = rng.uniform(2.0, 8.0, size=2)
        points = [pos]
        while len(points) < 4:
            step = rng.uniform(-1.0, 1.0, size=2)
            step *= rng.uniform(0.4, 1.2) * params.lam / np.linalg.norm(step)
            nxt = points[-1] + step
            if np.all((nxt > 0.5) & (nxt < 9.5)):
                points.append(nxt)
        fits = []
        for y in points:
            start = AffinePair(np.eye(2), (np.eye(2) @ y) % 1.0)
            bp = minimize_j_local(start, chi, y, params)
            ok, _ = is_regular_pair(y, bp.aff_tilde, chi, params)
            if not ok:
                fits = None
                break
            fits.append((y, bp.aff_tilde))
        if fits is None:
            continue
        k = int(rng.integers(1, len(fits)))
        mid = 0.5 * (fits[k - 1][0] + fits[k][0]) + rng.uniform(-0.5, 0.5, size=2)
        start = AffinePair(np.eye(2), (np.eye(2) @ mid) % 1.0)
        bpy = minimize_j_local(start, chi, mid, params)
        ok, _ = is_regular_pair(mid, bpy.aff_tilde, chi, params)
        if not ok:
            continue

        def product(pts):
            steps = [find_reparam(pts[i], pts[i + 1], chi, params)
                     for i in range(len(pts) - 1)]
            return chain_product(steps)

        base = product(fits)
        inserted = product(fits[:k] + [(mid, bpy.aff_tilde)] + fits[k:])
        if base != inserted:
            failures += 1
        n_chains += 1
    report(6, "homotopy invariance", failures == 0,
           f"200 randomized chains, {failures} product changes under insert/remove")


def test_criterion_07_burgers_detection(dislocation8, params8):
    chi, truth = dislocation8
    oracle = half_plane_count_oracle(chi, truth.core, np.array([1.0, 0.0]), 8.0)
    agree = oracle == int(truth.burgers[0])
    products = []
    for radius in (8.0, 10.0, 13.0):
        res = burgers_loop(chi, square_loop(truth.core, radius, 1.2 * params8.lam), params8)
        ref = express_in_frame(res.product, res.fits[0].aff_hat, np.eye(2))
        agree &= np.array_equal(ref.B, np.eye(2, dtype=np.int64))
        products.append(tuple(int(v) for v in ref.t))
    # counterclockwise orientation: label jump is minus the inserted content
    enclosing_ok = all(p == (-oracle, 0) for p in products)
    non_enclosing_ok = True
    for center_off in (np.array([13.0, 13.0]), np.array([-12.0, 11.0])):
        res = burgers_loop(chi, square_loop(truth.core + center_off, 4.0, 1.1 * params8.lam),
                           params8)
        non_enclosing_ok &= res.product.is_identity
    box = Box(np.array([-24.0, -24.0]), np.array([24.0, 24.0]))
    chi_d, _ = edge_dipole(box, params8.lam, core1=(-6.5, 0.5), core2=(7.5, 0.5))
    res_d = burgers_loop(chi_d, square_loop([0.5, 0.5], 16.0, 1.2 * params8.lam), params8)
    dipole_ok = res_d.product.is_identity
    report(7, "Burgers detection",
           agree and enclosing_ok and non_enclosing_ok and dipole_ok,
           f"oracle {oracle}, enclosing products {products}, non-enclosing trivial "
           f"{non_enclosing_ok}, dipole trivial {dipole_ok}")


def test_criterion_08_low_energy_regular():
    rng = np.random.default_rng(800)
    params = ModelParams(lam=12.0)
    eps_hat = params.low_energy_cutoff()
    thr = low_energy_thresholds(eps_hat, params)
    suite = [
        GeneratorSpec(kind="perfect", domain_lo=(0, 0), domain_hi=(30, 30), lam=12.0),
        GeneratorSpec(kind="noise", sigma=0.01, seed=1, domain_lo=(0, 0), domain_hi=(30, 30), lam=12.0),
        GeneratorSpec(kind="noise", sigma=0.05, seed=2, domain_lo=(0, 0), domain_hi=(30, 30), lam=12.0),
        GeneratorSpec(kind="vacancies", fraction=0.08, seed=3, domain_lo=(0, 0), domain_hi=(30, 30), lam=12.0),
        GeneratorSpec(kind="shear", gamma=0.04, domain_lo=(0, 0), domain_hi=(30, 30), lam=12.0),
        GeneratorSpec(kind="bend", kappa=0.0008, domain_lo=(0, 0), domain_hi=(30, 30), lam=12.0),
    ]
    n_low = 0
    failures = []
    for spec in suite:
        chi, _ = generate(spec)
        for _ in range(6):
            x = rng.uniform(6.0, 24.0, size=2)
            fit = fit_global(chi, x, params)
            if fit.breakdown.total <= eps_hat:
                n_low += 1
                ok, rep = is_regular_pair(x, fit.aff_hat, chi, replace(params, thresholds=thr))
                det_ok = float(np.linalg.det(fit.aff_hat.A)) <= 1.5 * params.elastic.det_e + 1e-9
                if not (ok and det_ok):
                    failures.append((spec.kind, x))
    report(8, "low energy implies regular", n_low >= 30 and not failures,
           f"{n_low} low-energy fits across the generator suite, {len(failures)} failures")


def test_criterion_09_lower_bound(params8):
    t0 = time.time()
    lam = params8.lam
    kappa = 0.1 / lam**2
    suite = [
        GeneratorSpec(kind="perfect", domain_lo=(0, 0), domain_hi=(30, 30), lam=lam),
        GeneratorSpec(kind="shear", gamma=0.05, domain_lo=(0, 0), domain_hi=(30, 30), lam=lam),
        GeneratorSpec(kind="bend", kappa=kappa, domain_lo=(0, 0), domain_hi=(30, 30), lam=lam),
        GeneratorSpec(kind="noise", sigma=0.02, seed=9, domain_lo=(0, 0), domain_hi=(30, 30), lam=lam),
    ]
    min_slack = math.inf
    grad_ok = True
    n_nodes = 0
    for spec in suite:
        chi, _ = generate(spec)
        geom = GridGeometry(origin=(9.0, 9.0), h=2.0, nx=6, ny=6)
        field = evaluate_grid(chi, geom, params8)
        grads = fd_gradients(field)
        rep = lower_bound_report(field, grads)
        min_slack = min(min_slack, rep.min_slack)
        n_nodes += len(rep.entries)
        for _, lhs, rhs in gradient_bound_check(field, grads):
            grad_ok &= lhs >= rhs - 1e-12
    elapsed = time.time() - t0
    report(9, "certified lower bound", min_slack >= -1e-10 and grad_ok,
           f"{n_nodes} nodes over 4 configurations, min slack {min_slack:.3e} >= -1e-10, "
           f"gradient bound holds: {grad_ok} ({elapsed:.0f}s)")


def test_criterion_10_appendix_inequalities():
    rng = np.random.default_rng(1000)
    params = ModelParams(lam=8.0)
    dc = params.constants

    # misfit sandwich on 100 seeded noisy configurations
    sandwich_fail = 0
    for seed in range(100):
        chi = noisy_config(0.03, params.lam, 2000 + seed)
        x = rng.uniform(1.0, 5.0, size=2)
        aff = AffinePair(np.eye(2), rng.random(2))
        j_val = j_lambda(aff, chi, x, params.lam)
        _, rel, dist = chi.local_atoms(x, 2.0 * params.lam)
        from latfit.core_model import dist_to_lattice
        w = phi_eval(dist / params.lam)
        s_dist = float(np.sum(dist_to_lattice(aff, rel) ** 2 * w)) / (params.cphi * params.lam**2)
        na = float(np.sum(aff.A**2))
        nai = float(np.sum(np.linalg.inv(aff.A) ** 2))
        if not (dc.C0_W * s_dist - 1e-12 <= j_val <= dc.C1_W * na * nai * s_dist + 1e-12):
            sandwich_fail += 1

    # irregular-density bound on 100 seeded noisy configurations
    irr_fail = 0
    for seed in range(100):
        chi = noisy_config(0.04, params.lam, 3000 + seed)
        x = rng.uniform(1.0, 5.0, size=2)
        aff = AffinePair(np.eye(2), np.zeros(2))
        j_val = j_lambda(aff, chi, x, params.lam)
        beta = rng.uniform(0.05, 0.3)
        _, _, _, rho_irr = split_regular_atoms(chi, aff, beta, x, params.lam)
        if rho_irr > j_val / (dc.C0_W * beta**2) + 1e-12:
            irr_fail += 1

    # chain drift bound on 100 ten-step chains
    drift_fail = 0
    chains_done = 0
    cfgs = [noisy_config(0.02, params.lam, 4000 + k, box_size=10.0) for k in range(4)]
    while chains_done < 100:
        chi = cfgs[chains_done % 4]
        pos = rng.uniform(2.0, 8.0, size=2)
        fits = []
        ok_chain = True
        for _ in range(10):
            start = AffinePair(np.eye(2), (np.eye(2) @ pos) % 1.0)
            bp = minimize_j_local(start, chi, pos, params)
            ok, _ = is_regular_pair(pos, bp.aff_tilde, chi, params)
            if not ok:
                ok_chain = False
                break
            fits.append((pos.copy(), bp.aff_tilde))
            step = rng.uniform(-1.0, 1.0, size=2)
            step *= rng.uniform(0.4, 1.2) * params.lam / np.linalg.norm(step)
            pos = np.clip(pos + step, 1.0, 9.0)
        if not ok_chain or len(fits) < 10:
            continue
        db = chain_drift_bound(fits, chi, params)
        if db.lhs_a > db.rhs_a or db.lhs_tau > db.rhs_tau:
            drift_fail += 1
        chains_done += 1

    passed = sandwich_fail == 0 and irr_fail == 0 and drift_fail == 0
    report(10, "appendix inequalities", passed,
           f"sandwich failures {sandwich_fail}/100, irregular-density failures {irr_fail}/100, "
           f"drift failures {drift_fail}/100")


def test_criterion_11_cli_end_to_end(tmp_path):
    for name in ("dislocation_spec.json", "params.json", "loop.csv"):
        shutil.copy(DATA / name, tmp_path / name)
    ok = True
    codes = []
    for step in (("generate", "--spec", "dislocation_spec.json", "--out", "atoms.csv",
                  "--truth", "truth.json"),
                 ("field", "--atoms", "atoms.csv", "--params", "params.json",
                  "--grid", "2,2,2,6,6", "--out", "field.csv", "--svg", "field.svg"),
                 ("loop", "--atoms", "atoms.csv", "--params", "params.json",
                  "--loop", "loop.csv", "--out", "loop.json"),
                 ("check", "--atoms", "atoms.csv", "--params", "params.json")):
        proc = run_cli(*step, cwd=tmp_path)
        codes.append(proc.returncode)
        ok &= proc.returncode == 0
    golden_match = True
    for produced, golden in (("atoms.csv", "golden_atoms.csv"),
                             ("truth.json", "golden_truth.json")):
        golden_match &= (tmp_path / produced).read_bytes() == (DATA / golden).read_bytes()
    # Fitted floats drift <= 8.9e-16 across BLAS kernels, so the floats of field.csv and
    # loop.json allow 1e-13 + 1e-12|y|; their integers and strings stay exact.
    problems = field_csv_mismatches((tmp_path / "field.csv").read_text(),
                                    (DATA / "golden_field.csv").read_text())
    problems += loop_json_mismatches((tmp_path / "loop.json").read_text(),
                                     (DATA / "golden_loop.json").read_text())
    golden_match &= not problems
    report(11, "CLI end to end", ok and golden_match,
           f"exit codes {codes}, goldens match (field.csv and loop.json floats to "
           f"1e-13 + 1e-12|y|, all else exact): {golden_match} {problems[:3]}")
