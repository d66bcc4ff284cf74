"""The closed tensor forms of the fit kernels against their loop-form oracles.

`assemble_j`, `_g_hess`, `ElasticDensity.f_el_hess` and `_Objective` compute
the same quantities as the per-entry assemblies in `kernel_oracles`, in a
different floating-point order; they must agree to 1e-12 relative.
"""

import numpy as np
import pytest

import kernel_oracles as oracle
from latfit.core_model import AffinePair, _g_hess, assemble_j, gather_weights
from latfit.fitting import _Objective, _pd_solve, fit_global, pack
from latfit.potentials import ElasticDensity, default_elastic

RTOL = 1e-12


def rel_err(new, ref):
    new, ref = np.asarray(new, dtype=float), np.asarray(ref, dtype=float)
    return float(np.linalg.norm(new - ref) / max(np.linalg.norm(ref), 1e-300))


@pytest.fixture(scope="module")
def regular_thetas(params, chi_noise):
    """Seeded (x, theta) pairs: the fit at (20, 20) transported to nearby points, then perturbed."""
    x0 = np.array([20.0, 20.0])
    fit = fit_global(chi_noise, x0, params)
    assert fit.regular
    rng = np.random.default_rng(8)
    out = []
    scale = np.concatenate([np.full(4, 1.0 / params.lam), np.ones(2)])
    for _ in range(6):
        x = x0 + rng.uniform(-5.0, 5.0, size=2)
        aff = fit.aff_hat
        theta = pack(AffinePair(aff.A, aff.tau + aff.A @ (x - x0)))
        out.append((x, theta + 0.05 * scale * rng.standard_normal(6)))
    return out


@pytest.mark.parametrize("half", [False, True], ids=["lam", "lam_half"])
@pytest.mark.parametrize("j_only", [True, False], ids=["j_only", "full_h"])
def test_objective_matches_loop_form(params, chi_noise, regular_thetas, half, j_only):
    lam = params.lam / 2.0 if half else params.lam
    for x, theta in regular_thetas:
        obj = _Objective(chi_noise, x, params, j_only=j_only, lam=lam)
        val, grad, hess = obj.value_grad_hess(theta)
        ref_val, ref_grad, ref_hess = oracle.objective_terms(obj, theta)
        assert abs(val - ref_val) <= RTOL * abs(ref_val)
        assert rel_err(grad, ref_grad) <= RTOL
        assert rel_err(hess, ref_hess) <= RTOL
        assert np.array_equal(hess, hess.T)
        assert obj.value(theta) == val


def test_assemble_j_matches_loop_form(params, chi_noise, regular_thetas):
    for x, theta in regular_thetas:
        for lam in (params.lam, params.lam / 2.0):
            rel, w, c = gather_weights(chi_noise, x, lam)
            aff = AffinePair(theta[:4].reshape(2, 2), theta[4:])
            val, grad, hess = assemble_j(rel, w, aff, c)
            ref_val, ref_grad, ref_hess = oracle.assemble_j(rel, w, aff.A, aff.tau, c)
            assert abs(val - ref_val) <= RTOL * abs(ref_val)
            assert assemble_j(rel, w, aff, c, want_grad=False) == (val, None, None)
            assert rel_err(grad, ref_grad) <= RTOL
            assert rel_err(hess, ref_hess) <= RTOL


@pytest.mark.parametrize("d", [2, 3])
def test_g_hess_matches_loop_form(d):
    rng = np.random.default_rng(d)
    for _ in range(20):
        a = np.eye(d) + 0.3 * rng.standard_normal((d, d))
        ainv = np.linalg.inv(a)
        assert rel_err(_g_hess(ainv), oracle.g_hess(ainv)) <= RTOL


@pytest.mark.parametrize("el", [default_elastic(2),
                                ElasticDensity(E=np.array([[1.1, 0.2], [0.0, 0.9]]),
                                               C1_el=1.3, C2_el=0.7)],
                         ids=["identity_E", "general_E"])
def test_f_el_hess_matches_loop_form(el):
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 30:
        a = el.E + 0.3 * rng.standard_normal((2, 2))
        if np.linalg.det(a) < 0.1:
            continue
        assert rel_err(el.f_el_hess(a), oracle.f_el_hess(el, a)) <= RTOL
        checked += 1


def test_elastic_constants_are_frozen_values():
    el = ElasticDensity(E=np.array([[1.1, 0.2], [0.0, 0.9]]))
    assert el.det_e == float(np.linalg.det(el.E))
    assert el.e_norm2 == float(np.sum(el.E * el.E))
    a = np.array([[1.0, 0.1], [-0.2, 1.1]])
    s = np.linalg.svd(el.E.T @ a, compute_uv=False)
    assert el.dist2_rot(a) == max(float(np.sum(a * a) + np.sum(el.E * el.E) - 2.0 * np.sum(s)),
                                  0.0)


def test_assemble_j_matches_loop_form_in_3d():
    rng = np.random.default_rng(3)
    rel = rng.uniform(-6.0, 6.0, size=(120, 3))
    w = rng.uniform(0.0, 1.0, size=120)
    for _ in range(5):
        aff = AffinePair(np.eye(3) + 0.05 * rng.standard_normal((3, 3)), rng.random(3))
        val, grad, hess = assemble_j(rel, w, aff, 0.01)
        ref_val, ref_grad, ref_hess = oracle.assemble_j(rel, w, aff.A, aff.tau, 0.01)
        assert abs(val - ref_val) <= RTOL * abs(ref_val)
        assert rel_err(grad, ref_grad) <= RTOL
        assert rel_err(hess, ref_hess) <= RTOL


def test_pd_solve_matches_exact_solution_and_refuses_indefinite():
    # a Newton Hessian's ill-conditioning is mostly scale (lam^2 between A and tau, the
    # nu ridge), which the Jacobi equilibration removes: hs = D M D with M mild
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    s = np.logspace(-2, 0, 6)
    m = q @ np.diag(s) @ q.T
    d = np.logspace(-5, 0, 6)
    hs = d[:, None] * (0.5 * (m + m.T)) * d[None, :]
    gs = rng.standard_normal(6)
    exact = -(q @ ((q.T @ (gs / d)) / s)) / d
    assert rel_err(_pd_solve(hs, gs), exact) <= 1e-12
    with pytest.raises(np.linalg.LinAlgError):
        _pd_solve(np.diag([1.0, 1.0, -1e-3, 1.0, 1.0, 1.0]), gs)
