import math

import numpy as np
import pytest

from latfit.core_model import AffinePair, Configuration, local_density
from latfit.fitting import (
    MAX_ITER_H,
    TOL_GRAD,
    BasinEscapeError,
    FitError,
    _newton,
    _Objective,
    a_init_candidates,
    aff_distance,
    fit_global,
    minimize_j_local,
    pack,
    tau_init,
    track_minimizer,
)
from latfit.potentials import c_con
from latfit.topology import find_reparam
from latfit.generators import GeneratorSpec, generate

from conftest import exact_lattice

DENSITY_C = 1e-3


def spanned_lattice_matches(a_found, a_true, tol=1e-6):
    """True when a_found spans the same lattice as a_true (integer unimodular relation)."""
    r = a_found @ np.linalg.inv(a_true)
    rr = np.round(r)
    return (np.max(np.abs(r - rr)) < tol
            and abs(round(float(np.linalg.det(rr)))) == 1)


class TestTauInit:
    def test_exact_phase_recovery(self, params):
        rng = np.random.default_rng(1)
        for _ in range(5):
            tau_true = rng.random(2)
            a = np.eye(2)
            chi = exact_lattice(a, tau_true, params.lam)
            x = rng.uniform(1.0, 5.0, size=2)
            tau = tau_init(a, chi, x, params.lam)
            expected = (tau_true + a @ x) % 1.0
            delta = np.abs(tau - expected)
            delta = np.minimum(delta, 1.0 - delta)
            assert np.max(delta) < 1e-12

    def test_half_cell_shift(self, params):
        chi = exact_lattice(np.eye(2), np.zeros(2), params.lam)
        shifted = Configuration(chi.positions + 0.5, chi.interior, chi.domain,
                                chi.lam, validate=False)
        x = np.array([3.0, 3.0])
        t0 = tau_init(np.eye(2), chi, x, params.lam)
        t1 = tau_init(np.eye(2), shifted, x, params.lam)
        delta = np.abs((t1 - t0 - 0.5) % 1.0)
        delta = np.minimum(delta, 1.0 - delta)
        assert np.max(delta) < 1e-12

    def test_empty_ball_errors(self, params):
        from latfit.core_model import Box
        box = Box(np.zeros(2), np.ones(2))
        chi = Configuration(np.empty((0, 2)), np.empty(0, dtype=bool), box, params.lam)
        with pytest.raises(FitError, match="no atoms"):
            tau_init(np.eye(2), chi, np.array([0.5, 0.5]), params.lam)


class TestAInitCandidates:
    def test_square_lattice_recovered(self, params):
        a_true = np.array([[1.0, 0.15], [-0.1, 0.9]])
        chi = exact_lattice(a_true, np.array([0.2, 0.6]), params.lam)
        cands = a_init_candidates(chi, np.array([3.0, 3.0]), lam=params.lam)
        assert any(spanned_lattice_matches(a, a_true) for a in cands)

    def test_hexagonal_lattice_recovered(self, params):
        a_inv = np.column_stack([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
        a_true = np.linalg.inv(a_inv)
        chi = exact_lattice(a_true, np.zeros(2), params.lam)
        cands = a_init_candidates(chi, np.array([3.0, 3.0]), lam=params.lam)
        assert any(spanned_lattice_matches(a, a_true) for a in cands)

    def test_random_gas_returns_candidates(self, params):
        from latfit.core_model import Box
        rng = np.random.default_rng(9)
        box = Box(np.zeros(2), np.full(2, 6.0))
        pts = rng.uniform(-4 * params.lam, 6 + 4 * params.lam, size=(6000, 2))
        pts = pts[box.contains(pts, pad=4 * params.lam)]
        chi = Configuration(pts, box.contains(pts), box, params.lam)
        cands = a_init_candidates(chi, np.array([3.0, 3.0]), lam=params.lam)
        assert len(cands) >= 1
        fit = fit_global(chi, np.array([3.0, 3.0]), params)  # no crash, high J
        assert fit.breakdown.j_term > 1e-3

    def test_too_few_atoms(self, params):
        from latfit.core_model import Box
        box = Box(np.zeros(2), np.ones(2))
        pts = np.array([[0.5, 0.5], [0.6, 0.6]])
        chi = Configuration(pts, np.array([True, True]), box, params.lam)
        with pytest.raises(FitError, match="too few"):
            a_init_candidates(chi, np.array([0.5, 0.5]), lam=params.lam)


class TestMinimizeJLocal:
    def test_exact_minimizer_unchanged(self, params, chi_perfect):
        x = np.array([20.0, 20.0])
        aff = AffinePair(np.eye(2), x % 1.0)
        bp = minimize_j_local(aff, chi_perfect, x, params)
        assert bp.iterations == 0
        assert np.allclose(bp.aff_tilde.A, aff.A)
        assert np.allclose(bp.aff_tilde.tau, aff.tau)

    def test_distance_bound_from_true_lattice(self, params, chi_noise):
        # |aff0 - aff~|_lam <= sqrt(J(aff0) / (C_con |A0^{-1}|^2 rho / 2))
        from latfit.core_model import j_lambda
        x = np.array([20.0, 20.0])
        aff0 = AffinePair(np.eye(2), np.zeros(2))
        j0 = j_lambda(aff0, chi_noise, x, params.lam)
        bp = minimize_j_local(aff0, chi_noise, x, params)
        rho = local_density(chi_noise, x, params.lam)
        ccv = c_con(rho, 1.0, 2, params.constants)
        bound = math.sqrt(j0 / (0.5 * ccv * 2.0 * rho))
        assert aff_distance(bp.aff_tilde, aff0, params.lam) <= bound
        assert bp.j_value <= j0  # descent

    def test_warns_on_irregular_start(self, params, chi_noise):
        aff = AffinePair(1.7 * np.eye(2), np.zeros(2))
        with pytest.warns(UserWarning, match="irregular"):
            try:
                minimize_j_local(aff, chi_noise, np.array([20.0, 20.0]), params)
            except BasinEscapeError:
                pass

    def test_uniqueness_within_basin(self, params, chi_noise):
        # random starts inside the lambda-ball of radius delta around a regular
        # fit all converge to the same minimizer
        x = np.array([20.0, 20.0])
        fit = fit_global(chi_noise, x, params)
        base = minimize_j_local(fit.aff_hat, chi_noise, x, params, check_regular=False)
        rng = np.random.default_rng(12)
        for _ in range(20):
            d_a = rng.standard_normal((2, 2))
            d_t = rng.standard_normal(2)
            norm = math.sqrt(params.lam**2 * np.sum(d_a**2) + np.sum(d_t**2))
            scale = rng.uniform(0.0, 0.2) / norm
            start = AffinePair(base.aff_tilde.A + scale * d_a, base.aff_tilde.tau + scale * d_t)
            bp = minimize_j_local(start, chi_noise, x, params, check_regular=False)
            assert aff_distance(bp.aff_tilde, base.aff_tilde, params.lam) < 1e-8


def test_newton_exits(params, chi_noise):
    # from A = 1.1 I, tau = 0 Newton on h needs 14 steps; h > 0 everywhere
    x = np.array([20.0, 20.0])
    obj = _Objective(chi_noise, x, params, j_only=False)
    theta0 = pack(AffinePair(1.1 * np.eye(2), np.zeros(2)))
    h0 = obj.value(theta0)
    full = _newton(obj, theta0, TOL_GRAD, MAX_ITER_H, require_pd=False)
    assert full.converged and full.iterations > 10

    aborted = _newton(obj, theta0, TOL_GRAD, MAX_ITER_H, require_pd=False, abort_above=0.0)
    assert not aborted.converged and aborted.iterations == 10
    assert obj.value(full.theta) < obj.value(aborted.theta) < h0

    capped = _newton(obj, theta0, TOL_GRAD, 3, require_pd=False)
    assert not capped.converged and capped.iterations == 3
    assert capped.grad_norm > TOL_GRAD
    assert obj.value(capped.theta) < h0

    flipped = np.array([1.0, 0.0, 0.0, -1.0, 0.0, 0.0])    # A = diag(1, -1), tau = 0
    with pytest.raises(FitError, match="det A <= 0"):
        _newton(obj, flipped, TOL_GRAD, MAX_ITER_H, require_pd=False)


class TestFitGlobal:
    def test_e_lattice_fit(self, params):
        # the reference lattice itself: F(E) = 0, only the density residual remains
        e_mat = params.elastic.E
        chi = exact_lattice(e_mat, np.array([0.3, 0.7]), params.lam)
        fit = fit_global(chi, np.array([3.0, 3.0]), params)
        assert fit.breakdown.total <= params.vartheta * DENSITY_C / params.lam**2
        assert spanned_lattice_matches(fit.aff_hat.A, e_mat, tol=1e-4)
        assert np.all(fit.aff_hat.tau >= 0.0) and np.all(fit.aff_hat.tau < 1.0)

    def test_strained_lattice_fit(self, params):
        # a non-reference lattice: h_hat is dominated by the elastic density,
        # bounded by F at the true parameters (the fit can only improve on it)
        a_true = np.array([[1.05, 0.1], [0.0, 0.95]])
        chi = exact_lattice(a_true, np.array([0.3, 0.7]), params.lam)
        fit = fit_global(chi, np.array([3.0, 3.0]), params)
        assert fit.breakdown.total <= params.elastic.f_el(a_true) + 1e-9
        assert spanned_lattice_matches(fit.aff_hat.A, a_true, tol=1e-2)

    def test_breakdown_consistency(self, params, chi_noise):
        fit = fit_global(chi_noise, np.array([22.0, 17.0]), params)
        bd = fit.breakdown
        assert bd.total == pytest.approx(bd.f_term + bd.j_term + bd.nu_term, rel=1e-14)
        assert bd.total >= max(bd.f_term, bd.j_term, bd.nu_term)

    def test_vacancy_fit(self, params, chi_vacancies):
        fit = fit_global(chi_vacancies, np.array([20.0, 20.0]), params)
        assert fit.breakdown.nu_term == pytest.approx(
            0.1 * params.vartheta * np.linalg.det(fit.aff_hat.A), rel=0.15)
        assert spanned_lattice_matches(fit.aff_hat.A, np.eye(2), tol=1e-2)

    def test_low_energy_implies_regular(self, params, chi_noise):
        from latfit.core_model import is_regular_pair, low_energy_thresholds
        eps_hat = params.low_energy_cutoff()
        thr = low_energy_thresholds(eps_hat, params)
        rng = np.random.default_rng(2)
        for _ in range(6):
            x = rng.uniform(10.0, 30.0, size=2)
            fit = fit_global(chi_noise, x, params)
            if fit.breakdown.total <= eps_hat:
                ok, report = is_regular_pair(x, fit.aff_hat, chi_noise, params, thr)
                assert ok, report

    def test_reparam_equivariant_warm_start(self, params, chi_noise):
        from latfit.topology import Reparam
        x = np.array([20.0, 20.0])
        fit = fit_global(chi_noise, x, params)
        b = Reparam(np.array([[1, 1], [0, 1]]), np.array([2, -1]))
        warm = b.apply(fit.aff_hat)
        fit_b = fit_global(chi_noise, x, params, warm_starts=[warm])
        step = find_reparam((x, fit_b.aff_hat), (x, fit.aff_hat), chi_noise, params)
        # the two fits describe the same lattice: exact integer relation
        assert step.delta_a < 1e-7
        assert step.delta_tau < 1e-7

    def test_no_candidates_errors(self, params):
        from latfit.core_model import Box
        box = Box(np.zeros(2), np.ones(2))
        chi = Configuration(np.array([[0.5, 0.5]]), np.array([True]), box, params.lam)
        with pytest.raises(FitError):
            fit_global(chi, np.array([0.5, 0.5]), params)


class TestTrackMinimizer:
    def test_constant_path_exact_transport(self, params, chi_perfect):
        x0 = np.array([16.0, 20.0])
        fit = fit_global(chi_perfect, x0, params)
        bp0 = minimize_j_local(fit.aff_hat, chi_perfect, x0, params, check_regular=False)
        path = np.array([x0, x0 + [2.0, 0.0], x0 + [4.0, 0.0], x0 + [6.0, 0.0]])
        out = track_minimizer(bp0, path, chi_perfect, params)
        assert len(out) == 4
        for prev, cur in zip(out[:-1], out[1:]):
            assert np.allclose(cur.aff_tilde.A, prev.aff_tilde.A, atol=1e-7)
            pred_tau = prev.aff_tilde.tau + prev.aff_tilde.A @ (cur.position - prev.position)
            assert np.allclose(cur.aff_tilde.tau, pred_tau, atol=1e-7)

    def test_sheared_lattice_matches_pointwise_fits(self, params):
        chi, truth = generate(GeneratorSpec(kind="shear", gamma=0.02, domain_lo=(0, 0),
                                            domain_hi=(40, 40), lam=params.lam))
        x0 = np.array([14.0, 20.0])
        fit = fit_global(chi, x0, params)
        bp0 = minimize_j_local(fit.aff_hat, chi, x0, params, check_regular=False)
        path = np.array([x0 + [2.0 * k, 0.5 * k] for k in range(6)])
        out = track_minimizer(bp0, path, chi, params)
        assert len(out) == 6
        for bp in out[1:]:
            local = fit_global(chi, bp.position, params)
            step = find_reparam((bp.position, bp.aff_tilde),
                                (bp.position, local.aff_hat), chi, params)
            # same branch: the residual is the small J-vs-h minimizer offset
            assert step.delta_a < 5e-4
            assert step.gap < 1e-3

    def test_step_cap_enforced(self, params, chi_perfect):
        x0 = np.array([16.0, 20.0])
        fit = fit_global(chi_perfect, x0, params)
        bp0 = minimize_j_local(fit.aff_hat, chi_perfect, x0, params, check_regular=False)
        path = np.array([x0, x0 + [params.lam, 0.0]])
        with pytest.raises(ValueError, match="lam/4"):
            track_minimizer(bp0, path, chi_perfect, params)

    def test_gradient_bound_along_path(self, params):
        # finite differences of the tracked branch obey the first-gradient bound
        chi, _ = generate(GeneratorSpec(kind="noise", sigma=0.02, seed=21,
                                        domain_lo=(0, 0), domain_hi=(40, 40), lam=params.lam))
        x0 = np.array([14.0, 20.0])
        fit = fit_global(chi, x0, params)
        bp0 = minimize_j_local(fit.aff_hat, chi, x0, params, check_regular=False)
        h = 1.5
        path = np.array([x0 + [h * k, 0.0] for k in range(7)])
        out = track_minimizer(bp0, path, chi, params)
        assert len(out) == 7
        dc = params.constants
        lam = params.lam
        e1 = np.array([1.0, 0.0])
        for prev, mid, nxt in zip(out[:-2], out[1:-1], out[2:]):
            d_a = (nxt.aff_tilde.A - prev.aff_tilde.A) / (2 * h)
            d_tau = (nxt.aff_tilde.tau - prev.aff_tilde.tau) / (2 * h)
            lhs = lam**2 * float(np.sum(d_a**2)) + float(np.sum((d_tau - mid.aff_tilde.A @ e1) ** 2))
            rho = local_density(chi, mid.position, lam)
            rho2 = local_density(chi, mid.position, 2 * lam)
            nai = float(np.sum(np.linalg.inv(mid.aff_tilde.A) ** 2))
            ccv = c_con(rho, float(np.linalg.det(mid.aff_tilde.A)), 2, dc)
            rhs = (mid.j_value * dc.alpha_nabla * 2.0**2 * dc.norm_grad_sqrt_phi**2 * rho2
                   / (ccv**2 * nai * rho**2 * lam**2))
            assert lhs <= rhs
