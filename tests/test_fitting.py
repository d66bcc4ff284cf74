import math
from dataclasses import replace

import kernel_oracles as oracle
import numpy as np
import pytest

from latfit import core_model, fitting
from latfit.core_model import AffinePair, Box, Configuration, local_density, low_energy_thresholds
from latfit.fields import GridGeometry, evaluate_grid
from latfit.fitting import (
    COPY_TOL,
    MAX_ITER_H,
    TOL_GRAD,
    FitError,
    _newton,
    _Objective,
    a_init_candidates,
    aff_distance,
    fit_global,
    fit_loop,
    minimize_j_local,
    pack,
    tau_init,
    transport,
)
from latfit.potentials import c_con
from latfit.topology import densify_loop, find_reparam
from latfit.generators import edge_dipole

from conftest import assert_same_fit, exact_lattice

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


def test_fit_at_a_non_finite_point_is_a_named_error(params, chi_noise):
    """A multistart at a point with an inf or NaN coordinate raises the gather's ValueError.

    The query names the point before any cell index is computed from it (an
    inf coordinate used to overflow in the cell box, a NaN one to fail to
    convert to an integer).
    """
    for x in ([math.inf, 1.0], [1.0, -math.inf], [math.nan, 20.0]):
        with pytest.raises(ValueError, match="query point must be finite"):
            fit_global(chi_noise, x, params)


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

    def test_uniqueness_within_basin(self, params, chi_noise):
        # random starts inside the lambda-ball of radius delta around a regular
        # fit all converge to the same minimizer
        x = np.array([20.0, 20.0])
        fit = fit_global(chi_noise, x, params)
        base = minimize_j_local(fit.aff_hat, chi_noise, x, params)
        rng = np.random.default_rng(12)
        for _ in range(20):
            d_a = rng.standard_normal((2, 2))
            d_t = rng.standard_normal(2)
            norm = math.sqrt(params.lam**2 * np.sum(d_a**2) + np.sum(d_t**2))
            scale = rng.uniform(0.0, 0.2) / norm
            start = AffinePair(base.aff_tilde.A + scale * d_a, base.aff_tilde.tau + scale * d_t)
            bp = minimize_j_local(start, chi_noise, x, params)
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


def test_ridge_cut_reaches_the_same_minimizer_in_fewer_steps(params, chi_noise):
    """A = 1.1 I is far off det A = rho; cut at the nu ridge, Newton reaches the uncut minimizer sooner.

    Uncut, the first steps overshoot the ridge the smoothed nu hides within
    eps_nu and back off by halving; cut, each crossing step stops on the
    linearized ridge.  Trials are the rows of every `_value` call.
    """
    x = np.array([20.0, 20.0])
    obj = _Objective(chi_noise, x, params, j_only=False)
    theta0 = pack(AffinePair(1.1 * np.eye(2), np.zeros(2)))
    assert abs(np.linalg.det(1.1 * np.eye(2)) - obj.rho[0]) > 1e4 * obj.eps_nu[0]
    value = obj._value
    runs = {}
    for cut in (False, True):
        trials = []

        def counting_value(theta, points, trials=trials):
            trials.append(len(theta))
            return value(theta, points)

        obj._value = counting_value
        runs[cut] = _newton(obj, theta0, TOL_GRAD, MAX_ITER_H, require_pd=False,
                            ridge_cut=cut), sum(trials)
    del obj._value
    (plain, plain_trials), (cut, cut_trials) = runs[False], runs[True]
    assert plain.converged and cut.converged
    assert abs(cut.value - plain.value) <= 1e-12
    assert np.max(np.abs(cut.theta - plain.theta)) <= COPY_TOL
    assert cut.iterations < plain.iterations and cut_trials < plain_trials


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
                ok, report = is_regular_pair(x, fit.aff_hat, chi_noise,
                                             replace(params, thresholds=thr))
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
        box = Box(np.zeros(2), np.ones(2))
        chi = Configuration(np.array([[0.5, 0.5]]), np.array([True]), box, params.lam)
        with pytest.raises(FitError):
            fit_global(chi, np.array([0.5, 0.5]), params)

    def test_tied_copies_report_the_earliest_start(self, params8, monkeypatch):
        # Next to the left core of an edge dipole (the perfbench dipole-defects
        # geometry at seed 3), three of the four starts reach one minimizer.  Their
        # copies differ in the last bits, so a lexicographic pick among them follows
        # roundoff: a C_phi one to three ulps off moved the reported iterations
        # between 21 and 18.
        shift = np.random.default_rng(3).uniform(0.0, 1.0, size=2) - 0.5
        box = Box(np.array([-24.0, -24.0]), np.array([24.0, 24.0]))
        chi, _ = edge_dipole(box, params8.lam, core1=np.array([-6.5, 0.5]) + shift,
                             core2=np.array([7.5, 0.5]) + shift)
        x = np.array([-8.0, 0.0])
        base = fit_global(chi, x, params8)
        c_phi = core_model.cphi(2)
        for toward in (math.inf, -math.inf):
            c_moved = c_phi
            for _ in range(3):
                c_moved = math.nextafter(c_moved, toward)
                monkeypatch.setattr(core_model, "cphi", lambda d, c=c_moved: c)
                moved = fit_global(chi, x, params8)
                assert aff_distance(moved.aff_hat, base.aff_hat, params8.lam) <= 1e-9
                assert moved.iterations == base.iterations


class TestContinuationStartsOnTheRidge:
    """Continuation steps start Newton at det A = rho(x); multistart starts arrive as given."""

    @staticmethod
    def record_newton(mp):
        """(objective, starts, made by a multistart, row points) of every `_newton` call."""
        calls = []
        inside = [0]                # open `fit_global_stack` calls
        stack = fitting.fit_global_stack

        def recording_fit_global_stack(*args, **kwargs):
            inside[0] += 1
            try:
                return stack(*args, **kwargs)
            finally:
                inside[0] -= 1

        def recording_newton(obj, theta0, *args, **kwargs):
            calls.append((obj, np.array(theta0, dtype=float), inside[0] > 0,
                          kwargs.get("points")))
            return _newton(obj, theta0, *args, **kwargs)

        mp.setattr(fitting, "_newton", recording_newton)
        mp.setattr(fitting, "fit_global_stack", recording_fit_global_stack)
        return calls

    @staticmethod
    def h_starts(calls):
        """The start rows of the multistarts' Newtons on h."""
        return [row for obj, theta0, multistart, _ in calls if multistart and not obj.j_only
                for row in theta0]

    @staticmethod
    def continuation_rows(calls):
        """(det A, rho) of every start row of the continuation Newtons on h (`_fit_from_rows`)."""
        rows = []
        for obj, theta0, multistart, points in calls:
            if theta0.ndim == 2 and not obj.j_only and not multistart:
                a = theta0[:, : obj.d * obj.d].reshape(-1, obj.d, obj.d)
                rho = obj.rho[points]
                assert len(rho) == len(a)
                rows.extend(zip(np.linalg.det(a), rho))
        return rows

    @pytest.fixture(scope="class")
    def base_fit(self, params, chi_noise):
        return fit_global(chi_noise, np.array([20.0, 20.0]), params)

    def test_fit_from_stack_loop_and_grid_start_on_the_ridge(self, params, chi_noise, base_fit):
        y = base_fit.position
        xs = [y + [2.5, 0.0], y + [0.0, -2.5], y + [1.5, 1.5]]
        ends = [(y, AffinePair(f * base_fit.aff_hat.A, base_fit.aff_hat.tau))
                for f in (1.0, 1.04, 0.97)]
        corners = y + 4.0 * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0],
                                      [-1.0, -1.0]])
        loop = densify_loop(corners, 3.0)[:-1]
        with pytest.MonkeyPatch.context() as mp:
            calls = self.record_newton(mp)
            fitting._continue(ends, chi_noise, xs, params)
            n_stack = len(self.continuation_rows(calls))
            fit_loop(chi_noise, loop, params)
            n_loop = len(self.continuation_rows(calls))
            evaluate_grid(chi_noise, GridGeometry(origin=(17.0, 17.0), h=3.0, nx=3, ny=3), params)
        rows = self.continuation_rows(calls)
        # 3 stacked rows, 2 per loop step (both sweeps), one per grid node after the first
        assert (n_stack, n_loop - n_stack, len(rows) - n_loop) == (3, 2 * (len(loop) - 1), 8)
        for det_a, rho in rows:
            assert abs(det_a - rho) <= 1e-12 * rho

    def test_multistart_and_guard_starts_are_not_projected(self, params, chi_noise, base_fit):
        x = base_fit.position
        warm = (AffinePair(1.05 * base_fit.aff_hat.A, base_fit.aff_hat.tau),
                AffinePair(0.96 * base_fit.aff_hat.A, base_fit.aff_hat.tau + 0.1))
        other = replace(base_fit, aff_hat=warm[1],
                        breakdown=replace(base_fit.breakdown, total=base_fit.breakdown.total + 1.0))
        pre = []
        half_stage = fitting._half_stage

        def recording_half_stage(*args):
            out = half_stage(*args)
            pre.extend(out[0])
            return out

        with pytest.MonkeyPatch.context() as mp:
            calls = self.record_newton(mp)
            mp.setattr(fitting, "_half_stage", recording_half_stage)
            fit_global(chi_noise, x, params, warm_starts=warm)
            h_starts = self.h_starts(calls)
            assert len(pre) > 0
            expected = pre + [pack(a) for a in warm]
            assert len(h_starts) == len(expected)
            assert all(np.array_equal(h, e) for h, e in zip(h_starts, expected))
            # a guard that fires hands both fits to the multistart unscaled
            n_before = len(calls)
            fitting._guard(replace(base_fit, aff_hat=warm[0]), other, chi_noise, params)
            guard_starts = self.h_starts(calls[n_before:])
        assert np.array_equal(guard_starts[-2], pack(warm[0]))
        assert np.array_equal(guard_starts[-1], pack(warm[1]))
        assert not self.continuation_rows(calls)

    def test_fit_from_ignores_the_predictor_scale(self, params, chi_noise, base_fit):
        y = base_fit.position
        x = y + [2.0, -1.0]
        pred = transport(y, base_fit.aff_hat, x)
        ref = oracle.fit_from(pred, chi_noise, x, params)
        assert ref.converged and ref.regular
        for factor in (0.9, 1.07):
            out = oracle.fit_from(AffinePair(factor * pred.A, pred.tau), chi_noise, x, params)
            assert np.max(np.abs(out.aff_hat.A - ref.aff_hat.A)) <= 1e-12
            assert np.max(np.abs(out.aff_hat.tau - ref.aff_hat.tau)) <= 1e-12
            assert abs(out.breakdown.total - ref.breakdown.total) <= 1e-12


def test_continue_with_every_row_accepted_runs_no_multistart(params, chi_noise):
    """A `_continue` whose steps all converge regular calls no `fit_global_stack`.

    Its rows are the continuation steps alone, bit for bit.  Mutation caught:
    calling `fit_global_stack` with the empty list of refused rows.
    """
    base = fit_global(chi_noise, np.array([20.0, 20.0]), params)
    y, aff = base.position, base.aff_hat
    xs = [y + [1.5, 0.0], y + [0.0, -1.5], y + [1.0, 1.0]]
    multistarts = []
    stack = fitting.fit_global_stack

    def recording_fit_global_stack(chi, xs, *args, **kwargs):
        multistarts.append(len(xs))
        return stack(chi, xs, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "fit_global_stack", recording_fit_global_stack)
        outs = fitting._continue([(y, aff)] * len(xs), chi_noise, xs, params)
    assert multistarts == []
    for x, out in zip(xs, outs):
        assert_same_fit(out, oracle.fit_from(transport(y, aff, x), chi_noise, x, params))
        assert out.converged and out.regular


def test_continue_rows_match_one_row_runs(params, chi_noise):
    """A mixed `_continue` stack: each row is its one-row run bit for bit, a FitError in place."""
    base = fit_global(chi_noise, np.array([20.0, 20.0]), params)
    y, aff = base.position, base.aff_hat
    th = 0.3
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    tight = replace(params, thresholds=low_energy_thresholds(0.01, params))
    # accepted step, no end, step into a higher basin, step and no end outside the atoms
    ends = [(y, aff), None, (y, AffinePair(rot @ aff.A, aff.tau)), (y, aff), None]
    xs = [y + [2.5, 0.0], y + [0.0, -2.5], y + [1.5, 1.5], np.array([200.0, 200.0]),
          np.array([-150.0, 3.0])]
    gathered = []
    stepped = []
    fit_from_rows = fitting._fit_from_rows

    def recording_fit_from_rows(obj, affs, xs, *args):
        gathered.append(len(obj.rho))
        stepped.extend(tuple(x) for x in xs)
        return fit_from_rows(obj, affs, xs, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "_fit_from_rows", recording_fit_from_rows)
        outs = fitting._continue(ends, chi_noise, xs, tight)
        assert gathered == [3]          # the rows with an end, and only those, are gathered
        fitting._continue([None, None], chi_noise, xs[:2], tight)
        assert gathered == [3]          # no end, no continuation objective
        ones = [fitting._continue([end], chi_noise, [x], tight)[0]
                for end, x in zip(ends, xs)]
    # (200, 200) has no atoms in range (rho = 0): its row goes straight to the multistart
    assert stepped == [tuple(xs[0]), tuple(xs[2])] * 2
    for one, out in zip(ones, outs):
        if isinstance(one, FitError):
            assert isinstance(out, FitError) and str(out) == str(one)
        else:
            assert_same_fit(out, one)
    steps = [oracle.fit_from(transport(*end, x), chi_noise, x, tight)
             for end, x in zip(ends, xs) if end is not None]
    assert [(s.converged, s.regular) for s in steps] == [(True, True), (True, False),
                                                         (True, False)]
    assert_same_fit(outs[0], steps[0])
    for k in (1, 2):
        assert_same_fit(outs[k], fit_global(chi_noise, xs[k], tight))
    assert outs[2].regular and outs[2].breakdown.total < steps[1].breakdown.total
    assert [str(o) for o in outs[3:]] == ["no fit candidates at [200. 200.]",
                                         "no fit candidates at [-150.    3.]"]
