"""The closed tensor forms of the fit kernels against their loop-form oracles.

`assemble_j`, `_g_hess`, `ElasticDensity.f_el_hess` and `_Objective` compute
the same quantities as the per-entry assemblies in `kernel_oracles`, in a
different floating-point order; they must agree to 1e-12 relative.  F's
closed-form d = 2 value and gradient must agree with the singular-value forms
to the same tolerance.  A stack of K starts must give, row for row, exactly
the bits of K single calls, in the kernels and through `_newton`'s exits,
also when each row has its own gather of its own length, its abort bar
arrives late or its steps are cut at the nu ridge, and `a_init_candidates`,
one point or a round of them, exactly the loop form's candidates.  The
batched Newton step `_newton_steps` must make the per-row loop's
positive-definite and escape decisions and give its steps to 1e-12
relative, on synthetic stacks and on stacks recorded from a dipole grid
window.  `local_atoms` at G points must give each point the per-point cell
scan's gather bit for bit, and an `_Objective` the arrays of one
`gather_weights` call per point.
"""

import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import kernel_oracles as oracle
from conftest import assert_same_fit, exact_lattice
from latfit import core_model, fileio, fitting
from latfit.core_model import (
    AffinePair,
    Box,
    Configuration,
    _g_hess,
    assemble_j,
    gather_weights,
    is_regular_pair,
    low_energy_thresholds,
    pre_energy,
)
from latfit.fields import GridGeometry, evaluate_grid
from latfit.fitting import (
    MAX_ITER_H,
    TOL_GRAD,
    BasinEscapeError,
    FitError,
    _exact,
    _fit_from_rows,
    _newton,
    _newton_steps,
    _Objective,
    _on_ridge,
    _ridge_cut,
    a_init_candidates,
    fit_global,
    fit_global_stack,
    minimize_j_local,
    minimize_j_stack,
    pack,
    unpack,
)
from latfit.generators import Box as GenBox
from latfit.generators import edge_dipole
from latfit.potentials import ElasticDensity, default_elastic

DATA = Path(__file__).parent / "data"

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


def kernel_row(hs, gs, require_pd, f=0.0, tol_grad=TOL_GRAD):
    """`_newton_steps` on one row, as a one-row stack; the outputs for that row."""
    out = _newton_steps(gs[None], hs[None], np.array([f]), tol_grad, require_pd)
    return tuple(v[0] for v in out)


def test_newton_steps_match_exact_solution_and_refuse_indefinite():
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
    # scaled so that the exact step is shorter than STEP_CAP and comes back uncapped
    shrink = 0.5 / np.linalg.norm(exact)
    step = kernel_row(hs, shrink * gs, require_pd=True, tol_grad=0.0)[3]
    assert rel_err(step, shrink * exact) <= 1e-12
    _, converged, escaped, *_ = kernel_row(np.diag([1.0, 1.0, -1e-3, 1.0, 1.0, 1.0]), gs,
                                           require_pd=True)
    assert escaped and not converged


def assert_rows_match_oracle(gs, hs, f_rows, tol_grad, require_pd):
    """Each row of `_newton_steps` against the per-row oracle, and bit for bit as a one-row stack."""
    out = _newton_steps(gs, hs, f_rows, tol_grad, require_pd)
    for k in range(len(gs)):
        gn, converged, escaped, step, slope, blind = (v[k] for v in out)
        alone = kernel_row(hs[k], gs[k], require_pd, f_rows[k], tol_grad)
        assert all(np.array_equal(a, b) for a, b in zip((v[k] for v in out), alone))
        ref = oracle.newton_step(gs[k], hs[k], f_rows[k], tol_grad, require_pd)
        assert abs(gn - ref[0]) <= 1e-15 * ref[0]
        assert (converged, escaped) == ref[1:3]
        if ref[3] is not None:
            assert rel_err(step, ref[3]) <= RTOL
            assert abs(slope - ref[4]) <= RTOL * abs(ref[4])
            assert blind == ref[5]
    return out


def mixed_stack(rng):
    """Rows that are positive definite, indefinite, singular, converged, and beyond the step cap."""
    def spd(cond, scale):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        m = q @ np.diag(np.logspace(-np.log10(cond), 0, 6)) @ q.T
        return scale[:, None] * (0.5 * (m + m.T)) * scale[None, :]

    wide = np.logspace(-5, 0, 6)
    indefinite = spd(10.0, wide)
    indefinite[2, 2] = -indefinite[2, 2]
    ones_block = np.eye(6)
    ones_block[:2, :2] = 1.0
    hs = np.stack([spd(100.0, wide), spd(10.0, np.ones(6)), indefinite,
                   -spd(10.0, np.ones(6)), np.diag([1.0, 1.0, 0.0, 1.0, 1.0, 1.0]), ones_block,
                   spd(100.0, wide), np.zeros((6, 6)), spd(10.0, np.ones(6))])
    gs = 1e-3 * rng.standard_normal((len(hs), 6))
    gs[1] *= 1e4                    # a step beyond the cap
    gs[6] = 0.0                     # converged at a positive definite Hessian
    gs[7] = 0.0                     # converged at a zero Hessian
    gs[8] = 1e-12                   # converged: below tol_grad
    return gs, hs, rng.uniform(0.0, 1.0, len(hs))


@pytest.mark.parametrize("require_pd", [False, True], ids=["floored", "require_pd"])
def test_newton_steps_match_per_row_oracle_on_mixed_stacks(require_pd):
    gs, hs, f_rows = mixed_stack(np.random.default_rng(12))
    _, converged, escaped, step, _, _ = assert_rows_match_oracle(gs, hs, f_rows, TOL_GRAD,
                                                                 require_pd)
    assert converged.tolist() == [False] * 6 + [True] * 3
    assert escaped.tolist() == [False, False] + [require_pd] * 4 + [False] * 3
    assert np.linalg.norm(step[1]) == pytest.approx(1.0, abs=1e-15)     # capped


@pytest.mark.parametrize("require_pd", [False, True], ids=["floored", "require_pd"])
def test_newton_steps_raise_no_warning_on_singular_and_converged_rows(require_pd):
    gs, hs, f_rows = mixed_stack(np.random.default_rng(13))
    basis = np.random.default_rng(17).standard_normal((6, 5))
    hs[0] = basis @ basis.T         # rank 5: its smallest eigenvalue is roundoff (+6e-16 here)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _newton_steps(gs, hs, f_rows, TOL_GRAD, require_pd)
    assert all(np.all(np.isfinite(v)) for v in out)
    assert out[2][0] == require_pd      # not positive definite to roundoff: escapes


@pytest.fixture(scope="module")
def recorded_stacks(params8):
    """Every stack `_newton` hands the kernel on a tight-threshold grid window at a dipole core.

    The window has continuation rounds, branch minimizers (require_pd) and
    multistart fallbacks; the stacks of their lam/2 stages come back apart.
    """
    box = GenBox(np.array([-24.0, -24.0]), np.array([24.0, 24.0]))
    chi, _ = edge_dipole(box, params8.lam, core1=(-6.5, 0.5), core2=(7.5, 0.5))
    tight = low_energy_thresholds(0.01, params8)
    stacks, half = [], []
    half_stage = fitting._half_stage

    def recording_steps(gs, hs, f_rows, tol_grad, require_pd):
        stacks.append((gs, hs, f_rows, tol_grad, require_pd))
        return _newton_steps(gs, hs, f_rows, tol_grad, require_pd)

    def recording_half_stage(*args):
        first = len(stacks)
        out = half_stage(*args)
        half.extend(range(first, len(stacks)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "_newton_steps", recording_steps)
        mp.setattr(fitting, "_half_stage", recording_half_stage)
        evaluate_grid(chi, GridGeometry(origin=(-10.0, -4.0), h=2.0, nx=4, ny=3), params8,
                      thresholds=tight)
    return stacks, half


def test_newton_steps_match_per_row_oracle_on_recorded_stacks(recorded_stacks):
    stacks, half = recorded_stacks
    grid = [k for k in range(len(stacks)) if k not in half]
    assert half and grid
    assert any(stacks[k][4] for k in grid)            # branch minimizers
    assert max(len(stacks[k][0]) for k in grid) >= 2  # a round's continuation steps
    n_indefinite = 0
    for gs, hs, f_rows, tol_grad, require_pd in stacks:
        _, converged, escaped, *_ = assert_rows_match_oracle(gs, hs, f_rows, tol_grad,
                                                             require_pd)
        n_indefinite += int(np.sum(~converged & ~escaped & (np.linalg.eigvalsh(hs)[:, 0] < 0)))
    assert n_indefinite > 0


@pytest.mark.parametrize("el", [default_elastic(2),
                                ElasticDensity(E=np.array([[1.1, 0.2], [0.0, 0.9]]),
                                               C1_el=1.3, C2_el=0.7)],
                         ids=["identity_E", "general_E"])
def test_f_el_closed_form_matches_svd(el):
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 30:
        a = el.E + 0.3 * rng.standard_normal((2, 2))
        if np.linalg.det(a) < 0.1:
            continue
        ref = oracle.f_el_value(el, a)
        assert abs(el.f_el(a) - ref) <= RTOL * abs(ref)
        assert rel_err(el.f_el_grad(a), oracle.f_el_grad(el, a)) <= RTOL
        checked += 1


def test_f_el_in_3d_matches_svd():
    rng = np.random.default_rng(7)
    el = ElasticDensity(E=np.eye(3) + 0.1 * rng.standard_normal((3, 3)))
    checked = 0
    while checked < 10:
        a = el.E + 0.2 * rng.standard_normal((3, 3))
        if np.linalg.det(a) < 0.1:
            continue
        ref = oracle.f_el_value(el, a)
        assert abs(el.f_el(a) - ref) <= RTOL * abs(ref)
        assert rel_err(el.f_el_grad(a), oracle.f_el_grad(el, a)) <= RTOL
        hess = el.f_el_hess(a)
        assert np.array_equal(hess, hess.T)
        fd = np.empty((9, 9))
        for i in range(9):
            da = np.zeros(9)
            da[i] = 1e-6
            da = da.reshape(3, 3)
            fd[:, i] = (oracle.f_el_grad(el, a + da) - oracle.f_el_grad(el, a - da)).ravel() / 2e-6
        assert rel_err(hess, fd) <= 1e-6
        checked += 1


def stacked_pair(affs):
    """A stack of K pairs on a leading axis, with each pair's own inverse."""
    return SimpleNamespace(A=np.stack([a.A for a in affs]), tau=np.stack([a.tau for a in affs]),
                           ainv=np.stack([a.ainv for a in affs]))


def test_stacked_assemble_j_matches_single_rows(params, chi_noise, regular_thetas):
    x = regular_thetas[0][0]
    affs = [unpack(theta, 2) for _, theta in regular_thetas[:3]]
    for lam in (params.lam, params.lam / 2.0):
        rel, w, c = gather_weights(chi_noise, x, lam)
        val, grad, hess = assemble_j(rel, w, stacked_pair(affs), c)
        only = assemble_j(rel, w, stacked_pair(affs), c, want_grad=False)[0]
        for k, aff in enumerate(affs):
            one_val, one_grad, one_hess = assemble_j(rel, w, aff, c)
            assert val[k] == one_val and only[k] == one_val
            assert np.array_equal(grad[k], one_grad) and np.array_equal(hess[k], one_hess)


@pytest.mark.parametrize("half", [False, True], ids=["lam", "lam_half"])
@pytest.mark.parametrize("j_only", [True, False], ids=["j_only", "full_h"])
def test_stacked_objective_matches_single_rows(params, chi_noise, regular_thetas, half, j_only):
    lam = params.lam / 2.0 if half else params.lam
    obj = _Objective(chi_noise, regular_thetas[0][0], params, j_only=j_only, lam=lam)
    thetas = np.stack([theta for _, theta in regular_thetas[:3]])
    vals = obj.value(thetas)
    val, grad, hess = obj.value_grad_hess(thetas)
    for k, theta in enumerate(thetas):
        one_val, one_grad, one_hess = obj.value_grad_hess(theta)
        assert vals[k] == obj.value(theta) == one_val == val[k]
        assert np.array_equal(grad[k], one_grad) and np.array_equal(hess[k], one_hess)


class _Wall(_Objective):
    """h plus 1 where A_00 > wall: a start on the wall whose Newton step crosses it cannot descend."""

    wall = math.inf

    def _value(self, theta, points):
        val, cos_z = super()._value(theta, points)
        return val + np.where(theta[:, 0] > self.wall, 1.0, 0.0), cos_z


def assert_row_is_single_run(res, k, single):
    assert np.array_equal(res.theta[k], single.theta)
    assert (res.converged[k], res.iterations[k]) == (single.converged, single.iterations)
    assert res.grad_norm[k] == single.grad_norm and res.value[k] == single.value


def test_stacked_newton_rows_match_single_runs(params, chi_noise):
    x = np.array([20.0, 20.0])
    obj = _Wall(chi_noise, x, params, j_only=False)
    start = pack(AffinePair(1.1 * np.eye(2), np.zeros(2)))
    conv = _newton(obj, start, TOL_GRAD, MAX_ITER_H, require_pd=False).theta
    on_wall = conv.copy()
    on_wall[0] -= 0.02
    obj.wall = on_wall[0]
    flipped = np.array([1.0, 0.0, 0.0, -1.0, 0.0, 0.0])
    thetas = np.stack([conv, start, on_wall, flipped])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = _newton(obj, thetas, TOL_GRAD, 3, require_pd=False)
        singles = [_newton(obj, th, TOL_GRAD, 3, require_pd=False) for th in thetas[:3]]
        with pytest.raises(FitError, match="det A <= 0"):
            _newton(obj, flipped, TOL_GRAD, 3, require_pd=False)
    for k, single in enumerate(singles):
        assert_row_is_single_run(res, k, single)
    # converged at once, capped, line-search failure, det A <= 0 start
    assert res.converged.tolist() == [True, False, False, False]
    assert res.iterations.tolist() == [0, 3, 0, 0]
    assert np.array_equal(res.theta[2], on_wall) and res.grad_norm[2] > TOL_GRAD
    assert np.array_equal(res.theta[3], flipped) and res.value[3] == math.inf

    aborted = _newton(obj, thetas[:2], TOL_GRAD, MAX_ITER_H, require_pd=False, abort_above=0.0)
    for k in range(2):
        single = _newton(obj, thetas[k], TOL_GRAD, MAX_ITER_H, require_pd=False, abort_above=0.0)
        assert_row_is_single_run(aborted, k, single)
    assert aborted.iterations.tolist() == [0, 10] and aborted.converged.tolist() == [True, False]


def test_ridge_cut_stack_mixes_cut_and_uncut_rows_as_single_runs(params, chi_noise):
    """Under ridge_cut each row of a stack is its single run bit for bit, cut or not.

    The starts off det A = rho (A = 1.1 I, and 0.93 I scaled onto the ridge,
    whose first steps leave it) take cut steps and end away from their uncut
    runs' bits.  A start at the minimizer and one moved in tau alone stay
    within eps_nu of the ridge and keep their uncut runs' bits.
    """
    x = np.array([20.0, 20.0])
    obj = _Objective(chi_noise, x, params, j_only=False)
    start = pack(AffinePair(1.1 * np.eye(2), np.zeros(2)))
    conv = _newton(obj, start, TOL_GRAD, MAX_ITER_H, require_pd=False).theta
    other = pack(AffinePair(0.93 * np.eye(2), np.array([0.3, 0.6])))
    thetas = np.stack([start, conv, conv + np.array([0.0, 0.0, 0.0, 0.0, 0.05, -0.04]),
                       _on_ridge(other[None], obj.rho, 2)[0]])
    res = _newton(obj, thetas, TOL_GRAD, MAX_ITER_H, require_pd=False, ridge_cut=True)
    moved = []
    for k, theta in enumerate(thetas):
        single = _newton(obj, theta, TOL_GRAD, MAX_ITER_H, require_pd=False, ridge_cut=True)
        assert_row_is_single_run(res, k, single)
        plain = _newton(obj, theta, TOL_GRAD, MAX_ITER_H, require_pd=False)
        moved.append(not np.array_equal(single.theta, plain.theta))
        assert single.converged and single.iterations <= plain.iterations
    assert moved == [True, False, False, True]
    assert res.iterations[2] > 0


def test_ridge_cut_stops_only_steps_that_cross_the_ridge(params, chi_noise):
    """`_ridge_cut` is 1 unless a row more than eps_nu off the ridge steps more than eps_nu across.

    A crossing row stops where its linearized det A meets rho.  A row on
    the ridge, a row stepping along or away from it and a row landing within
    eps_nu beyond it keep the full step, bit for bit.
    """
    x = np.array([20.0, 20.0])
    obj = _Objective(chi_noise, x, params, j_only=False)
    rho, eps = obj.rho[0], obj.eps_nu[0]
    on = _on_ridge(pack(AffinePair(np.eye(2), np.zeros(2)))[None], obj.rho, 2)[0]
    off = pack(AffinePair(1.1 * np.eye(2), np.zeros(2)))
    shrink = np.array([-0.2, 0.0, 0.0, -0.2, 0.3, 0.1])     # det A falls by about 0.4
    to_edge = np.zeros(6)
    to_edge[0] = -(1.21 - rho + 0.5 * eps) / 1.1            # lands eps_nu / 2 beyond rho
    bases = np.stack([off, on, on, off, off, off])
    steps = np.stack([shrink, shrink, -shrink, -shrink,
                      np.array([0.0, 0.1, -0.1, 0.0, 0.5, 0.5]), to_edge])
    t_c = _ridge_cut(obj, bases, steps, np.zeros(len(bases), dtype=int))
    assert 0.0 < t_c[0] < 1.0 and t_c[1:].tolist() == [1.0] * 5
    # the same step a little longer crosses by more than eps_nu: cut
    assert _ridge_cut(obj, off[None], 1.02 * to_edge[None], np.zeros(1, dtype=int))[0] < 1.0
    a = 1.1 * np.eye(2)
    lin = np.linalg.det(a) * (1.0 + t_c[0] * np.trace(np.linalg.inv(a) @ shrink[:4].reshape(2, 2)))
    assert abs(lin - rho) <= 1e-12


def test_continuation_rows_take_cut_steps(params, chi_noise):
    """`_fit_from_rows` runs its Newton under ridge_cut: a row is the cut run from its ridge start."""
    x = np.array([20.0, 20.0])
    obj = _Objective(chi_noise, x, params, j_only=False)
    aff = AffinePair(0.93 * np.eye(2), np.array([0.3, 0.6]))
    start = _on_ridge(pack(aff)[None], obj.rho, 2)[0]
    (fit,) = _fit_from_rows(obj, [aff], x[None], chi_noise, params, np.array([0]))
    cut = _newton(obj, start, TOL_GRAD, MAX_ITER_H, require_pd=False, ridge_cut=True)
    plain = _newton(obj, start, TOL_GRAD, MAX_ITER_H, require_pd=False)
    assert fit.converged and fit.iterations == cut.iterations < plain.iterations
    assert fit.grad_norm == cut.grad_norm
    want = _exact(obj, cut.theta, params)[0]
    assert np.array_equal(fit.aff_hat.A, want.A) and np.array_equal(fit.aff_hat.tau, want.tau)


def test_ridge_cut_leaves_j_only_runs_untouched(params, chi_noise):
    """J has no nu ridge: with ridge_cut a J-only run is the uncut run bit for bit."""
    x = np.array([20.0, 20.0])
    obj = _Objective(chi_noise, x, params, j_only=True)
    thetas = np.stack([pack(AffinePair(1.1 * np.eye(2), np.zeros(2))),
                       pack(AffinePair(0.93 * np.eye(2), np.array([0.3, 0.6])))])
    for require_pd in (False, True):
        plain = _newton(obj, thetas, TOL_GRAD, MAX_ITER_H, require_pd=require_pd)
        cut = _newton(obj, thetas, TOL_GRAD, MAX_ITER_H, require_pd=require_pd, ridge_cut=True)
        for k in range(len(thetas)):
            assert_row_is_single_run(cut, k, SimpleNamespace(
                theta=plain.theta[k], converged=plain.converged[k],
                iterations=plain.iterations[k], grad_norm=plain.grad_norm[k],
                value=plain.value[k]))
            assert cut.escaped[k] == plain.escaped[k]


def test_stacked_newton_rows_keep_their_own_abort_bars(params, chi_noise):
    # a multistart's h stage: each row carries its own point's bar, inf where none is set yet
    x = np.array([20.0, 20.0])
    obj = _Objective(chi_noise, x, params, j_only=False)
    start = pack(AffinePair(1.1 * np.eye(2), np.zeros(2)))
    other = pack(AffinePair(0.93 * np.eye(2), np.array([0.3, 0.6])))
    full = _newton(obj, start, TOL_GRAD, MAX_ITER_H, require_pd=False)
    assert full.converged and full.iterations > 10
    thetas = np.stack([start, start, other, other])
    bars = np.array([0.0, math.inf, full.value, 1e9])
    res = _newton(obj, thetas, TOL_GRAD, MAX_ITER_H, require_pd=False, abort_above=bars)
    for k, (theta, bar) in enumerate(zip(thetas, bars)):
        single = _newton(obj, theta, TOL_GRAD, MAX_ITER_H, require_pd=False,
                         abort_above=bar if math.isfinite(bar) else None)
        assert_row_is_single_run(res, k, single)
        assert res.escaped[k] == single.escaped
    # the same start stops at iteration 10 under its bar and runs on to convergence
    # without one; a start in a higher basin stops under the first start's total
    # and converges under a loose bar
    assert (res.converged[0], res.iterations[0]) == (False, 10)
    assert (res.converged[1], res.iterations[1]) == (True, full.iterations)
    assert res.value[1] == full.value
    assert (res.converged[2], res.iterations[2]) == (False, 10)
    assert res.converged[3] and res.iterations[3] > 10 and res.value[3] > full.value


def test_late_abort_bars_drop_exactly_the_rows_their_bar_stops(params, chi_noise):
    """A bar arriving after iteration 10 drops its row iff a value from iteration 10 on exceeds it.

    Row 0 has no bar; the others' bars are pending (NaN) until row 0 stops,
    as a multistart's later starts wait for its first.  A row whose bar
    arrives is dropped exactly when its run with that bar known from the
    start aborts, and otherwise equals that run bit for bit.  In the first
    stack the bars reach rows still running, in the second rows that have
    stopped; `start` rises by an ulp at its last step, so a bar at its value
    one step before is exceeded only by the step after.
    """
    x = np.array([20.0, 20.0])
    obj = _Objective(chi_noise, x, params, j_only=False)
    start = pack(AffinePair(1.1 * np.eye(2), np.zeros(2)))
    other = pack(AffinePair(0.93 * np.eye(2), np.array([0.3, 0.6])))

    def top(theta, it):
        """The value at the top of iteration it of the run from theta with no bar."""
        return _newton(obj, theta, TOL_GRAD, it, require_pd=False).value

    full = _newton(obj, start, TOL_GRAD, MAX_ITER_H, require_pd=False)
    slow = _newton(obj, other, TOL_GRAD, MAX_ITER_H, require_pd=False)
    assert 10 < full.iterations < slow.iterations
    f10, f_last = top(start, 10), top(start, full.iterations - 1)
    assert top(start, full.iterations) > f_last            # the ulp rise of the last step
    g10 = top(other, 10)
    stacks = [
        # bars reach running rows when `start` converges
        (start, [(other, 1e9, False), (other, g10, False),
                 (other, math.nextafter(g10, -math.inf), True), (other, full.value, True)]),
        # bars reach stopped rows when `other` converges
        (other, [(start, f10, False), (start, math.nextafter(f10, -math.inf), True),
                 (start, f_last, True), (start, 0.0, True), (full.theta, 0.0, False)]),
    ]
    for first, rows in stacks:
        thetas = np.stack([first] + [theta for theta, _, _ in rows])
        late = np.array([bar for _, bar, _ in rows])
        arrivals = []

        def on_stop(done, res):
            if 0 not in done:
                return [], []
            arrivals.append(int(res.iterations[0]))
            return np.arange(1, len(thetas)), late

        bars = np.r_[math.inf, np.full(len(rows), math.nan)]
        res = _newton(obj, thetas, TOL_GRAD, MAX_ITER_H, require_pd=False, abort_above=bars,
                      on_stop=on_stop)
        assert len(arrivals) == 1 and arrivals[0] > 10
        assert not res.aborted[0]
        for k, (theta, bar, dropped) in enumerate(rows, start=1):
            single = _newton(obj, theta, TOL_GRAD, MAX_ITER_H, require_pd=False,
                             abort_above=bar)
            assert res.aborted[k] == single.aborted == dropped, k
            if not dropped:
                assert_row_is_single_run(res, k, single)
    assert full.iterations < arrivals[0]        # the second stack's rows had stopped


def test_aborted_multistart_starts_neither_lower_nor_tie_the_best(params, chi_noise):
    """In the per-start multistart an aborted start's exact total is over its point's best + 1e-12.

    Warm starts in higher basins abort under the bars of the candidates
    before them, at both points.  So the one-stack multistart, which drops
    aborted starts with no exact energy, gives the per-start loop's fits bit
    for bit.
    """
    xs = [[20.0, 20.0], [14.0, 22.0]]
    warm = [(AffinePair(0.93 * np.eye(2), np.array([0.3, 0.6])),
             AffinePair(1.1 * np.eye(2), np.zeros(2))),
            (AffinePair(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2)),)]
    aborted = []
    refs = oracle.fit_global_stack(chi_noise, xs, params, warm_starts=warm, aborted=aborted)
    assert sorted(g for g, _, _ in aborted) == [0, 1]
    assert all(total > best + 1e-12 for _, total, best in aborted)
    for out, ref in zip(fit_global_stack(chi_noise, xs, params, warm_starts=warm), refs):
        assert_same_fit(out, ref)


def test_run_start_energy_is_pre_energy(params, chi_noise):
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = rng.uniform(10.0, 30.0, size=2)
        obj = _Objective(chi_noise, x, params, j_only=False)
        res = _newton(obj, pack(AffinePair(np.eye(2), x % 1.0)), TOL_GRAD, MAX_ITER_H,
                      require_pd=False)
        aff, breakdown = _exact(obj, res.theta, params)
        assert breakdown == pre_energy(aff, chi_noise, x, params)


def test_a_init_candidates_matches_loop_form(params, chi_noise):
    rng = np.random.default_rng(10)
    cases = [(chi_noise, x, params.lam) for x in rng.uniform(8.0, 32.0, size=(25, 2))]
    for a_true in (np.array([[1.0, 0.15], [-0.1, 0.9]]),
                   np.linalg.inv(np.column_stack([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]))):
        chi = exact_lattice(a_true, np.array([0.2, 0.6]), params.lam)
        cases += [(chi, x, params.lam) for x in rng.uniform(1.0, 5.0, size=(5, 2))]
    golden, domain = fileio.load_params(DATA / "params.json")
    positions, interior = fileio.read_atoms_csv(DATA / "golden_atoms.csv")
    chi = fileio.configuration_from_arrays(positions, interior, golden, domain)
    cases += [(chi, x, golden.lam) for x in 0.5 + rng.uniform(-6.0, 6.0, size=(25, 2))]
    for chi, x, lam in cases:
        got = a_init_candidates(chi, x, lam)
        want = oracle.a_init_candidates(chi, x, lam)
        assert len(got) == len(want) > 0
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_half_stage_round_matches_per_point_oracle(params, chi_noise):
    """One `_half_stage` round over mixed points: one A-initialisation, every point the oracle's.

    The clouds sit 1000 apart in one configuration, so each point's lam-ball
    holds its own cloud only.  The round's candidate lists must equal
    `oracle.a_init_candidates` point by point, bit for bit with the signs of
    zeros, and its kept
    starts `oracle.pre_converge`'s to 1e-12: the 10-atom point's stacked
    lam/2 Newton differs from its run alone in the last bit.  Mutation
    caught: leaving the padding differences of the points with fewer than
    48 atoms in place instead of at 1e150.
    """
    rng = np.random.default_rng(11)
    positions, interior = fileio.read_atoms_csv(DATA / "golden_atoms.csv")
    clouds = [(chi_noise.positions, rng.uniform(8.0, 32.0, size=(4, 2))),
              (positions[interior], 0.5 + rng.uniform(-3.0, 3.0, size=(4, 2)))]    # golden core
    for a_true in (np.array([[1.0, 0.15], [-0.1, 0.9]]),
                   np.linalg.inv(np.column_stack([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]))):
        exact = exact_lattice(a_true, np.array([0.2, 0.6]), params.lam)
        clouds.append((exact.positions, rng.uniform(1.0, 5.0, size=(2, 2))))
    clouds.append((rng.uniform(-3.0, 3.0, size=(10, 2)), np.zeros((1, 2))))    # 10 < 48 atoms
    line = np.stack([np.arange(8.0), np.zeros(8)], axis=1)
    clouds.append((line, np.array([[3.5, 0.0]])))                # one direction, no basis
    clouds.append((np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.5, 0.0]])))  # 2 < d + 1
    atoms, xs = [], []
    for k, (cloud, points) in enumerate(clouds):
        atoms.append(cloud + [1000.0 * k, 0.0])
        xs.extend(points + [1000.0 * k, 0.0])
    xs.append(np.array([500.0, 5000.0]))                                         # no atoms
    atoms = np.concatenate(atoms)
    chi = Configuration(atoms, np.ones(len(atoms), dtype=bool),
                        Box(atoms.min(axis=0), atoms.max(axis=0)), params.lam, validate=False)
    rounds = []
    a_init = fitting.a_init_candidates

    def recording_a_init(*args, **kwargs):
        rounds.append(a_init(*args, **kwargs))
        return rounds[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "a_init_candidates", recording_a_init)
        starts = fitting._half_stage(chi, np.array(xs), params)
    assert len(rounds) == 1 and len(rounds[0]) == len(starts) == len(xs)
    for x, got, kept in zip(xs, rounds[0], starts):
        try:
            want = oracle.a_init_candidates(chi, x, params.lam)
        except FitError:
            want = []
        assert len(got) == len(want)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))     # zero signs too
        ref = oracle.pre_converge(want, chi, x, params) if want else []
        assert len(kept) == len(ref)
        assert all(np.max(np.abs(k - pack(r))) <= 1e-12 for k, r in zip(kept, ref))
    assert [len(got) > 0 for got in rounds[0]] == [True] * (len(xs) - 3) + [False] * 3


def test_norm_forms_are_numpys_bit_for_bit():
    """The norms `a_init_candidates` computes in array passes are numpy's, bit for bit.

    `_norms` (components first) is `np.linalg.norm(axis=1)` and the sqrt of
    `np.vecdot` is the 1-D `np.linalg.norm` (a BLAS dot) row by row, on
    thousands of random rows in d = 2 and 3.  Mutations caught: `_norms`
    summing its squares in another order or form, and a row norm taken with
    `np.einsum` or `matmul`, which do not go through the BLAS dot.
    """
    rng = np.random.default_rng(7)
    for d in (2, 3):
        v = rng.standard_normal((4000, d)) * rng.uniform(0.1, 10.0, size=(4000, 1))
        assert np.array_equal(fitting._norms(v.T), np.linalg.norm(v, axis=1))
        assert np.array_equal(np.sqrt(np.vecdot(v, v)), [np.linalg.norm(x) for x in v])


def test_directions_at_the_cluster_tolerance_match_oracle():
    """`_directions` decides membership at its bar, and signs its zeros, as the loop form does.

    Each point holds a difference r and v = r + (e, 0), e = one of the two
    floats next to 0.25 |r|, so v is a member of r's cluster or opens a
    direction of its own depending on the last bit of that bar, the 1-D
    `np.linalg.norm(r)`; the axis-norm form of |r| differs from it in that
    bit at about one point in six.  A last point's cluster sums its second
    components to -0.0, which `members.mean` returns as +0.0.  Every point's
    directions equal `oracle.directions`' bit for bit, zero signs included.
    Mutations caught: the bar taken from the axis norm (`_norms`) instead of
    the BLAS dot, and the mean's sum left without its `0.0 +` sign restore.
    """
    rng = np.random.default_rng(3)
    pairs = []
    for r in rng.uniform(0.5, 2.0, size=(300, 2)):
        bar = 0.25 * np.linalg.norm(r)
        for e in (bar, np.nextafter(bar, 0.0)):
            pairs.append((r, r + [e, 0.0]))
    pairs.append((np.array([1.0, -0.0]), np.array([1.1, -0.0])))
    diffs = np.ascontiguousarray(np.array(pairs).transpose(2, 0, 1))       # (d, G, 2)
    rank = np.tile([0, 1], (len(pairs), 1))
    reps, n_reps = fitting._directions(diffs, rank)
    split = 0
    for g, (r, v) in enumerate(pairs):
        want = np.array(oracle.directions(np.stack([r, v]), np.array([0, 1])))
        assert n_reps[g] == len(want)
        assert reps[g, : n_reps[g]].tobytes() == want.tobytes()
        split += n_reps[g] == 2
    assert 0 < split < len(pairs) - 1                  # both outcomes occur at the bar
    assert not np.signbit(reps[-1, 0, 1])


def gather_battery():
    """The queries of `test_cell_index_matches_brute_force`, as (configuration, points (G, d), r).

    The same seeded clouds and points: random radii on a random cloud, the
    pipeline's radii from points inside and far outside its atoms' box,
    integer-lattice atoms at exactly distance r, an atom on a cell boundary
    just past fl(x + r), an empty configuration and d = 3.  Queries of one
    radius on one configuration form one G-point group; the random radii
    give G = 1, and each configuration adds G = 0.
    """
    rng = np.random.default_rng(0)
    box = Box(np.zeros(2), np.full(2, 10.0))
    lam = 3.0
    pts = rng.uniform(-4.0 * lam, 10.0 + 4.0 * lam, size=(4000, 2))
    pts = pts[box.contains(pts, pad=4.0 * lam)]
    chi = Configuration(pts, box.contains(pts), box, lam)
    out = []
    for _ in range(60):
        x = rng.uniform(-1.0, 11.0, size=2)
        out.append((chi, x[None], rng.uniform(0.1, 2.0 * lam)))
    outside = [(-30.0, 5.0), (5.0, 40.0), (45.0, -45.0), (-12.5, -12.5)]
    xs = np.concatenate([rng.uniform(-1.0, 11.0, size=(10, 2)), outside])
    out += [(chi, xs, r) for r in (lam, 2.0 * lam, 4.0 * lam)]
    out.append((chi, np.empty((0, 2)), lam))
    g = np.arange(-20.0, 21.0)
    lattice = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    chi_z = Configuration(lattice, np.zeros(len(lattice), dtype=bool), box, 4.0, validate=False)
    out += [(chi_z, np.array([(0.0, 0.0), (3.0, -2.0)]), 5.0),
            (chi_z, np.array([(1.0, 1.0)]), 13.0), (chi_z, np.array([(0.0, 0.0)]), 1.0),
            (chi_z, np.array([(2.0, 7.0)]), 4.0), (chi_z, np.array([(-20.0, 20.0)]), 10.0)]
    pair = np.array([[0.0, 0.0], [3.0, 0.0]])
    chi_edge = Configuration(pair, np.zeros(2, dtype=bool), box, 2.0, validate=False)
    out.append((chi_edge, np.array([[-2.697867137638703, 0.0]]), 5.697867137638703))
    empty = Configuration(np.empty((0, 2)), np.empty(0, dtype=bool), box, lam)
    out += [(empty, np.array([[5.0, 5.0], [50.0, -5.0]]), 2.0 * lam),
            (empty, np.empty((0, 2)), lam)]
    box3 = Box(np.zeros(3), np.full(3, 6.0))
    pts3 = rng.uniform(-4.0, 10.0, size=(3000, 3))
    chi3 = Configuration(pts3, box3.contains(pts3), box3, 1.0, validate=False)
    xs3 = rng.uniform(-6.0, 12.0, size=(30, 3))
    out += [(chi3, x[None], rng.uniform(0.1, 5.0)) for x in xs3]
    out += [(chi3, xs3, r) for r in (0.5, 1.0, 2.0, 4.0)]
    out.append((chi3, np.empty((0, 3)), 1.0))
    return out


def test_batched_gather_matches_per_point_oracle():
    """`local_atoms` at G points is, point by point, the per-point cell scan, bit for bit.

    On every group of `gather_battery` (G = 0, 1, 2, 14 and 30; lattice atoms
    at exactly r; the cell-boundary reach; points outside the cloud; an
    empty configuration; d = 3), each point's (idx, rel, dist) equals
    `oracle.local_atoms` in dtype, shape and bytes, the views tile one CSR
    block in point order, and a one-point call gives the same arrays.
    Mutations caught: sorting the kept atoms by index alone across points,
    and summing dist's squares in another order (`np.einsum` over the
    components reversed).
    """
    sizes = set()
    for chi, xs, r in gather_battery():
        got = chi.local_atoms(xs, r)
        assert len(got) == len(xs) and got.start[0] == 0 and got.start[-1] == len(got.idx)
        assert len(list(got)) == len(xs)
        if len(xs):                     # a negative index counts from the end
            assert all(np.array_equal(a, b) for a, b in zip(got[-1], got[len(xs) - 1]))
        sizes.add(len(xs))
        for g, x in enumerate(xs):
            want = oracle.local_atoms(chi, x, r)
            one = chi.local_atoms(x, r)
            for a, b, c in zip(got[g], want, one):
                assert a.dtype == b.dtype == c.dtype and a.shape == b.shape == c.shape
                assert a.tobytes() == b.tobytes() == c.tobytes()
            assert np.shares_memory(got[g][1], got.rel) or got[g][1].size == 0
    assert {0, 1, 2, 14, 30} <= sizes


def test_objective_gathers_match_per_point_gather_weights(params, chi_noise, chi_vacancies):
    """An `_Objective` over G points holds the arrays of G one-point `gather_weights` calls.

    rel, w, c, rho, eps_nu and the J feature blocks are equal in bytes, and
    the sizes too, at lam and lam/2, for one point and for points with
    gathers of every length: the centre, the edges, a vacancy cloud and a
    point with no atoms.  Mutation caught: each point's rho summed over its
    padded row instead of its own gather.
    """
    xs = np.array([[20.0, 20.0], [-46.0, -46.0], [86.0, 21.0], [-45.0, 30.0], [500.0, 500.0],
                   [1.5, 38.0]])
    for chi in (chi_noise, chi_vacancies):
        for lam in (params.lam, params.lam / 2.0):
            for pts in (xs, xs[:1], xs[3:5], xs[::-1]):
                obj = _Objective(chi, pts, params, j_only=False, lam=lam)
                want = oracle.objective_arrays(chi, pts, lam)
                assert obj.sizes == want["sizes"]
                for name in ("rel", "w", "c", "rho", "eps_nu", "features"):
                    a, b = getattr(obj, name), want[name]
                    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_restricted_objective_is_the_one_built_at_its_points(params, chi_noise):
    """`_Objective.restricted` is, array for array, the objective built at its points alone.

    Its padding is the longest gather of its points, and one point is
    unpadded; `_half_stage` pre-converges on its lam/2 objective restricted
    to the points with candidates.  Mutation caught: keeping the padding of
    all the points.
    """
    xs = np.array([[20.0, 20.0], [-46.0, -46.0], [86.0, 21.0], [-45.0, 30.0]])
    full = _Objective(chi_noise, xs, params, j_only=True, lam=params.lam / 2.0)
    assert full.sizes[0] > max(full.sizes[1:])          # the centre's, then three at the edge
    for points in ([1, 3], [3, 1, 2], [2]):
        got = full.restricted(points)
        want = _Objective(chi_noise, xs[points], params, j_only=True, lam=params.lam / 2.0)
        assert got.sizes == want.sizes
        for name in ("rel", "w", "c", "rho", "eps_nu", "features"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_objective_builds_j_features_once(params, chi_noise, regular_thetas):
    """An `_Objective` builds its J feature block once; `_newton`'s gradient calls reuse it.

    A mixed stack (rows on three points, out of order, stopping at different
    iterations) runs a whole `_newton` with no further build, in the
    objective or in `assemble_j`; `value` does not read the block, and
    `_points` hands back its last selection for the same points.  Mutation
    caught: `value_grad_hess` passing no `features` to `assemble_j`.
    """
    builds = []

    def counting(module):
        build = module.j_features

        def j_features(rel):
            builds.append(module.__name__)
            return build(rel)
        return j_features

    xs = np.stack([x for x, _ in regular_thetas[:3]])
    rows = [2, 0, 1, 1, 0, 2]
    theta0 = np.stack([regular_thetas[r][1] for r in rows])
    theta0[1::2, :4] *= 1.02                    # a second start per point, further out
    with pytest.MonkeyPatch.context() as mp:
        for module in (core_model, fitting):
            mp.setattr(module, "j_features", counting(module))
        obj = _Objective(chi_noise, xs, params, j_only=False)
        assert builds == ["latfit.fitting"]
        res = _newton(obj, theta0, TOL_GRAD, MAX_ITER_H, require_pd=False, points=rows)
        assert builds == ["latfit.fitting"]
        want = obj.value(theta0, rows)
        blind = _Objective(chi_noise, xs, params, j_only=False)
        blind.features = None
        assert np.array_equal(blind.value(theta0, rows), want)
    assert len(set(res.iterations.tolist())) > 1 and res.converged.all()
    picked = obj._points(np.array(rows[:4]), features=True)
    assert all(a is b for a, b in zip(obj._points(np.array(rows[:4]), features=True), picked))
    assert picked[-1][0] is obj.features        # the rows read the per-point blocks in place


def test_newton_hands_every_gradient_its_kept_cos_pass(params, chi_noise, regular_thetas):
    """A mixed `_newton` run never redoes a cos pass in `value_grad_hess`.

    Rows sit on three points, out of order, and some line searches accept
    part of their rows.  Every `assemble_j` gradient call gets the cos pass
    that `_value` made at its rows' accepted iterates, bit for bit the one
    it would compute, and the run's cos passes, counted at `fitting.j_phases`,
    are one per `_value` call.  Mutation caught: `_newton` passing no
    `cos_z`, or not keeping the cos pass of a row its line search accepts.
    """
    events = []
    assemble, phases = fitting.assemble_j, fitting.j_phases

    class Recording(_Objective):
        def _value(self, theta, points):
            events.append(("value", len(theta)))
            return super()._value(theta, points)

    def checking_assemble_j(rel, w, it, c, want_grad=True, cos_z=None, features=None):
        if want_grad:
            kept = cos_z is not None and np.array_equal(
                cos_z, np.cos(core_model.j_phases(rel, it.A, it.tau)))
            events.append(("grad", kept))
        return assemble(rel, w, it, c, want_grad=want_grad, cos_z=cos_z, features=features)

    def counting_j_phases(*args):
        events.append(("cos", None))
        return phases(*args)

    xs = np.stack([x for x, _ in regular_thetas[:3]])
    rows = [2, 0, 1, 1, 0, 2]
    theta0 = np.stack([regular_thetas[r][1] for r in rows])
    theta0[1::2, :4] *= 1.06                    # a second start per point, further out
    obj = Recording(chi_noise, xs, params, j_only=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "assemble_j", checking_assemble_j)
        mp.setattr(fitting, "j_phases", counting_j_phases)
        res = _newton(obj, theta0, TOL_GRAD, MAX_ITER_H, require_pd=False, points=rows)
    assert res.converged.all() and len(set(res.iterations.tolist())) > 1
    grads = [kept for kind, kept in events if kind == "grad"]
    assert grads and all(grads)
    kinds = [kind for kind, _ in events]
    assert kinds.count("cos") == kinds.count("value")
    # a line search is the value calls between two gradient calls; a trial
    # on fewer rows than the one before it follows a partial acceptance
    sizes = []
    for kind, n in events:
        if kind == "grad":
            sizes.append([])
        elif kind == "value" and sizes:
            sizes[-1].append(n)
    assert any(0 < b < a for s in sizes for a, b in zip(s, s[1:]))


@pytest.fixture(scope="module")
def ragged_stack(params, chi_vacancies):
    """Four points with different atom counts, each with the centre's fit moved there, perturbed."""
    x0 = np.array([20.0, 20.0])
    fit = fit_global(chi_vacancies, x0, params)
    assert fit.regular
    xs = np.array([[20.0, 20.0], [14.0, 22.0], [26.0, 17.0], [21.0, 25.0]])
    rng = np.random.default_rng(5)
    scale = np.concatenate([np.full(4, 1.0 / params.lam), np.ones(2)])
    affs = []
    for x in xs:
        aff = fit.aff_hat
        theta = pack(AffinePair(aff.A, aff.tau + aff.A @ (x - x0)))
        affs.append(unpack(theta + 0.02 * scale * rng.standard_normal(6), 2))
    return xs, affs


@pytest.mark.parametrize("j_only", [True, False], ids=["j_only", "full_h"])
def test_ragged_stack_matches_single_rows(params, chi_vacancies, ragged_stack, j_only):
    xs, affs = ragged_stack
    stack = _Objective(chi_vacancies, xs, params, j_only=j_only)
    assert len(set(stack.sizes)) == len(xs)          # every row padded by a different amount
    thetas = np.stack([pack(a) for a in affs])
    vals = stack.value(thetas)
    val, grad, hess = stack.value_grad_hess(thetas)
    sub = np.array([3, 1])
    sub_vals = stack.value(thetas[sub], sub)
    for k, (x, theta) in enumerate(zip(xs, thetas)):
        one = _Objective(chi_vacancies, x, params, j_only=j_only)
        one_val, one_grad, one_hess = one.value_grad_hess(theta)
        assert vals[k] == one.value(theta) == one_val == val[k]
        assert np.array_equal(grad[k], one_grad) and np.array_equal(hess[k], one_hess)
    assert sub_vals.tolist() == [vals[3], vals[1]]


def test_ragged_fit_and_branch_stacks_match_single_calls(params, chi_vacancies, ragged_stack):
    xs, affs = ragged_stack
    stack = _Objective(chi_vacancies, xs, params, j_only=False)
    for k, out in enumerate(_fit_from_rows(stack, affs, xs, chi_vacancies, params,
                                           np.arange(len(xs)))):
        one = oracle.fit_from(affs[k], chi_vacancies, xs[k], params)
        assert out.breakdown == one.breakdown and out.report == one.report
        # the test on the fit's own rho and J is the one a fresh gather gives
        assert out.report == is_regular_pair(xs[k], out.aff_hat, chi_vacancies, params)[1]
        assert np.array_equal(out.aff_hat.A, one.aff_hat.A)
        assert np.array_equal(out.aff_hat.tau, one.aff_hat.tau)
        assert (out.iterations, out.grad_norm, out.converged) == \
            (one.iterations, one.grad_norm, one.converged)
    for k, bp in enumerate(minimize_j_stack(affs, chi_vacancies, xs, params)):
        one = minimize_j_local(affs[k], chi_vacancies, xs[k], params)
        assert np.array_equal(bp.aff_tilde.A, one.aff_tilde.A)
        assert np.array_equal(bp.aff_tilde.tau, one.aff_tilde.tau)
        assert (bp.j_value, bp.grad_norm, bp.iterations, bp.converged) == \
            (one.j_value, one.grad_norm, one.iterations, one.converged)


def test_stacked_row_leaving_the_basin_is_the_single_escape(params, chi_noise):
    x = np.array([20.0, 20.0])
    fit = fit_global(chi_noise, x, params)
    outside = AffinePair(1.5 * np.eye(2), np.zeros(2))
    with pytest.raises(BasinEscapeError):
        minimize_j_local(outside, chi_noise, x, params)
    inside = minimize_j_local(fit.aff_hat, chi_noise, x, params)
    escaped, kept = minimize_j_stack([outside, fit.aff_hat], chi_noise, [x, x], params)
    assert escaped is None
    assert np.array_equal(kept.aff_tilde.A, inside.aff_tilde.A)
    assert np.array_equal(kept.aff_tilde.tau, inside.aff_tilde.tau)
    assert (kept.j_value, kept.iterations) == (inside.j_value, inside.iterations)


def test_value_grad_hess_reuses_the_kept_cos_pass_bit_for_bit(params, chi_noise, regular_thetas):
    """`value_grad_hess` given `_value`'s cos pass at theta is the cold call, bit for bit.

    On one point's stack and on a stack whose rows sit on three points out
    of order.  Mutation caught: `_value` returning the cos pass of other
    rows, or of phases other than the ones `assemble_j` takes.
    """
    xs = np.stack([x for x, _ in regular_thetas[:3]])
    thetas = np.stack([theta for _, theta in regular_thetas[:3]])
    for x, points in ((xs[0], [0, 0, 0]), (xs, [2, 0, 1])):
        obj = _Objective(chi_noise, x, params, j_only=False)
        cold = _Objective(chi_noise, x, params, j_only=False).value_grad_hess(thetas, points)
        val, cos_z = obj._value(thetas, np.array(points))
        assert cos_z.shape == (3, 2, obj.w.shape[-1])
        warm = obj.value_grad_hess(thetas, points, cos_z=cos_z)
        for got, want in zip(warm, cold):
            assert np.array_equal(got, want)
        assert np.array_equal(val, cold[0])
