import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from latfit import potentials as pot

from cli_harness import cli_env
from kernel_oracles import phi_grad, phi_hess, phi_root_norms, w_eval, w_hess

RNG = np.random.default_rng(20240901)


def dist_to_z(z):
    return np.linalg.norm(z - np.round(z), axis=-1)


class TestPeriodicWell:
    def test_minimum_at_lattice_points(self):
        assert w_eval(np.zeros(2)) == 0.0
        assert w_eval(np.array([3.0, -7.0])) == pytest.approx(0.0, abs=1e-14)

    def test_periodicity_and_symmetry(self):
        z = RNG.uniform(-3, 3, size=(10000, 2))
        n = RNG.integers(-5, 6, size=(10000, 2)).astype(float)
        assert np.allclose(w_eval(z + n), w_eval(z), atol=1e-12)
        assert np.allclose(w_eval(-z), w_eval(z), atol=1e-14)

    def test_halfcell_value(self):
        # closed form: sum_k (1 - cos pi) / (2 pi^2) = d / pi^2
        assert w_eval(np.array([0.5, 0.5])) == pytest.approx(2.0 / math.pi**2, rel=1e-14)

    def test_quadratic_sandwich(self):
        z = RNG.uniform(-0.5, 0.5, size=(10000, 2))
        w = w_eval(z)
        d2 = dist_to_z(z) ** 2
        assert np.all(w >= pot.C0_W * d2 - 1e-14)
        assert np.all(w <= pot.C1_W * d2 + 1e-14)

    def test_hessian_bounds_in_window(self):
        # any z with dist(z, Z^d) <= Theta_W has Hessian eigenvalues in [c0, c1]
        for _ in range(2000):
            direction = RNG.standard_normal(2)
            direction /= np.linalg.norm(direction)
            z = RNG.integers(-3, 4, size=2) + direction * RNG.uniform(0, pot.THETA_W)
            eigs = np.diagonal(w_hess(z))
            assert np.all(eigs >= pot.C_THETA0 - 1e-12)
            assert np.all(eigs <= pot.C_THETA1 + 1e-12)

    def test_derivatives_match_finite_differences(self):
        step = 1e-6
        for _ in range(50):
            z = RNG.uniform(-2, 2, size=2)
            g = pot.w_grad(z)
            h = w_hess(z)
            for k in range(2):
                e = np.zeros(2)
                e[k] = step
                fd_g = (w_eval(z + e) - w_eval(z - e)) / (2 * step)
                assert g[k] == pytest.approx(fd_g, abs=1e-8)
                fd_h = (pot.w_grad(z + e) - pot.w_grad(z - e)) / (2 * step)
                assert np.allclose(h[:, k], fd_h, atol=1e-7)

    def test_gradient_sup_norm(self):
        z = RNG.uniform(0, 1, size=(200000, 2))
        assert np.max(np.linalg.norm(pot.w_grad(z), axis=1)) <= pot.norm_gradw_inf(2) + 1e-12
        # attained at quarter-cell points
        assert np.linalg.norm(pot.w_grad(np.array([0.25, 0.25]))) == pytest.approx(
            pot.norm_gradw_inf(2), rel=1e-12)


class TestCutoff:
    def test_plateaus(self):
        assert pot.phi_eval(0.5) == 1.0
        assert pot.phi_eval(2.5) == 0.0
        r = np.linspace(0.0, 1.0, 100)
        assert np.all(pot.phi_eval(r) == 1.0)
        r = np.linspace(2.0, 4.0, 100)
        assert np.all(pot.phi_eval(r) == 0.0)

    def test_midpoint_is_half(self):
        # the transition is a symmetric smoothstep, so the midpoint is exactly 1/2
        assert pot.phi_eval(1.5) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_nonincreasing(self):
        r = np.linspace(0.0, 3.0, 20001)
        vals = pot.phi_eval(r)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all(phi_grad(r) <= 0.0)

    def test_c2_smoothness_at_knots(self):
        # second finite differences converge (at the O(h^2) rate of a C^3
        # profile) to the analytic second derivative across both knots
        for knot in (1.0, 2.0):
            errs = []
            for h in (1e-2, 1e-3):
                grid = knot + np.array([-2, -1, 0, 1, 2]) * h
                vals = pot.phi_eval(grid)
                d2 = (vals[0] - 2 * vals[2] + vals[4]) / (2 * h) ** 2
                err = abs(d2 - float(phi_hess(knot)))
                errs.append(err)
                assert err <= 300.0 * h**2 + 1e-9
            assert errs[1] <= 0.05 * errs[0] + 1e-9
        assert phi_grad(1.0) == 0.0 and phi_grad(2.0) == 0.0
        assert phi_hess(1.0) == 0.0 and phi_hess(2.0) == 0.0


class TestElasticDensity:
    def test_reference_is_minimum(self):
        el = pot.default_elastic(2)
        assert el.f_el(np.eye(2)) == pytest.approx(0.0, abs=1e-14)

    def test_frame_indifference(self):
        el = pot.ElasticDensity(E=np.array([[1.1, 0.2], [0.0, 0.9]]), C1_el=1.3, C2_el=0.7)
        for _ in range(40):
            th = RNG.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            assert el.f_el(el.E @ rot) == pytest.approx(0.0, abs=1e-12)
            a = np.eye(2) + 0.3 * RNG.standard_normal((2, 2))
            if np.linalg.det(a) <= 0.1:
                continue
            assert el.f_el(a @ rot) == pytest.approx(el.f_el(a), rel=1e-10, abs=1e-12)

    def test_worked_example(self):
        # d=2, E=I, C1=C2=1: det term (1-4)^2 = 9, dist^2(2I, SO_2) = 2
        el = pot.default_elastic(2)
        assert el.f_el(2.0 * np.eye(2)) == pytest.approx(11.0, rel=1e-12)

    def test_rejects_flipped_orientation(self):
        el = pot.default_elastic(2)
        with pytest.raises(ValueError):
            el.f_el(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            el.f_el_grad(np.diag([-1.0, 1.0]))

    def test_gradient_matches_finite_differences(self):
        el = pot.ElasticDensity(E=np.array([[1.0, 0.1], [0.0, 1.2]]), C1_el=0.8, C2_el=1.7)
        step = 1e-6
        checked = 0
        while checked < 100:
            a = random_det_a()
            g = el.f_el_grad(a)
            fd = np.empty((2, 2))
            for i in range(4):
                da = np.zeros((2, 2))
                da.flat[i] = step
                fd.flat[i] = (el.f_el(a + da) - el.f_el(a - da)) / (2 * step)
            assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-3)
            checked += 1

    def test_hessian_matches_finite_differences(self):
        el = pot.default_elastic(2)
        step = 1e-6
        for _ in range(30):
            a = random_det_a()
            h = el.f_el_hess(a)
            fd = np.empty((4, 4))
            for i in range(4):
                da = np.zeros((2, 2))
                da.flat[i] = step
                fd[:, i] = (el.f_el_grad(a + da) - el.f_el_grad(a - da)).ravel() / (2 * step)
            assert np.linalg.norm(h - fd) <= 1e-5 * max(np.linalg.norm(fd), 1.0)


def random_det_a():
    while True:
        a = np.eye(2) + 0.5 * RNG.standard_normal((2, 2))
        det = np.linalg.det(a)
        if 0.5 <= det <= 2.0:
            return a


class TestDerivedConstants:
    @pytest.fixture(scope="class")
    def dc(self):
        return pot.derive_constants(2, 0.5, pot.default_elastic(2))

    def test_deterministic(self, dc):
        again = pot.derive_constants(2, 0.5, pot.default_elastic(2))
        for name in dc.__dataclass_fields__:
            assert getattr(dc, name) == getattr(again, name)

    def test_cphi_against_dense_trapezoid(self, dc):
        r = np.linspace(0.0, 2.0, 2_000_001)
        oracle = 2.0 * math.pi * np.trapezoid(pot.phi_eval(r) * r, r)
        assert dc.C_phi == pytest.approx(oracle, rel=1e-9)
        oracle2 = math.pi * np.trapezoid(pot.phi_eval(r) * r**3, r)
        assert dc.C_phi2 == pytest.approx(oracle2, rel=1e-9)

    def test_cphi_against_monte_carlo(self, dc):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-2.0, 2.0, size=(4_000_000, 2))
        mc = 16.0 * np.mean(pot.phi_eval(np.linalg.norm(pts, axis=1)))
        assert dc.C_phi == pytest.approx(mc, rel=5e-3)

    def test_cutoff_moments_exact(self):
        from scipy.integrate import quad

        # integral_0^2 phi(r) r^p dr as rationals, from expanding 1 - S(r - 1) in powers of r
        exact = {0: Fraction(3, 2), 1: Fraction(41, 36), 2: Fraction(7, 6),
                 3: Fraction(359, 264), 4: Fraction(94, 55)}
        for power, value in exact.items():
            moment = pot._phi_radial_moment(power)
            assert moment == float(value)
            oracle, _ = quad(lambda r: float(pot.phi_eval(r)) * r**power, 0.0, 2.0,
                             points=[1.0], epsabs=1e-13, epsrel=1e-11, limit=200)
            assert moment == pytest.approx(oracle, rel=1e-14, abs=0.0)
        for d in (2, 3):
            assert pot.cphi(d) == d * pot.unit_ball_volume(d) * float(exact[d - 1])

    def test_well_constants(self, dc):
        assert dc.C0_W == pytest.approx(4.0 / math.pi**2, rel=1e-14)
        assert dc.C1_W == 1.0
        assert dc.Theta_W == pytest.approx(1.0 / 6.0)
        assert dc.c_theta0 == pytest.approx(2.0 * math.cos(math.pi / 3.0))
        assert dc.c_theta1 == 2.0
        assert dc.norm_gradW_inf == pytest.approx(math.sqrt(2.0) / math.pi)

    def test_rho_max_worked_example(self, dc):
        assert dc.rho_max == pytest.approx(16.0 / math.pi, rel=1e-12)
        assert dc.rho_max == pytest.approx(5.0930, abs=5e-4)

    def test_constant_formulas(self, dc):
        assert dc.cA_J == pytest.approx(1.5 * math.sqrt(8 * 2 * dc.C_phi / (dc.C_phi2 * dc.C0_W)))
        assert dc.ctau_J == pytest.approx(math.sqrt(10.0 / dc.C0_W))
        assert dc.ctau_J == pytest.approx(4.9673, abs=5e-4)
        assert dc.alpha_nabla == pytest.approx(
            64.0 * max(dc.norm_gradW_inf**2 / (dc.C0_W * dc.Theta_W**2),
                       dc.c_theta1**2 / dc.c_theta0))
        assert dc.C_rep == pytest.approx(9.0 / dc.C0_W * 4.0 * dc.C_A**4)
        assert dc.C_absA == pytest.approx(8.0 * dc.C_A**2 * dc.rho_max / 7.0)

    def test_default_c_a_formula(self):
        el = pot.ElasticDensity(E=np.array([[1.2, 0.1], [0.0, 0.8]]))
        e_op = np.linalg.norm(el.E, 2)
        assert pot.default_c_a(el) == pytest.approx(3.0 * e_op / el.det_e)

    def test_cutoff_root_norms_finite(self, dc):
        assert (dc.norm_grad_sqrt_phi, dc.norm_hess_sqrt_phi, dc.norm_grad_quartroot_phi) \
            == phi_root_norms(2)
        # the r -> 2 limits exceed every sampled value, so the sample never sets them
        assert dc.norm_hess_sqrt_phi == 2.0 * math.sqrt(35.0)
        assert dc.norm_grad_quartroot_phi == 35.0**0.25

    def test_per_point_constants_positive(self, dc):
        ccv = pot.c_con(1.0, 1.0, 2, dc)
        assert 0 < ccv <= dc.c_theta0 / 12.0
        assert pot.c_nabla2(1.0, ccv, dc) > 0
        assert pot.c_tilde_nabla(1.0, ccv, dc) > 0


class TestCutoffRootNorms:
    """The chunked sample of the cutoff-root sups against the whole-array oracle."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_chunked_sample_equals_whole_array(self, d, monkeypatch):
        assert pot._phi_root_norms.__wrapped__(d) == phi_root_norms(d)
        got = pot.derive_constants(d, 0.5, pot.default_elastic(d))
        monkeypatch.setattr(pot, "_phi_root_norms", phi_root_norms)
        want = pot.derive_constants(d, 0.5, pot.default_elastic(d))
        for name in want.__dataclass_fields__:
            assert getattr(got, name) == getattr(want, name), name

    @pytest.mark.parametrize("d", [2, 3])
    def test_sample_memory(self, d):
        # a whole-array sample keeps about a dozen 3.2 MB arrays live (about 35 MB traced)
        tracemalloc.start()
        try:
            pot._phi_root_norms.__wrapped__(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6


def test_import_loads_no_scipy():
    """latfit needs numpy only: importing it (and its CLI) must not pull in scipy."""
    probe = ("import sys, latfit, latfit.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=cli_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
