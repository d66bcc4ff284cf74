from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from latfit.core_model import (
    AffinePair,
    Box,
    Configuration,
    close_pairs,
    default_beta,
    dist_to_lattice,
    gradw_sum_diagnostic,
    is_regular_pair,
    j_lambda,
    j_value_grad_hess,
    local_density,
    low_energy_thresholds,
    pre_energy,
    split_regular_atoms,
)
from latfit.potentials import phi_eval

from conftest import exact_lattice, random_a
from kernel_oracles import w_eval

RNG = np.random.default_rng(11)
DATA = Path(__file__).parent / "data"

# frozen empirical regression bound for |rho - det A| on exact lattices:
# measured worst c = err * lam^2 ~ 1e-4 over the acceptance A-ensemble
DENSITY_C = 1e-3


def brute_force_j(aff, chi, x, lam):
    """Independent misfit oracle: direct sum over all atoms, no spatial index."""
    rel = chi.positions - np.asarray(x, dtype=float)
    w = phi_eval(np.linalg.norm(rel, axis=1) / lam)
    z = rel @ aff.A.T + aff.tau
    g = float(np.sum(np.linalg.inv(aff.A) ** 2))
    from latfit.potentials import cphi
    return g * float(np.sum(w_eval(z) * w)) / (cphi(2) * lam**2)


def assert_gather_exact(chi, x, r):
    """local_atoms(x, r) against an O(N) scan with the k-d tree's test dx*dx + dy*dy <= r*r."""
    diff = chi.positions - x
    d2 = diff[:, 0] * diff[:, 0]
    for k in range(1, diff.shape[1]):
        d2 = d2 + diff[:, k] * diff[:, k]
    oracle = np.flatnonzero(d2 <= r * r)
    idx, rel, dist = chi.local_atoms(x, r)
    assert np.array_equal(idx, oracle)       # ascending, as the gathers sum them
    assert np.array_equal(rel, chi.positions[oracle] - x)
    assert np.array_equal(dist, np.linalg.norm(rel, axis=1))
    return idx


def brute_pairs(points, r):
    """O(N^2) oracle of the index pairs (i < j) with |p_i - p_j|^2 <= r^2, lexsorted."""
    i, j = np.triu_indices(len(points), k=1)
    diff = points[i] - points[j]
    near = diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1] <= r * r
    return np.stack([i[near], j[near]], axis=1)


def noisy_lattice(sigma, lam, seed, box_size=6.0):
    rng = np.random.default_rng(seed)
    chi = exact_lattice(np.eye(2), np.zeros(2), lam, box_size)
    pts = chi.positions + sigma * rng.standard_normal(chi.positions.shape)
    pts = pts[chi.domain.contains(pts, pad=4.0 * lam)]
    return Configuration(pts, chi.domain.contains(pts), chi.domain, lam)


class TestConfiguration:
    def test_interior_containment_enforced(self):
        box = Box(np.zeros(2), np.full(2, 4.0))
        with pytest.raises(ValueError, match="interior"):
            Configuration(np.array([[10.0, 0.0]]), np.array([True]), box, 2.0)
        with pytest.raises(ValueError, match="boundary"):
            Configuration(np.array([[100.0, 0.0]]), np.array([False]), box, 2.0)

    def test_non_finite_positions_rejected(self):
        box = Box(np.zeros(2), np.full(2, 4.0))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="positions must be finite"):
                Configuration(np.array([[1.0, 1.0], [bad, 2.0]]), np.array([True, True]),
                              box, 2.0, validate=False)

    def test_queries_reject_non_finite_points_and_bad_radii(self):
        """One point or G points: a non-finite point, or a negative or non-finite radius, is named.

        A G-point query names its first non-finite point.  A zero radius is
        a valid query (the atoms exactly at x).
        """
        chi = exact_lattice(np.eye(2), np.zeros(2), 2.0, 4.0)
        for bad in ([np.nan, 1.0], [1.0, np.inf], [-np.inf, np.nan]):
            with pytest.raises(ValueError, match="query point must be finite") as err:
                chi.local_atoms(np.array(bad), 2.0)
            assert str(bad) in str(err.value)
            with pytest.raises(ValueError, match="query point must be finite") as err:
                chi.local_atoms(np.array([[1.0, 1.0], bad, [2.0, np.nan]]), 2.0)
            assert str(bad) in str(err.value)
        for r in (-1.0, -1e-300, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="query radius must be finite and >= 0"):
                chi.local_atoms(np.array([1.0, 1.0]), r)
            with pytest.raises(ValueError, match="query radius must be finite and >= 0"):
                chi.local_atoms(np.array([[1.0, 1.0], [2.0, 2.0]]), r)
        idx, rel, dist = chi.local_atoms(np.array([1.0, 1.0]), 0.0)
        assert np.array_equal(chi.positions[idx], [[1.0, 1.0]]) and dist.tolist() == [0.0]

    def test_cell_index_matches_brute_force(self):
        rng = np.random.default_rng(0)
        box = Box(np.zeros(2), np.full(2, 10.0))
        lam = 3.0
        pts = rng.uniform(-4.0 * lam, 10.0 + 4.0 * lam, size=(4000, 2))
        pts = pts[box.contains(pts, pad=4.0 * lam)]
        chi = Configuration(pts, box.contains(pts), box, lam)
        for _ in range(60):
            x = rng.uniform(-1.0, 11.0, size=2)
            r = rng.uniform(0.1, 2.0 * lam)
            assert_gather_exact(chi, x, r)
        # the pipeline's radii, from points inside and far outside the atoms' box
        outside = [(-30.0, 5.0), (5.0, 40.0), (45.0, -45.0), (-12.5, -12.5)]
        for x in list(rng.uniform(-1.0, 11.0, size=(10, 2))) + outside:
            for r in (lam, 2.0 * lam, 4.0 * lam):
                assert_gather_exact(chi, np.asarray(x), r)
        # integer lattice: many atoms at exactly distance r (3-4-5, 5-12-13 triangles)
        g = np.arange(-20.0, 21.0)
        lattice = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        chi_z = Configuration(lattice, np.zeros(len(lattice), dtype=bool), box, 4.0, validate=False)
        for x, r in [((0.0, 0.0), 5.0), ((3.0, -2.0), 5.0), ((1.0, 1.0), 13.0), ((0.0, 0.0), 1.0),
                     ((2.0, 7.0), 4.0), ((-20.0, 20.0), 10.0)]:
            idx = assert_gather_exact(chi_z, np.asarray(x), r)
            on_circle = np.sum(np.sum((lattice[idx] - x) ** 2, axis=1) == r * r)
            assert on_circle >= 4
        # |fl(p - x)| = r for an atom p on a cell boundary beyond fl(x + r): the cell
        # range must reach past the rounded query box (edge lam/2 = 1, lo = 0)
        pair = np.array([[0.0, 0.0], [3.0, 0.0]])
        chi_edge = Configuration(pair, np.zeros(2, dtype=bool), box, 2.0, validate=False)
        x = np.array([-2.697867137638703, 0.0])
        idx = assert_gather_exact(chi_edge, x, 5.697867137638703)
        assert idx.tolist() == [0, 1]
        # empty configuration
        empty = Configuration(np.empty((0, 2)), np.empty(0, dtype=bool), box, lam)
        idx, rel, dist = empty.local_atoms(np.array([5.0, 5.0]), 2.0 * lam)
        assert idx.shape == (0,) and rel.shape == (0, 2) and dist.shape == (0,)
        assert len(empty.hardcore_pairs(0.5)) == 0
        # d = 3
        box3 = Box(np.zeros(3), np.full(3, 6.0))
        pts3 = rng.uniform(-4.0, 10.0, size=(3000, 3))
        chi3 = Configuration(pts3, box3.contains(pts3), box3, 1.0, validate=False)
        for x in rng.uniform(-6.0, 12.0, size=(30, 3)):
            for r in (0.5, 1.0, 2.0, 4.0, rng.uniform(0.1, 5.0)):
                assert_gather_exact(chi3, x, r)

    def test_cell_index_matches_kdtree_on_golden_atoms(self):
        from scipy.spatial import cKDTree

        from latfit import fileio
        params, domain = fileio.load_params(DATA / "params.json")
        positions, interior = fileio.read_atoms_csv(DATA / "golden_atoms.csv")
        chi = fileio.configuration_from_arrays(positions, interior, params, domain)
        tree = cKDTree(chi.positions)
        rng = np.random.default_rng(4)
        lo, hi = domain.lo - 2.0 * params.lam, domain.hi + 2.0 * params.lam
        for x in rng.uniform(lo, hi, size=(40, 2)):
            for r in (params.lam / 2.0, params.lam, 2.0 * params.lam, 4.0 * params.lam):
                oracle = np.asarray(tree.query_ball_point(x, r, return_sorted=True), dtype=np.intp)
                assert np.array_equal(chi.local_atoms(x, r)[0], oracle)

    def test_queries_beyond_cell_edge(self):
        chi = exact_lattice(np.eye(2), np.zeros(2), 4.0)
        x = np.array([3.0, 3.0])
        r = 4.0 * chi.lam
        oracle = np.flatnonzero(np.linalg.norm(chi.positions - x, axis=1) <= r)
        assert np.array_equal(np.sort(chi.local_atoms(x, r)[0]), np.sort(oracle))


class TestLocalDensity:
    def test_empty_configuration(self):
        box = Box(np.zeros(2), np.ones(2))
        chi = Configuration(np.empty((0, 2)), np.empty(0, dtype=bool), box, 2.0)
        assert local_density(chi, np.array([0.5, 0.5]), 2.0) == 0.0

    def test_single_atom_at_center(self):
        from latfit.potentials import cphi
        box = Box(np.zeros(2), np.ones(2))
        chi = Configuration(np.array([[0.5, 0.5]]), np.array([True]), box, 10.0)
        rho = local_density(chi, np.array([0.5, 0.5]), 10.0)
        assert rho == pytest.approx(1.0 / (cphi(2) * 100.0), rel=1e-14)

    def test_lattice_density_near_det(self):
        rng = np.random.default_rng(5)
        for lam in (8.0, 16.0):
            a = random_a(rng)
            chi = exact_lattice(a, rng.random(2), lam)
            det = float(np.linalg.det(a))
            for _ in range(10):
                x = rng.uniform(0.0, 6.0, size=2)
                assert abs(local_density(chi, x, lam) - det) <= DENSITY_C / lam**2

    def test_translation_equivariance(self, params, chi_noise):
        shift = np.array([1.37, -2.11])
        shifted = Configuration(chi_noise.positions + shift, chi_noise.interior,
                                Box(chi_noise.domain.lo + shift, chi_noise.domain.hi + shift),
                                chi_noise.lam)
        x = np.array([17.0, 22.0])
        assert local_density(shifted, x + shift, params.lam) == pytest.approx(
            local_density(chi_noise, x, params.lam), rel=1e-14)


class TestMisfit:
    def test_exact_lattice_vanishes(self, params):
        a = np.array([[1.1, 0.2], [-0.1, 0.9]])
        tau = np.array([0.3, 0.8])
        chi = exact_lattice(a, tau, params.lam)
        x = np.array([2.7, 3.1])
        aff = AffinePair(a, tau + a @ x)
        assert j_lambda(aff, chi, x, params.lam) == pytest.approx(0.0, abs=1e-20)

    def test_integer_tau_shift_invariance(self, params, chi_noise):
        x = np.array([20.0, 21.0])
        aff = AffinePair(np.eye(2), np.array([0.37, 0.81]))
        shifted = AffinePair(np.eye(2), aff.tau + np.array([3.0, -2.0]))
        assert j_lambda(shifted, chi_noise, x, params.lam) == pytest.approx(
            j_lambda(aff, chi_noise, x, params.lam), rel=1e-12)

    def test_matches_brute_force_and_theory(self, params, chi_noise):
        # sigma = 0.02 Gaussian noise: J ~ |A^{-1}|^2 <z' Hess W z'>/2-weighted,
        # i.e. roughly |A^{-1}|^2 * d * sigma^2 * rho for the unit lattice
        x = np.array([20.0, 21.0])
        aff = AffinePair(np.eye(2), np.zeros(2))
        j = j_lambda(aff, chi_noise, x, params.lam)
        assert j == pytest.approx(brute_force_j(aff, chi_noise, x, params.lam), rel=1e-12)
        sigma = 0.02
        theory = 2.0 * 2.0 * sigma**2 * 1.0
        assert j == pytest.approx(theory, rel=0.2)

    def test_translation_equivariance(self, params, chi_noise):
        shift = np.array([-3.2, 0.7])
        shifted = Configuration(chi_noise.positions + shift, chi_noise.interior,
                                Box(chi_noise.domain.lo + shift, chi_noise.domain.hi + shift),
                                chi_noise.lam)
        aff = AffinePair(np.eye(2) * 1.02, np.array([0.2, 0.9]))
        x = np.array([18.0, 19.0])
        assert j_lambda(aff, shifted, x + shift, params.lam) == pytest.approx(
            j_lambda(aff, chi_noise, x, params.lam), rel=1e-13)


class TestMisfitDerivatives:
    def test_zero_gradient_at_exact_fit(self, params):
        a = np.array([[1.05, 0.1], [0.0, 0.95]])
        tau = np.array([0.25, 0.5])
        chi = exact_lattice(a, tau, params.lam)
        x = np.array([3.0, 3.0])
        aff = AffinePair(a, tau + a @ x)
        g = j_value_grad_hess(aff, chi, x, params.lam)[1]
        # zero up to the trig roundoff of |z| ~ lam-sized arguments
        assert np.linalg.norm(g) == pytest.approx(0.0, abs=1e-12)

    def test_match_finite_differences(self, params, chi_noise):
        rng = np.random.default_rng(3)
        step = 1e-5
        for _ in range(10):
            x = rng.uniform(10, 30, size=2)
            aff = AffinePair(np.eye(2) + 0.01 * rng.standard_normal((2, 2)), rng.random(2))
            theta = np.concatenate([aff.A.ravel(), aff.tau])
            _, grad, hess = j_value_grad_hess(aff, chi_noise, x, params.lam)
            fd_g = np.empty(6)
            fd_h = np.empty((6, 6))
            for i in range(6):
                e = np.zeros(6)
                e[i] = step
                ap = AffinePair((theta + e)[:4].reshape(2, 2), (theta + e)[4:])
                am = AffinePair((theta - e)[:4].reshape(2, 2), (theta - e)[4:])
                fd_g[i] = (j_lambda(ap, chi_noise, x, params.lam)
                           - j_lambda(am, chi_noise, x, params.lam)) / (2 * step)
                fd_h[:, i] = (j_value_grad_hess(ap, chi_noise, x, params.lam)[1]
                              - j_value_grad_hess(am, chi_noise, x, params.lam)[1]) / (2 * step)
            assert np.linalg.norm(fd_g - grad) <= 1e-6 * np.linalg.norm(grad)
            assert np.linalg.norm(fd_h - hess) <= 1e-6 * np.linalg.norm(hess)
            assert np.allclose(hess, hess.T, atol=1e-14)

    def test_convexity_at_regular_pair(self, params, chi_noise):
        from latfit.fitting import fit_global, minimize_j_local
        from latfit.potentials import c_con
        fit = fit_global(chi_noise, np.array([20.0, 20.0]), params)
        bp = minimize_j_local(fit.aff_hat, chi_noise, fit.position, params)
        hess = j_value_grad_hess(bp.aff_tilde, chi_noise, fit.position, params.lam)[2]
        scale = np.concatenate([np.full(4, params.lam), np.ones(2)])
        hs = hess / scale[:, None] / scale[None, :]
        mineig = float(np.min(np.linalg.eigvalsh(hs)))
        rho = local_density(chi_noise, fit.position, params.lam)
        nai = float(np.sum(np.linalg.inv(bp.aff_tilde.A) ** 2))
        floor = c_con(rho, float(np.linalg.det(bp.aff_tilde.A)), 2, params.constants) * nai * rho
        assert mineig > 0
        assert mineig >= floor


class TestVacancyTerm:
    """nu = vartheta |det A - rho_lam(x)|, the vacancy term of `pre_energy`."""

    @staticmethod
    def nu(A, chi, x, params):
        return pre_energy(AffinePair(A, np.zeros(2)), chi, x, params).nu_term

    def test_perfect_lattice_residual(self, params, chi_perfect):
        x = np.array([20.0, 20.0])
        val = self.nu(np.eye(2), chi_perfect, x, params)
        assert val <= params.vartheta * DENSITY_C / params.lam**2

    def test_vacancy_fraction(self, params, chi_vacancies):
        x = np.array([20.0, 20.0])
        val = self.nu(np.eye(2), chi_vacancies, x, params)
        assert val == pytest.approx(0.1 * params.vartheta, rel=0.15)

    def test_exact_formula(self, params, chi_perfect):
        x = np.array([20.0, 20.0])
        rho = local_density(chi_perfect, x, params.lam)
        a = 2.0 * np.eye(2)  # det = 4 vs rho ~ 1
        val = self.nu(a, chi_perfect, x, params)
        assert val == pytest.approx(params.vartheta * abs(4.0 - rho), rel=1e-14)
        assert val == pytest.approx(params.vartheta * 4.0 * (1.0 - rho / 4.0), rel=1e-12)

    def test_rejects_bad_orientation(self, params, chi_perfect):
        with pytest.raises(ValueError):
            self.nu(np.diag([1.0, -1.0]), chi_perfect, np.array([20.0, 20.0]), params)


class TestPreEnergy:
    def test_exact_lattice(self, params, chi_perfect):
        x = np.array([20.3, 19.7])
        aff = AffinePair(np.eye(2), x % 1.0)
        bd = pre_energy(aff, chi_perfect, x, params)
        assert bd.total == bd.f_term + bd.j_term + bd.nu_term
        assert min(bd.f_term, bd.j_term, bd.nu_term) >= 0.0
        assert bd.total <= params.vartheta * DENSITY_C / params.lam**2

    def test_reparam_changes_only_j_within_sandwich(self, params, chi_noise):
        x = np.array([20.0, 21.5])
        aff = AffinePair(np.eye(2), np.array([0.1, 0.4]))
        bd = pre_energy(aff, chi_noise, x, params)
        b = np.array([[1, 1], [0, 1]], dtype=float)
        rep = AffinePair(b @ aff.A, b @ aff.tau + np.array([2.0, -1.0]))
        bd2 = pre_energy(rep, chi_noise, x, params)
        # nu and the determinant part of f are invariant under det-1 relabeling
        assert bd2.nu_term == pytest.approx(bd.nu_term, rel=1e-12)
        assert np.linalg.det(rep.A) == pytest.approx(np.linalg.det(aff.A), rel=1e-12)
        dc = params.constants
        na = float(np.sum(rep.A**2))
        nai = float(np.sum(np.linalg.inv(rep.A) ** 2))
        assert bd2.j_term <= dc.C1_W * na * nai / dc.C0_W * bd.j_term + 1e-15
        na0 = float(np.sum(aff.A**2))
        nai0 = float(np.sum(np.linalg.inv(aff.A) ** 2))
        assert bd.j_term <= dc.C1_W * na0 * nai0 / dc.C0_W * bd2.j_term + 1e-15


class TestHardcore:
    def test_perfect_lattice_clean(self, params, chi_perfect):
        assert len(chi_perfect.hardcore_pairs(params.s0)) == 0

    def test_close_pair_detected(self):
        box = Box(np.zeros(2), np.ones(2))
        pts = np.array([[0.3, 0.3], [0.3, 0.55]])
        chi = Configuration(pts, np.array([True, True]), box, 2.0)
        assert chi.hardcore_pairs(0.5).tolist() == [[0, 1]]

    def test_matches_quadratic_oracle_at_exact_distances(self):
        # rows of atoms 0.5 apart (pairs at exactly s0 = 0.5, excluded), plus random
        # atoms so that pairs fall just inside and just outside s0
        rng = np.random.default_rng(9)
        g = np.arange(0.0, 12.0, 0.5)
        grid = np.stack(np.meshgrid(g, g[::2], indexing="ij"), axis=-1).reshape(-1, 2)
        pts = np.concatenate([grid, rng.uniform(0.0, 12.0, size=(400, 2))])
        box = Box(np.zeros(2), np.full(2, 12.0))
        chi = Configuration(pts, box.contains(pts), box, 5.0, validate=False)
        oracle = brute_pairs(pts, 0.5)
        gaps = np.linalg.norm(pts[oracle[:, 0]] - pts[oracle[:, 1]], axis=1)
        assert np.sum(gaps == 0.5) >= 100
        assert np.array_equal(chi.hardcore_pairs(0.5), oracle[gaps < 0.5])
        assert close_pairs(pts, 0.5).tolist() == oracle.tolist()      # <= r, as query_pairs

    def test_duplicate_atom(self):
        box = Box(np.zeros(2), np.ones(2))
        pts = np.array([[0.3, 0.3], [0.3, 0.3], [0.9, 0.9]])
        chi = Configuration(pts, np.array([True, True, True]), box, 2.0)
        pairs = chi.hardcore_pairs(0.5)
        assert [0, 1] in pairs.tolist()
        d = np.linalg.norm(chi.positions[0] - chi.positions[1])
        assert d == 0.0


class TestRegularAtoms:
    def test_exact_lattice_all_regular(self, params, chi_perfect):
        x = np.array([20.0, 20.0])
        aff = AffinePair(np.eye(2), x % 1.0)
        reg, irr, rho_reg, rho_irr = split_regular_atoms(chi_perfect, aff, 0.2, x, params.lam)
        assert irr.size == 0 and rho_irr == 0.0
        assert rho_reg == pytest.approx(local_density(chi_perfect, x, params.lam), rel=1e-14)

    def test_single_displaced_atom(self, params):
        chi = exact_lattice(np.eye(2), np.zeros(2), params.lam)
        x = np.array([3.0, 3.0])
        idx = int(np.argmin(np.linalg.norm(chi.positions - (x + 2.0), axis=1)))
        beta = 0.1
        pts = chi.positions.copy()
        pts[idx] = pts[idx] + np.array([2.0 * beta, 0.0])
        moved = Configuration(pts, chi.interior, chi.domain, chi.lam)
        aff = AffinePair(np.eye(2), x % 1.0)
        reg, irr, _, rho_irr = split_regular_atoms(moved, aff, beta, x, params.lam)
        assert list(irr) == [idx]
        assert rho_irr > 0.0

    def test_density_partition_exact(self, params, chi_noise):
        x = np.array([20.0, 20.0])
        aff = AffinePair(np.eye(2), np.zeros(2))
        for beta in (0.05, 0.1, default_beta(aff, params)):
            _, _, rho_reg, rho_irr = split_regular_atoms(chi_noise, aff, beta, x, params.lam)
            assert rho_reg + rho_irr == pytest.approx(
                local_density(chi_noise, x, params.lam), rel=1e-13)

    def test_irregular_density_bound(self, params):
        # rho_irr <= J / (C0_W beta^2) over seeded noisy configurations
        dc = params.constants
        for seed in range(20):
            chi = noisy_lattice(0.03, params.lam, seed)
            x = np.array([3.0, 3.0])
            aff = AffinePair(np.eye(2), np.zeros(2))
            j = j_lambda(aff, chi, x, params.lam)
            for beta in (0.05, 0.12, 0.3):
                _, _, _, rho_irr = split_regular_atoms(chi, aff, beta, x, params.lam)
                assert rho_irr <= j / (dc.C0_W * beta**2) + 1e-14

    def test_dist_to_lattice_oracle(self):
        rng = np.random.default_rng(2)
        a = random_a(rng)
        aff = AffinePair(a, rng.random(2))
        rel = rng.uniform(-5, 5, size=(200, 2))
        got = dist_to_lattice(aff, rel)
        # oracle: enumerate a generous block of lattice points
        gx, gy = np.meshgrid(np.arange(-14, 15), np.arange(-14, 15), indexing="ij")
        z = np.stack([gx.ravel(), gy.ravel()], axis=1).astype(float)
        lattice = (z - aff.tau) @ np.linalg.inv(a).T
        oracle = np.min(np.linalg.norm(rel[:, None, :] - lattice[None, :, :], axis=2), axis=1)
        assert np.allclose(got, oracle, atol=1e-12)


class TestRegularPair:
    def test_exact_lattice_regular(self, params, chi_perfect):
        x = np.array([20.0, 20.0])
        aff = AffinePair(np.eye(2), x % 1.0)
        ok, report = is_regular_pair(x, aff, chi_perfect, params)
        assert ok and report.is_regular

    def test_zero_eps_j_flags_j_condition(self, params, chi_noise):
        from latfit.core_model import RegularityThresholds
        x = np.array([20.0, 20.0])
        aff = AffinePair(np.eye(2), np.zeros(2))
        thr = RegularityThresholds(eps_rho=0.125, eps_J=1e-300, C_A=3.0)
        ok, report = is_regular_pair(x, aff, chi_noise, replace(params, thresholds=thr))
        assert not ok
        assert not report.j_ok
        assert report.norm_ok and report.density_ok and report.hardcore_ok

    def test_operator_norm_bound_on_regular_pairs(self, params, chi_noise):
        # regular with eps_rho = 1/8 implies |A| <= C_|A|
        from latfit.fitting import fit_global
        dc = params.constants
        for x in (np.array([15.0, 15.0]), np.array([24.0, 18.0])):
            fit = fit_global(chi_noise, x, params)
            assert fit.regular
            assert np.linalg.norm(fit.aff_hat.A, 2) <= dc.C_absA

    def test_low_energy_thresholds_formulas(self, params):
        thr = low_energy_thresholds(0.05, params)
        det_e = params.elastic.det_e
        assert thr.eps_rho == pytest.approx(2 * 0.05 / (params.vartheta * det_e))
        assert thr.eps_J == pytest.approx(4 * 0.05 / det_e)
        assert thr.C_A == pytest.approx(3.0)
        with pytest.raises(ValueError):
            low_energy_thresholds(10.0, params)


class TestGradWDiagnostic:
    def test_exact_lattice_zero(self, params, chi_perfect):
        x = np.array([20.0, 20.0])
        aff = AffinePair(np.eye(2), x % 1.0)
        lhs, rhs = gradw_sum_diagnostic(aff, chi_perfect, x, params.lam, params.constants)
        assert lhs == pytest.approx(0.0, abs=1e-18)
        assert rhs == pytest.approx(0.0, abs=1e-18)

    def test_noisy_trials(self, params):
        dc = params.constants
        rng = np.random.default_rng(4)
        chi = noisy_lattice(0.05, params.lam, 99)
        for _ in range(1000):
            aff = AffinePair(np.eye(2) + 0.02 * rng.standard_normal((2, 2)), rng.random(2))
            x = rng.uniform(1.0, 5.0, size=2)
            lhs, rhs = gradw_sum_diagnostic(aff, chi, x, params.lam, dc)
            assert lhs >= rhs - 1e-14

    def test_pointwise_inequality_dense_scan(self, params):
        # |grad W|^2 (u, 0) <= alpha * W(u, 0) on a dense 1-D scan
        from latfit.potentials import w_grad
        dc = params.constants
        u = np.linspace(0.0, 1.0, 100001)
        z = np.stack([u, np.zeros_like(u)], axis=1)
        lhs = np.sum(w_grad(z) ** 2, axis=1)
        rhs = dc.alpha_nabla * w_eval(z)
        assert np.all(lhs <= rhs + 1e-14)


class TestScaleTransfer:
    def test_shrunken_scale_cap(self, params):
        # J at the moved base point with lam~ = lam - |x-y| is controlled by
        # (lam/lam~)^d J at the original point
        chi = noisy_lattice(0.02, params.lam, 17)
        rng = np.random.default_rng(8)
        x = np.array([3.0, 3.0])
        aff = AffinePair(np.eye(2), np.array([0.2, 0.7]))
        j_x = j_lambda(aff, chi, x, params.lam)
        for _ in range(50):
            shift = rng.uniform(-1, 1, size=2)
            shift *= rng.uniform(0.1, 0.95) * params.lam / np.linalg.norm(shift)
            y = x + shift
            lam_t = params.lam - float(np.linalg.norm(shift))
            moved = AffinePair(aff.A, aff.tau + aff.A @ shift)
            j_y = j_lambda(moved, chi, y, lam_t)
            assert j_y <= (params.lam / lam_t) ** 2 * j_x + 1e-14
