import json
from dataclasses import replace

import numpy as np
import pytest
from cli_harness import DATA

import kernel_oracles as oracle
from latfit import core_model, fileio, fitting, topology
from latfit.core_model import AffinePair, Box, is_regular_pair
from latfit.fitting import fit_global, tau_init
from latfit.generators import GeneratorSpec, edge_dipole, generate
from latfit.topology import (
    AmbiguousReparamError,
    IrregularSampleError,
    Reparam,
    burgers_loop,
    chain_drift_bound,
    chain_product,
    chain_refinement_invariance,
    classify_product,
    compose,
    densify_loop,
    find_reparam,
)

from conftest import exact_lattice


def random_unimodular(rng, entry_cap=3):
    """Random det-1 integer matrix via products of elementary shears."""
    while True:
        b = np.eye(2, dtype=np.int64)
        for _ in range(rng.integers(1, 5)):
            s = np.eye(2, dtype=np.int64)
            if rng.random() < 0.5:
                s[0, 1] = rng.integers(-2, 3)
            else:
                s[1, 0] = rng.integers(-2, 3)
            b = b @ s
        if np.max(np.abs(b)) <= entry_cap:
            return b


class TestReparamGroup:
    def test_validation(self):
        with pytest.raises(ValueError, match="det B = 1"):
            Reparam(np.array([[1, 0], [0, -1]]), np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="det B = 1"):
            Reparam(np.array([[2, 0], [0, 1]]), np.zeros(2, dtype=int))

    def test_identity_element(self):
        rng = np.random.default_rng(0)
        e = Reparam.identity(2)
        for _ in range(50):
            b = Reparam(random_unimodular(rng), rng.integers(-4, 5, size=2))
            assert compose(b, e) == b
            assert compose(e, b) == b

    def test_inverses(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            b = Reparam(random_unimodular(rng), rng.integers(-4, 5, size=2))
            assert compose(b, b.inverse()).is_identity
            assert compose(b.inverse(), b).is_identity

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            b1, b2, b3 = (Reparam(random_unimodular(rng), rng.integers(-4, 5, size=2))
                          for _ in range(3))
            assert compose(compose(b1, b2), b3) == compose(b1, compose(b2, b3))

    def test_compose_worked_example(self):
        b1 = Reparam(np.array([[1, 1], [0, 1]]), np.array([1, 0]))
        b2 = Reparam(np.array([[1, 0], [1, 1]]), np.array([0, 1]))
        c = compose(b1, b2)
        assert c.B.tolist() == [[2, 1], [1, 1]]
        assert c.t.tolist() == [2, 1]

    def test_product_fold_formula(self):
        rng = np.random.default_rng(3)
        reps = [Reparam(random_unimodular(rng), rng.integers(-3, 4, size=2)) for _ in range(5)]
        prod = chain_product(reps)
        b_expect = np.eye(2, dtype=np.int64)
        for r in reps:
            b_expect = b_expect @ r.B
        t_expect = np.zeros(2, dtype=np.int64)
        for k, r in enumerate(reps):
            prefix = np.eye(2, dtype=np.int64)
            for r2 in reps[:k]:
                prefix = prefix @ r2.B
            t_expect = t_expect + prefix @ r.t
        assert np.array_equal(prod.B, b_expect)
        assert np.array_equal(prod.t, t_expect)


@pytest.fixture(scope="module")
def lattice_fit(params):
    chi = exact_lattice(np.eye(2), np.array([0.2, 0.6]), params.lam)
    y = np.array([3.0, 3.0])
    aff = AffinePair(np.eye(2), tau_init(np.eye(2), chi, y, params.lam))
    return chi, y, aff


class TestFindReparam:
    def test_identity_on_same_fit(self, params, lattice_fit):
        chi, y, aff = lattice_fit
        step = find_reparam((y, aff), (y, aff), chi, params)
        assert step.reparam.is_identity
        assert step.delta_a == 0.0 and step.delta_tau == 0.0

    def test_recovers_applied_reparam(self, params, lattice_fit):
        chi, y, aff = lattice_fit
        rng = np.random.default_rng(4)
        for _ in range(50):
            rep = Reparam(random_unimodular(rng), rng.integers(-3, 4, size=2))
            step = find_reparam((y, rep.apply(aff)), (y, aff), chi, params)
            assert step.reparam == rep
            assert step.delta_a == pytest.approx(0.0, abs=1e-12)

    def test_shifted_base_point(self, params, lattice_fit):
        chi, y, aff = lattice_fit
        y2 = y + np.array([1.1, -0.7])
        aff2 = AffinePair(aff.A, aff.tau + aff.A @ (y2 - y))
        step = find_reparam((y, aff), (y2, aff2), chi, params)
        assert step.reparam.is_identity
        assert step.delta_tau == pytest.approx(0.0, abs=1e-12)

    def test_ambiguous_pair_refused(self, params, lattice_fit):
        chi, y, aff = lattice_fit
        wrong = AffinePair(1.37 * np.eye(2), aff.tau)
        with pytest.raises(AmbiguousReparamError):
            find_reparam((y, wrong), (y, aff), chi, params)

    def test_distance_gate(self, params, lattice_fit):
        chi, y, aff = lattice_fit
        far = y + np.array([1.6 * params.lam, 0.0])
        with pytest.raises(ValueError, match="1.5"):
            find_reparam((y, aff), (far, aff), chi, params)

    def test_antisymmetry(self, params, chi_noise):
        f1 = fit_global(chi_noise, np.array([18.0, 18.0]), params)
        f2 = fit_global(chi_noise, np.array([24.0, 21.0]), params)
        fwd = find_reparam(f1, f2, chi_noise, params)
        back = find_reparam(f2, f1, chi_noise, params)
        assert compose(fwd.reparam, back.reparam).is_identity

    def test_fit_result_j_is_the_recomputed_j(self, params, chi_noise):
        # a FitResult endpoint lends its breakdown's J; a (y, aff) pair recomputes it
        f1 = fit_global(chi_noise, np.array([18.0, 18.0]), params)
        f2 = fit_global(chi_noise, np.array([24.0, 21.0]), params)
        for a, b in ((f1, f2), (f2, f1)):
            reused = find_reparam(a, b, chi_noise, params)
            recomputed = find_reparam((a.position, a.aff_hat), (b.position, b.aff_hat),
                                      chi_noise, params)
            assert reused.j1 == recomputed.j1 == a.breakdown.j_term
            assert reused.j2 == recomputed.j2 == b.breakdown.j_term
            assert reused.reparam == recomputed.reparam
            assert (reused.bound_a, reused.bound_tau) == (recomputed.bound_a, recomputed.bound_tau)

    def test_quantitative_bounds_on_noise(self, params, chi_noise):
        rng = np.random.default_rng(5)
        for _ in range(10):
            y1 = rng.uniform(12.0, 28.0, size=2)
            offset = rng.uniform(-1.0, 1.0, size=2)
            offset *= rng.uniform(0.3, 1.4) * params.lam / np.linalg.norm(offset)
            f1 = fit_global(chi_noise, y1, params)
            f2 = fit_global(chi_noise, y1 + offset, params)
            step = find_reparam(f1, f2, chi_noise, params)
            assert step.delta_a < step.bound_a
            assert step.delta_tau < step.bound_tau


class TestTriangle:
    """B13 = B12 B23 and t13 = B12 t23 + t12, exact integer identities."""

    @staticmethod
    def triangle_holds(fit1, fit2, fit3, chi, params):
        s12 = find_reparam(fit1, fit2, chi, params)
        s23 = find_reparam(fit2, fit3, chi, params)
        s13 = find_reparam(fit1, fit3, chi, params)
        return compose(s12.reparam, s23.reparam) == s13.reparam

    def test_exact_lattice(self, params, lattice_fit):
        chi, y, aff = lattice_fit
        mk = lambda p: (p, AffinePair(aff.A, aff.tau + aff.A @ (p - y)))
        assert self.triangle_holds(mk(y), mk(y + np.array([4.0, 1.0])),
                                   mk(y + np.array([1.0, 4.0])), chi, params)

    def test_degenerate_coincident_points(self, params, lattice_fit):
        chi, y, aff = lattice_fit
        assert self.triangle_holds((y, aff), (y, aff), (y, aff), chi, params)

    def test_smooth_shear(self, params):
        chi, _ = generate(GeneratorSpec(kind="shear", gamma=0.01, domain_lo=(0, 0),
                                        domain_hi=(40, 40), lam=params.lam))
        pts = [np.array([16.0, 16.0]), np.array([24.0, 18.0]), np.array([18.0, 25.0])]
        fits = [fit_global(chi, p, params) for p in pts]
        assert self.triangle_holds(*fits, chi, params)


class TestRefinementInvariance:
    def test_insert_and_remove_midpoint(self, params, chi_noise):
        pts = [np.array([14.0, 14.0]), np.array([22.0, 16.0]), np.array([26.0, 24.0])]
        fits = [fit_global(chi_noise, p, params) for p in pts]
        mid = fit_global(chi_noise, 0.5 * (pts[0] + pts[1]), params)
        assert chain_refinement_invariance(fits, 1, mid, chi_noise, params)
        # removing an interior point: the refined chain gives the same product
        refined = fits[:1] + [mid] + fits[1:]
        chain = [(f.position, f.aff_hat) for f in refined]
        steps_full = [find_reparam(chain[i], chain[i + 1], chi_noise, params)
                      for i in range(len(chain) - 1)]
        pruned = [chain[0], chain[2], chain[3]]
        steps_pruned = [find_reparam(pruned[i], pruned[i + 1], chi_noise, params)
                        for i in range(len(pruned) - 1)]
        assert chain_product(steps_full) == chain_product(steps_pruned)

    def test_irregular_insert_refused(self, params8, dislocation8):
        chi, truth = dislocation8
        core = truth.core
        left = fit_global(chi, core + np.array([-8.0, 0.0]), params8)
        right = fit_global(chi, core + np.array([8.0, 0.0]), params8)
        near_core = (core + np.array([0.0, 0.4]),
                     AffinePair(1.25 * np.eye(2), np.zeros(2)))
        with pytest.raises(IrregularSampleError):
            chain_refinement_invariance([left, right], 1, near_core, chi, params8)

    def test_integer_check_is_the_product_comparison(self, params, lattice_fit):
        # bare pairs in different integer gauges, so no step is the identity: inserting a
        # point anywhere gives what comparing the two chains' find_reparam products gives
        chi, y, aff = lattice_fit
        gauges = [Reparam(np.array(b), np.array(t)) for b, t in (
            ([[1, 0], [0, 1]], [0, 0]), ([[1, 1], [0, 1]], [1, -2]),
            ([[1, 0], [-1, 1]], [0, 3]), ([[2, 1], [1, 1]], [-1, 0]))]
        pts = [y + np.array(v) for v in ([0.0, 0.0], [8.0, 2.0], [14.0, 8.0])]

        def pair(p, gauge):
            return p, gauge.apply(AffinePair(aff.A, aff.tau + aff.A @ (p - y)))

        def product(chain):
            return chain_product([find_reparam(a, b, chi, params)
                                  for a, b in zip(chain, chain[1:])])

        chain = [pair(p, g) for p, g in zip(pts, gauges)]
        for k in (1, 2):
            new = pair(0.5 * (pts[k - 1] + pts[k]), gauges[3])
            assert product(chain) == product(chain[:k] + [new] + chain[k:])
            assert chain_refinement_invariance(chain, k, new, chi, params)
        # a step beyond 1.5 lam is refused as find_reparam refuses it
        far = chain + [pair(pts[2] + [19.0, 0.0], gauges[0])]
        with pytest.raises(ValueError, match="chain steps require"):
            chain_refinement_invariance(far, 1, pair(0.5 * (pts[0] + pts[1]), gauges[3]),
                                        chi, params)


def square_loop(center, radius, max_step):
    c = np.asarray(center, dtype=float)
    corners = np.array([c + [-radius, -radius], c + [radius, -radius],
                        c + [radius, radius], c + [-radius, radius],
                        c + [-radius, -radius]])
    return densify_loop(corners, max_step)


class TestBurgersLoop:
    def test_defect_free_loop_trivial(self, params, chi_noise):
        loop = square_loop([20.0, 20.0], 6.0, 1.2 * params.lam)
        res = burgers_loop(chi_noise, loop, params)
        assert res.product.is_identity
        assert res.classification == "trivial"

    def test_edge_dislocation_detected(self, params8, dislocation8):
        chi, truth = dislocation8
        count = oracle.half_plane_count_oracle(chi, truth.core, np.array([1.0, 0.0]), 8.0)
        assert count == 1  # one inserted half-plane, matching the generator truth
        assert truth.burgers.tolist() == [1, 0]
        products = []
        for radius in (8.0, 11.0):
            res = burgers_loop(chi, square_loop(truth.core, radius, 1.2 * params8.lam), params8)
            assert res.classification == "translation-defect"
            ref = oracle.express_in_frame(res.product, res.fits[0].aff_hat, np.eye(2))
            assert np.array_equal(ref.B, np.eye(2, dtype=np.int64))
            products.append(tuple(ref.t))
        # same homotopy class at both radii, Burgers content = -count * e1 for
        # the counterclockwise orientation
        assert products[0] == products[1] == (-count, 0)

    def test_non_enclosing_loop_trivial(self, params8, dislocation8):
        chi, truth = dislocation8
        res = burgers_loop(chi, square_loop(truth.core + np.array([13.0, 13.0]), 4.0,
                                            1.1 * params8.lam), params8)
        assert res.product.is_identity

    def test_dipole_cancels(self, params8):
        box = Box(np.array([-24.0, -24.0]), np.array([24.0, 24.0]))
        chi, truth = edge_dipole(box, 8.0, core1=(-6.5, 0.5), core2=(7.5, 0.5))
        res = burgers_loop(chi, square_loop([0.5, 0.5], 16.0, 1.2 * params8.lam), params8)
        assert res.product.is_identity
        assert res.classification == "trivial"

    def test_irregular_sample_named(self, params8, dislocation8):
        chi, truth = dislocation8
        from latfit.core_model import low_energy_thresholds
        tight = low_energy_thresholds(0.01, params8)
        loop = square_loop(truth.core, 1.5, 1.0 * params8.lam)
        with pytest.raises(IrregularSampleError, match="sample"):
            burgers_loop(chi, loop, replace(params8, thresholds=tight))

    @pytest.mark.parametrize("loop, message", [
        ([[20.0, 20.0]] * 3, "at least 3 distinct points, got 1"),
        ([[20.0, 20.0], [25.0, 20.0], [20.0, 20.0]], "at least 3 distinct points, got 2"),
        ([[20.0, 20.0], [25.0, 20.0], [30.0, 20.0], [20.0, 20.0]], "all lie on one line"),
        (densify_loop([[16.0, 16.0], [30.1, 23.3], [16.0, 16.0]], 4.0), "all lie on one line"),
    ], ids=["coincident", "back_and_forth", "collinear", "densified_back_and_forth"])
    def test_loop_enclosing_nothing_refused(self, params, chi_noise, loop, message):
        with pytest.raises(ValueError, match=message):
            burgers_loop(chi_noise, np.asarray(loop), params)

    def test_open_loop_rejected(self, params, chi_noise):
        pts = np.array([[16.0, 16.0], [22.0, 16.0], [22.0, 22.0]])
        with pytest.raises(ValueError, match="closed"):
            burgers_loop(chi_noise, pts, params)

    def test_homomorphism_on_concatenated_loops(self, params, chi_noise):
        # two loops sharing a base point: product of the concatenation equals
        # the composition of the products
        base = np.array([20.0, 20.0])
        l1 = square_loop(base + [3.0, 3.0], 3.0, 1.2 * params.lam)
        l2 = square_loop(base - [3.0, 3.0], 3.0, 1.2 * params.lam)

        def open_products(loop):
            pts = np.vstack([[base], loop, [base]])
            fits = [fit_global(chi_noise, p, params) for p in pts[:-1]]
            fits.append(fits[0])
            steps = [find_reparam(fits[i], fits[i + 1], chi_noise, params)
                     for i in range(len(fits) - 1)]
            return fits, steps

        f1, s1 = open_products(l1)
        f2, s2 = open_products(l2)
        concat = s1 + s2
        assert chain_product(concat) == compose(chain_product(s1), chain_product(s2))

    def test_refinement_verified_loop(self, params, chi_noise):
        loop = square_loop([20.0, 20.0], 5.0, 1.2 * params.lam)
        res = burgers_loop(chi_noise, loop, params, verify_refinement=True)
        assert res.product.is_identity

    def test_refinement_check_gathers_no_misfit(self, params, chi_noise):
        # the loop's fits carry J and the refinement check needs integers alone
        calls = []
        j_lambda = core_model.j_lambda

        def counting_j_lambda(*args):
            calls.append(args)
            return j_lambda(*args)

        loop = square_loop([20.0, 20.0], 5.0, 1.2 * params.lam)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(topology, "j_lambda", counting_j_lambda)
            mp.setattr(core_model, "j_lambda", counting_j_lambda)
            res = burgers_loop(chi_noise, loop, params, verify_refinement=True)
        assert res.product.is_identity and len(res.fits) == 4
        assert calls == []


def test_loop_continuation_matches_multistart():
    # golden dislocation, the half-width 6 and 10 loops of the golden-loops
    # benchmark: each continued sample is no higher than the multistart's, and
    # at half-width 6 a forward sweep alone ends in a higher basin, so the
    # guard must fire there
    params, domain = fileio.load_params(DATA / "params.json")
    positions, interior = fileio.read_atoms_csv(DATA / "golden_atoms.csv")
    chi = fileio.configuration_from_arrays(positions, interior, params, domain)
    core = json.loads((DATA / "golden_truth.json").read_text())["core"]
    guarded = []

    def recording_fit_global(chi, x, params, warm_starts=()):
        if warm_starts:
            guarded.append(half_width)
        return fit_global(chi, x, params, warm_starts=warm_starts)

    for half_width in (6.0, 10.0):
        loop = square_loop(core, half_width, 1.2 * params.lam)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fitting, "fit_global", recording_fit_global)
            res = burgers_loop(chi, loop, params)
        ref = burgers_loop(chi, loop, params,
                           fits=[fit_global(chi, p, params) for p in loop[:-1]])
        assert len(res.fits) == len(ref.fits) == len(loop) - 1
        for fc, fr in zip(res.fits, ref.fits):
            assert fc.regular
            assert fc.breakdown.total <= fr.breakdown.total + 1e-12
        assert res.product == ref.product
        assert res.classification == ref.classification == "translation-defect"
    assert 6.0 in guarded


def assert_same_fit(new, ref):
    assert np.array_equal(new.aff_hat.A, ref.aff_hat.A)
    assert np.array_equal(new.aff_hat.tau, ref.aff_hat.tau)
    assert new.breakdown == ref.breakdown and new.report == ref.report
    assert (new.iterations, new.n_candidates, new.converged, new.grad_norm) == \
        (ref.iterations, ref.n_candidates, ref.converged, ref.grad_norm)


def test_stacked_sweeps_match_sequential_oracle():
    # the golden loops of half-widths 6 (where the guard fires, see above) and 10:
    # both sweeps stepped as one 2-row stack, and `fit_between`'s two continuations
    # as one, are the one-step-at-a-time runs bit for bit
    params, domain = fileio.load_params(DATA / "params.json")
    positions, interior = fileio.read_atoms_csv(DATA / "golden_atoms.csv")
    chi = fileio.configuration_from_arrays(positions, interior, params, domain)
    core = json.loads((DATA / "golden_truth.json").read_text())["core"]
    for half_width in (6.0, 10.0):
        pts = square_loop(core, half_width, 1.2 * params.lam)[:-1]
        fits = fitting.fit_loop(chi, pts, params)
        ref = oracle.fit_loop(chi, pts, params)
        assert len(fits) == len(ref) == len(pts)
        for new, old in zip(fits, ref):
            assert_same_fit(new, old)
        ends = ((pts[0], fits[0].aff_hat), (pts[1], fits[1].aff_hat))
        mid = 0.5 * (pts[0] + pts[1])
        assert_same_fit(fitting.fit_between(chi, mid, params, ends),
                        oracle.fit_between(chi, mid, params, ends))


def test_fit_loop_samples_carry_their_regularity_test():
    # burgers_loop reads f.regular of fit_loop's samples instead of testing them again
    params, domain = fileio.load_params(DATA / "params.json")
    positions, interior = fileio.read_atoms_csv(DATA / "golden_atoms.csv")
    chi = fileio.configuration_from_arrays(positions, interior, params, domain)
    core = json.loads((DATA / "golden_truth.json").read_text())["core"]
    for half_width in (6.0, 10.0):
        pts = square_loop(core, half_width, 1.2 * params.lam)[:-1]
        for f in fitting.fit_loop(chi, pts, params):
            assert f.regular == is_regular_pair(f.position, f.aff_hat, chi, params)[0]


class TestChainDrift:
    def test_exact_lattice_zero(self, params, lattice_fit):
        chi, y, aff = lattice_fit
        mk = lambda p: (p, AffinePair(aff.A, aff.tau + aff.A @ (p - y)))
        fits = [mk(y + np.array([2.0 * k, 0.5 * k])) for k in range(4)]
        db = chain_drift_bound(fits, chi, params)
        assert db.lhs_a == pytest.approx(0.0, abs=1e-12)
        assert db.lhs_tau == pytest.approx(0.0, abs=1e-12)
        assert db.rhs_a == pytest.approx(0.0, abs=1e-12)

    def test_noisy_chain_bounded(self, params, chi_noise):
        rng = np.random.default_rng(6)
        pos = np.array([12.0, 12.0])
        fits = [fit_global(chi_noise, pos, params)]
        for _ in range(9):
            step = rng.uniform(-1.0, 1.0, size=2)
            step *= rng.uniform(0.5, 1.3) * params.lam / np.linalg.norm(step)
            nxt = np.clip(pos + step, 10.0, 30.0)
            if np.linalg.norm(nxt - pos) < 1.0:
                continue
            pos = nxt
            fits.append(fit_global(chi_noise, pos, params))
        db = chain_drift_bound(fits, chi_noise, params)
        assert db.lhs_a <= db.rhs_a
        assert db.lhs_tau <= db.rhs_tau

    def test_single_step_consistent_with_jump_bound(self, params, chi_noise):
        f1 = fit_global(chi_noise, np.array([18.0, 18.0]), params)
        f2 = fit_global(chi_noise, np.array([25.0, 20.0]), params)
        db = chain_drift_bound([f1, f2], chi_noise, params)
        step = find_reparam(f1, f2, chi_noise, params)
        # lhs reduces to the single-step residual (operator vs Frobenius norm)
        assert db.lhs_a <= step.delta_a + 1e-15
        assert db.lhs_tau == pytest.approx(step.delta_tau, abs=1e-12)
        assert db.lhs_a <= db.rhs_a and db.lhs_tau <= db.rhs_tau


class TestDensify:
    def test_max_step_respected(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 7.0]])
        out = densify_loop(pts, 3.0)
        assert np.all(np.linalg.norm(np.diff(out, axis=0), axis=1) <= 3.0 + 1e-12)
        assert np.allclose(out[0], pts[0]) and np.allclose(out[-1], pts[-1])


class TestClassification:
    def test_classify(self):
        assert classify_product(Reparam.identity(2)) == "trivial"
        assert classify_product(Reparam(np.eye(2, dtype=int), np.array([1, 0]))) \
            == "translation-defect"
        assert classify_product(Reparam(np.array([[1, 1], [0, 1]]), np.zeros(2, dtype=int))) \
            == "rotational-defect"
