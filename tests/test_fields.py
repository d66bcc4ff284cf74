import dataclasses
import math
import tracemalloc

import kernel_oracles as oracle
import numpy as np
import pytest
from cli_harness import DATA, FIELD_ATOL, FIELD_RTOL
from conftest import assert_same_fit, lattice_from_map
from scipy.linalg import polar

from latfit import fields, fileio, potentials
from latfit.core_model import AffinePair, Box, Configuration, ModelParams, low_energy_thresholds
from latfit.fields import (
    FCResult,
    GridGeometry,
    defect_map,
    evaluate_grid,
    f_c,
    fd_gradients,
    gradient_bound_check,
    lower_bound_report,
    plaquette_products,
    theorem2_check,
    unimodular_matrices,
)
from latfit import fitting
from latfit.fitting import FitError, fit_global, fit_global_stack
from latfit.generators import Box as GenBox  # same class, readability
from latfit.generators import GeneratorSpec, edge_dipole, generate
from latfit.potentials import c_con, c_tilde_nabla
from latfit.topology import Reparam, ReparamError, compose, find_reparam


@pytest.fixture(scope="module")
def grid_params():
    return ModelParams(d=2, lam=8.0, s0=0.5)


@pytest.fixture(scope="module")
def perfect_field(grid_params):
    chi, _ = generate(GeneratorSpec(kind="perfect", domain_lo=(0, 0), domain_hi=(30, 30),
                                    lam=grid_params.lam))
    geom = GridGeometry(origin=(8.0, 8.0), h=2.0, nx=8, ny=8)
    return chi, evaluate_grid(chi, geom, grid_params)


class TestEvaluateGrid:
    def test_all_valid_single_component(self, perfect_field):
        chi, field = perfect_field
        assert bool(np.all(field.valid))
        assert set(np.unique(field.component)) == {0}

    def test_alignment_consistent(self, perfect_field, grid_params):
        chi, field = perfect_field
        plq = plaquette_products(field, chi)
        assert len(plq) == 49
        assert all(p.is_identity for p in plq.values())

    def test_seed_alignment_identity(self, perfect_field):
        _, field = perfect_field
        seeds = [(ix, iy) for iy in range(8) for ix in range(8)
                 if field.align[iy][ix] is not None and field.align[iy][ix].is_identity]
        assert seeds  # at least the seed node carries the identity

    def test_spacing_gate(self, grid_params, perfect_field):
        chi, _ = perfect_field
        with pytest.raises(ValueError, match="lam/4"):
            evaluate_grid(chi, GridGeometry(origin=(8, 8), h=4.0, nx=3, ny=3), grid_params)


class TestGradients:
    def test_exact_lattice_gradients(self, perfect_field, grid_params):
        _, field = perfect_field
        grads = fd_gradients(field)
        inner = field.valid.copy()
        inner[0, :] = inner[-1, :] = inner[:, 0] = inner[:, -1] = False
        for iy, ix in np.argwhere(inner):
            # grad tau equals the aligned A exactly (to fit tolerance)
            assert np.allclose(grads.grad_tau[iy, ix], field.a_tilde[iy, ix], atol=1e-7)
            assert np.max(np.abs(grads.hess_tau[iy, ix])) < 1e-7
            assert grads.order[iy, ix] == 2

    def test_linear_shear_constant_gradient(self, grid_params):
        gamma = 0.02
        chi, truth = generate(GeneratorSpec(kind="shear", gamma=gamma, domain_lo=(0, 0),
                                            domain_hi=(30, 30), lam=grid_params.lam))
        geom = GridGeometry(origin=(9.0, 9.0), h=2.0, nx=6, ny=6)
        field = evaluate_grid(chi, geom, grid_params)
        grads = fd_gradients(field)
        a_true = truth.a_at([15.0, 15.0])
        iy, ix = 2, 2
        gt = grads.grad_tau[iy, ix]
        # equal to the applied field up to one global integer relabeling
        r = gt @ np.linalg.inv(a_true)
        assert np.max(np.abs(r - np.round(r))) < 1e-6
        assert np.max(np.abs(grads.hess_tau[iy, ix])) < 1e-6
        # all interior nodes carry the same gradient
        for jy, jx in ((2, 3), (3, 2), (3, 3)):
            assert np.allclose(grads.grad_tau[jy, jx], gt, atol=1e-6)

    def test_sinusoidal_second_gradient(self, grid_params):
        # imposed map z -> z + amp sin(k z1) e2; second derivative of the tau
        # field matches the analytic curvature of the imposed map within 10%.
        # the wavelength must be >> the 2*lam fit window, which mollifies the
        # field (attenuation ~ (k lam)^2 / 4)
        lam = grid_params.lam
        amp = 0.01 * lam
        k = 2.0 * math.pi / 120.0
        box = Box(np.zeros(2), np.array([120.0, 24.0]))

        def disp(z):
            out = np.array(z, dtype=float)
            out[:, 1] = out[:, 1] + amp * np.sin(k * out[:, 0])
            return out

        chi = lattice_from_map(disp, box, lam)
        # sample around the curvature peak at k x = pi/2 (x = 30)
        geom = GridGeometry(origin=(26.0, 8.0), h=2.0, nx=5, ny=5)
        field = evaluate_grid(chi, geom, grid_params)
        grads = fd_gradients(field)
        checked = 0
        for iy in range(1, 4):
            for ix in range(1, 4):
                if not grads.hess_ok[iy, ix]:
                    continue
                x = geom.node(ix, iy)
                analytic = amp * k * k * math.sin(k * x[0])
                hess_vals = grads.hess_tau[iy, ix][:, 0, 0]
                measured = float(hess_vals[np.argmax(np.abs(hess_vals))])
                assert abs(abs(measured) - abs(analytic)) <= 0.10 * abs(analytic)
                checked += 1
        assert checked >= 4

    def test_refinement_order(self, grid_params):
        # central differences of the branch field are second order: the change
        # of grad tau under h -> h/2 shrinks by ~4x (the window-mollification
        # bias of the branch itself is h-independent and cancels)
        lam = grid_params.lam
        amp, k = 0.08, 2.0 * math.pi / 40.0
        box = Box(np.zeros(2), np.array([40.0, 30.0]))

        def disp(z):
            out = np.array(z, dtype=float)
            out[:, 1] = out[:, 1] + amp * np.sin(k * out[:, 0])
            return out

        chi = lattice_from_map(disp, box, lam)
        center = np.array([17.0, 15.0])
        grads = []
        for h in (2.0, 1.0, 0.5):
            geom = GridGeometry(origin=center - h, h=h, nx=3, ny=3)
            field = evaluate_grid(chi, geom, grid_params)
            g = fd_gradients(field).grad_tau[1, 1]
            # undo the per-run alignment frame before comparing across runs
            b_inv = np.linalg.inv(field.align[1][1].B)
            grads.append(b_inv @ g)
        e1 = np.linalg.norm(grads[0] - grads[1])
        e2 = np.linalg.norm(grads[1] - grads[2])
        order = math.log(e1 / e2, 2.0)
        assert order >= 1.8


class TestFC:
    def test_unimodular_enumeration(self):
        mats = unimodular_matrices(2, 1)
        assert all(round(float(np.linalg.det(b))) == 1 for b in mats)
        assert any(np.array_equal(b, np.eye(2, dtype=np.int64)) for b in mats)

    def test_reference_value_near_zero(self, grid_params):
        res = f_c(np.eye(2), grid_params, rho_ratio=1.0)
        assert isinstance(res, FCResult)
        assert 0.0 <= res.value <= 1e-10  # F(E) + O(lam^{-2}) couplings
        assert res.remark_value == pytest.approx(0.0, abs=1e-12)

    def test_rotation_invariance(self, grid_params):
        th = 0.4
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        res = f_c(rot, grid_params, rho_ratio=1.0)
        ref = f_c(np.eye(2), grid_params, rho_ratio=1.0)
        assert res.value == pytest.approx(ref.value, abs=1e-10)

    def test_feasible_point_bound(self, grid_params):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
            if np.linalg.det(a) <= 0.5:
                continue
            res = f_c(a, grid_params, rho_ratio=1.0)
            assert res.value <= grid_params.elastic.f_el(a) + 1e-12
            # remark value is the minimum of F over the relabeled orbit
            vals = [grid_params.elastic.f_el(np.linalg.inv(b) @ a)
                    for b in unimodular_matrices(2, 2)]
            assert res.remark_value == min(vals)    # one stacked kernel call, bit for bit

    def test_value_is_certified_by_a_feasible_point(self, grid_params):
        """value is the coupling functional at (B = I, A1 = A2 = E R) or the remark value.

        R is the polar factor of E^T A, so E R is the point of E SO(d) nearest
        to A, found without a singular-value sum.
        Each feasible value is an upper bound on the infimum F_C, so a value
        above the smaller one is looser and a value below it is unsound.
        """
        el, dc, lam = grid_params.elastic, grid_params.constants, grid_params.lam
        th = 0.4
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        rng = np.random.default_rng(3)   # the matrices of test_feasible_point_bound
        near_identity = [np.eye(2) + 0.1 * rng.standard_normal((2, 2)) for _ in range(5)]
        stretched = np.diag([1.2, 1.1])  # det A != det E
        for a in [np.eye(2), rot, *near_identity, stretched]:
            res = f_c(a, grid_params, rho_ratio=1.0)
            det_a = float(np.linalg.det(a))
            c_con_val = c_con(det_a, det_a, 2, dc)
            k2 = c_con_val / (3.0 * dc.C_rep) * det_a * lam**2
            k3 = 0.5 * c_tilde_nabla(1.0, c_con_val, dc) * det_a * lam**2
            r, _ = polar(el.E.T @ a)
            a1 = a2 = el.E @ r
            b = np.eye(2)
            # F(A2) = 0: A2 lies on E SO(d)
            u = (k2 * float(np.sum(np.linalg.inv(b @ a2) ** 2)) * float(np.sum((b @ a2 - a1) ** 2))
                 + k3 * float(np.sum(np.linalg.inv(a1) ** 2)) * float(np.sum((a - a1) ** 2)))
            # roundoff in |A - E R|^2 scales with |A| |A - E R|, not with U: hence the k3 term
            tol = 1e-15 * (u + k3)
            assert 0.0 <= res.value <= res.remark_value
            assert res.value <= u + tol
            assert res.value >= min(u, res.remark_value) - tol

    def test_rejects_flipped_gradient(self, grid_params):
        with pytest.raises(ValueError, match="det"):
            f_c(np.diag([1.0, -1.0]), grid_params, 1.0)


class TestLowerBound:
    def test_perfect_lattice_slack(self, perfect_field):
        chi, field = perfect_field
        rep = lower_bound_report(field)
        assert len(rep.entries) > 0
        assert rep.min_slack >= -1e-10
        e = rep.entries[0]
        assert e.h_hat == pytest.approx(0.0, abs=1e-8)
        assert e.rhs == pytest.approx(0.0, abs=1e-8)
        assert e.grad_term_half >= e.grad_term

    def test_strained_lattice_slack_and_fc_dominates(self, grid_params):
        gamma = 0.05
        chi, _ = generate(GeneratorSpec(kind="shear", gamma=gamma, domain_lo=(0, 0),
                                        domain_hi=(30, 30), lam=grid_params.lam))
        geom = GridGeometry(origin=(9.0, 9.0), h=2.0, nx=6, ny=6)
        field = evaluate_grid(chi, geom, grid_params)
        rep = lower_bound_report(field)
        assert rep.min_slack >= -1e-10
        for e in rep.entries:
            assert e.f_c_value >= e.grad_term  # rhs dominated by the F_C term

    def test_bent_lattice_slack(self, grid_params):
        kappa = 0.1 / grid_params.lam**2
        chi, _ = generate(GeneratorSpec(kind="bend", kappa=kappa, domain_lo=(0, 0),
                                        domain_hi=(30, 30), lam=grid_params.lam))
        geom = GridGeometry(origin=(9.0, 9.0), h=2.0, nx=6, ny=6)
        field = evaluate_grid(chi, geom, grid_params)
        rep = lower_bound_report(field)
        assert len(rep.entries) > 0
        assert rep.min_slack >= -1e-10

    def test_gradient_bound_all_nodes(self, perfect_field):
        _, field = perfect_field
        checks = gradient_bound_check(field)
        assert len(checks) > 0
        assert all(lhs >= rhs - 1e-12 for _, lhs, rhs in checks)

    def test_gradient_bound_on_noisy_grid(self, params):
        # a noisy lattice: every node with central differences obeys J >= rhs
        chi, _ = generate(GeneratorSpec(kind="noise", sigma=0.02, seed=21,
                                        domain_lo=(0, 0), domain_hi=(40, 40), lam=params.lam))
        field = evaluate_grid(chi, GridGeometry(origin=(14.0, 17.0), h=1.5, nx=7, ny=5), params)
        checks = gradient_bound_check(field)
        assert int(field.valid.sum()) == 35 and len(checks) == 15
        assert all(lhs >= rhs for _, lhs, rhs in checks)

    def test_requires_full_stencil(self, perfect_field):
        _, field = perfect_field
        grads = fd_gradients(field)
        with pytest.raises(ValueError, match="stencil"):
            theorem2_check(field, (0, 0), grads)


def assert_rings_match_oracle(field, chi):
    """`plaquette_products` and `defect_map`'s ring products equal a fresh `find_reparam` fold."""
    ny, nx = field.shape
    want = {(ix, iy): oracle.ring_product(field, [(ix, iy), (ix + 1, iy), (ix + 1, iy + 1),
                                                  (ix, iy + 1)], chi)
            for iy in range(ny - 1) for ix in range(nx - 1)}
    dm = defect_map(field, chi)
    assert dm.plaquettes == {node: p for node, p in want.items() if p is not None}
    assert plaquette_products(field, chi) == dm.plaquettes
    for cluster in dm.clusters:
        if cluster.ring is not None:
            assert cluster.product == oracle.ring_product(field, list(cluster.ring), chi)
    return dm


class TestDefectMap:
    def test_defect_free(self, perfect_field):
        chi, field = perfect_field
        dm = defect_map(field, chi)
        assert dm.clusters == ()

    def test_refused_ring_step_tries_larger_ring(self, perfect_field):
        chi, field = perfect_field
        c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
        rot = np.array([[c, -s], [s, c]])

        def with_defect(invalid, rotated):
            """The field with one node invalid and one fit turned by 30 degrees."""
            valid = field.valid.copy()
            valid[invalid[1], invalid[0]] = False
            fits = [row[:] for row in field.fits]
            ix, iy = rotated
            aff = fits[iy][ix].aff_hat
            fits[iy][ix] = dataclasses.replace(fits[iy][ix],
                                               aff_hat=AffinePair(rot @ aff.A, aff.tau))
            return dataclasses.replace(field, valid=valid, fits=fits)

        # the turned node sits on the smallest ring only; the next ring carries the content
        turned = with_defect((3, 3), (2, 2))
        (cluster,) = defect_map(turned, chi).clusters
        assert not cluster.unringable and (2, 2) not in cluster.ring
        assert cluster.product is not None and cluster.product.is_identity
        assert cluster.classification == "trivial"
        # the link table says why the smallest ring was refused
        for u, v in (((1, 2), (2, 2)), ((2, 2), (1, 2))):
            refusal = turned.link(u, v)
            assert isinstance(refusal, str) and "A-rounding gap" in refusal
        assert isinstance(turned.link((1, 1), (1, 2)), Reparam)
        assert_rings_match_oracle(turned, chi)
        # no larger ring fits inside the grid
        corner = with_defect((1, 1), (0, 0))
        (cluster,) = defect_map(corner, chi).clusters
        assert cluster.unringable and cluster.ring is None and cluster.product is None
        assert_rings_match_oracle(corner, chi)

    def test_single_dislocation_cluster_and_ring(self, grid_params, dislocation8):
        chi, truth = dislocation8
        tight = low_energy_thresholds(0.01, grid_params)
        geom = GridGeometry(origin=(-12.0, -12.0), h=2.0, nx=13, ny=13)
        field = evaluate_grid(chi, geom, grid_params, thresholds=tight)
        assert not bool(field.valid.all())
        # invalid nodes concentrate near the core
        for iy, ix in np.argwhere(~field.valid):
            assert np.linalg.norm(geom.node(ix, iy) - truth.core) < 6.0
        dm = defect_map(field, chi)
        assert len(dm.clusters) == 1
        cluster = dm.clusters[0]
        assert not cluster.unringable
        assert cluster.classification == "translation-defect"
        assert np.array_equal(cluster.product.B, np.eye(2, dtype=np.int64))
        assert sorted(np.abs(cluster.product.t).tolist()) == [0, 1]
        assert all(p.is_identity for p in dm.plaquettes.values())

    def test_dipole_ring_cancels(self, grid_params):
        box = GenBox(np.array([-24.0, -24.0]), np.array([24.0, 24.0]))
        chi, _ = edge_dipole(box, grid_params.lam, core1=(-6.5, 0.5), core2=(7.5, 0.5))
        tight = low_energy_thresholds(0.01, grid_params)
        geom = GridGeometry(origin=(-16.0, -10.0), h=2.0, nx=17, ny=11)
        field = evaluate_grid(chi, geom, grid_params, thresholds=tight)
        dm = defect_map(field, chi)
        ringed = [c for c in dm.clusters if not c.unringable]
        assert ringed
        # a ring around both cores (or the merged cluster) carries zero net content
        both = [c for c in ringed if len(c.nodes) >= 2]
        for c in ringed:
            ring_nodes = np.array([geom.node(ix, iy) for ix, iy in c.ring])
            lo, hi = ring_nodes.min(axis=0), ring_nodes.max(axis=0)
            encloses_both = (lo[0] < -6.5 < hi[0]) and (lo[0] < 7.5 < hi[0]) \
                and (lo[1] < 0.5 < hi[1])
            if encloses_both:
                assert c.product.is_identity


@pytest.mark.parametrize("offset", [(ox, oy) for oy in (0.5, 0.95) for ox in (0.05, 0.45, 0.95)],
                         ids=lambda o: f"{o[0]}-{o[1]}")
def test_wide_dipole_rings_each_core(grid_params, offset):
    """Cores 24 apart (3 lam) at six offsets in the unit cell: one ring around each core.

    The dipole-defects setup (lam 8, h 2, tight thresholds) on a grid wide
    enough to ring each core apart.  Each core is enclosed, by its ring's
    node bounding box, by exactly one ring, whose product in the lab frame
    (`express_in_frame` on the ring's first raw fit) is B = I with
    t = (-1, 0) around the +b core and (1, 0) around the -b core, the sign
    of test_edge_dislocation_detected's counterclockwise loops.  A ring that
    encloses no core reports the identity.
    """
    ox, oy = offset
    cores = {(-12.0 + ox, oy): [-1, 0], (12.0 + ox, oy): [1, 0]}
    box = GenBox(np.array([-28.0, -24.0]), np.array([28.0, 24.0]))
    chi, _ = edge_dipole(box, grid_params.lam, core1=(-12.0 + ox, oy), core2=(12.0 + ox, oy))
    geom = GridGeometry(origin=(-20.0, -10.0), h=2.0, nx=21, ny=11)
    field = evaluate_grid(chi, geom, grid_params,
                          thresholds=low_energy_thresholds(0.01, grid_params))
    enclosing = {core: [] for core in cores}
    for c in defect_map(field, chi).clusters:
        if c.unringable:
            continue
        ring = np.array([geom.node(ix, iy) for ix, iy in c.ring])
        lo, hi = ring.min(axis=0), ring.max(axis=0)
        inside = [core for core in cores if np.all((lo < core) & (core < hi))]
        for core in inside:
            enclosing[core].append(c)
        if not inside:
            assert c.product.is_identity, c.ring
    for core, t in cores.items():
        assert len(enclosing[core]) == 1, (core, len(enclosing[core]))
        (c,) = enclosing[core]
        ix, iy = c.ring[0]
        lab = oracle.express_in_frame(c.product, field.fits[iy][ix].aff_hat, np.eye(2))
        assert np.array_equal(lab.B, np.eye(2, dtype=np.int64)) and lab.t.tolist() == t, core


def multistart_field(chi, geom, params, thresholds=None):
    """The field of the per-node multistart: `fit_global` at every node, as before continuation.

    Refusing every continuation step sends each node to the unchanged
    `fit_global` fallback; alignment and branch stages are evaluate_grid's own.
    """
    def refuse(obj, affs, *args, **kwargs):
        return [None] * len(affs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "_fit_from_rows", refuse)
        return evaluate_grid(chi, geom, params, thresholds=thresholds)


def within_field_tol(got, want):
    return abs(got - want) <= FIELD_ATOL + FIELD_RTOL * abs(want)


def test_continuation_matches_multistart():
    # golden 6x6 grid: same valid nodes, energies and aligned branch up to the gauge
    params, domain = fileio.load_params(DATA / "params.json")
    positions, interior = fileio.read_atoms_csv(DATA / "golden_atoms.csv")
    chi = fileio.configuration_from_arrays(positions, interior, params, domain)
    geom = GridGeometry(origin=(2.0, 2.0), h=2.0, nx=6, ny=6)
    cont = evaluate_grid(chi, geom, params)
    ref = multistart_field(chi, geom, params)
    assert np.array_equal(cont.valid, ref.valid) and bool(ref.valid.all())
    assert np.array_equal(cont.component, ref.component)
    for iy in range(geom.ny):
        for ix in range(geom.nx):
            fc, fr = cont.fits[iy][ix], ref.fits[iy][ix]
            assert within_field_tol(cont.h_hat[iy, ix], ref.h_hat[iy, ix])
            assert within_field_tol(cont.rho_l[iy, ix], ref.rho_l[iy, ix])
            for part in ("f_term", "j_term", "nu_term"):
                assert within_field_tol(getattr(fc.breakdown, part), getattr(fr.breakdown, part))
            # the raw fits differ by an integer relabeling (B, t) only
            b = np.round(fc.aff_hat.A @ np.linalg.inv(fr.aff_hat.A))
            assert round(float(np.linalg.det(b))) == 1
            assert np.max(np.abs(b @ fr.aff_hat.A - fc.aff_hat.A)) <= 1e-10
            t = np.round(fc.aff_hat.tau - b @ fr.aff_hat.tau)
            assert np.max(np.abs(b @ fr.aff_hat.tau + t - fc.aff_hat.tau)) <= 1e-10
            ac = cont.align[iy][ix].apply(fc.aff_hat)
            ar = ref.align[iy][ix].apply(fr.aff_hat)
            assert np.max(np.abs(ac.A - ar.A)) <= 1e-10
            assert np.max(np.abs(ac.tau - ar.tau)) <= 1e-10
    assert np.max(np.abs(cont.a_tilde - ref.a_tilde)) <= 1e-10
    assert np.max(np.abs(cont.tau_tilde - ref.tau_tilde)) <= 1e-10
    rep_c, rep_r = lower_bound_report(cont), lower_bound_report(ref)
    assert [e.node for e in rep_c.entries] == [e.node for e in rep_r.entries]
    assert all(abs(c.slack - r.slack) <= 1e-10 for c, r in zip(rep_c.entries, rep_r.entries))
    assert plaquette_products(cont, chi) == plaquette_products(ref, chi)

    # tight-threshold window next to a dipole core: continuation never ends in a
    # higher basin, and at (-6, -2) it finds the regular one the multistart misses
    box = GenBox(np.array([-24.0, -24.0]), np.array([24.0, 24.0]))
    chi, _ = edge_dipole(box, params.lam, core1=(-6.195, 0.808), core2=(7.805, 0.808))
    tight = low_energy_thresholds(0.01, params)
    geom = GridGeometry(origin=(-6.0, -6.0), h=2.0, nx=4, ny=4)
    cont = evaluate_grid(chi, geom, params, thresholds=tight)
    ref = multistart_field(chi, geom, params, thresholds=tight)
    assert np.all(cont.h_hat <= ref.h_hat + 1e-12)
    ix, iy = 0, 2
    assert np.array_equal(geom.node(ix, iy), [-6.0, -2.0])
    fc, fr = cont.fits[iy][ix], ref.fits[iy][ix]
    assert fc.regular and cont.valid[iy, ix]
    assert fc.breakdown.total == pytest.approx(0.0390, abs=1e-4)
    assert not fr.regular and not fr.report.j_ok and not ref.valid[iy, ix]
    assert fr.breakdown.total == pytest.approx(0.0514, abs=1e-4)
    others = np.ones_like(cont.valid)
    others[iy, ix] = False
    assert np.array_equal(cont.valid[others], ref.valid[others])

    # window whose x = -4 column is reached from valid nodes: the steps there are
    # refused, and each such node carries the multistart's fit bit for bit
    geom = GridGeometry(origin=(-10.0, -4.0), h=2.0, nx=4, ny=4)
    refused = []

    fit_from_rows = fitting._fit_from_rows

    def recording_fit_from_rows(obj, affs, xs, *args):
        outs = fit_from_rows(obj, affs, xs, *args)
        refused.extend(np.asarray(x) for x, out in zip(xs, outs)
                       if out is None or not (out.converged and out.regular))
        return outs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "_fit_from_rows", recording_fit_from_rows)
        cont = evaluate_grid(chi, geom, params, thresholds=tight)
    ref = multistart_field(chi, geom, params, thresholds=tight)
    assert refused
    assert np.all(cont.valid >= ref.valid)     # (-6, -2) is rescued here too
    assert np.all(cont.h_hat <= ref.h_hat + 1e-12)
    for x in refused:
        ix, iy = np.round((x - geom.origin) / geom.h).astype(int)
        fc, fr = cont.fits[iy][ix], ref.fits[iy][ix]
        assert fc.breakdown.total == fr.breakdown.total
        assert np.array_equal(fc.aff_hat.A, fr.aff_hat.A)
        assert np.array_equal(fc.aff_hat.tau, fr.aff_hat.tau)


def assert_same_field(new, ref):
    """Round-based grid against the per-node oracle: same masks, reasons, gauge; floats to 1e-12."""
    assert np.array_equal(new.valid, ref.valid)
    assert np.array_equal(new.component, ref.component)
    assert new.invalid_reason == ref.invalid_reason
    for row_new, row_ref in zip(new.align, ref.align):
        for a, b in zip(row_new, row_ref):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a.B, b.B) and np.array_equal(a.t, b.t)
    for row_new, row_ref in zip(new.fits, ref.fits):
        for a, b in zip(row_new, row_ref):
            # the same Newton run: same parent (or multistart), same step count
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.iterations, a.n_candidates) == (b.iterations, b.n_candidates)
    fitted = ~np.isnan(ref.h_hat)
    assert np.array_equal(fitted, ~np.isnan(new.h_hat))
    assert np.max(np.abs(new.h_hat[fitted] - ref.h_hat[fitted]), initial=0.0) <= 1e-12
    branch = ~np.isnan(ref.tau_tilde[..., 0])
    assert np.array_equal(branch, ~np.isnan(new.tau_tilde[..., 0]))
    assert np.max(np.abs(new.a_tilde[branch] - ref.a_tilde[branch]), initial=0.0) <= 1e-12
    assert np.max(np.abs(new.tau_tilde[branch] - ref.tau_tilde[branch]), initial=0.0) <= 1e-12


def test_round_grid_matches_per_node_oracle(grid_params):
    # golden 6x6 grid: rounds of widths 1, 4, 8, 10, 8, 4, 1
    params, domain = fileio.load_params(DATA / "params.json")
    positions, interior = fileio.read_atoms_csv(DATA / "golden_atoms.csv")
    chi = fileio.configuration_from_arrays(positions, interior, params, domain)
    geom = GridGeometry(origin=(2.0, 2.0), h=2.0, nx=6, ny=6)
    assert [len(r) for r in fields.grid_rounds(geom)[1]] == [1, 4, 8, 10, 8, 4, 1]
    assert_same_field(evaluate_grid(chi, geom, params), oracle.evaluate_grid(chi, geom, params))

    # tight-threshold window across the dipole's left core: refused steps and invalid nodes
    box = GenBox(np.array([-24.0, -24.0]), np.array([24.0, 24.0]))
    chi, _ = edge_dipole(box, grid_params.lam, core1=(-6.5, 0.5), core2=(7.5, 0.5))
    tight = low_energy_thresholds(0.01, grid_params)
    geom = GridGeometry(origin=(-12.0, -4.0), h=2.0, nx=6, ny=5)
    multistarts = []

    def counting_fit_global_stack(chi, xs, *args, **kwargs):
        multistarts.append(len(xs))
        return fit_global_stack(chi, xs, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "fit_global_stack", counting_fit_global_stack)
        new = evaluate_grid(chi, geom, grid_params, thresholds=tight)
    assert sum(multistarts) > 1 and not new.valid.all()
    assert max(multistarts) >= 2        # one stack holds the fallback nodes of a round
    assert_same_field(new, oracle.evaluate_grid(chi, geom,
                                                dataclasses.replace(grid_params, thresholds=tight)))


def test_each_link_is_rounded_once(grid_params):
    """The align stage, plaquettes and defect rings share links: no ordered pair rounds twice."""
    box = GenBox(np.array([-24.0, -24.0]), np.array([24.0, 24.0]))
    chi, _ = edge_dipole(box, grid_params.lam, core1=(-6.5, 0.5), core2=(7.5, 0.5))
    tight = low_energy_thresholds(0.01, grid_params)
    geom = GridGeometry(origin=(-12.0, -4.0), h=2.0, nx=6, ny=5)
    rounded = []
    round_reparam = fields.round_reparam

    def recording_round_reparam(fit1, fit2):
        rounded.append((tuple(fit1.position), tuple(fit2.position)))
        return round_reparam(fit1, fit2)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "round_reparam", recording_round_reparam)
        field = evaluate_grid(chi, geom, grid_params, thresholds=tight)
        aligned = len(rounded)
        dm = defect_map(field, chi)
        plaquette_products(field, chi)
    assert not field.valid.all() and dm.plaquettes
    assert aligned > 0 and len(rounded) > aligned
    assert len(set(rounded)) == len(rounded)
    assert_rings_match_oracle(field, chi)


def test_links_are_find_reparams_integers_and_refusals(grid_params):
    """Every link of a dipole-core window, both ways, is `find_reparam`'s Reparam or refusal.

    A link rounds with `round_reparam` alone, without the jump residuals and
    bounds, so the two must agree on every pair of fitted 4-neighbours,
    refused ones included.
    """
    box = GenBox(np.array([-24.0, -24.0]), np.array([24.0, 24.0]))
    chi, _ = edge_dipole(box, grid_params.lam, core1=(-6.5, 0.5), core2=(7.5, 0.5))
    tight = low_energy_thresholds(0.01, grid_params)
    geom = GridGeometry(origin=(-12.0, -4.0), h=2.0, nx=6, ny=5)
    field = evaluate_grid(chi, geom, grid_params, thresholds=tight)
    links = [((ix, iy), (ix + dx, iy + dy)) for iy in range(geom.ny) for ix in range(geom.nx)
             for dx, dy in fields._STEPS
             if 0 <= ix + dx < geom.nx and 0 <= iy + dy < geom.ny]
    kinds = []
    for u, v in links:
        fit_u, fit_v = field.fits[u[1]][u[0]], field.fits[v[1]][v[0]]
        try:
            want = find_reparam(fit_u, fit_v, chi, grid_params).reparam
        except ReparamError as refusal:
            want = str(refusal)
        assert field.link(u, v) == want
        kinds.append(type(want))
    assert len(links) == 2 * (2 * 6 * 5 - 6 - 5) and set(kinds) == {Reparam, str}


def test_align_stage_gathers_nothing(grid_params):
    """Every tree step rounds two raw fits and takes J from their breakdowns."""
    params, domain = fileio.load_params(DATA / "params.json")
    positions, interior = fileio.read_atoms_csv(DATA / "golden_atoms.csv")
    chi = fileio.configuration_from_arrays(positions, interior, params, domain)
    geom = GridGeometry(origin=(2.0, 2.0), h=2.0, nx=6, ny=6)
    order, rounds = fields.grid_rounds(geom)
    grid = fields._fit_nodes(chi, geom, params, order, rounds)
    gathers = []
    local_atoms = Configuration.local_atoms

    def counting_local_atoms(self, *args, **kwargs):
        gathers.append(args)
        return local_atoms(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Configuration, "local_atoms", counting_local_atoms)
        fields._align_nodes(grid, order)
    assert grid.valid.all() and (grid.component == 0).all() and gathers == []


def test_cold_golden_field_memory():
    """A cold golden 6x6 pass, cutoff-root sample included, stays small in traced memory.

    A whole-array cutoff-root sample alone peaks at about 35 MB; the grid pass
    itself needs under 2 MB.
    """
    params, domain = fileio.load_params(DATA / "params.json")
    positions, interior = fileio.read_atoms_csv(DATA / "golden_atoms.csv")
    chi = fileio.configuration_from_arrays(positions, interior, params, domain)
    geom = GridGeometry(origin=(2.0, 2.0), h=2.0, nx=6, ny=6)
    potentials._phi_root_norms.cache_clear()
    tracemalloc.start()
    try:
        field = evaluate_grid(chi, geom, params)
        lower_bound_report(field, fd_gradients(field))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert potentials._phi_root_norms.cache_info().currsize == 1   # the sample ran in the window
    assert peak <= 8e6


def test_alignment_composes_raw_steps(perfect_field, grid_params):
    """Re-gauging one node's raw fit by (B, t), B != I, moves only that node's alignment.

    Alignment composes raw-fit steps; the tuple-rounding alignment of
    `kernel_oracles` rounds each node against its aligned parent.  Both give
    the same integers, and align.apply(raw) is the branch pair whatever
    gauge the raw fit is in.
    """
    chi, field = perfect_field
    geom = field.geometry
    order = fields.grid_rounds(geom)[0]
    gauge = Reparam(np.array([[1, 1], [0, 1]]), np.array([1, -2]))
    node = (5, 2)
    assert node != order[0]             # the seed keeps the identity whatever its gauge
    fits = [list(row) for row in field.fits]
    raw = fits[node[1]][node[0]]
    fits[node[1]][node[0]] = dataclasses.replace(raw, aff_hat=gauge.apply(raw.aff_hat))
    # the stage fills the grid it is given: copies, so the module's field keeps its own
    base, regauged = dataclasses.replace(field), dataclasses.replace(field, fits=fits)
    fields._align_nodes(base, order)
    fields._align_nodes(regauged, order)
    align, component = base.align, base.component
    align_g, component_g = regauged.align, regauged.component
    assert field.align is not align and field.component is not component
    ref_align, ref_aff, ref_component = oracle.align_nodes(chi, geom, grid_params, order, fits,
                                                           field.valid)
    assert np.array_equal(component_g, component) and np.array_equal(component_g, ref_component)
    assert align_g == ref_align
    for iy in range(geom.ny):
        for ix in range(geom.nx):
            got = align_g[iy][ix].apply(fits[iy][ix].aff_hat)
            want = align[iy][ix].apply(field.fits[iy][ix].aff_hat)
            assert np.array_equal(got.A, ref_aff[iy][ix].A)
            assert np.array_equal(got.tau, ref_aff[iy][ix].tau)
            if (ix, iy) == node:
                assert align_g[iy][ix] == compose(align[iy][ix], gauge.inverse())
                assert not np.array_equal(align_g[iy][ix].B, np.eye(2, dtype=np.int64))
                # B^{-1} (B A) is A up to roundoff
                assert np.max(np.abs(got.A - want.A)) <= 1e-12
                assert np.max(np.abs(got.tau - want.tau)) <= 1e-12
            else:
                assert align_g[iy][ix] == align[iy][ix]
                assert np.array_equal(got.A, want.A) and np.array_equal(got.tau, want.tau)


def test_fit_global_stack_matches_per_node_oracle(grid_params):
    # round 4 of the benchmark's dipole-defects grid: 16 nodes, none with a valid
    # earlier neighbour, so the grid hands all of them to one multistart stack;
    # a point far outside the atoms has too few of them and fails on its own
    box = GenBox(np.array([-24.0, -24.0]), np.array([24.0, 24.0]))
    chi, _ = edge_dipole(box, grid_params.lam, core1=(-6.5, 0.5), core2=(7.5, 0.5))
    tight = dataclasses.replace(grid_params, thresholds=low_energy_thresholds(0.01, grid_params))
    geom = GridGeometry(origin=(-16.0, -10.0), h=2.0, nx=17, ny=11)
    xs = [geom.node(ix, iy) for ix, iy in fields.grid_rounds(geom)[1][4]]
    xs.insert(5, np.array([200.0, 200.0]))
    assert len(xs) == 17
    outs = fit_global_stack(chi, xs, tight)
    assert len(outs) == len(xs)
    for x, out in zip(xs, outs):
        try:
            ref = oracle.fit_global(chi, x, tight)
        except FitError as err:
            assert isinstance(out, FitError) and str(out) == str(err)
            continue
        assert_same_fit(out, ref)
    assert str(outs[5]) == "no fit candidates at [200. 200.]"
    regular = [o.regular for o in outs if not isinstance(o, FitError)]
    assert any(regular) and not all(regular)
    # a one-row stack is fit_global, and raises its row's error
    assert_same_fit(fit_global(chi, xs[0], tight), outs[0])
    with pytest.raises(FitError, match=r"no fit candidates at \[200\. 200\.\]"):
        fit_global(chi, xs[5], tight)


def test_fit_global_stack_matches_per_start_oracle(grid_params):
    """One Newton on h per multistart round gives the per-start loop's fits, bit for bit.

    `oracle.fit_global_stack` runs start k of every point as its own stack,
    every bar known; `fit_global_stack` runs all starts in one stack with
    deferred bars and drops the aborted starts.  Cases: the golden grid's
    seed node; round 4 of the benchmark's dipole grid under tight
    thresholds, with a point that has no candidates; the same round with
    warm starts after the candidates, as `_guard` passes them (two other
    points' fits carried over).
    The round must drop a row and keep a row whose bar arrived after
    iteration 10.  In the per-start loop, every aborted start's exact total
    is above its point's final best by more than 1e-12: it could neither
    lower nor tie the best, which is why dropping it keeps every output.
    """
    newton = fitting._newton
    seen = {"dropped": 0, "late_kept": 0}

    def recording_newton(*args, on_stop=None, **kwargs):
        if on_stop is None:
            return newton(*args, **kwargs)
        got_bar = []

        def hook(rows, res):
            nxt, bars = on_stop(rows, res)
            got_bar.extend(nxt)         # row r's bar arrives once row r - 1 is done
            return nxt, bars

        res = newton(*args, on_stop=hook, **kwargs)
        seen["dropped"] += int(res.aborted.sum())
        seen["late_kept"] += sum(1 for r in got_bar if not res.aborted[r]
                                 and res.iterations[r - 1] > 10 and res.iterations[r] > 10)
        return res

    def check(chi, xs, params, warm_starts=None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fitting, "_newton", recording_newton)
            outs = fit_global_stack(chi, xs, params, warm_starts=warm_starts)
        aborted = []
        refs = oracle.fit_global_stack(chi, xs, params, warm_starts, aborted=aborted)
        assert len(outs) == len(refs) == len(xs)
        for out, ref in zip(outs, refs):
            if isinstance(ref, FitError):
                assert isinstance(out, FitError) and str(out) == str(ref)
            else:
                assert_same_fit(out, ref)
        assert all(total > best + 1e-12 for _, total, best in aborted)
        return outs, aborted

    params, domain = fileio.load_params(DATA / "params.json")
    positions, interior = fileio.read_atoms_csv(DATA / "golden_atoms.csv")
    chi = fileio.configuration_from_arrays(positions, interior, params, domain)
    geom = GridGeometry(origin=(2.0, 2.0), h=2.0, nx=6, ny=6)
    outs, _ = check(chi, [geom.node(*fields.grid_rounds(geom)[0][0])], params)
    assert outs[0].n_candidates >= 2

    box = GenBox(np.array([-24.0, -24.0]), np.array([24.0, 24.0]))
    chi, _ = edge_dipole(box, grid_params.lam, core1=(-6.5, 0.5), core2=(7.5, 0.5))
    tight = dataclasses.replace(grid_params, thresholds=low_energy_thresholds(0.01, grid_params))
    geom = GridGeometry(origin=(-16.0, -10.0), h=2.0, nx=17, ny=11)
    xs = [geom.node(ix, iy) for ix, iy in fields.grid_rounds(geom)[1][4]]
    xs.insert(5, np.array([200.0, 200.0]))
    outs, aborted = check(chi, xs, tight)
    assert str(outs[5]) == "no fit candidates at [200. 200.]"
    assert aborted and seen["dropped"] > 0 and seen["late_kept"] > 0, seen

    fits = [o for o in outs if not isinstance(o, FitError)]
    warm = [tuple(fitting.transport(f.position, f.aff_hat, x) for f in fits[i + 1: i + 3])
            for i, x in enumerate(xs)]
    check(chi, xs, tight, warm)


def test_fd_gradients_match_loop_form(grid_params, perfect_field):
    params, domain = fileio.load_params(DATA / "params.json")
    positions, interior = fileio.read_atoms_csv(DATA / "golden_atoms.csv")
    chi = fileio.configuration_from_arrays(positions, interior, params, domain)
    golden = evaluate_grid(chi, GridGeometry(origin=(2.0, 2.0), h=2.0, nx=6, ny=6), params)
    # the benchmark's dipole-defects grid: invalid clusters cut the stencils one-sided
    box = GenBox(np.array([-24.0, -24.0]), np.array([24.0, 24.0]))
    chi, _ = edge_dipole(box, grid_params.lam, core1=(-6.5, 0.5), core2=(7.5, 0.5))
    tight = low_energy_thresholds(0.01, grid_params)
    geom = GridGeometry(origin=(-16.0, -10.0), h=2.0, nx=17, ny=11)
    dipole = evaluate_grid(chi, geom, grid_params, thresholds=tight)
    for field in (golden, dipole, perfect_field[1]):
        got, want = fd_gradients(field), oracle.fd_gradients(field)
        for name in ("grad_tau", "grad_a", "hess_tau", "order", "hess_ok"):
            assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
    assert np.any(fd_gradients(dipole).order == 1)
