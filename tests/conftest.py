import numpy as np
import pytest

from latfit.core_model import Box, Configuration, ModelParams
from latfit.generators import GeneratorSpec, _lattice_points, generate


def random_rotation(rng):
    th = rng.uniform(0.0, 2.0 * np.pi)
    return np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])


def random_a(rng, smin=0.75, smax=1.45):
    """Random well-conditioned 2x2 matrix with positive determinant."""
    return random_rotation(rng) @ np.diag(rng.uniform(smin, smax, 2)) @ random_rotation(rng)


def exact_lattice(a, tau, lam, box_size=6.0):
    """Configuration holding exactly the lattice a^{-1}(Z^2 - tau) on a small box."""
    a = np.asarray(a, dtype=float)
    tau = np.asarray(tau, dtype=float)
    box = Box(np.zeros(2), np.full(2, box_size))
    pad = 4.0 * lam + 2.0
    corners = np.array([[-pad, -pad], [box_size + pad, -pad],
                        [-pad, box_size + pad], [box_size + pad, box_size + pad]])
    zc = corners @ a.T + tau
    z0 = np.floor(zc.min(axis=0)).astype(int) - 1
    z1 = np.ceil(zc.max(axis=0)).astype(int) + 1
    gx, gy = np.meshgrid(np.arange(z0[0], z1[0] + 1), np.arange(z0[1], z1[1] + 1), indexing="ij")
    z = np.stack([gx.ravel(), gy.ravel()], axis=1).astype(float)
    pts = (z - tau) @ np.linalg.inv(a).T
    pts = pts[box.contains(pts, pad=4.0 * lam)]
    return Configuration(pts, box.contains(pts), box, lam)


def lattice_from_map(phi_map, domain, lam, pad=2.0):
    """Configuration of the lattice Z^d deformed by a smooth map z -> phi_map(z).

    The map must be a small perturbation of the identity: the reference
    lattice fills the domain, its 4 lam band and `pad` beyond.
    """
    d = domain.d
    band = 4.0 * lam
    z_pts = _lattice_points(np.eye(d), np.zeros(d), domain.lo - band - pad,
                            domain.hi + band + pad)
    pts = phi_map(z_pts)
    pts = pts[domain.contains(pts, pad=band)]
    return Configuration(pts, domain.contains(pts), domain, lam)


def assert_same_fit(out, ref):
    """Two FitResults equal bit for bit."""
    assert np.array_equal(out.position, ref.position)
    assert np.array_equal(out.aff_hat.A, ref.aff_hat.A)
    assert np.array_equal(out.aff_hat.tau, ref.aff_hat.tau)
    assert out.breakdown == ref.breakdown and out.report == ref.report
    assert (out.regular, out.converged, out.iterations, out.n_candidates, out.grad_norm) \
        == (ref.regular, ref.converged, ref.iterations, ref.n_candidates, ref.grad_norm)


@pytest.fixture(scope="session")
def params():
    return ModelParams(d=2, lam=12.0, s0=0.5)


@pytest.fixture(scope="session")
def params8():
    return ModelParams(d=2, lam=8.0, s0=0.5)


@pytest.fixture(scope="session")
def chi_perfect(params):
    chi, _ = generate(GeneratorSpec(kind="perfect", domain_lo=(0, 0), domain_hi=(40, 40),
                                    lam=params.lam))
    return chi


@pytest.fixture(scope="session")
def chi_noise(params):
    chi, _ = generate(GeneratorSpec(kind="noise", sigma=0.02, seed=3,
                                    domain_lo=(0, 0), domain_hi=(40, 40), lam=params.lam))
    return chi


@pytest.fixture(scope="session")
def chi_vacancies(params):
    chi, _ = generate(GeneratorSpec(kind="vacancies", fraction=0.1, seed=5,
                                    domain_lo=(0, 0), domain_hi=(40, 40), lam=params.lam))
    return chi


@pytest.fixture(scope="session")
def dislocation8():
    spec = GeneratorSpec(kind="edge_dislocation", burgers=(1, 0),
                         domain_lo=(-20, -20), domain_hi=(20, 20), lam=8.0)
    return generate(spec)
