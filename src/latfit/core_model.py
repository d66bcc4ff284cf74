"""Atom configurations, local densities, and the pre-energy h = F + J + nu.

Everything here is pure given an immutable Configuration.  The affine pair
(A, tau) parametrizes the candidate lattice A^{-1}(Z^d - tau) + x; J maps the
atoms near x through z_i = A (x_i - x) + tau into the periodic well and sums

    J(A, tau; x) = |A^{-1}|_F^2 / (C_phi lam^d) * sum_i W(z_i) phi(|x_i - x| / lam)

The analytic (A, tau)-gradient and Hessian of J exploit that the cosine well
has a diagonal Hessian.  Flattened parameter order is row-major A then tau.

`assemble_j` is the one J kernel.  It keeps the atoms on the last axis
(z^T = A rel^T + tau), takes one cos pass for the value and one sin pass more
for the derivatives, and gets every gradient and Hessian sum of the well from
a single matmul of the distinct products of the feature rows (rel_i, 1)
against the weighted sin and cos columns; fixed index maps (`_aug_index`)
place those sums in the A-then-tau layout.  The |A^{-1}|_F^2 prefactor
enters by the product rule with the closed-form Hessian `_g_hess`.  The
pair's inverse comes from `aff.ainv`, so a Newton step that already holds
A^{-1} does not invert A again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product

import numpy as np
from scipy.spatial import cKDTree

TWO_PI_CORE = 2.0 * math.pi

from .potentials import (
    DerivedConstants,
    ElasticDensity,
    cphi,
    default_c_a,
    default_elastic,
    derive_constants,
    phi_eval,
    w_grad,
)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo, hi]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lo, dtype=float)
        hi = np.array(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box corners must be vectors of equal length")
        if np.any(hi <= lo):
            raise ValueError("box must have positive extent")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def d(self) -> int:
        return self.lo.shape[0]

    def contains(self, points: np.ndarray, pad: float = 0.0, tol: float = 1e-9) -> np.ndarray:
        points = np.atleast_2d(points)
        return np.all((points >= self.lo - pad - tol) & (points <= self.hi + pad + tol), axis=1)


@dataclass(frozen=True)
class AffinePair:
    """Candidate lattice parametrization (A, tau); the lattice is A^{-1}(Z^d - tau) + x."""

    A: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        tau = np.array(self.tau, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or tau.shape != (A.shape[0],):
            raise ValueError(f"inconsistent shapes A {A.shape}, tau {tau.shape}")
        if np.linalg.det(A) <= 0:
            raise ValueError("AffinePair requires det A > 0")
        A.setflags(write=False)
        tau.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "tau", tau)

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def ainv(self) -> np.ndarray:
        return np.linalg.inv(self.A)

    def canonical_tau(self) -> "AffinePair":
        """Same lattice with tau wrapped to [0,1)^d."""
        return AffinePair(self.A, self.tau - np.floor(self.tau))


class Configuration:
    """Atom positions with interior/boundary tags, a domain box, and a k-d tree.

    One scipy cKDTree over all positions answers every radius query
    (`local_atoms`, indices ascending so gathers sum in a fixed order) and
    the hardcore pair search.  Immutable after construction.
    """

    def __init__(self, positions, interior, domain: Box, lam: float, validate: bool = True):
        positions = np.array(positions, dtype=float)
        interior = np.array(interior, dtype=bool)
        if positions.ndim != 2 or positions.shape[1] != domain.d:
            raise ValueError(f"positions must be (N, {domain.d}), got {positions.shape}")
        if not np.all(np.isfinite(positions)):
            raise ValueError("positions must be finite")
        if interior.shape != (positions.shape[0],):
            raise ValueError("interior mask must have one entry per atom")
        if lam <= 0:
            raise ValueError("lam must be positive")
        if validate and positions.shape[0]:
            if not np.all(domain.contains(positions[interior])):
                raise ValueError("interior atoms must lie inside the domain box")
            outside = positions[~interior]
            if outside.shape[0]:
                in_band = domain.contains(outside, pad=4.0 * lam)
                beyond = domain.contains(outside, pad=0.0)
                if not np.all(in_band & ~beyond):
                    raise ValueError("boundary atoms must lie in the 4*lam band outside the domain")
        positions.setflags(write=False)
        interior.setflags(write=False)
        self.positions = positions
        self.interior = interior
        self.domain = domain
        self.lam = float(lam)
        self._tree = cKDTree(positions)
        self._hardcore_cache: dict[float, np.ndarray] = {}

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.domain.d

    def local_atoms(self, x, r: float):
        """(indices, relative positions, distances) of atoms with |x_i - x| <= r."""
        x = np.asarray(x, dtype=float)
        idx = np.asarray(self._tree.query_ball_point(x, r, return_sorted=True), dtype=np.intp)
        rel = self.positions[idx] - x
        return idx, rel, np.linalg.norm(rel, axis=1)

    def hardcore_pairs(self, s0: float) -> np.ndarray:
        """All index pairs (i < j) with |x_i - x_j| < s0, cached per s0."""
        cached = self._hardcore_cache.get(s0)
        if cached is not None:
            return cached
        pairs = self._tree.query_pairs(s0, output_type="ndarray")
        if pairs.size:
            diff = self.positions[pairs[:, 0]] - self.positions[pairs[:, 1]]
            pairs = pairs[np.linalg.norm(diff, axis=1) < s0]
            pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        pairs.setflags(write=False)
        self._hardcore_cache[s0] = pairs
        return pairs


@dataclass(frozen=True)
class RegularityThresholds:
    """Thresholds of the regular-pair test: |A^{-1}|_F < C_A, density slack, J slack."""

    eps_rho: float
    eps_J: float
    C_A: float

    def __post_init__(self):
        if min(self.eps_rho, self.eps_J, self.C_A) <= 0:
            raise ValueError("thresholds must be positive")


@dataclass(frozen=True)
class ModelParams:
    """Scale and material parameters; lam >> s0 is enforced as lam >= 10 s0."""

    d: int = 2
    lam: float = 12.0
    s0: float = 0.5
    vartheta: float = 1.0
    elastic: ElasticDensity = None
    thresholds: RegularityThresholds = None

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError(f"d must be 2 or 3, got {self.d}")
        if self.lam <= 0 or self.s0 <= 0 or self.vartheta <= 0:
            raise ValueError("lam, s0, vartheta must be positive")
        if self.lam < 10.0 * self.s0:
            raise ValueError(f"mesoscale separation requires lam >= 10*s0, got lam={self.lam}, s0={self.s0}")
        if self.elastic is None:
            object.__setattr__(self, "elastic", default_elastic(self.d))
        if self.elastic.d != self.d:
            raise ValueError("elastic reference dimension does not match d")
        if self.thresholds is None:
            eps_hat = self.low_energy_cutoff()
            object.__setattr__(self, "thresholds", RegularityThresholds(
                eps_rho=0.125,
                eps_J=4.0 * eps_hat / self.elastic.det_e,
                C_A=default_c_a(self.elastic),
            ))

    def low_energy_cutoff(self) -> float:
        """Largest eps_hat for which low-energy points are provably regular."""
        e_op = float(np.linalg.norm(self.elastic.E, 2))
        det_e = self.elastic.det_e
        return 0.25 * min(self.elastic.C1_el * det_e**2,
                          self.elastic.C2_el * e_op**2,
                          self.vartheta * det_e)

    @cached_property
    def constants(self) -> DerivedConstants:
        return derive_constants(self.d, self.s0, self.elastic, c_a=self.thresholds.C_A)

    @property
    def cphi(self) -> float:
        return cphi(self.d)


def low_energy_thresholds(eps_hat: float, params: ModelParams) -> RegularityThresholds:
    """Thresholds certified for points with h_hat <= eps_hat."""
    if not 0 < eps_hat <= params.low_energy_cutoff() + 1e-12:
        raise ValueError(f"eps_hat must be in (0, {params.low_energy_cutoff():g}]")
    det_e = params.elastic.det_e
    return RegularityThresholds(
        eps_rho=2.0 * eps_hat / (params.vartheta * det_e),
        eps_J=4.0 * eps_hat / det_e,
        C_A=default_c_a(params.elastic),
    )


@dataclass(frozen=True)
class EnergyBreakdown:
    f_term: float
    j_term: float
    nu_term: float
    total: float
    rho: float


# ---------------------------------------------------------------------------
# densities and the pre-energy
# ---------------------------------------------------------------------------

def gather_weights(chi: Configuration, x, lam: float):
    """The sample behind every local quantity at x on scale lam.

    Returns (rel, w, c): positions of the atoms within 2 lam relative to x,
    their cutoff weights phi(|x_i - x| / lam), and c = 1/(C_phi lam^d), so
    rho_lam(x) = c sum(w).
    """
    _, rel, dist = chi.local_atoms(x, 2.0 * lam)
    return rel, phi_eval(dist / lam), 1.0 / (cphi(chi.d) * lam**chi.d)


def local_density(chi: Configuration, x, scale: float) -> float:
    """rho_scale(x) = (C_phi scale^d)^{-1} sum_i phi(|x_i - x| / scale)."""
    _, w, c = gather_weights(chi, x, scale)
    return float(np.sum(w)) * c


def _density_and_misfit(aff: AffinePair, chi: Configuration, x, lam: float):
    """(rho_lam(x), J(A, tau; x)) from one gather."""
    rel, w, c = gather_weights(chi, x, lam)
    return float(np.sum(w)) * c, assemble_j(rel, w, aff, c, want_grad=False)[0]


def j_lambda(aff: AffinePair, chi: Configuration, x, lam: float) -> float:
    """Misfit energy of the fitted lattice at x on scale lam."""
    rel, w, c = gather_weights(chi, x, lam)
    return assemble_j(rel, w, aff, c, want_grad=False)[0]


def assemble_j(rel: np.ndarray, w: np.ndarray, aff: AffinePair, c: float,
               want_grad: bool = True):
    """J and its exact (A, tau)-gradient and Hessian from a precomputed gather.

    rel are atom positions relative to x, w their cutoff weights, and
    c = 1/(C_phi lam^d); aff is any pair with A, tau and ainv = A^{-1} (a
    Newton step passes the inverse it already has).  Flattened parameter
    order is row-major A then tau.  want_grad=False gives (J, None, None).

    J = c g S with g = |A^{-1}|_F^2 and S = sum_i W(z_i) w_i.  z_ik depends
    only on row k of [A | tau], through the feature row f_i = (rel_i, 1).
    The well's Hessian is diagonal, so the gradient of S in row k is
    sum_i dW_k f_i w_i and its Hessian is block diagonal, block k being
    sum_i d2W_k f_i f_i^T w_i.  One matmul of the distinct feature products
    (rel_ij rel_ij', rel_ij, 1) against the weighted sin and cos columns
    gives all of them; `_aug_index` scatters the result into the A-then-tau
    layout.  g enters through the product rule with its closed-form gradient
    and Hessian (`_g_hess`).  Atoms run along the last axis throughout.
    """
    A = aff.A
    d = A.shape[0]
    n = d * d + d
    m = rel.shape[0]
    if m == 0:
        return (0.0, np.zeros(n), np.zeros((n, n))) if want_grad else (0.0, None, None)
    ainv = aff.ainv
    g = float(np.sum(ainv * ainv))
    rel_t = rel.T
    # share the trig work: W = sum (1 - cos)/2pi^2, grad W = sin/pi, hess = 2 cos
    arg = TWO_PI_CORE * (A @ rel_t + aff.tau[:, None])     # (d, m)
    cos_z = np.cos(arg)
    well = 1.0 - cos_z[0]
    for k in range(1, d):
        well += 1.0 - cos_z[k]
    s_val = float(np.sum(well * w)) / (2.0 * math.pi**2)
    value = c * g * s_val
    if not want_grad:
        return value, None, None

    pairs, grad_src, rows, cols, hess_src = _aug_index(d)
    feat = np.empty((len(pairs[0]) + d + 1, m))
    np.multiply(rel_t[pairs[0]], rel_t[pairs[1]], out=feat[: len(pairs[0])])
    feat[len(pairs[0]): -1] = rel_t
    feat[-1] = 1.0
    wells = np.empty((2 * d, m))
    np.sin(arg, out=wells[:d])
    wells[:d] *= w / math.pi                             # grad W, weighted
    np.multiply(cos_z, 2.0 * w, out=wells[d:])            # diagonal of hess W, weighted
    sums = (feat @ wells.T).ravel()
    grad_s = sums[grad_src]

    g1 = np.zeros(n)                                    # gradient of g, zero in tau
    g1[: d * d] = (-2.0 * ainv.T @ ainv @ ainv.T).ravel()
    grad = c * (g1 * s_val + g * grad_s)
    cross = np.outer(g1, grad_s)
    hess = cross + cross.T
    hess[: d * d, : d * d] += _g_hess(ainv) * s_val
    hess[rows, cols] += g * sums[hess_src]
    hess *= c
    return value, grad, hess


@cache
def _aug_index(d: int):
    """Index maps of `assemble_j` for dimension d.

    Feature rows are the products rel_j rel_j' (j <= j' < d, in the order of
    `pairs`), then rel_0 .. rel_{d-1}, then 1; `sums` is the raveled
    (rows, 2d) matrix of their sums against the weighted sin columns (0..d-1)
    and cos columns (d..2d-1).  grad_src picks the gradient of S in the
    A-then-tau layout; (rows, cols) are the entries of S's block-diagonal
    Hessian in that layout and hess_src their source in `sums`.
    """
    pairs = np.triu_indices(d)
    n_rows = len(pairs[0]) + d + 1
    feature = np.empty((d + 1, d + 1), dtype=np.intp)    # feature row of f_j f_j'
    feature[pairs] = np.arange(len(pairs[0]))
    feature[pairs[::-1]] = feature[pairs]
    feature[:d, d] = feature[d, :d] = len(pairs[0]) + np.arange(d)
    feature[d, d] = n_rows - 1
    # position of A_kj (j < d) or tau_k (j = d) in the flat parameter vector
    pos = np.empty((d, d + 1), dtype=np.intp)
    pos[:, :d] = np.arange(d * d).reshape(d, d)
    pos[:, d] = d * d + np.arange(d)
    grad_src = np.empty(d * d + d, dtype=np.intp)
    grad_src[pos] = feature[d][None, :] * (2 * d) + np.arange(d)[:, None]
    k, j, jj = np.meshgrid(np.arange(d), np.arange(d + 1), np.arange(d + 1), indexing="ij")
    rows, cols = pos[k, j].ravel(), pos[k, jj].ravel()
    hess_src = (feature[j, jj] * (2 * d) + d + k).ravel()
    for arr in (*pairs, grad_src, rows, cols, hess_src):
        arr.setflags(write=False)          # cached: every call shares these arrays
    return pairs, grad_src, rows, cols, hess_src


def j_value_grad_hess(aff: AffinePair, chi: Configuration, x, lam: float):
    """J with its exact (A, tau)-gradient and Hessian from one gather."""
    rel, w, c = gather_weights(chi, x, lam)
    return assemble_j(rel, w, aff, c)


def _g_hess(ainv: np.ndarray) -> np.ndarray:
    """Hessian of g(A) = |A^{-1}|_F^2 as a (d^2, d^2) matrix (row-major A).

    With K = A^{-1}, P = K^T K K^T, Q = K^T K and R = K K^T,
    d^2 g / dA_ij dA_ab = 2 (K_bi P_aj + Q_ia R_bj + P_ib K_ja).
    """
    d = ainv.shape[0]
    k = ainv
    q = k.T @ k
    r = k @ k.T
    p = q @ k.T
    out = 2.0 * (k.T[:, None, None, :] * p.T[None, :, :, None]
                 + q[:, None, :, None] * r.T[None, :, None, :]
                 + p[:, None, None, :] * k[None, :, :, None]).reshape(d * d, d * d)
    return 0.5 * (out + out.T)


def nu_lambda(A, chi: Configuration, x, lam: float, vartheta: float) -> float:
    """Vacancy cost vartheta |det A - rho_lam(x)|."""
    A = np.asarray(A, dtype=float)
    det_a = float(np.linalg.det(A))
    if det_a <= 0:
        raise ValueError(f"nu_lambda requires det A > 0, got {det_a:g}")
    return vartheta * abs(det_a - local_density(chi, x, lam))


def pre_energy(aff: AffinePair, chi: Configuration, x, params: ModelParams) -> EnergyBreakdown:
    """h = F(A) + J(A, tau) + nu(A), parts reported separately."""
    rho, j_term = _density_and_misfit(aff, chi, x, params.lam)
    f_term = params.elastic.f_el(aff.A)
    nu_term = params.vartheta * abs(float(np.linalg.det(aff.A)) - rho)
    return EnergyBreakdown(f_term=f_term, j_term=j_term, nu_term=nu_term,
                           total=f_term + j_term + nu_term, rho=rho)


# ---------------------------------------------------------------------------
# hardcore and regularity
# ---------------------------------------------------------------------------

def dist_to_lattice(aff: AffinePair, rel: np.ndarray) -> np.ndarray:
    """Distance of each relative position to the lattice A^{-1}(Z^d - tau).

    Nearest lattice point searched over the rounded integer label and its
    3^d neighboring offsets (exact for any reasonably conditioned A).
    """
    if rel.shape[0] == 0:
        return np.empty(0)
    d = rel.shape[1]
    z = rel @ aff.A.T + aff.tau
    base = np.round(z)
    ainv = np.linalg.inv(aff.A)
    best = np.full(rel.shape[0], np.inf)
    for off in product((-1.0, 0.0, 1.0), repeat=d):
        pts = (base + np.array(off) - aff.tau) @ ainv.T
        dist = np.linalg.norm(pts - rel, axis=1)
        best = np.minimum(best, dist)
    return best


def split_regular_atoms(chi: Configuration, aff: AffinePair, beta: float, x,
                        lam: float):
    """Partition atoms near x by distance to the fitted lattice.

    Returns (regular indices, irregular indices, rho_reg, rho_irr); the two
    densities sum to rho_lam(x) exactly (same weights, split).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    idx, rel, dist = chi.local_atoms(x, 2.0 * lam)
    w = phi_eval(dist / lam)
    c = 1.0 / (cphi(chi.d) * lam**chi.d)
    lattice_dist = dist_to_lattice(aff, rel)
    reg = lattice_dist <= beta
    rho_reg = float(np.sum(w[reg])) * c
    rho_irr = float(np.sum(w[~reg])) * c
    return idx[reg], idx[~reg], rho_reg, rho_irr


def default_beta(aff: AffinePair, params: ModelParams) -> float:
    """beta = min(Theta_W / |A|, s0 / 3), the convexity proof's split radius."""
    a_op = float(np.linalg.norm(aff.A, 2))
    return min(params.constants.Theta_W / a_op, params.s0 / 3.0)


@dataclass(frozen=True)
class RegularityReport:
    norm_ainv: float
    c_a: float
    rho: float
    det_a: float
    density_dev: float
    density_allowance: float
    j_value: float
    j_allowance: float
    hardcore_ok: bool
    norm_ok: bool
    density_ok: bool
    j_ok: bool

    @property
    def is_regular(self) -> bool:
        return self.norm_ok and self.density_ok and self.j_ok and self.hardcore_ok


def is_regular_pair(x, aff: AffinePair, chi: Configuration, params: ModelParams,
                    thresholds: RegularityThresholds | None = None):
    """Regular-pair test; returns (bool, RegularityReport with per-condition margins)."""
    thr = thresholds if thresholds is not None else params.thresholds
    lam = params.lam
    norm_ainv = float(np.linalg.norm(np.linalg.inv(aff.A)))
    rho, j_val = _density_and_misfit(aff, chi, x, lam)
    det_a = float(np.linalg.det(aff.A))

    hardcore_ok = True
    pairs = chi.hardcore_pairs(params.s0)
    if pairs.size:
        x = np.asarray(x, dtype=float)
        mids = 0.5 * (chi.positions[pairs[:, 0]] + chi.positions[pairs[:, 1]])
        near = np.linalg.norm(mids - x, axis=1) <= 2.0 * lam + params.s0
        hardcore_ok = not bool(np.any(near))

    report = RegularityReport(
        norm_ainv=norm_ainv,
        c_a=thr.C_A,
        rho=rho,
        det_a=det_a,
        density_dev=abs(rho - det_a),
        density_allowance=thr.eps_rho * det_a,
        j_value=j_val,
        j_allowance=thr.eps_J * rho,
        hardcore_ok=hardcore_ok,
        norm_ok=norm_ainv < thr.C_A,
        density_ok=abs(rho - det_a) < thr.eps_rho * det_a,
        j_ok=j_val < thr.eps_J * rho,
    )
    return report.is_regular, report


def gradw_sum_diagnostic(aff: AffinePair, chi: Configuration, x, lam: float,
                         constants: DerivedConstants):
    """(J, alpha^{-1} |A^{-1}|^2 C_phi^{-1} lam^{-d} sum |grad W|^2 phi); lhs >= rhs."""
    rel, w, c = gather_weights(chi, x, lam)
    lhs = assemble_j(rel, w, aff, c, want_grad=False)[0]
    g = float(np.sum(np.linalg.inv(aff.A) ** 2))
    gw2 = np.sum(w_grad(rel @ aff.A.T + aff.tau) ** 2, axis=1)
    return lhs, g * float(np.sum(gw2 * w)) * c / constants.alpha_nabla
