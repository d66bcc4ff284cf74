"""Periodic well, cutoff profile, elastic density, and the constants derived from them.

The three ingredient functions of the energy density are fixed closed forms:

    W(z)  = sum_k (1 - cos 2 pi z_k) / (2 pi^2)     separable cosine well, minima on Z^d
    phi(r) = 1 on [0,1], 0 on [2,inf), order-7 smoothstep transition on [1,2]
    F(A)  = C1 (det E - det A)^2 + C2 dist^2(A, E SO_d)

W gives every well constant analytically (quadratic sandwich 4/pi^2 .. 1,
convexity window Theta = 1/6 with Hessian eigenvalues in [1, 2]).  The
smoothstep transition is C^3 with quartic touchdown at r = 2, so the square
and fourth roots of the profile keep bounded first and second derivatives;
its radial moments are rational numbers, computed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

# Closed-form well constants for the cosine W.
C0_W = 4.0 / math.pi**2        # lower quadratic constant
C1_W = 1.0                     # upper quadratic constant
THETA_W = 1.0 / 6.0            # convexity window around Z^d
C_THETA0 = 1.0                 # = 2 cos(pi/3), smallest Hessian eigenvalue in the window
C_THETA1 = 2.0                 # largest Hessian eigenvalue anywhere


# ---------------------------------------------------------------------------
# periodic well W
# ---------------------------------------------------------------------------

def w_grad(z):
    """Gradient of W: component k is sin(2 pi z_k) / pi."""
    z = np.asarray(z, dtype=float)
    return np.sin(TWO_PI * z) / math.pi


def norm_gradw_inf(d: int) -> float:
    """sup |grad W| = sqrt(d) / pi."""
    return math.sqrt(d) / math.pi


# ---------------------------------------------------------------------------
# cutoff phi
# ---------------------------------------------------------------------------

SMOOTHSTEP7_COEFFS = (35, -84, 70, -20)     # of u^4 .. u^7


def _smoothstep7(u):
    """Order-7 smoothstep on [0,1]: 35u^4 - 84u^5 + 70u^6 - 20u^7 (C^3 at both ends)."""
    return u**4 * (35.0 + u * (-84.0 + u * (70.0 - 20.0 * u)))


def _smoothstep7_d1(u):
    return 140.0 * u**3 * (1.0 - u) ** 3


def _smoothstep7_d2(u):
    return 420.0 * u**2 * (1.0 - u) ** 2 * (1.0 - 2.0 * u)


def phi_eval(r):
    """Cutoff profile: 1 for r <= 1, 0 for r >= 2, smoothstep transition between."""
    r = np.asarray(r, dtype=float)
    u = np.clip(r - 1.0, 0.0, 1.0)
    # clip kills the -1e-16 roundoff of the polynomial near the outer knot
    return np.clip(1.0 - _smoothstep7(u), 0.0, 1.0)


# ---------------------------------------------------------------------------
# elastic density F
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElasticDensity:
    """F(A) = C1 (det E - det A)^2 + C2 dist^2(A, E SO_d), the coercivity bound with equality.

    dist^2(A, E SO_d) = |A|_F^2 + |E|_F^2 - 2 sum_i sigma_i(E^T A), valid whenever
    det E > 0 and det A > 0 (the optimal orthogonal factor is then a rotation).
    det E, |E|_F^2 and E E^T (x) I are computed once, like the frozen E.

    For d = 2 the singular-value sum has the closed form
    sum_i sigma_i(G) = sqrt(|G|_F^2 + 2 det G) with G = E^T A, and its gradient
    E U V^T is (E G + det G A^{-T}) / sum_i sigma_i(G); d = 3 takes the SVD.

    The public f_el, f_el_grad and f_el_hess check det A > 0 and hand det A
    and A^{-1} to the kernels _value, _grad and _grad_hess; a Newton step
    calls _grad_hess directly, on its stack of starts, with the det A and
    A^{-1} it already has.
    """

    E: np.ndarray
    C1_el: float = 1.0
    C2_el: float = 1.0
    det_e: float = field(init=False, repr=False, compare=False)
    e_norm2: float = field(init=False, repr=False, compare=False)     # |E|_F^2
    ee_kron: np.ndarray = field(init=False, repr=False, compare=False)  # E E^T (x) I_d

    def __post_init__(self):
        E = np.array(self.E, dtype=float)
        if E.ndim != 2 or E.shape[0] != E.shape[1]:
            raise ValueError(f"E must be a square matrix, got shape {E.shape}")
        if not np.all(np.isfinite(E)):
            raise ValueError(f"E must be finite, got {E.tolist()}")
        det_e = float(np.linalg.det(E))
        if not det_e > 0:
            raise ValueError("E must have positive determinant")
        for name in ("C1_el", "C2_el"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"elastic coefficient {name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        E.setflags(write=False)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "det_e", det_e)
        object.__setattr__(self, "e_norm2", float(np.sum(E * E)))
        ee_kron = np.kron(E @ E.T, np.eye(E.shape[0]))
        ee_kron.setflags(write=False)
        object.__setattr__(self, "ee_kron", ee_kron)

    @property
    def d(self) -> int:
        return self.E.shape[0]

    def f_el(self, A) -> float:
        A = np.asarray(A, dtype=float)
        return float(self._value(A[None], np.array([_positive_det(A, "f_el")]))[0])

    def f_el_grad(self, A) -> np.ndarray:
        A = np.asarray(A, dtype=float)
        det_a = np.array([_positive_det(A, "f_el_grad")])
        return self._grad(A[None], det_a, np.linalg.inv(A)[None])[0]

    def f_el_hess(self, A) -> np.ndarray:
        """Hessian of F as a (d^2, d^2) matrix (row-major A flattening).

        d = 2 uses the closed form sum sigma_i(G) = sqrt(|G|^2 + 2 det G) with
        G = E^T A (valid for det G > 0); d = 3 falls back to central
        differences of the analytic gradient.
        """
        A = np.asarray(A, dtype=float)
        det_a = np.array([_positive_det(A, "f_el_hess")])
        return self._grad_hess(A[None], det_a, np.linalg.inv(A)[None])[1][0]

    # The kernels take a stack of K matrices A (K, d, d) with det A (K,) > 0
    # and A^{-1} (K, d, d); each row is computed as that matrix alone.

    def _sigma_sum(self, g: np.ndarray, det_a: np.ndarray) -> np.ndarray:
        """sum_i sigma_i(G) for G = E^T A: sqrt(|G|^2 + 2 det E det A) for d = 2, else by SVD."""
        if self.d == 2:
            return np.sqrt((g * g).sum(axis=(1, 2)) + 2.0 * (self.det_e * det_a))
        return np.linalg.svd(g, compute_uv=False).sum(axis=1)

    def _value(self, A: np.ndarray, det_a: np.ndarray) -> np.ndarray:
        dist2 = (A * A).sum(axis=(1, 2)) + self.e_norm2 - 2.0 * self._sigma_sum(self.E.T @ A, det_a)
        return self.C1_el * (self.det_e - det_a) ** 2 + self.C2_el * np.maximum(dist2, 0.0)

    def _polar(self, A: np.ndarray, det_a: np.ndarray, ainv: np.ndarray):
        """(K^T, s, E U V^T) at A: the pieces F's gradient and Hessian share.

        K = A^{-1}, s = sum sigma_i(G) for G = E^T A (None for d != 2), and
        E U V^T, from the SVD G = U S V^T, is the gradient of s; for d = 2
        it is (E G + det G K^T) / s.
        """
        kt = ainv.transpose(0, 2, 1)
        g = self.E.T @ A
        if self.d != 2:
            u, _, vt = np.linalg.svd(g)
            return kt, None, self.E @ u @ vt
        s = self._sigma_sum(g, det_a)[:, None, None]
        return kt, s, (self.E @ g + (self.det_e * det_a)[:, None, None] * kt) / s

    def _grad_from(self, A: np.ndarray, det_a: np.ndarray, kt: np.ndarray,
                   e_polar: np.ndarray) -> np.ndarray:
        # d(det A)/dA = det A K^T and d(sum sigma_i(E^T A))/dA = E U V^T
        det_a = det_a[:, None, None]
        g_det = 2.0 * self.C1_el * (det_a - self.det_e) * det_a * kt
        return g_det + 2.0 * self.C2_el * (A - e_polar)

    def _grad(self, A: np.ndarray, det_a: np.ndarray, ainv: np.ndarray) -> np.ndarray:
        """Gradient of F at A (`_polar`'s E U V^T and the det term)."""
        kt, _, e_polar = self._polar(A, det_a, ainv)
        return self._grad_from(A, det_a, kt, e_polar)

    def _grad_hess(self, A: np.ndarray, det_a: np.ndarray, ainv: np.ndarray,
                   h_det: np.ndarray | None = None):
        """(gradient (K, d, d), Hessian (K, d^2, d^2)) of F at A from one `_polar` pass.

        h_det is `det_hessian(det_a, ainv)` when the caller has it.  With
        C = det A K^T (the gradient of det) and H_det the Hessian of det,
        for d = 2:
          det term   2 C1 [C (x) C + (det A - det E) H_det]
          dist term  2 C2 [I - (E E^T (x) I + det E H_det - g_s (x) g_s) / s]
        where g_s = E U V^T is the gradient of s; G^{-T} = E^{-1} K^T, so
        det G E G^{-T} = det G K^T.  d = 3 takes central differences of `_grad`.
        """
        kt, s, e_polar = self._polar(A, det_a, ainv)
        grad = self._grad_from(A, det_a, kt, e_polar)
        k_rows, d = A.shape[:2]
        if d != 2:
            step = 1e-6 * (1.0 + np.sqrt((A * A).sum(axis=(1, 2))))
            h = np.empty((k_rows, d * d, d * d))
            for i in range(d * d):
                da = np.zeros((k_rows, d * d))
                da[:, i] = step
                da = da.reshape(k_rows, d, d)
                diff = _grad_at(self, A + da) - _grad_at(self, A - da)
                h[:, :, i] = diff.reshape(k_rows, d * d) / (2.0 * step[:, None])
            return grad, 0.5 * (h + h.transpose(0, 2, 1))

        c_det = (det_a[:, None, None] * kt).reshape(k_rows, 4)
        if h_det is None:
            h_det = det_hessian(det_a, ainv)
        grad_s = e_polar.reshape(k_rows, 4)
        h = 2.0 * self.C1_el * (c_det[:, :, None] * c_det[:, None, :]
                                + (det_a - self.det_e)[:, None, None] * h_det)
        h += 2.0 * self.C2_el * (np.eye(4) - (self.ee_kron + self.det_e * h_det
                                             - grad_s[:, :, None] * grad_s[:, None, :]) / s)
        return grad, 0.5 * (h + h.transpose(0, 2, 1))


def _grad_at(el: ElasticDensity, A: np.ndarray) -> np.ndarray:
    return el._grad(A, np.linalg.det(A), np.linalg.inv(A))


def det_hessian(det_a: np.ndarray, ainv: np.ndarray) -> np.ndarray:
    """Hessian of det at a stack of A as (K, d^2, d^2) (row-major A), from det A (K,) and K = A^{-1}.

    d^2 det / dA_ij dA_ab = det A [K_ji K_ba - K_ja K_bi].
    """
    k_rows, d = ainv.shape[:2]
    kt = ainv.transpose(0, 2, 1)
    kt_flat = kt.reshape(k_rows, d * d)
    return det_a[:, None, None] * (
        kt_flat[:, :, None] * kt_flat[:, None, :]
        - (kt[:, :, None, None, :] * ainv[:, None, :, :, None]).reshape(k_rows, d * d, d * d))


def _positive_det(A: np.ndarray, name: str) -> float:
    det_a = float(np.linalg.det(A))
    if det_a <= 0:
        raise ValueError(f"{name} requires det A > 0, got det A = {det_a:g}")
    return det_a


def default_elastic(d: int = 2) -> ElasticDensity:
    return ElasticDensity(E=np.eye(d))


# ---------------------------------------------------------------------------
# derived constants
# ---------------------------------------------------------------------------

def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def default_c_a(elastic: ElasticDensity) -> float:
    """C_A = 3^{d-1} |E|^{d-1} / (2^{d-2} det E)  (|E| the operator norm)."""
    d = elastic.d
    e_op = float(np.linalg.norm(elastic.E, 2))
    return 3.0 ** (d - 1) * e_op ** (d - 1) / (2.0 ** (d - 2) * elastic.det_e)


@dataclass(frozen=True)
class DerivedConstants:
    """All model constants derived from W, phi, F and the scale parameters."""

    d: int
    C_phi: float
    C_phi2: float
    C0_W: float
    C1_W: float
    Theta_W: float
    c_theta0: float
    c_theta1: float
    norm_gradW_inf: float
    rho_max: float
    cA_J: float
    ctau_J: float
    alpha_nabla: float
    C_A: float
    C_rep: float
    C_absA: float
    # sup norms of the cutoff-profile roots, used by the gradient-bound constants
    norm_grad_sqrt_phi: float
    norm_hess_sqrt_phi: float
    norm_grad_quartroot_phi: float


def _phi_radial_moment(power: int) -> float:
    """integral_0^2 phi(r) r^power dr, the float nearest its exact rational value.

    phi = 1 on [0, 1] contributes 1/(power + 1).  On [1, 2], with u = r - 1,
    the integrand is (1 - S(u)) (1 + u)^power; expanding (1 + u)^power, each
    u^k integrates over [0, 1] to 1/(k + 1) - sum_m s_m / (k + m + 1) for the
    smoothstep coefficients s_m of u^m.  For example power 1 gives 41/36.
    """
    total = Fraction(1, power + 1)
    for k in range(power + 1):
        tail = Fraction(1, k + 1) - sum(Fraction(s, k + m + 1)
                                        for m, s in enumerate(SMOOTHSTEP7_COEFFS, start=4))
        total += math.comb(power, k) * tail
    return float(total)


ROOT_SAMPLES = 400000      # intervals of the sample of v = 2 - r over [1e-9, 1]
ROOT_CHUNK = 2**14         # sample points held at once


@lru_cache(maxsize=None)
def _phi_root_norms(d: int) -> tuple[float, float, float]:
    """sup |grad sqrt(phi~)|, sup |hess sqrt(phi~)|_F, sup |grad phi~^{1/4}| on R^d.

    phi~(y) = phi(|y|).  For a radial profile f(|y|) the gradient norm is |f'|
    and the Hessian has eigenvalues f'' (radial) and f'/r ((d-1)-fold).  The
    profile is constant outside [1,2]; endpoint limits for the order-7
    smoothstep are f' -> 0 and f'' -> 2 sqrt(35) at r = 2.

    The sample is v = 2 - r at the 400,001 points k * step + 1e-9 with
    step = (1 - 1e-9) / 400000 and the last point pinned to 1, elementwise
    what np.linspace(1e-9, 1.0, 400001) gives.  It is taken in fixed chunks
    of ROOT_CHUNK points with a running max per sup, so under 2 MB is live
    at once and the floats equal those of one whole-array sample.

    Only sup |grad sqrt(phi~)| comes from the sample; its grid max sits
    1.5e-13 (relative) below a 200,001-point refinement around the argmax.
    The other two sups are the r -> 2 limits 2 sqrt(35) and 35^{1/4}, which
    exceed their grid maxima by ~3.6e-9 and ~1.2e-9 (relative), so the grid
    never sets them.
    """
    step = (1.0 - 1e-9) / ROOT_SAMPLES
    grad_sqrt = hess_sqrt = grad_quart = 0.0
    for lo in range(0, ROOT_SAMPLES + 1, ROOT_CHUNK):
        k = np.arange(lo, min(lo + ROOT_CHUNK, ROOT_SAMPLES + 1), dtype=float)
        # parametrize by v = 2 - r: phi(r) = S(v) exactly on the transition,
        # which stays accurate where 1 - S(r - 1) would cancel
        v = k * step + 1e-9
        if k[-1] == ROOT_SAMPLES:
            v[-1] = 1.0
        r = 2.0 - v
        p = _smoothstep7(v)
        dp = -_smoothstep7_d1(v)        # d phi / d r
        d2p = _smoothstep7_d2(v)        # d^2 phi / d r^2

        sqrt_p = np.sqrt(p)
        f1 = dp / (2.0 * sqrt_p)
        f2 = d2p / (2.0 * sqrt_p) - dp**2 / (4.0 * p * sqrt_p)
        q1 = dp / (4.0 * p**0.75)

        grad_sqrt = max(grad_sqrt, float(np.max(np.abs(f1))))
        hess_sqrt = max(hess_sqrt, float(np.max(np.sqrt(f2**2 + (d - 1) * (f1 / r) ** 2))))
        grad_quart = max(grad_quart, float(np.max(np.abs(q1))))
    hess_sqrt = max(hess_sqrt, 2.0 * math.sqrt(35.0))          # r -> 2 limit
    grad_quart = max(grad_quart, 35.0**0.25)                   # r -> 2 limit
    return grad_sqrt, hess_sqrt, grad_quart


def derive_constants(d: int, s0: float, elastic: ElasticDensity, c_a: float | None = None) -> DerivedConstants:
    """Assemble DerivedConstants: exact cutoff moments, root norms from a fine sample."""
    if d not in (2, 3):
        raise ValueError(f"d must be 2 or 3, got {d}")
    if s0 <= 0:
        raise ValueError("s0 must be positive")
    surface = d * unit_ball_volume(d)  # area of the unit sphere S^{d-1}
    c_phi = surface * _phi_radial_moment(d - 1)
    c_phi2 = surface / d * _phi_radial_moment(d + 1)

    ngw = norm_gradw_inf(d)
    alpha = 64.0 * max(ngw**2 / (C0_W * THETA_W**2), C_THETA1**2 / C_THETA0)
    rho_max = 2.0**d / (unit_ball_volume(d) * s0**d)
    if c_a is None:
        c_a = default_c_a(elastic)
    c_rep = 9.0 / C0_W * 4.0 ** (d - 1) * c_a ** (2 * d) * elastic.det_e**2
    c_abs_a = 8.0 * c_a**d * rho_max / 7.0
    gsp, hsp, gqp = _phi_root_norms(d)

    return DerivedConstants(
        d=d,
        C_phi=c_phi,
        C_phi2=c_phi2,
        C0_W=C0_W,
        C1_W=C1_W,
        Theta_W=THETA_W,
        c_theta0=C_THETA0,
        c_theta1=C_THETA1,
        norm_gradW_inf=ngw,
        rho_max=rho_max,
        cA_J=1.5 * math.sqrt(8.0 * d * c_phi / (c_phi2 * C0_W)),
        ctau_J=math.sqrt(10.0 / C0_W),
        alpha_nabla=alpha,
        C_A=c_a,
        C_rep=c_rep,
        C_absA=c_abs_a,
        norm_grad_sqrt_phi=gsp,
        norm_hess_sqrt_phi=hsp,
        norm_grad_quartroot_phi=gqp,
    )


@lru_cache(maxsize=None)
def cphi(d: int) -> float:
    """Cutoff normalization C_phi = integral phi(|x|) dx over R^d (cached)."""
    return d * unit_ball_volume(d) * _phi_radial_moment(d - 1)


def c_con(rho: float, det_a: float, d: int, constants: DerivedConstants) -> float:
    """Convexity constant, evaluated with the actual rho/det A ratio of the point."""
    w_dm1 = unit_ball_volume(d - 1)
    second = (constants.c_theta0 * constants.C_phi**2
              / (4.0 * (9.0 + d) * w_dm1**2 * 4.0**d) * rho**2 / det_a**2)
    return constants.c_theta0 * min(1.0 / 12.0, second)


def c_nabla2(x_ratio: float, c_con_val: float, constants: DerivedConstants) -> float:
    """Second-gradient constant C_nabla2(X); X = rho_{2 lambda} / rho_lambda."""
    d = constants.d
    a = math.sqrt(constants.alpha_nabla)
    root_terms = (constants.norm_grad_sqrt_phi**2
                  + constants.norm_hess_sqrt_phi
                  + 4.0 * constants.norm_grad_quartroot_phi**2)
    inv_sqrt = (a / c_con_val * root_terms * d * math.sqrt(2.0**d * x_ratio)
                + a / c_con_val**2 * math.sqrt(2.0**d * constants.norm_grad_sqrt_phi**2)
                * (16.0 * 2.0 ** (d / 2.0) * x_ratio + math.sqrt(8.0 * d) * math.sqrt(x_ratio)))
    return inv_sqrt ** (-2.0)


def c_tilde_nabla(x_ratio: float, c_con_val: float, constants: DerivedConstants) -> float:
    """Weight of the second-gradient term in the lower bound."""
    d = constants.d
    c_n2 = c_nabla2(x_ratio, c_con_val, constants)
    inv = constants.C_rep * (1.0 / c_n2
                             + constants.alpha_nabla * 2.0**d
                             * constants.norm_grad_sqrt_phi**2 / (c_con_val**2 * x_ratio))
    return 1.0 / inv
