"""Periodic well, cutoff profile, elastic density, and the constants derived from them.

The three ingredient functions of the energy density are fixed closed forms:

    W(z)  = sum_k (1 - cos 2 pi z_k) / (2 pi^2)     separable cosine well, minima on Z^d
    phi(r) = 1 on [0,1], 0 on [2,inf), order-7 smoothstep transition on [1,2]
    F(A)  = C1 (det E - det A)^2 + C2 dist^2(A, E SO_d)

W gives every well constant analytically (quadratic sandwich 4/pi^2 .. 1,
convexity window Theta = 1/6 with Hessian eigenvalues in [1, 2]).  The
smoothstep transition is C^3 with quartic touchdown at r = 2, so the square
and fourth roots of the profile keep bounded first and second derivatives;
all cutoff moments are computed by adaptive Gauss-Kronrod quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

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

def w_eval(z):
    """W(z) = sum_k (1 - cos 2 pi z_k) / (2 pi^2), vectorized over leading axes."""
    z = np.asarray(z, dtype=float)
    return np.sum((1.0 - np.cos(TWO_PI * z)) / (2.0 * math.pi**2), axis=-1)


def w_grad(z):
    """Gradient of W: component k is sin(2 pi z_k) / pi."""
    z = np.asarray(z, dtype=float)
    return np.sin(TWO_PI * z) / math.pi


def w_hess_diag(z):
    """Diagonal of the (diagonal) Hessian of W: 2 cos(2 pi z_k)."""
    z = np.asarray(z, dtype=float)
    return 2.0 * np.cos(TWO_PI * z)


def w_hess(z):
    """Full d x d Hessian of W (diagonal for the separable cosine well)."""
    diag = w_hess_diag(z)
    out = np.zeros(diag.shape + (diag.shape[-1],))
    idx = np.arange(diag.shape[-1])
    out[..., idx, idx] = diag
    return out


def norm_gradw_inf(d: int) -> float:
    """sup |grad W| = sqrt(d) / pi."""
    return math.sqrt(d) / math.pi


# ---------------------------------------------------------------------------
# cutoff phi
# ---------------------------------------------------------------------------

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


def phi_grad(r):
    """d phi / d r; identically 0 outside (1, 2) and <= 0 everywhere."""
    r = np.asarray(r, dtype=float)
    u = np.clip(r - 1.0, 0.0, 1.0)
    return -_smoothstep7_d1(u)


def phi_hess(r):
    """d^2 phi / d r^2 (continuous; the profile is C^3)."""
    r = np.asarray(r, dtype=float)
    u = np.clip(r - 1.0, 0.0, 1.0)
    return -_smoothstep7_d2(u)


# ---------------------------------------------------------------------------
# elastic density F
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElasticDensity:
    """F(A) = C1 (det E - det A)^2 + C2 dist^2(A, E SO_d), the coercivity bound with equality.

    dist^2(A, E SO_d) = |A|_F^2 + |E|_F^2 - 2 sum_i sigma_i(E^T A), valid whenever
    det E > 0 and det A > 0 (the optimal orthogonal factor is then a rotation).
    det E, |E|_F^2 and E E^T (x) I are computed once, like the frozen E.

    The public f_el, f_el_grad and f_el_hess check det A > 0 and hand det A
    and A^{-1} to the kernels _value, _grad and _hess, which a Newton step
    calls directly with the det A and A^{-1} it already has.
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
        det_e = float(np.linalg.det(E))
        if det_e <= 0:
            raise ValueError("E must have positive determinant")
        if self.C1_el <= 0 or self.C2_el <= 0:
            raise ValueError("elastic coefficients must be positive")
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

    def dist2_rot(self, A: np.ndarray) -> float:
        """Squared Frobenius distance from A to the rotated reference orbit E SO_d."""
        s = np.linalg.svd(self.E.T @ A, compute_uv=False)
        val = float(np.sum(A * A) + self.e_norm2 - 2.0 * np.sum(s))
        return max(val, 0.0)

    def f_el(self, A) -> float:
        A = np.asarray(A, dtype=float)
        return self._value(A, _positive_det(A, "f_el"))

    def f_el_grad(self, A) -> np.ndarray:
        A = np.asarray(A, dtype=float)
        return self._grad(A, _positive_det(A, "f_el_grad"), np.linalg.inv(A))

    def f_el_hess(self, A) -> np.ndarray:
        """Hessian of F as a (d^2, d^2) matrix (row-major A flattening).

        d = 2 uses the closed form sum sigma_i(G) = sqrt(|G|^2 + 2 det G) with
        G = E^T A (valid for det G > 0); d = 3 falls back to central
        differences of the analytic gradient.
        """
        A = np.asarray(A, dtype=float)
        return self._hess(A, _positive_det(A, "f_el_hess"), np.linalg.inv(A))

    def _value(self, A: np.ndarray, det_a: float) -> float:
        return self.C1_el * (self.det_e - det_a) ** 2 + self.C2_el * self.dist2_rot(A)

    def _grad(self, A: np.ndarray, det_a: float, ainv: np.ndarray) -> np.ndarray:
        """Gradient of F at A, given det A > 0 and A^{-1}."""
        # d(det A)/dA = det A * A^{-T}; d(sum sigma_i(E^T A))/dA = E U V^T
        u, _, vt = np.linalg.svd(self.E.T @ A)
        g_det = 2.0 * self.C1_el * (det_a - self.det_e) * det_a * ainv.T
        g_dist = 2.0 * self.C2_el * (A - self.E @ u @ vt)
        return g_det + g_dist

    def _hess(self, A: np.ndarray, det_a: float, ainv: np.ndarray) -> np.ndarray:
        """Hessian of F at A, given det A > 0 and A^{-1} (both unused for d = 3).

        With K = A^{-1}, C = det A K^T (the gradient of det) and H_det the
        Hessian of det (`det_hessian`), for d = 2:
          det term   2 C1 [C (x) C + (det A - det E) H_det]
          dist term  2 C2 [I - (E E^T (x) I + det E H_det - g_s (x) g_s) / s]
        where s = sum sigma_i(G) and g_s = (E G + det G K^T) / s is its
        gradient; G^{-T} = E^{-1} K^T, so det G E G^{-T} = det G K^T.
        """
        d = A.shape[0]
        if d != 2:
            step = 1e-6 * (1.0 + float(np.linalg.norm(A)))
            h = np.empty((d * d, d * d))
            for i in range(d * d):
                da = np.zeros_like(A)
                da.flat[i] = step
                h[:, i] = (self.f_el_grad(A + da) - self.f_el_grad(A - da)).ravel() / (2.0 * step)
            return 0.5 * (h + h.T)

        e = self.E
        g = e.T @ A
        det_g = self.det_e * det_a
        s = math.sqrt(float(np.sum(g * g)) + 2.0 * det_g)
        kt = ainv.T
        c_det = det_a * kt.ravel()
        h_det = det_hessian(det_a, ainv)
        grad_s = ((e @ g + det_g * kt) / s).ravel()
        h = 2.0 * self.C1_el * (np.outer(c_det, c_det) + (det_a - self.det_e) * h_det)
        h += 2.0 * self.C2_el * (np.eye(4) - (self.ee_kron + self.det_e * h_det
                                             - np.outer(grad_s, grad_s)) / s)
        return 0.5 * (h + h.T)


def det_hessian(det_a: float, ainv: np.ndarray) -> np.ndarray:
    """Hessian of det at A as a (d^2, d^2) matrix (row-major A), from det A and K = A^{-1}.

    d^2 det / dA_ij dA_ab = det A [K_ji K_ba - K_ja K_bi].
    """
    d = ainv.shape[0]
    kt = ainv.T
    return det_a * (np.outer(kt, kt)
                    - (kt[:, None, None, :] * ainv[None, :, :, None]).reshape(d * d, d * d))


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
    """integral_0^2 phi(r) r^power dr to ~1e-11 relative accuracy."""
    val, _ = quad(lambda r: float(phi_eval(r)) * r**power, 0.0, 2.0,
                  points=[1.0], epsabs=1e-13, epsrel=1e-11, limit=200)
    return val


@lru_cache(maxsize=None)
def _phi_root_norms(d: int) -> tuple[float, float, float]:
    """sup |grad sqrt(phi~)|, sup |hess sqrt(phi~)|_F, sup |grad phi~^{1/4}| on R^d.

    phi~(y) = phi(|y|).  For a radial profile f(|y|) the gradient norm is |f'|
    and the Hessian has eigenvalues f'' (radial) and f'/r ((d-1)-fold).  The
    profile is constant outside [1,2]; endpoint limits for the order-7
    smoothstep are f' -> 0 and f'' -> 2 sqrt(35) at r = 2.
    """
    # parametrize by v = 2 - r: phi(r) = S(v) exactly on the transition, which
    # stays accurate where 1 - S(r - 1) would cancel
    v = np.linspace(1e-9, 1.0, 400001)
    r = 2.0 - v
    p = _smoothstep7(v)
    dp = -_smoothstep7_d1(v)        # d phi / d r
    d2p = _smoothstep7_d2(v)        # d^2 phi / d r^2

    sqrt_p = np.sqrt(p)
    f1 = dp / (2.0 * sqrt_p)
    f2 = d2p / (2.0 * sqrt_p) - dp**2 / (4.0 * p * sqrt_p)
    q1 = dp / (4.0 * p**0.75)

    grad_sqrt = float(np.max(np.abs(f1)))
    hess_sqrt = float(np.max(np.sqrt(f2**2 + (d - 1) * (f1 / r) ** 2)))
    hess_sqrt = max(hess_sqrt, 2.0 * math.sqrt(35.0))          # r -> 2 limit
    grad_quart = max(float(np.max(np.abs(q1))), 35.0**0.25)    # r -> 2 limit
    return grad_sqrt, hess_sqrt, grad_quart


def derive_constants(d: int, s0: float, elastic: ElasticDensity, c_a: float | None = None) -> DerivedConstants:
    """Assemble DerivedConstants; quadratures adaptive to <= 1e-8 relative error."""
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
