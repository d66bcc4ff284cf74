"""Seeded configuration generators with analytic ground truth.

Every generator fills the domain box and its 4*lam boundary band with atoms
of the deformed reference lattice, tags interior vs boundary, and emits the
analytic ground truth (true A(x) field and/or net Burgers content).  Seeded
generation is bit-reproducible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .core_model import Box, Configuration, as_matrix, as_number, as_vector, close_pairs

KINDS = ("perfect", "noise", "vacancies", "edge_dislocation", "shear", "bend", "grain_boundary")
PLANAR_KINDS = ("edge_dislocation", "bend", "grain_boundary")     # their maps are written for d = 2


SEAM_GAP = 0.75     # a grain boundary keeps no two atoms this close


def prune_close(pts: np.ndarray, r: float) -> np.ndarray:
    """pts less the later atom of each pair within r, pairs taken in lexicographic order."""
    drop = np.zeros(pts.shape[0], dtype=bool)
    for i, j in close_pairs(pts, r):
        if not drop[i] and not drop[j]:
            drop[j] = True
    return pts[~drop]


class GenerationError(RuntimeError):
    """Generator parameters produced an invalid configuration."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one seeded configuration.

    lam sizes the boundary band (4*lam) and the cell index; it should be at
    least the lam later used for analysis.  a_matrix is the reference lattice
    matrix (lattice = a_matrix^{-1} (Z^d - tau)); sigma, fraction, burgers,
    core, gamma, kappa, angle select the deformation per kind.  Each field
    is checked on construction, its vectors and a_matrix against the
    domain's d (burgers only for edge_dislocation, the kind that reads it);
    a bad value raises a ValueError naming the field, and a kind in
    PLANAR_KINDS on a domain that is not 2-D a GenerationError naming the
    kind.
    """

    kind: str
    domain_lo: tuple = (0.0, 0.0)
    domain_hi: tuple = (40.0, 40.0)
    lam: float = 12.0
    seed: int = 0
    a_matrix: tuple | None = None
    tau: tuple | None = None
    sigma: float = 0.0
    fraction: float = 0.0
    burgers: tuple = (1, 0)
    core: tuple | None = None
    poisson: float = 0.3
    core_radius: float = 1.0
    gamma: float = 0.0
    kappa: float = 0.0
    angle: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise GenerationError(f"unknown generator kind {self.kind!r}; choose from {KINDS}")
        lo = as_vector("domain_lo", self.domain_lo)
        d = len(lo)
        if self.kind in PLANAR_KINDS and d != 2:
            raise GenerationError(f"generator kind {self.kind!r} needs a 2-D domain, "
                                  f"got domain_lo {self.domain_lo!r}")
        checked = {"domain_lo": lo, "domain_hi": as_vector("domain_hi", self.domain_hi, d),
                   "burgers": as_vector("burgers", self.burgers,
                                        d if self.kind == "edge_dislocation" else None)}
        for key in ("tau", "core"):
            if getattr(self, key) is not None:
                checked[key] = as_vector(key, getattr(self, key), d)
        if self.a_matrix is not None:
            checked["a_matrix"] = as_matrix("a_matrix", self.a_matrix, d)
        for key in ("lam", "sigma", "fraction", "poisson", "core_radius", "gamma", "kappa",
                    "angle"):
            as_number(key, getattr(self, key))
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        for key, value in checked.items():
            object.__setattr__(self, key, value)


@dataclass(frozen=True)
class GroundTruth:
    """Analytic truth emitted alongside the atoms."""

    kind: str
    a_field: object                      # callable x -> true A(x), or None
    burgers: np.ndarray | None = None    # net Burgers content in lattice units
    core: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def a_at(self, x) -> np.ndarray:
        if self.a_field is None:
            raise ValueError(f"generator kind {self.kind!r} has no single-valued A(x) field")
        return np.asarray(self.a_field(np.asarray(x, dtype=float)))


def _lattice_points(a_matrix: np.ndarray, tau: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """All points of A^{-1}(Z^d - tau) inside [lo, hi], in deterministic order."""
    d = a_matrix.shape[0]
    corners = np.array(list(np.ndindex(*(2,) * d)), dtype=float)
    corners = lo + corners * (hi - lo)
    z_corners = corners @ a_matrix.T + tau
    z_lo = np.floor(z_corners.min(axis=0)).astype(int) - 1
    z_hi = np.ceil(z_corners.max(axis=0)).astype(int) + 1
    grids = np.meshgrid(*[np.arange(z_lo[k], z_hi[k] + 1) for k in range(d)], indexing="ij")
    z = np.stack([g.ravel() for g in grids], axis=1).astype(float)
    pts = (z - tau) @ np.linalg.inv(a_matrix).T
    inside = np.all((pts >= lo - 1e-12) & (pts <= hi + 1e-12), axis=1)
    return pts[inside]


def _edge_displacement(rel: np.ndarray, b_vec: np.ndarray, poisson: float) -> np.ndarray:
    """Isotropic edge-dislocation displacement for Burgers vector b along +x.

    u_x = b/(2 pi) [atan2(y, x) + x y / (2 (1-nu) r^2)]
    u_y = -b/(2 pi) [(1-2 nu)/(4 (1-nu)) ln r^2 + (x^2 - y^2)/(4 (1-nu) r^2)]
    """
    b = float(np.linalg.norm(b_vec))
    e1 = b_vec / b
    e2 = np.array([-e1[1], e1[0]])
    x = rel @ e1
    y = rel @ e2
    r2 = x * x + y * y
    r2 = np.maximum(r2, 1e-18)
    one_m_nu = 1.0 - poisson
    ux = b / (2.0 * math.pi) * (np.arctan2(y, x) + x * y / (2.0 * one_m_nu * r2))
    uy = -b / (2.0 * math.pi) * ((1.0 - 2.0 * poisson) / (4.0 * one_m_nu) * np.log(r2)
                                 + (x * x - y * y) / (4.0 * one_m_nu * r2))
    return ux[:, None] * e1 + uy[:, None] * e2


def generate(spec: GeneratorSpec) -> tuple[Configuration, GroundTruth]:
    """Build the seeded configuration and its ground truth; checks the hardcore gate."""
    lo = np.asarray(spec.domain_lo, dtype=float)
    hi = np.asarray(spec.domain_hi, dtype=float)
    domain = Box(lo, hi)
    d = domain.d
    a_ref = np.eye(d) if spec.a_matrix is None else np.asarray(spec.a_matrix, dtype=float)
    tau_ref = np.zeros(d) if spec.tau is None else np.asarray(spec.tau, dtype=float)
    rng = np.random.default_rng(spec.seed)
    band = 4.0 * spec.lam
    z_pts = _lattice_points(a_ref, tau_ref, lo - band - 2.0, hi + band + 2.0)

    burgers = None
    core = None
    a_field = None

    if spec.kind == "perfect":
        pts = z_pts
        a_field = (lambda a: (lambda x: a))(a_ref.copy())

    elif spec.kind == "noise":
        pts = z_pts + spec.sigma * rng.standard_normal(z_pts.shape)
        a_field = (lambda a: (lambda x: a))(a_ref.copy())

    elif spec.kind == "vacancies":
        pts = z_pts
        a_field = (lambda a: (lambda x: a))(a_ref.copy())

    elif spec.kind == "shear":
        f_def = np.eye(d)
        f_def[0, 1] = spec.gamma
        pts = z_pts @ f_def.T
        a_true = a_ref @ np.linalg.inv(f_def)
        a_field = (lambda a: (lambda x: a))(a_true)

    elif spec.kind == "bend":
        if spec.kappa == 0.0:
            raise GenerationError("bend requires kappa != 0")
        radius = 1.0 / spec.kappa
        center = 0.5 * (lo + hi)

        def bend_map(z):
            zz = z - center
            theta = zz[:, 0] / radius
            rr = radius - zz[:, 1]
            out = np.empty_like(zz)
            out[:, 0] = rr * np.sin(theta)
            out[:, 1] = radius - rr * np.cos(theta)
            return out + center

        pts = bend_map(z_pts)

        def a_field(x, _radius=radius, _center=center, _a=a_ref.copy()):
            xx = np.asarray(x, dtype=float) - _center
            p, q = xx[0], xx[1]
            rr = math.hypot(p, _radius - q)
            theta = math.atan2(p, _radius - q)
            grad = np.array([[rr / _radius * math.cos(theta), -math.sin(theta)],
                             [rr / _radius * math.sin(theta), math.cos(theta)]])
            return _a @ np.linalg.inv(grad)

    elif spec.kind == "edge_dislocation":
        b_lat = np.asarray(spec.burgers, dtype=float)
        if not np.any(b_lat):
            raise GenerationError("edge_dislocation requires a nonzero Burgers vector")
        core = (0.5 * (lo + hi) + np.array([0.5, 0.5]) if spec.core is None
                else np.asarray(spec.core, dtype=float))
        b_cart = np.linalg.inv(a_ref) @ b_lat
        rel = z_pts - core
        keep = np.linalg.norm(rel, axis=1) > spec.core_radius
        rel = rel[keep]
        pts = core + rel + _edge_displacement(rel, b_cart, spec.poisson)
        burgers = np.round(b_lat).astype(np.int64)

    elif spec.kind == "grain_boundary":
        if spec.angle == 0.0:
            raise GenerationError("grain_boundary requires a nonzero misorientation angle")
        center = 0.5 * (lo + hi)
        half = 0.5 * spec.angle
        rot_l = np.array([[math.cos(-half), -math.sin(-half)], [math.sin(-half), math.cos(-half)]])
        rot_r = np.array([[math.cos(half), -math.sin(half)], [math.sin(half), math.cos(half)]])
        pts_l = center + (z_pts - center) @ rot_l.T
        pts_r = center + (z_pts - center) @ rot_r.T
        pts = np.concatenate([pts_l[pts_l[:, 0] < center[0]], pts_r[pts_r[:, 0] >= center[0]]])
        pts = prune_close(pts, SEAM_GAP)

        def a_field(x, _center=center, _l=rot_l, _r=rot_r, _a=a_ref.copy()):
            rot = _l if np.asarray(x, dtype=float)[0] < _center[0] else _r
            return _a @ rot.T

    else:  # pragma: no cover - guarded by GeneratorSpec
        raise GenerationError(f"unhandled kind {spec.kind}")

    keep = domain.contains(pts, pad=band)
    pts = pts[keep]
    interior = domain.contains(pts)

    if spec.kind == "vacancies":
        n_interior = int(np.count_nonzero(interior))
        n_remove = int(math.floor(spec.fraction * n_interior))
        interior_idx = np.flatnonzero(interior)
        removed = rng.choice(interior_idx, size=n_remove, replace=False)
        mask = np.ones(pts.shape[0], dtype=bool)
        mask[removed] = False
        pts, interior = pts[mask], interior[mask]

    chi = Configuration(pts, interior, domain, spec.lam)

    # the analysis-time gate uses the model's s0; reject here only overlaps
    # that no sensible hardcore radius would accept
    gross = chi.hardcore_pairs(0.25)
    if len(gross):
        i, j = gross[0]
        raise GenerationError(
            f"generated configuration violates the hardcore gate: atoms {i} and {j} at distance "
            f"{float(np.linalg.norm(chi.positions[i] - chi.positions[j])):.4f}")

    meta = {
        "kind": spec.kind,
        "seed": spec.seed,
        "n_interior": int(np.count_nonzero(chi.interior)),
        "n_boundary": int(np.count_nonzero(~chi.interior)),
    }
    if burgers is not None:
        meta["burgers"] = [int(v) for v in burgers]
        meta["core"] = [float(v) for v in core]
    return chi, GroundTruth(kind=spec.kind, a_field=a_field, burgers=burgers, core=core, meta=meta)


def edge_dipole(domain: Box, lam: float, core1, core2, burgers=(1, 0),
                poisson: float = 0.3, core_radius: float = 1.0) -> tuple[Configuration, GroundTruth]:
    """Two opposite edge dislocations (+b at core1, -b at core2); net content 0."""
    lo, hi = domain.lo, domain.hi
    band = 4.0 * lam
    z = _lattice_points(np.eye(2), np.zeros(2), lo - band - 2.0, hi + band + 2.0)
    c1 = np.asarray(core1, dtype=float)
    c2 = np.asarray(core2, dtype=float)
    b = np.asarray(burgers, dtype=float)
    keep = ((np.linalg.norm(z - c1, axis=1) > core_radius)
            & (np.linalg.norm(z - c2, axis=1) > core_radius))
    z = z[keep]
    pts = z + _edge_displacement(z - c1, b, poisson) + _edge_displacement(z - c2, -b, poisson)
    pts = pts[domain.contains(pts, pad=band)]
    chi = Configuration(pts, domain.contains(pts), domain, lam)
    truth = GroundTruth(kind="edge_dipole", a_field=None,
                        burgers=np.zeros(2, dtype=np.int64), core=None,
                        meta={"cores": [c1.tolist(), c2.tolist()],
                              "burgers_each": [int(v) for v in np.round(b)]})
    return chi, truth
