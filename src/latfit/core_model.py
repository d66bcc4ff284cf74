"""Atom configurations, local densities, and the pre-energy h = F + J + nu.

Everything here is pure given an immutable Configuration.  The affine pair
(A, tau) parametrizes the candidate lattice A^{-1}(Z^d - tau) + x; J maps the
atoms near x through z_i = A (x_i - x) + tau into the periodic well and sums

    J(A, tau; x) = |A^{-1}|_F^2 / (C_phi lam^d) * sum_i W(z_i) phi(|x_i - x| / lam)

The analytic (A, tau)-gradient and Hessian of J exploit that the cosine well
has a diagonal Hessian.  Flattened parameter order is row-major A then tau.

`assemble_j` is the one J kernel.  It takes one pair or a stack of K pairs
on a leading axis (the starts a lockstep Newton steps together), on one
gather or on one gather per row zero-padded to the longest, and computes
every row exactly as that pair alone.  It keeps the atoms on the last axis
(z^T = A rel^T + tau), takes one cos pass for the value (which a caller may
hand back in) and one sin pass more for the derivatives, and gets every sum
over atoms from a matrix product: the value from the well columns against
the weights, every gradient and Hessian sum of the well from the distinct
products of the feature rows (rel_i, 1) against the weighted sin and cos
columns.  Such a product adds the atoms one by one, so padding zeros leave
it unchanged.  Fixed index maps (`_aug_index`) place those sums in the
A-then-tau layout.  The |A^{-1}|_F^2 prefactor enters by the product rule
with the closed-form Hessian `_g_hess`.  The pair's inverse comes from
`aff.ainv`, so a Newton step that already holds A^{-1} does not invert A
again.  `sample_energy` is `pre_energy` from a gather the caller already
holds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product

import numpy as np

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
# input checks: a ValueError naming the key, for values read from documents
# ---------------------------------------------------------------------------

def as_number(key: str, value) -> float:
    """value as a float; bools, strings, lists and None are not numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _is_number_list(value, d: int | None) -> bool:
    """Whether value is a list (tuple, 1-D array) of numbers, d of them when d is given."""
    listed = isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim == 1
    return (listed and (d is None or len(value) == d)
            and all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in value))


def as_vector(key: str, value, d: int | None = None) -> tuple:
    """value as a tuple of numbers, d of them when d is given."""
    if not _is_number_list(value, d):
        count = "numbers" if d is None else f"{d} numbers"
        raise ValueError(f"{key} must be a list of {count}, got {value!r}")
    return tuple(value)


def as_matrix(key: str, value, d: int) -> tuple:
    """value as a d x d tuple of rows of numbers."""
    listed = isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim == 2
    if not (listed and len(value) == d and all(_is_number_list(row, d) for row in value)):
        raise ValueError(f"{key} must be a {d} x {d} matrix, a list of {d} rows of {d} numbers, "
                         f"got {value!r}")
    return tuple(tuple(row) for row in value)


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
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError(f"box corners must be finite, got lo {lo}, hi {hi}")
        if not np.all(hi > lo):
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


class CellGrid:
    """Points binned on a uniform grid of cubic cells, stored in CSR form.

    The point p lies in cell c = floor((p - lo) / edge) + 1 of a grid padded
    by one empty cell on every side, so each cell's 3^d neighbours exist.
    Its row-major key is c . strides, and the cells of one row along the last
    axis have consecutive keys.  `order` lists the point indices sorted by
    key (stably, so ascending within a cell), `points` and `keys` follow that
    order, and start[key] : start[key + 1] is one cell's slice of them.  The
    cells that meet a box thus form one contiguous slice per row (the
    linked-cell method), and `near` takes the rows of the boxes of G query
    points in one array pass.  The edge is widened when the points' extent
    would need more than max(4 N, 4096) cells, so a sparse cloud cannot blow
    up the grid.
    """

    _SIDES = np.array([-1.0, 1.0])[:, None, None]      # a box's corners at x - r and x + r

    def __init__(self, positions: np.ndarray, edge: float):
        n, d = positions.shape
        lo = positions.min(axis=0) if n else np.zeros(d)
        span = positions.max(axis=0) - lo if n else np.zeros(d)
        edge = max(edge, float(np.prod(span + edge) / max(4 * n, 4096)) ** (1.0 / d))
        self.edge = edge if edge > 0.0 else 1.0
        self.lo = lo
        self.shape = (np.floor(span / self.edge).astype(np.intp) + 3).tolist()
        self.strides = np.cumprod([1] + self.shape[:0:-1])[::-1]
        keys = (np.floor((positions - lo) / self.edge).astype(np.intp) + 1) @ self.strides
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]
        self.points = positions[self.order]
        self.start = np.zeros(int(np.prod(self.shape)) + 1, dtype=np.intp)
        np.cumsum(np.bincount(keys, minlength=self.start.size - 1), out=self.start[1:])
        self._top = np.array(self.shape, dtype=float) - 1.0     # the last cell of each axis

    def near(self, xs: np.ndarray, r: float):
        """The points in every cell that meets |p - x|_inf <= r, for each of G points xs (G, d).

        Returns (grid-order positions, bounds): point g's are positions
        bounds[g] : bounds[g + 1], its cells row by row.  The cell box is
        clipped to the padded grid as floats, so a point far outside cannot
        overflow it, and keeps at least one (empty, padding) cell per axis.
        """
        # an atom on a cell boundary just past fl(x + r) can still have fl(p - x) = r
        box = np.floor((xs + self._SIDES * (r * (1.0 + 1e-9)) - self.lo) / self.edge) + 1.0
        c0, c1 = np.minimum(np.maximum(box, 0.0), self._top).astype(np.intp)
        ext = c1 - c0 + 1                       # cells per axis, at least 1
        n_rows = np.multiply.reduce(ext[:, :-1], axis=1)
        row_pt = np.arange(len(xs)).repeat(n_rows)              # the point of each row
        rows_to = n_rows.cumsum()
        j = np.arange(row_pt.size) - (rows_to - n_rows).repeat(n_rows)      # its row number there
        key = (c0 @ self.strides)[row_pt]       # each row's first cell, rows in row-major order
        for k in range(xs.shape[1] - 2, 0, -1):
            e = ext[row_pt, k]
            key += (j % e) * self.strides[k]
            j //= e
        key += j * self.strides[0]
        near, ends = _slices(self.start[key], self.start[key + ext[row_pt, -1]])
        return near, np.concatenate(([0], ends))[np.concatenate(([0], rows_to))]


def _slices(a: np.ndarray, b: np.ndarray):
    """The concatenated ranges a[k] : b[k], and where each of them ends in that concatenation."""
    lens = b - a
    ends = lens.cumsum()
    return np.arange(ends[-1] if lens.size else 0) + (a - ends + lens).repeat(lens), ends


def _squared_norms(diff: np.ndarray) -> np.ndarray:
    """Row sums of squares added left to right, dx*dx + dy*dy (+ dz*dz).

    In this order a radius test keeps bit for bit the atoms a k-d tree keeps.
    """
    out = diff[:, 0] * diff[:, 0]
    for k in range(1, diff.shape[1]):
        out += diff[:, k] * diff[:, k]
    return out


def close_pairs(points: np.ndarray, r: float) -> np.ndarray:
    """All index pairs (i < j) with |p_i - p_j|^2 <= r^2, sorted lexicographically.

    On a grid of edge >= r every such pair sits in one cell or in two
    neighbouring cells.  Each point meets the later points of its own cell
    and the points of the half of its 3^d - 1 neighbours with a larger key.
    """
    grid = CellGrid(points, r)
    n = points.shape[0]
    steps = np.array(list(product((-1, 0, 1), repeat=points.shape[1]))) @ grid.strides
    firsts, seconds = [], []
    for step in [0] + steps[steps > 0].tolist():
        a = np.arange(1, n + 1) if step == 0 else grid.start[grid.keys + step]
        b = grid.start[grid.keys + step + 1]
        firsts.append(np.repeat(np.arange(n), b - a))
        seconds.append(_slices(a, b)[0])
    first, second = np.concatenate(firsts), np.concatenate(seconds)
    diff = grid.points.take(first, axis=0)
    diff -= grid.points.take(second, axis=0)
    near = _squared_norms(diff) <= r * r
    first, second = grid.order[first[near]], grid.order[second[near]]
    pairs = np.stack([np.minimum(first, second), np.maximum(first, second)], axis=1)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


class Gathers:
    """The gathers of G points in one CSR block.

    Point g's atoms are rows start[g] : start[g + 1] of idx, rel and dist,
    ascending by index; gathers[g] is its (idx, rel, dist), as views.
    """

    def __init__(self, idx: np.ndarray, rel: np.ndarray, dist: np.ndarray, start: np.ndarray):
        self.idx, self.rel, self.dist, self.start = idx, rel, dist, start

    def __len__(self) -> int:
        return self.start.size - 1

    def __getitem__(self, g: int):
        g = range(len(self))[g]         # g < 0 counts from the end; out of range raises
        a, b = self.start[g], self.start[g + 1]
        return self.idx[a:b], self.rel[a:b], self.dist[a:b]


class Configuration:
    """Atom positions with interior/boundary tags, a domain box, and a cell index.

    One `CellGrid` of edge lam/2 over all positions answers every radius
    query: `local_atoms` scans the cells that meet each query point's box
    and keeps the atoms with |x_i - x|^2 <= r^2, indices ascending so
    gathers sum in a fixed order.  One call serves one point or G points.
    The hardcore pair search runs `close_pairs`.  Immutable after
    construction.
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
        if not 0 < lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {lam}")
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
        self._grid = CellGrid(positions, 0.5 * self.lam)
        self._hardcore_cache: dict[float, np.ndarray] = {}

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.domain.d

    def local_atoms(self, x, r: float):
        """(indices, relative positions, distances) of the atoms with |x_i - x| <= r.

        x is one point (d,), or G points (G, d), which give their `Gathers`:
        one (idx, rel, dist) per point, views into one CSR block, from one
        pass over the candidates of every point.  A candidate's rel is its
        position minus x, taken once from the cell index, and its dist the
        square root of the squared norm the radius test compares with r^2
        (`_squared_norms` adds the terms in `np.linalg.norm`'s order, so dist
        is bit for bit the norm of rel).  One argsort of (point, index)
        orders the block.  Points of the wrong shape, a point that is not
        finite and a radius that is negative or not finite raise ValueError.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.d,) or x.ndim > 2:
            raise ValueError(f"query points must be ({self.d},) or (G, {self.d}), got {x.shape}")
        xs = x.reshape(-1, self.d)
        finite = np.isfinite(xs).all(axis=1)
        if not finite.all():
            raise ValueError(f"query point must be finite, got {xs[~finite][0].tolist()}")
        if not 0.0 <= r < math.inf:
            raise ValueError(f"query radius must be finite and >= 0, got {r}")
        # array methods, not np.* functions: a one-point query is mostly call overhead
        near, bounds = self._grid.near(xs, r)
        diff = self._grid.points.take(near, axis=0)
        diff -= xs.repeat(bounds[1:] - bounds[:-1], axis=0)
        d2 = _squared_norms(diff)
        keep = (d2 <= r * r).nonzero()[0]
        start = keep.searchsorted(bounds)           # each point's first kept candidate
        ids = self._grid.order.take(near.take(keep))
        key = (np.arange(len(xs)) * self.n_atoms).repeat(start[1:] - start[:-1]) + ids
        perm = key.argsort(kind="stable")       # point, then index; in runs, so stable is fastest
        keep = keep.take(perm)
        out = ids.take(perm), diff.take(keep, axis=0), np.sqrt(d2.take(keep))
        return Gathers(*out, start) if x.ndim > 1 else out

    def hardcore_pairs(self, s0: float) -> np.ndarray:
        """All index pairs (i < j) with |x_i - x_j| < s0, cached per s0."""
        cached = self._hardcore_cache.get(s0)
        if cached is not None:
            return cached
        pairs = close_pairs(self.positions, s0)
        diff = self.positions.take(pairs[:, 0], axis=0)
        diff -= self.positions.take(pairs[:, 1], axis=0)
        pairs = pairs[np.linalg.norm(diff, axis=1) < s0]
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
        for name in ("eps_rho", "eps_J", "C_A"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"threshold {name} must be positive and finite, "
                                 f"got {getattr(self, name)}")


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
        for name, value in (("lambda", self.lam), ("s0", self.s0), ("vartheta", self.vartheta)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
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
        """The derived model constants.

        `derive_constants` runs once per instance, and the cutoff-root sups it
        samples once per process and d.
        """
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
    rho_lam(x) = c sum(w).  G points x (G, d) take one `local_atoms` query
    and give (rel, w, c, start): the blocks of every point's rel and w in
    CSR form, point g in rows start[g] : start[g + 1], each in its own
    one-point order.
    """
    got = chi.local_atoms(x, 2.0 * lam)
    c = 1.0 / (cphi(chi.d) * lam**chi.d)
    if np.ndim(x) == 1:
        return got[1], phi_eval(got[2] / lam), c
    return got.rel, phi_eval(got.dist / lam), c, got.start


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


def j_phases(rel: np.ndarray, A: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The well's phases 2 pi (A rel_i + tau) at a stack of pairs, (K, d, m).

    rel is one gather (m, d) or one per row (K, m, d); A is (K, d, d) and tau
    (K, d).  Their cos is the cos pass of `assemble_j`, which a caller that
    has just evaluated J at a pair can hand back in as `cos_z`.
    """
    z = A @ np.swapaxes(rel, -1, -2)
    z += tau[:, :, None]            # in place: one (K, d, m) array, no temporaries
    z *= TWO_PI_CORE
    return z


def j_features(rel: np.ndarray) -> np.ndarray:
    """The feature rows of `assemble_j` for a gather: rel_j rel_j' (j <= j'), rel_j, then 1.

    rel is one gather (m, d) or one per point (G, m, d), zero-padded; the
    block is (n_rows, m) or (G, n_rows, m), atoms along the last axis.  It
    depends on the gather alone, so an objective builds it once for all its
    Newton steps and hands it to `assemble_j` as `features`.
    """
    d = rel.shape[-1]
    pairs = _aug_index(d)[0]
    rel_t = np.swapaxes(rel, -1, -2)
    n_pairs = len(pairs[0])
    feat = np.empty(rel_t.shape[:-2] + (n_pairs + d + 1, rel_t.shape[-1]))
    np.multiply(rel_t[..., pairs[0], :], rel_t[..., pairs[1], :], out=feat[..., :n_pairs, :])
    feat[..., n_pairs: -1, :] = rel_t
    feat[..., -1, :] = 1.0
    return feat


def assemble_j(rel: np.ndarray, w: np.ndarray, aff: AffinePair, c, want_grad: bool = True,
               cos_z: np.ndarray | None = None, features=None):
    """J and its exact (A, tau)-gradient and Hessian from a precomputed gather.

    rel are atom positions relative to x, w their cutoff weights, and
    c = 1/(C_phi lam^d); aff is any pair with A, tau and ainv = A^{-1} (a
    Newton step passes the inverse it already has).  A pair is one start:
    (J, gradient, Hessian) come back as a float, (n,) and (n, n).  A stack of
    K starts (A (K, d, d), tau (K, d), ainv (K, d, d)) gives (K,), (K, n) and
    (K, n, n), every row computed exactly as that start alone.  The stack
    shares one gather (rel (m, d), w (m,), c a float) or has one per row
    (rel (K, m, d), w (K, m), c (K,)), zero-padded to the longest row: a
    padded atom has w = 0.  Flattened parameter order is row-major A then
    tau.  want_grad=False gives (J, None, None).  cos_z is the cos of
    `j_phases` at this stack when the caller holds it, and features the
    gather's feature block (`j_features`): one block, one per row, or the
    pair (blocks (G, n_rows, m), points (K,)) of per-point blocks and the
    point of each row; each is computed here when absent, and only the
    gradient reads features.

    J = c g S with g = |A^{-1}|_F^2 and S = sum_i W(z_i) w_i.  z_ik depends
    only on row k of [A | tau], through the feature row f_i = (rel_i, 1).
    The well's Hessian is diagonal, so the gradient of S in row k is
    sum_i dW_k f_i w_i and its Hessian is block diagonal, block k being
    sum_i d2W_k f_i f_i^T w_i.  One matmul per start of the distinct feature
    products (rel_ij rel_ij', rel_ij, 1) against the weighted sin and cos
    columns gives all of them; per-point blocks take one matmul per run of
    consecutive rows on one point, reading the block in place, the same
    product per row that a copied block per row gives, with no copy.
    `_aug_index` scatters the result into the A-then-tau layout.  g enters
    through the product rule with its closed-form gradient and Hessian
    (`_g_hess`).  Atoms run along the last axis throughout, and every sum
    over them is a matrix product with at least two rows and two columns,
    so a row of a padded stack is bitwise that row alone at the same
    padding width.  Zero padding adds exact zeros, but the BLAS kernel can
    change with the width: a short gather's row can move by an ulp between
    widths (10 atoms padded to 522 against 10 unpadded).
    """
    A, tau, ainv = aff.A, aff.tau, aff.ainv
    single = A.ndim == 2
    if single:
        A, tau, ainv = A[None], tau[None], ainv[None]
    k_rows, d = A.shape[:2]
    n = d * d + d
    m = rel.shape[-2]
    c = np.asarray(c, dtype=float)
    if m == 0:
        value, grad, hess = np.zeros(k_rows), np.zeros((k_rows, n)), np.zeros((k_rows, n, n))
    else:
        g = (ainv * ainv).sum(axis=(1, 2))
        arg = j_phases(rel, A, tau) if want_grad or cos_z is None else None
        if cos_z is None:
            cos_z = np.cos(arg)
        # W = sum (1 - cos)/2pi^2; the weights twice keep the product a gemm
        w_pair = np.empty(w.shape[:-1] + (2, m))
        w_pair[..., 0, :] = w
        w_pair[..., 1, :] = w
        per_axis = np.matmul(1.0 - cos_z, w_pair.swapaxes(-1, -2))          # (K, d, 2)
        del w_pair                                          # not held through the gradient
        s_val = per_axis[:, 0, 0]
        for k in range(1, d):
            s_val = s_val + per_axis[:, k, 0]
        s_val = s_val / (2.0 * math.pi**2)
        value = c * g * s_val
    if not want_grad:
        return (float(value[0]) if single else value), None, None
    if m:
        _, grad_src, rows, cols, hess_src = _aug_index(d)
        feat = j_features(rel) if features is None else features
        w_row = w[..., None, :]
        wells = np.empty((k_rows, 2 * d, m))
        np.sin(arg, out=wells[:, :d])
        del arg                                             # not held through the feature product
        wells[:, :d] *= w_row / math.pi                      # grad W, weighted
        np.multiply(cos_z, 2.0 * w_row, out=wells[:, d:])     # diagonal of hess W, weighted
        if isinstance(feat, tuple):
            blocks, points = feat
            sums = np.empty((k_rows, blocks.shape[-2], 2 * d))
            cuts = np.flatnonzero(np.diff(points)) + 1
            for lo, hi in zip([0, *cuts], [*cuts, k_rows]):
                np.matmul(blocks[points[lo]], wells[lo:hi].transpose(0, 2, 1), out=sums[lo:hi])
            sums = sums.reshape(k_rows, -1)
        else:
            sums = np.matmul(feat, wells.transpose(0, 2, 1)).reshape(k_rows, -1)
        grad_s = sums[:, grad_src]

        g1 = np.zeros((k_rows, n))                          # gradient of g, zero in tau
        kt = ainv.transpose(0, 2, 1)
        g1[:, : d * d] = (-2.0 * kt @ ainv @ kt).reshape(k_rows, d * d)
        grad = c.reshape(-1, 1) * (g1 * s_val[:, None] + g[:, None] * grad_s)
        cross = g1[:, :, None] * grad_s[:, None, :]
        hess = cross + cross.transpose(0, 2, 1)
        hess[:, : d * d, : d * d] += _g_hess(ainv) * s_val[:, None, None]
        hess[:, rows, cols] += g[:, None] * sums[:, hess_src]
        hess *= c.reshape(-1, 1, 1)
    if single:
        return float(value[0]), grad[0], hess[0]
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
    """Hessian of g(A) = |A^{-1}|_F^2 as a (..., d^2, d^2) matrix (row-major A).

    With K = A^{-1}, P = K^T K K^T, Q = K^T K and R = K K^T,
    d^2 g / dA_ij dA_ab = 2 (K_bi P_aj + Q_ia R_bj + P_ib K_ja).
    Stacked over the leading axes of K (..., d, d).
    """
    d = ainv.shape[-1]
    k = ainv
    kt = k.swapaxes(-1, -2)
    q = kt @ k
    r = k @ kt
    p = q @ kt
    out = 2.0 * (kt[..., :, None, None, :] * p.swapaxes(-1, -2)[..., None, :, :, None]
                 + q[..., :, None, :, None] * r.swapaxes(-1, -2)[..., None, :, None, :]
                 + p[..., :, None, None, :] * k[..., None, :, :, None]
                 ).reshape(k.shape[:-2] + (d * d, d * d))
    return 0.5 * (out + out.swapaxes(-1, -2))


def pre_energy(aff: AffinePair, chi: Configuration, x, params: ModelParams) -> EnergyBreakdown:
    """h = F(A) + J(A, tau) + nu(A), parts reported separately."""
    rel, w, c = gather_weights(chi, x, params.lam)
    return sample_energy(aff, rel, w, c, params)


def sample_energy(aff: AffinePair, rel: np.ndarray, w: np.ndarray, c: float,
                  params: ModelParams) -> EnergyBreakdown:
    """`pre_energy` from a gather at params.lam that the caller already holds."""
    rho = float(np.sum(w)) * c
    j_term = assemble_j(rel, w, aff, c, want_grad=False)[0]
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


def is_regular_pair(x, aff: AffinePair, chi: Configuration, params: ModelParams):
    """Regular-pair test under params.thresholds; returns (bool, RegularityReport with margins)."""
    rho, j_val = _density_and_misfit(aff, chi, x, params.lam)
    return _regularity(x, aff, rho, j_val, chi, params)


def _regularity(x, aff: AffinePair, rho: float, j_val: float, chi: Configuration,
                params: ModelParams):
    """`is_regular_pair` given rho_lam(x) and J(aff; x), as a fit's own gather gives them."""
    thr = params.thresholds
    norm_ainv = float(np.linalg.norm(np.linalg.inv(aff.A)))
    det_a = float(np.linalg.det(aff.A))

    hardcore_ok = True
    pairs = chi.hardcore_pairs(params.s0)
    if pairs.size:
        x = np.asarray(x, dtype=float)
        mids = 0.5 * (chi.positions[pairs[:, 0]] + chi.positions[pairs[:, 1]])
        near = np.linalg.norm(mids - x, axis=1) <= 2.0 * params.lam + params.s0
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
