"""File formats: atoms CSV, params/spec/fit/loop JSON, field CSV.

Atoms travel as CSV with header x,y[,z],kind (kind I interior, S boundary),
positions printed with shortest round-trip precision so generate -> write ->
read reproduces them bit-exactly.  JSON documents use fixed key order and
row-major matrix arrays so outputs are stable golden files.  All writes are
atomic (temp file + rename).
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile

import numpy as np

from .core_model import Box, Configuration, ModelParams, RegularityThresholds
from .generators import KINDS, GeneratorSpec
from .potentials import ElasticDensity


class FileFormatError(ValueError):
    """Malformed input file; message carries file and line context."""


def _fmt(x: float) -> str:
    return repr(float(x))


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-latfit-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# atoms CSV
# ---------------------------------------------------------------------------

def atoms_to_csv(chi: Configuration) -> str:
    d = chi.d
    header = ["x", "y", "z"][:d] + ["kind"]
    lines = [",".join(header)]
    for pos, interior in zip(chi.positions, chi.interior):
        lines.append(",".join(_fmt(v) for v in pos) + ("," + ("I" if interior else "S")))
    return "\n".join(lines) + "\n"


def write_atoms_csv(path: str, chi: Configuration) -> None:
    atomic_write_text(path, atoms_to_csv(chi))


def read_atoms_csv(path: str):
    """Parse positions and interior flags; errors carry the 1-based line number."""
    positions = []
    interior = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FileFormatError(f"{path}:1: empty atoms file") from None
        cols = [c.strip() for c in header]
        if cols not in (["x", "y", "kind"], ["x", "y", "z", "kind"]):
            raise FileFormatError(f"{path}:1: expected header x,y[,z],kind, got {','.join(cols)}")
        d = len(cols) - 1
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise FileFormatError(f"{path}:{lineno}: expected {d + 1} fields, got {len(row)}")
            try:
                coords = [float(v) for v in row[:d]]
            except ValueError as err:
                raise FileFormatError(f"{path}:{lineno}: bad coordinate: {err}") from None
            if not all(math.isfinite(v) for v in coords):
                raise FileFormatError(f"{path}:{lineno}: coordinates must be finite, got {row[:d]}")
            positions.append(coords)
            kind = row[d].strip()
            if kind not in ("I", "S"):
                raise FileFormatError(f"{path}:{lineno}: kind must be I or S, got {kind!r}")
            interior.append(kind == "I")
    if not positions:
        raise FileFormatError(f"{path}:2: no atoms")
    return np.array(positions, dtype=float), np.array(interior, dtype=bool)


def configuration_from_arrays(positions: np.ndarray, interior: np.ndarray,
                              params: ModelParams, domain: Box | None = None) -> Configuration:
    """Build a Configuration; the domain defaults to the interior bounding box.

    With an inferred domain the exact 4*lam band of the original box is not
    recoverable, so containment validation only runs for explicit domains.
    """
    if domain is None:
        if not np.any(interior):
            raise FileFormatError("atoms file has no interior atoms and no domain was given")
        inner = positions[interior]
        domain = Box(inner.min(axis=0) - 1e-9, inner.max(axis=0) + 1e-9)
        return Configuration(positions, interior, domain, params.lam, validate=False)
    return Configuration(positions, interior, domain, params.lam)


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def write_json(path: str, obj) -> None:
    atomic_write_text(path, dump_json(obj))


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise FileFormatError(f"{path}:{err.lineno}: invalid JSON: {err.msg}") from None


_PARAM_KEYS = {"d", "lambda", "s0", "vartheta", "E", "C1_el", "C2_el", "thresholds", "domain"}
_THRESHOLD_KEYS = {"eps_rho", "eps_J", "C_A"}


def params_from_dict(doc: dict, path: str = "<params>"):
    """Strict RunConfig parser: unknown keys rejected; returns (params, domain|None)."""
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: params document must be a JSON object")
    unknown = set(doc) - _PARAM_KEYS
    if unknown:
        raise FileFormatError(f"{path}: unknown parameter keys {sorted(unknown)}")
    d = int(doc.get("d", 2))
    elastic = None
    if any(k in doc for k in ("E", "C1_el", "C2_el")):
        e_mat = np.asarray(doc.get("E", np.eye(d).tolist()), dtype=float)
        elastic = ElasticDensity(E=e_mat, C1_el=float(doc.get("C1_el", 1.0)),
                                 C2_el=float(doc.get("C2_el", 1.0)))
    thresholds = None
    if "thresholds" in doc:
        tdoc = doc["thresholds"]
        unknown = set(tdoc) - _THRESHOLD_KEYS
        if unknown:
            raise FileFormatError(f"{path}: unknown threshold keys {sorted(unknown)}")
        missing = _THRESHOLD_KEYS - set(tdoc)
        if missing:
            raise FileFormatError(f"{path}: thresholds need keys {sorted(missing)}")
        thresholds = RegularityThresholds(eps_rho=float(tdoc["eps_rho"]),
                                          eps_J=float(tdoc["eps_J"]),
                                          C_A=float(tdoc["C_A"]))
    try:
        params = ModelParams(d=d, lam=float(doc.get("lambda", 12.0)),
                             s0=float(doc.get("s0", 0.5)),
                             vartheta=float(doc.get("vartheta", 1.0)),
                             elastic=elastic, thresholds=thresholds)
    except ValueError as err:
        raise FileFormatError(f"{path}: {err}") from None
    domain = None
    if "domain" in doc:
        ddoc = doc["domain"]
        if set(ddoc) != {"lo", "hi"}:
            raise FileFormatError(f"{path}: domain needs exactly keys lo, hi")
        domain = Box(np.asarray(ddoc["lo"], dtype=float), np.asarray(ddoc["hi"], dtype=float))
    return params, domain


def load_params(path: str):
    return params_from_dict(load_json(path), path)


_SPEC_KEYS = {"kind", "domain_lo", "domain_hi", "lam", "seed", "a_matrix", "tau", "sigma",
              "fraction", "burgers", "core", "poisson", "core_radius", "gamma", "kappa", "angle"}


def spec_from_dict(doc: dict, path: str = "<spec>") -> GeneratorSpec:
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: generator spec must be a JSON object")
    unknown = set(doc) - _SPEC_KEYS
    if unknown:
        raise FileFormatError(f"{path}: unknown spec keys {sorted(unknown)}")
    if "kind" not in doc:
        raise FileFormatError(f"{path}: spec needs a kind, one of {KINDS}")
    kwargs = dict(doc)
    for key in ("domain_lo", "domain_hi", "tau", "burgers", "core"):
        if key in kwargs and kwargs[key] is not None:
            kwargs[key] = tuple(kwargs[key])
    if kwargs.get("a_matrix") is not None:
        kwargs["a_matrix"] = tuple(tuple(row) for row in kwargs["a_matrix"])
    try:
        return GeneratorSpec(**kwargs)
    except (TypeError, ValueError) as err:
        raise FileFormatError(f"{path}: {err}") from None


def load_spec(path: str) -> GeneratorSpec:
    return spec_from_dict(load_json(path), path)


def fit_to_dict(fit) -> dict:
    return {
        "position": [float(v) for v in fit.position],
        "A": [[float(v) for v in row] for row in fit.aff_hat.A],
        "tau": [float(v) for v in fit.aff_hat.tau],
        "breakdown": {
            "f": fit.breakdown.f_term,
            "j": fit.breakdown.j_term,
            "nu": fit.breakdown.nu_term,
            "total": fit.breakdown.total,
            "rho": fit.breakdown.rho,
        },
        "regular": bool(fit.regular),
        "converged": bool(fit.converged),
        "iterations": int(fit.iterations),
        "grad_norm": fit.grad_norm,
        "n_candidates": int(fit.n_candidates),
    }


def loop_to_dict(result) -> dict:
    return {
        "product": {
            "B": [[int(v) for v in row] for row in result.product.B],
            "t": [int(v) for v in result.product.t],
        },
        "classification": result.classification,
        "n_steps": len(result.steps),
        "max_delta_A": result.max_delta_a,
        "max_delta_tau": result.max_delta_tau,
        "steps": [
            {
                "y1": [float(v) for v in s.y1],
                "y2": [float(v) for v in s.y2],
                "B": [[int(v) for v in row] for row in s.reparam.B],
                "t": [int(v) for v in s.reparam.t],
                "delta_A": s.delta_a,
                "delta_tau": s.delta_tau,
                "bound_A": s.bound_a,
                "bound_tau": s.bound_tau,
                "gap": s.gap,
            }
            for s in result.steps
        ],
    }


# ---------------------------------------------------------------------------
# field CSV
# ---------------------------------------------------------------------------

FIELD_COLUMNS = ["ix", "iy", "x", "y", "valid", "component", "h_hat", "f", "j", "nu",
                 "rho", "rho_2l", "det_A", "A11", "A12", "A21", "A22", "tau1", "tau2",
                 "align_B11", "align_B12", "align_B21", "align_B22", "align_t1", "align_t2",
                 "det_A_tilde", "slack"]


def field_to_csv(field, lb_entries=None) -> str:
    """Flatten a FieldGrid (plus optional lower-bound slack) to CSV rows."""
    slack = {}
    if lb_entries is not None:
        slack = {e.node: e.slack for e in lb_entries}
    lines = [",".join(FIELD_COLUMNS)]
    geom = field.geometry
    for iy in range(geom.ny):
        for ix in range(geom.nx):
            pos = geom.node(ix, iy)
            fit = field.fits[iy][ix]
            valid = bool(field.valid[iy, ix])
            row = [str(ix), str(iy), _fmt(pos[0]), _fmt(pos[1]),
                   "1" if valid else "0", str(int(field.component[iy, ix]))]
            if fit is None:
                row += [""] * 13
            else:
                bd = fit.breakdown
                a = fit.aff_hat.A
                row += [_fmt(bd.total), _fmt(bd.f_term), _fmt(bd.j_term), _fmt(bd.nu_term),
                        _fmt(bd.rho), _fmt(field.rho_2l[iy, ix]),
                        _fmt(np.linalg.det(a)),
                        _fmt(a[0, 0]), _fmt(a[0, 1]), _fmt(a[1, 0]), _fmt(a[1, 1]),
                        _fmt(fit.aff_hat.tau[0]), _fmt(fit.aff_hat.tau[1])]
            rep = field.align[iy][ix]
            if rep is None:
                row += [""] * 6
            else:
                row += [str(int(rep.B[0, 0])), str(int(rep.B[0, 1])),
                        str(int(rep.B[1, 0])), str(int(rep.B[1, 1])),
                        str(int(rep.t[0])), str(int(rep.t[1]))]
            bp = field.branch[iy][ix]
            row.append(_fmt(np.linalg.det(bp.aff_tilde.A)) if bp is not None else "")
            row.append(_fmt(slack[(ix, iy)]) if (ix, iy) in slack else "")
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_field_csv(path: str, field, lb_entries=None) -> None:
    atomic_write_text(path, field_to_csv(field, lb_entries))


def read_field_csv(path: str) -> dict[str, np.ndarray]:
    """Read a field CSV back into column arrays (NaN for blanks)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != FIELD_COLUMNS:
            raise FileFormatError(f"{path}:1: not a latfit field CSV")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(FIELD_COLUMNS):
                raise FileFormatError(f"{path}:{lineno}: expected {len(FIELD_COLUMNS)} fields")
            rows.append([float(v) if v != "" else np.nan for v in row])
    data = np.array(rows, dtype=float)
    return {name: data[:, i] for i, name in enumerate(FIELD_COLUMNS)}
