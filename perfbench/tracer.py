"""Per-layer spans recorded from outside latfit by wrapping its public functions.

`Tracer.install()` replaces each listed function with a timing wrapper in
every latfit module that holds a reference to it (so `from .x import f`
call sites are covered too) and `uninstall()` puts the originals back.  A
span stack gives each call its self time: its duration minus the time its
traced callees took.  Spans are kept in memory and summarised once at the
end of the run.
"""

from __future__ import annotations

import statistics
import sys
import time

# (module, qualified name) of every traced function, in report order
TRACED = (
    ("core_model", "Configuration.local_atoms"),
    ("core_model", "assemble_j"),
    ("core_model", "local_density"),
    ("core_model", "j_lambda"),
    ("core_model", "pre_energy"),
    ("core_model", "is_regular_pair"),
    ("fitting", "fit_global"),
    ("fitting", "a_init_candidates"),
    ("fitting", "tau_init"),
    ("fitting", "minimize_j_local"),
    ("topology", "find_reparam"),
    ("topology", "burgers_loop"),
    ("fields", "evaluate_grid"),
    ("fields", "fd_gradients"),
    ("fields", "f_c"),
    ("fields", "lower_bound_report"),
    ("fields", "defect_map"),
    ("fields", "plaquette_products"),
    ("fileio", "read_atoms_csv"),
    ("fileio", "field_to_csv"),
    ("svg", "heatmap_svg"),
)

# the part of a result the extras need; nothing else is kept (gathers are large)
_KEEP = {
    "fitting.fit_global": lambda r: (r.n_candidates, r.iterations, r.converged, r.regular),
    "fitting.minimize_j_local": lambda r: r.iterations,
    "fields.f_c": lambda r: r.fallback,
    "fields.lower_bound_report": lambda r: r.min_slack,
}


def metric_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


def tail_percentile(n: int) -> float:
    """Highest of p99.9, p99, p90, p50 with at least 10 calls beyond it; the max below 20 calls."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            return p
    return 100.0


def percentile(sorted_vals: list, p: float) -> float:
    """Linearly interpolated percentile of an ascending list (0.0 when empty)."""
    if not sorted_vals:
        return 0.0
    pos = (len(sorted_vals) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


class _Record:
    def __init__(self):
        self.durations: list[float] = []
        self.self_s = 0.0
        self.kept: list = []
        self.errors: list[type] = []


class Tracer:
    """Span recorder for the functions in TRACED; records nothing until installed."""

    def __init__(self, package):
        self.package = package
        self.records = {metric_name(m, q): _Record() for m, q in TRACED}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, orig):
        rec = self.records[name]
        keep = _KEEP.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = orig(*args, **kwargs)
            except Exception as err:
                rec.errors.append(type(err))
                raise
            finally:
                dur = clock() - t0
                rec.durations.append(dur)
                rec.self_s += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            if keep is not None:
                rec.kept.append(keep(out))
            return out

        traced.__wrapped__ = orig
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = self.package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        for mod_name, qualname in TRACED:
            mod = sys.modules[f"{pkg}.{mod_name}"]
            name = metric_name(mod_name, qualname)
            if "." in qualname:     # a method: patch the class once
                cls_name, attr = qualname.split(".")
                owner = getattr(mod, cls_name)
                self._patch(owner, attr, self._wrap(name, owner.__dict__[attr]))
                continue
            orig = getattr(mod, qualname)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, attr, wrapper)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def self_time_total(self) -> float:
        return sum(rec.self_s for rec in self.records.values())

    def metrics(self, points: int, passes: int) -> dict:
        """Per-pass counts and times plus the extras, as {name: (value, unit)}."""
        fitting, topology = self.package.fitting, self.package.topology
        out = {}
        for mod_name, qualname in TRACED:
            name = metric_name(mod_name, qualname)
            rec = self.records[name]
            durs = sorted(rec.durations)
            n = len(durs)
            out[f"{name}.calls"] = (n / passes, "count")
            out[f"{name}.s"] = (sum(durs) / passes, "s")
            out[f"{name}.self_s"] = (rec.self_s / passes, "s")
            out[f"{name}.p50_ms"] = (1e3 * percentile(durs, 50.0), "ms")
            out[f"{name}.ptail_ms"] = (1e3 * percentile(durs, tail_percentile(n)), "ms")

        def mean(vals):
            return statistics.fmean(vals) if vals else 0.0

        def count_errors(name, cls):
            return sum(issubclass(e, cls) for e in self.records[name].errors) / passes

        for name in ("core_model.local_atoms", "core_model.assemble_j"):
            out[f"{name}.per_point"] = (len(self.records[name].durations) / (points * passes),
                                        "count")
        fits = self.records["fitting.fit_global"].kept
        out["fitting.fit_global.starts_mean"] = (mean([f[0] for f in fits]), "count")
        out["fitting.fit_global.iterations_mean"] = (mean([f[1] for f in fits]), "count")
        out["fitting.fit_global.converged_frac"] = (mean([float(f[2]) for f in fits]), "fraction")
        out["fitting.fit_global.regular_frac"] = (mean([float(f[3]) for f in fits]), "fraction")
        out["fitting.fit_global.errors"] = (
            count_errors("fitting.fit_global", fitting.FitError), "count")
        out["fitting.minimize_j_local.iterations_mean"] = (
            mean(self.records["fitting.minimize_j_local"].kept), "count")
        out["fitting.minimize_j_local.basin_escapes"] = (
            count_errors("fitting.minimize_j_local", fitting.BasinEscapeError), "count")
        out["topology.find_reparam.refused"] = (
            count_errors("topology.find_reparam", topology.ReparamError), "count")
        out["fields.f_c.fallbacks"] = (sum(self.records["fields.f_c"].kept) / passes, "count")
        slacks = self.records["fields.lower_bound_report"].kept
        out["fields.lower_bound_report.min_slack"] = (min(slacks) if slacks else 0.0, "1")
        return out
