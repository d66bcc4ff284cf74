"""The benchmark's tracer must find every function it names in latfit.

perfbench/tracer.py wraps the functions listed in its TRACED table from
outside the package and keeps attributes of some results, so a renamed or
deleted function or attribute would otherwise only show when the benchmark
runs.  `tests/same_outputs.py` digests the benchmark pipelines' outputs; one
of its digests runs here, so a change to the workloads or to the results it
dumps cannot break it unseen.
"""

import importlib
import importlib.util
import pathlib
import sys

import numpy as np

import latfit
from latfit import fields
from latfit.core_model import ModelParams

import same_outputs

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


def traced_objects(traced):
    """{(module, qualname): the object latfit holds under that name right now}."""
    out = {}
    for mod_name, qualname in traced:
        owner = importlib.import_module(f"latfit.{mod_name}")
        *cls_name, attr = qualname.split(".")
        if cls_name:
            owner = getattr(owner, cls_name[0])
        out[(mod_name, qualname)] = vars(owner)[attr]
    return out


def test_tracer_wraps_and_restores_every_traced_function():
    tracer_mod = load_tracer()
    before = traced_objects(tracer_mod.TRACED)
    tracer = tracer_mod.Tracer(latfit)
    tracer.install()
    try:
        during = traced_objects(tracer_mod.TRACED)
    finally:
        tracer.uninstall()
    after = traced_objects(tracer_mod.TRACED)
    for key, orig in before.items():
        assert during[key] is not orig and during[key].__wrapped__ is orig, key
        assert after[key] is orig, key


def test_tracer_metrics_read_the_results_it_keeps():
    tracer_mod = load_tracer()
    tracer = tracer_mod.Tracer(latfit)
    tracer.install()
    try:
        fields.f_c(np.eye(2), ModelParams(d=2, lam=8.0, s0=0.5), 1.0)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(points=1, passes=1)
    assert metrics["fields.f_c.calls"] == (1.0, "count")
    assert metrics["fields.f_c.fallbacks"] == (0.0, "count")


def test_same_outputs_digest_repeats_in_one_process(tmp_path):
    """The `golden-field` seed-0 digests of `same_outputs.py`, taken twice in one process, are one.

    A digest that moved between two runs of one tree (an address, a set
    order or a cache in the dump) could not tell two trees apart.  The exact,
    the float-free and the integer digest must each repeat, and the three
    must differ: the grid's fits carry floats and `iterations`.
    """
    workloads = load_perfbench("workloads")
    digests = []
    for name in ("a", "b"):                 # a workdir each: the digest holds no input path
        (tmp_path / name).mkdir()
        digests.append(same_outputs.digest("golden-field", 0, workloads, str(tmp_path / name)))
    first, second = digests
    assert [len(h) for h in first] == [64, 64, 64] and first == second
    assert len(set(first)) == 3
