"""The benchmark's tracer must find every function it names in latfit.

perfbench/tracer.py wraps the functions listed in its TRACED table from
outside the package, so a renamed or deleted one would otherwise only show
when the benchmark runs.
"""

import importlib
import importlib.util
import pathlib

import latfit

TRACER_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
