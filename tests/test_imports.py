"""Import hygiene of the package and its tests, checked by a stdlib `ast` scan.

No module of the package or of its tests imports a name it never uses, and
the package imports nothing but the standard library, numpy and itself.
The scan needs no linter: a name bound by an import counts as used when it
appears as a name anywhere in the module (an attribute's root included), in
a string annotation, or in `__all__`.  Fresh interpreters check that reading
the inputs and each CLI command load only the modules they run.
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cli_harness import DATA, cli_env

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/latfit/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never uses, in order of import."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AsyncFunctionDef, ast.AnnAssign)):
            for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if isinstance(note, ast.Constant) and isinstance(note.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                                if isinstance(n, ast.Name))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def foreign_imports(source: str) -> list[str]:
    """The top-level packages `source` imports that are not the stdlib, numpy or latfit."""
    allowed = sys.stdlib_module_names | {"numpy", "latfit"}
    roots = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.split(".")[0])
    return [root for root in roots if root not in allowed]


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/latfit/*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_package_needs_only_numpy(path):
    # pyproject.toml's one runtime dependency; a scipy import would also slow `import latfit`
    assert foreign_imports(path.read_text()) == []


def test_dependency_scan_sees_every_kind_of_import():
    source = '''
import os, numpy.linalg as la
from . import fitting
from latfit.core_model import Box
import scipy.spatial
def f():
    from scipy.linalg import polar
'''
    assert foreign_imports(source) == ["scipy", "scipy"]


def test_scan_sees_every_kind_of_use():
    source = '''
import os
import os.path as osp
from math import pi, tau as turn
from typing import List
from collections import deque
__all__ = ["deque"]

def f(x: "List[int]") -> None:
    return osp.join(str(pi), str(x))
'''
    assert unused_imports(source) == ["os", "turn"]
    assert unused_imports("from __future__ import annotations\n") == []


# the modules set-up never runs: reading inputs must not compile them
HEAVY = ("latfit.fitting", "latfit.topology", "latfit.fields", "latfit.checks",
         "latfit.generators")


def loaded_after(code: str, cwd) -> set:
    """The latfit modules a fresh interpreter holds as it exits after running `code`."""
    report = ("import atexit, sys\n"
              "atexit.register(lambda: print(' '.join(sorted(m for m in sys.modules\n"
              "                                              if m.startswith('latfit')))))\n")
    proc = subprocess.run([sys.executable, "-c", report + code], cwd=cwd, env=cli_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def run_module_code(*argv) -> str:
    """Code that runs `python -m latfit *argv`, exiting with its exit code."""
    return ("import runpy\n"
            f"sys.argv = ['latfit', *{list(argv)!r}]\n"
            "runpy.run_module('latfit', run_name='__main__', alter_sys=True)\n")


def test_reading_inputs_loads_no_fitting_code(tmp_path):
    code = (f"import latfit.fileio as fileio\n"
            f"params, domain = fileio.load_params({str(DATA / 'params.json')!r})\n"
            f"positions, interior = fileio.read_atoms_csv({str(DATA / 'golden_atoms.csv')!r})\n"
            "chi = fileio.configuration_from_arrays(positions, interior, params, domain)\n"
            "assert chi.n_atoms == 8460\n")
    loaded = loaded_after(code, tmp_path)
    assert "latfit.fileio" in loaded and loaded.isdisjoint(HEAVY)
    # a lazy re-export loads its module on first access, and only that one
    loaded = loaded_after(code + "import latfit\nlatfit.fit_global\n", tmp_path)
    assert "latfit.fitting" in loaded and loaded.isdisjoint(set(HEAVY) - {"latfit.fitting"})


def test_generate_loads_no_fitting(tmp_path):
    shutil.copy(DATA / "dislocation_spec.json", tmp_path)
    loaded = loaded_after(run_module_code("generate", "--spec", "dislocation_spec.json",
                                          "--out", "atoms.csv"), tmp_path)
    assert "latfit.generators" in loaded and "latfit.fitting" not in loaded
    assert (tmp_path / "atoms.csv").read_bytes() == (DATA / "golden_atoms.csv").read_bytes()


def test_fit_loads_no_fields_checks_or_topology(tmp_path):
    core = json.loads((DATA / "golden_truth.json").read_text())["core"]
    loaded = loaded_after(run_module_code(
        "fit", "--atoms", str(DATA / "golden_atoms.csv"), "--params", str(DATA / "params.json"),
        "--at", ",".join(str(v + 6.0) for v in core), "--out", "fit.json"), tmp_path)
    assert "latfit.fitting" in loaded
    assert loaded.isdisjoint({"latfit.fields", "latfit.checks", "latfit.topology"})
    assert json.loads((tmp_path / "fit.json").read_text())["regular"] is True


def test_public_names_resolve_to_their_home_objects():
    import latfit
    listed = dir(latfit)
    for name in latfit.__all__:
        obj = getattr(latfit, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert obj.__module__.startswith("latfit."), name
        assert name in listed, name
    with pytest.raises(AttributeError, match="'no_such_name'"):
        latfit.no_such_name
