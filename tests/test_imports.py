"""Import hygiene of the package and its tests, checked by a stdlib `ast` scan.

No module of the package or of its tests imports a name it never uses, and
the package imports nothing but the standard library, numpy and itself.
The scan needs no linter: a name bound by an import counts as used when it
appears as a name anywhere in the module (an attribute's root included), in
a string annotation, or in `__all__`.
"""

import ast
import sys
from pathlib import Path

import pytest

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
