"""Source checks on src/rectbin: no unused import, no orphaned private
function, and every function that the benchmark traces still bound.

The first two guard deletions: removing the last caller of a helper or the
last use of an imported name should remove the helper or the import with
it.  The third names a traced function that a change renamed or deleted,
which would otherwise fail only inside a traced benchmark worker; it reads
perfbench/trace_layers.py without importing or changing it.
"""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rectbin"
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _referenced_names(nodes):
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr


def test_every_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        used = set(_referenced_names([tree]))
        unused += [f"{name}: {imported}" for imported in _imported_names(tree)
                   if imported not in used]
    assert unused == []


def test_every_private_function_is_referenced():
    everywhere = Counter(_referenced_names(MODULES.values()))
    orphans = [f"{name}: {fn.name}"
               for name, tree in MODULES.items() for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
               and not fn.name.startswith("__")
               and everywhere[fn.name] == Counter(_referenced_names([fn]))[fn.name]]
    assert orphans == []


def test_every_traced_function_is_bound():
    tree = ast.parse((ROOT / "perfbench" / "trace_layers.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"])
    missing = [f"{module}.{name}" for module, names in layers.items() for name in names
               if not inspect.isfunction(getattr(importlib.import_module(f"rectbin.{module}"),
                                                 name, None))]
    assert layers
    assert missing == []
