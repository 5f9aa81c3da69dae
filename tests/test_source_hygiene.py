"""Source checks on src/rectbin: no unused import, no orphaned private function.

Both guard deletions: removing the last caller of a helper or the last use
of an imported name should remove the helper or the import with it.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rectbin"
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
