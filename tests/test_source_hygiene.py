"""Source checks on src/rectbin: no unused import, no orphaned private
function, and every function that the benchmark traces still bound.

The first two guard deletions: removing the last caller of a helper or the
last use of an imported name should remove the helper or the import with
it.  The third names a traced function that a change renamed or deleted,
which would otherwise fail only inside a traced benchmark worker; it reads
perfbench/trace_layers.py without importing or changing it.  The last
keeps the keyword defaults that repeat a SolveConfig setting (the exact,
enumeration and oracle limits, and k) equal to it.
"""

import ast
import dataclasses
import importlib
import inspect
from collections import Counter
from pathlib import Path

from rectbin.config import SolveConfig

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


def _keyword_defaults(tree):
    """(name, default node, line) of each parameter default and each
    class-level annotated default in tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            pairs += [(arg, default) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
            for arg, default in pairs:
                yield arg.arg, default, default.lineno
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                        and isinstance(stmt.target, ast.Name)):
                    yield stmt.target.id, stmt.value, stmt.lineno


def test_limit_defaults_match_the_config():
    settings = {f.name: f.default for f in dataclasses.fields(SolveConfig)}
    settings["limit"] = settings["exact_limit"]  # optconst.ConstContext.limit
    checked, wrong = 0, []
    for name, tree in MODULES.items():
        if name == "config.py":
            continue
        for arg, default, line in _keyword_defaults(tree):
            if arg in settings:
                checked += 1
                if ast.literal_eval(default) != settings[arg]:
                    wrong.append(f"{name}:{line}: {arg}={ast.unparse(default)}, "
                                 f"SolveConfig has {settings[arg]}")
    assert wrong == []
    assert checked >= 12  # 12 limit defaults in 11 signatures, and k twice
