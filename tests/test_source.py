"""Checks on the package source itself: no private helper is left dead or
crosses a module, ingest imports no layer above it, every export is used
outside the tests, and every exported class is a value type."""

import ast
import dataclasses
import re
from pathlib import Path

import netosc

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "netosc"


def _trees(folder):
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(folder.glob("*.py"))}


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree):
    """Module-level names that start with one underscore: functions, classes
    and assigned constants, dunder names left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names if _is_private(name))


def _references(tree):
    """Every name the module reads, as a bare name, an attribute or an
    imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_helper_is_used_in_the_package():
    trees = _trees(SRC)
    used = {name for tree in trees.values() for name in _references(tree)}
    dead = [f"{module}:{name}" for module, tree in trees.items()
            for name in _private_definitions(tree) if name not in used]
    assert not dead, f"private names that only their definition mentions: {dead}"


def test_no_private_name_crosses_a_module():
    """Neither ``from .module import _name`` nor ``module._name``."""
    modules = {path.stem for path in SRC.glob("*.py")}
    crossings = []
    for module, tree in _trees(SRC).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                names = [node.attr]
            else:
                continue
            crossings += [f"{module}:{node.lineno}: {name}" for name in names if _is_private(name)]
    assert not crossings, f"private names used across modules: {crossings}"


def test_ingest_imports_only_errors_graph_and_signal():
    """ingest reads text into values; the dynamics and spectra are not its own."""
    imported = {node.module for node in ast.walk(_trees(SRC)["ingest.py"])
                if isinstance(node, ast.ImportFrom) and node.level}
    assert imported <= {"errors", "graph", "signal"}, imported


def test_cli_decodes_no_input():
    """The CLI hands input text to ingest's parsers: it calls no json.loads
    and no ingest.graph_from_* reader (json.dumps renders its output)."""
    calls = {(node.func.value.id, node.func.attr) for node in ast.walk(_trees(SRC)["cli.py"])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name)}
    decoders = sorted(call for call in calls if call == ("json", "loads")
                      or call[0] == "ingest" and call[1].startswith("graph_from_"))
    assert not decoders, f"input decoding in cli.py: {decoders}"


def test_every_export_is_used_outside_the_tests():
    trees = _trees(SRC)
    exports = [alias.name for node in trees.pop("__init__.py").body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    for folder in ("perfbench", "tools"):
        trees.update({f"{folder}/{name}": tree for name, tree in _trees(ROOT / folder).items()})
    used = {name for tree in trees.values() for name in _references(tree)}
    readme = (ROOT / "README.md").read_text()
    unused = [name for name in exports
              if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert not unused, f"exports that only tests use: {unused}"


def test_every_exported_class_is_a_frozen_dataclass_or_named_tuple():
    loose = [name for name, obj in vars(netosc).items()
             if isinstance(obj, type)
             and not (dataclasses.is_dataclass(obj) and obj.__dataclass_params__.frozen)
             and not (issubclass(obj, tuple) and hasattr(obj, "_fields"))]
    assert not loose, f"exported classes that are neither: {loose}"
