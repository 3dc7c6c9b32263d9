"""Public surface: every public top-level name and every public method of a
class under ``src/`` has a caller under ``src/``. A name that only tests use
is surface to keep for no one. Fields are out of scope: the benchmark reads
record fields that the program itself does not."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _defined(tree: ast.Module):
    """The public names a module binds at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _methods(tree: ast.Module):
    """The public methods, properties included, that a module's classes define."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield from (
                f"{node.name}.{item.name}" for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )


def _used(tree: ast.Module):
    """The names a module reads, imports or reaches as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _unused(defined) -> list[str]:
    """``module:name`` of each public name ``defined(tree)`` yields that no
    module under ``src/`` reads; a method's name is the part after its class."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SRC.rglob("*.py")}
    used = {name for tree in trees.values() for name in _used(tree)}
    return sorted(
        f"{path.relative_to(SRC)}:{name}"
        for path, tree in trees.items()
        for name in defined(tree)
        if not (attr := name.rpartition(".")[2]).startswith("_") and attr not in used
    )


def test_every_public_name_has_a_caller_in_src():
    assert _unused(_defined) == []


def test_every_public_method_has_a_caller_in_src():
    assert _unused(_methods) == []
