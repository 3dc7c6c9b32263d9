"""Public surface: every public top-level name under ``src/`` has a caller
under ``src/``. A name that only tests use is surface to keep for no one."""

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


def _used(tree: ast.Module):
    """The names a module reads, imports or reaches as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_name_has_a_caller_in_src():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SRC.rglob("*.py")}
    used = {name for tree in trees.values() for name in _used(tree)}
    unused = sorted(
        f"{path.relative_to(SRC)}:{name}"
        for path, tree in trees.items()
        for name in _defined(tree)
        if not name.startswith("_") and name not in used
    )
    assert unused == []
