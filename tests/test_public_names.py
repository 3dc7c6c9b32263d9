"""Public surface: every public top-level name and every public method of a
class under ``src/`` has a caller under ``src/``, and every defaulted
parameter of one is passed by some call under ``src/``, and no module imports
another's underscore-prefixed names. A name or an option that only tests use
is surface to keep for no one. Fields are out of scope:
the benchmark reads record fields that the program itself does not."""

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


# The console script calls main() with no arguments, and argparse then reads sys.argv.
PASSED_FROM_OUTSIDE = {"fluxseek/harness/cli.py:main(argv)"}


def _defaulted(tree: ast.Module):
    """``(callee, parameter, position)`` of each defaulted parameter of the
    module's public functions, public methods and ``__init__`` methods: the
    callee is the name a call reaches it by (a class's for ``__init__``), and
    the position its index among a call's positional arguments, None for a
    keyword-only parameter."""
    defs = [(node, node.name, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        defs += [(item, cls.name if item.name == "__init__" else item.name, 1)  # 1: self
                 for item in cls.body if isinstance(item, ast.FunctionDef)]
    for node, callee, bound in defs:
        if callee.startswith("_"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        for index in range(len(positional) - len(args.defaults), len(positional)):
            yield callee, positional[index].arg, index - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield callee, arg.arg, None


def _passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    """Whether ``call`` may pass ``parameter``: by keyword, through ``**``,
    or by position, a ``*`` argument reaching every position from its own."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(a, ast.Starred) for a in call.args[:position + 1])
    )


def test_every_defaulted_parameter_is_passed_in_src():
    # A default that no caller under src/ overrides is an option kept for tests.
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SRC.rglob("*.py")}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = {
        f"{path.relative_to(SRC)}:{callee}({parameter})"
        for path, tree in trees.items()
        for callee, parameter, position in _defaulted(tree)
        if not any(_passes(call, parameter, position) for call in calls.get(callee, ()))
    }
    assert unpassed == PASSED_FROM_OUTSIDE



def test_no_module_imports_another_modules_private_names():
    # An underscore name is its module's own: a caller elsewhere makes it
    # public surface in all but name.
    imported = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").partition(".")[0] == "fluxseek"):
                imported += [f"{path.relative_to(SRC)}:{node.module}.{alias.name}"
                             for alias in node.names if alias.name.startswith("_")]
    assert imported == []
