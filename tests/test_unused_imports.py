"""Every name a package module imports is used in that module, every
module-level private function or class is used somewhere in the package,
every parameter of a module-level function is read in its body (so a
deleted option cannot linger as a dead parameter; methods, which may ignore
an argument their interface passes, are left out), and no module imports
inside a function (a deferred import hides a cycle).

No linter ships with the test dependencies, so this parses each module of
`supergeodesics` with the standard `ast` module.  A name counts as used when
it appears as a name expression anywhere in the module, including inside
quoted annotations.  The import check skips `__init__.py`, whose imports are
its API; a private definition counts as used when a statement other than
itself names it (as a name, an attribute or an imported name).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "supergeodesics"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(), filename=str(p))
         for p in sorted(PACKAGE.glob("*.py"))}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in annotations(tree):
        for node in ast.walk(ann):
            # a quoted annotation such as "Expr" or "dict[str, Expr]"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = TREES[path.name]
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def referenced_names(node: ast.AST) -> set[str]:
    names = used_names(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names |= {alias.name for alias in sub.names}
    return names


def unreferenced_private_defs(trees: dict[str, ast.Module]) -> list[str]:
    """module:name of each module-level private def/class that no other
    top-level statement of the package refers to."""
    defs = {}
    uses = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and stmt.name.startswith("_") and not stmt.name.startswith("__")):
                defs[stmt] = f"{module}:{stmt.name}"
            uses.append((stmt, referenced_names(stmt)))
    return sorted(label for node, label in defs.items()
                  if not any(node.name in names for stmt, names in uses
                             if stmt is not node))


def test_no_unreferenced_private_defs():
    assert unreferenced_private_defs(TREES) == []


def test_unreferenced_private_def_detected():
    # a self-reference does not count as a use
    planted = ast.parse("def _orphan():\n    return _orphan()\n\n"
                        "def _used():\n    pass\n\nVALUE = _used\n")
    assert unreferenced_private_defs({"planted.py": planted}) == [
        "planted.py:_orphan"]


def imports_in_functions(tree: ast.Module) -> list[int]:
    """Lines of the import statements inside a function body."""
    return sorted({sub.lineno for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert imports_in_functions(TREES[path.name]) == [], path.name


def test_import_inside_a_function_detected():
    planted = ast.parse("import math\n\nclass A:\n    def f(self):\n"
                        "        from .expmap import TangentFiberPoint\n\n"
                        "def g():\n    def h():\n        import os\n")
    assert imports_in_functions(planted) == [5, 9]


def unread_parameters(tree: ast.Module) -> list[str]:
    """function:parameter of each parameter of a module-level function that
    its body never reads."""
    out = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = stmt.args
        params = [arg.arg for arg in (*args.posonlyargs, *args.args,
                                      args.vararg, *args.kwonlyargs, args.kwarg)
                  if arg is not None]
        read = {node.id for body in stmt.body for node in ast.walk(body)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        out += [f"{stmt.name}:{p}" for p in params if p not in read]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(TREES[path.name]) == [], path.name


def test_unread_parameter_detected():
    # a parameter only written, or only in an annotation, is not read; a
    # method's and a nested function's parameters are not checked
    planted = ast.parse("def f(a, b: int, *rest, c=1, **kw):\n"
                        "    b = 2\n    def g(unused):\n        return a\n"
                        "    return g(kw)\n\n"
                        "class A:\n    def m(self, unused):\n        pass\n")
    assert unread_parameters(planted) == ["f:b", "f:rest", "f:c"]
