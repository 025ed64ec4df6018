"""Pass or fail is decided in one place.

The library checks measure and return deviations; `verify.Fixtures.bounded`
and the CLI judge them against the tolerance `ModelFile.tolerance` reads
from one table.  So the table `TOLERANCES` is assigned only in `model.py`,
no class of the package carries its own `passed` verdict, and no
`tolerance` parameter has a default that could copy a table entry.  Like
`test_frozen_values.py`, this parses each module of `supergeodesics` with
the standard `ast` module.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "supergeodesics"
TREES = {p.name: ast.parse(p.read_text(), filename=str(p))
         for p in sorted(PACKAGE.glob("*.py"))}


def _defaulted(args: ast.arguments) -> list[str]:
    """The names of the parameters of `args` that have a default."""
    positional = [*args.posonlyargs, *args.args]
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    return names + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]


def second_judges(trees: dict[str, ast.Module]) -> list[str]:
    """module:name of each assignment to `TOLERANCES` outside `model.py`,
    each `passed` method or property of a class, and each function whose
    `tolerance` parameter has a default."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                if module != "model.py" and any(
                        isinstance(t, ast.Name) and t.id == "TOLERANCES"
                        for t in targets):
                    found.append(f"{module}:TOLERANCES")
            elif isinstance(node, ast.ClassDef):
                found += [f"{module}:{node.name}.passed" for item in node.body
                          if isinstance(item, (ast.FunctionDef,
                                               ast.AsyncFunctionDef))
                          and item.name == "passed"]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)) \
                    and "tolerance" in _defaulted(node.args):
                found.append(f"{module}:{getattr(node, 'name', 'lambda')}"
                             "(tolerance=)")
    return sorted(found)


def test_one_judge():
    assert second_judges(TREES) == []


def test_second_judges_detected():
    planted = ast.parse(
        "TOLERANCES = {}\n\n"
        "class Report:\n    @property\n    def passed(self):\n"
        "        pass\n\n"
        "class Verdict:\n    passed: bool\n\n"
        "def check(x, tolerance=1e-8):\n    pass\n\n"
        "def gate(x, *, tolerance=1e-8):\n    pass\n\n"
        "def judged(x, tolerance):\n    pass\n")
    table = ast.parse("TOLERANCES: dict = {}\n")
    assert second_judges({"planted.py": planted, "model.py": table}) == [
        "planted.py:Report.passed", "planted.py:TOLERANCES",
        "planted.py:check(tolerance=)", "planted.py:gate(tolerance=)"]
