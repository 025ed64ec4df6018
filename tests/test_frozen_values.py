"""The immutable values take their protocol from one place each.

Expression nodes are frozen dataclasses, so no node class writes its own
`__init__`, `__eq__` or `__hash__`; the value types inherit `__setattr__`
and `__reduce__` from `grassmann._Frozen`, the only class of the package
that defines them.  Like `test_unused_imports.py`, this parses each module
of `supergeodesics` with the standard `ast` module.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from supergeodesics.superexpr import (
    Const,
    EvenVar,
    Fun,
    IntPow,
    OddVar,
    Product,
    Recip,
    Sum,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "supergeodesics"
TREES = {p.name: ast.parse(p.read_text(), filename=str(p))
         for p in sorted(PACKAGE.glob("*.py"))}


def classes(trees: dict[str, ast.Module]):
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield module, node


def methods(cls: ast.ClassDef) -> set[str]:
    return {node.name for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def hand_written_protocols(trees: dict[str, ast.Module]) -> list[str]:
    """module:class.method of each `__setattr__`/`__reduce__` outside
    `_Frozen`, and each `__init__`/`__eq__`/`__hash__` of a subclass of
    `Expr` (by the base names of the class statements)."""
    found = []
    expr_classes = {"Expr"}
    grew = True
    while grew:
        grew = False
        for _, cls in classes(trees):
            bases = {b.id for b in cls.bases if isinstance(b, ast.Name)}
            if cls.name not in expr_classes and bases & expr_classes:
                expr_classes.add(cls.name)
                grew = True
    for module, cls in classes(trees):
        banned = set() if cls.name == "_Frozen" else {"__setattr__",
                                                      "__reduce__"}
        if cls.name in expr_classes - {"Expr"}:
            banned |= {"__init__", "__eq__", "__hash__"}
        found += [f"{module}:{cls.name}.{name}"
                  for name in sorted(methods(cls) & banned)]
    return sorted(found)


def test_no_hand_written_protocols():
    assert hand_written_protocols(TREES) == []


def test_hand_written_protocols_detected():
    planted = ast.parse(
        "class Expr:\n    pass\n\n"
        "class Leaf(Expr):\n    def __eq__(self, other):\n        pass\n\n"
        "class Twig(Leaf):\n    def __init__(self):\n        pass\n\n"
        "class Point:\n    def __reduce__(self):\n        pass\n\n"
        "class _Frozen:\n    def __setattr__(self, name, value):\n"
        "        pass\n")
    assert hand_written_protocols({"planted.py": planted}) == [
        "planted.py:Leaf.__eq__", "planted.py:Point.__reduce__",
        "planted.py:Twig.__init__"]


x, th = EvenVar("x"), OddVar("th")
NODES = {
    "Const": (Const(2.0), "value", 3.0),
    "EvenVar": (x, "name", "y"),
    "OddVar": (th, "name", "y"),
    "Sum": (Sum((x, Const(1.0))), "terms", ()),
    "Product": (Product((x, th)), "factors", ()),
    "IntPow": (IntPow(x, 2), "exponent", 3),
    "Recip": (Recip(x), "base", th),
    "Fun": (Fun("exp", x), "arg", th),
}


@pytest.mark.parametrize("name", list(NODES))
def test_node_fields_are_frozen(name):
    node, field, value = NODES[name]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(node, field, value)


def test_node_equality():
    assert Const(1) == Const(1.0) and hash(Const(1)) == hash(Const(1.0))
    assert isinstance(Const(1).value, float)
    assert EvenVar("x") != OddVar("x")
    assert Sum((x, Const(1))) == Sum((EvenVar("x"), Const(1.0)))
