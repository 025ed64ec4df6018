"""One entry point for every graded run.

Every graded integration reaches the RK4 loop `geodesics._rk4` through the
entry point `geodesics._run`, which alone computes a graded run's grid
(`geodesics._grid`); the classical oracle `verify._real_rk4` keeps a loop
and a grid of its own.  So `_rk4` is used by one function of the package,
and `_grid` by those two.  Likewise the inverse metric of a point comes
from one place: `_Kernel.inverse` is used only by `_Kernel.fields` and, for
a constant metric, the kernel's constructor.  And `expmap` alone knows which
exp rows a check reads: each check's builder returns its rows with the
function that finishes them, `verify` imports no private helper of
`expmap`, builds its checks in `Fixtures.checks` and reads their rows in
`Fixtures.exp` (the plan) and `Fixtures.measure` only.  An expression is
evaluated through a `superexpr.Program` of all the expressions a site
evaluates at the same points: no function of the package evaluates one
expression at a time through `eval_dense` or the module-level
`superexpr.evaluate`, which stay for callers outside the package.  Like
`test_one_judge.py`, this parses each module of `supergeodesics` with the
standard `ast` module.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "supergeodesics"
TREES = {p.name: ast.parse(p.read_text(), filename=str(p))
         for p in sorted(PACKAGE.glob("*.py"))}


def functions(tree: ast.Module):
    """(label, node) of each top-level function and each method."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name, stmt
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{stmt.name}.{item.name}", item


def users(trees: dict[str, ast.Module], name: str) -> list[str]:
    """module:function of each function or method that uses `name`, as a
    bare name or an attribute, called or passed on (`partial(_rk4, ...)`);
    a use inside a nested function or lambda counts for the enclosing
    one."""
    return sorted(f"{module}:{label}" for module, tree in trees.items()
                  for label, fn in functions(tree)
                  if any((isinstance(node, ast.Name) and node.id == name)
                         or (isinstance(node, ast.Attribute)
                             and node.attr == name)
                         for node in ast.walk(fn)))


def test_rk4_has_one_caller():
    assert users(TREES, "_rk4") == ["geodesics.py:_run"]


def test_grid_computed_by_the_entry_point_and_the_oracle_only():
    assert users(TREES, "_grid") == ["geodesics.py:_run",
                                     "verify.py:_real_rk4"]


def test_initial_rows_checked_once():
    message = "initial condition lives on a different chart"
    found = [node for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value == message]
    assert len(found) == 1


def test_users_detected():
    planted = ast.parse(
        "from .geodesics import _rk4, _grid\n\n"
        "def _run(chart):\n    return _rk4(chart)\n\n"
        "def shoot(chart):\n    return partial(_rk4, chart)\n\n"
        "def nested():\n    def inner():\n        return _grid(1.0, 0.1)\n"
        "    return inner\n\n"
        "class Table:\n    def run(self):\n"
        "        return geodesics._rk4(self)\n\n"
        "def unrelated():\n    return _rk4_name\n")
    assert users({"planted.py": planted}, "_rk4") == [
        "planted.py:Table.run", "planted.py:_run", "planted.py:shoot"]
    assert users({"planted.py": planted}, "_grid") == ["planted.py:nested"]


def test_inverse_metric_from_fields_only():
    assert users(TREES, "inverse") == ["geometry.py:_Kernel.__init__",
                                       "geometry.py:_Kernel.fields"]


def test_inverse_users_detected():
    planted = ast.parse(
        "class _Kernel:\n"
        "    def fields(self, pos):\n        return self.inverse(pos)\n\n"
        "    def metric_inverse(self, pos):\n"
        "        return self.inverse(self.eval_metric(pos))\n\n"
        "def sharp(kern, pos):\n    return kern.inverse_at(pos)\n")
    assert users({"geometry.py": planted}, "inverse") == [
        "geometry.py:_Kernel.fields", "geometry.py:_Kernel.metric_inverse"]


def private_imports(tree: ast.Module, module: str) -> list[str]:
    """The names starting with "_" that `tree` imports from the sibling
    `module`."""
    return sorted(alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  and node.module == module
                  for alias in node.names if alias.name.startswith("_"))


EXP_CHECK_HELPERS = ("_jacobian_rows", "_jacobian_reports", "_image_dev")
EXP_CHECK_BUILDERS = ("plan_jacobians", "plan_naturality",
                      "plan_linearization")


def test_exp_rows_known_to_expmap_only():
    for name in EXP_CHECK_HELPERS:
        assert {u.partition(":")[0] for u in users(TREES, name)} \
            == {"expmap.py"}, name
    assert private_imports(TREES["verify.py"], "expmap") == []
    verify = {"verify.py": TREES["verify.py"]}
    for name in EXP_CHECK_BUILDERS:
        assert users(verify, name) == ["verify.py:Fixtures.checks"], name
    assert users(verify, "rows") == ["verify.py:Fixtures.exp",
                                     "verify.py:Fixtures.measure"]


def test_exp_row_users_detected():
    planted = ast.parse(
        "from .expmap import ExpTable, _jacobian_rows, plan_naturality\n"
        "from .jobs import _cpus\n\n"
        "class Fixtures:\n"
        "    def exp(self):\n"
        "        return [v for c in self.checks.values() for v in c.rows]\n\n"
        "def _isometry_rows(fx):\n"
        "    return _jacobian_rows(fx.chart.sig, fx.base, 1e-4)\n\n"
        "def run_isometry_suite(fx):\n"
        "    return plan_naturality(fx.chart, fx.phi, fx.base, fx.vectors)\n")
    planted_trees = {"verify.py": planted}
    assert private_imports(planted, "expmap") == ["_jacobian_rows"]
    assert users(planted_trees, "_jacobian_rows") == [
        "verify.py:_isometry_rows"]
    assert users(planted_trees, "plan_naturality") == [
        "verify.py:run_isometry_suite"]
    assert users(planted_trees, "rows") == ["verify.py:Fixtures.exp"]


ONE_EXPRESSION = ("eval_dense", "evaluate")


def one_expression_users(trees: dict[str, ast.Module]) -> list[str]:
    """module:function of each function or method that uses `eval_dense` or
    the module-level `superexpr.evaluate`: as a bare name (the name in
    `superexpr` itself, an imported name or its alias) or as an attribute
    of the `superexpr` module (or its alias).  `Program.evaluate`, an
    attribute of a program, does not count."""
    out = []
    for module, tree in trees.items():
        names, modules = set(ONE_EXPRESSION), {"superexpr"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module == "superexpr" and alias.name in names:
                        names.add(alias.asname or alias.name)
                    elif node.module is None and alias.name == "superexpr":
                        modules.add(alias.asname or alias.name)
        for label, fn in functions(tree):
            if any((isinstance(node, ast.Name) and node.id in names)
                   or (isinstance(node, ast.Attribute)
                       and node.attr in ONE_EXPRESSION
                       and isinstance(node.value, ast.Name)
                       and node.value.id in modules)
                   for node in ast.walk(fn)):
                out.append(f"{module}:{label}")
    return sorted(out)


def test_one_program_per_evaluation_site():
    assert one_expression_users(TREES) == []


def test_one_expression_users_detected():
    planted = ast.parse(
        "from . import superexpr as sx\n"
        "from .superexpr import Program, eval_dense, evaluate as ev\n\n"
        "def lhs(e, env):\n    return eval_dense(e, env, 0)\n\n"
        "def image(phi, p):\n"
        "    return {n: ev(e, p) for n, e in phi.pullbacks.items()}\n\n"
        "def nested(e, p):\n    return lambda: sx.evaluate(e, p)\n\n"
        "class Kernel:\n    def const(self, e):\n"
        "        return superexpr.eval_dense(e, {}, 0)\n\n"
        "    def apply(self, p):\n"
        "        return self._program.evaluate(p, 0)\n\n"
        "def jacobian(exprs, p):\n"
        "    return Program(exprs).evaluate(p, 0)\n")
    assert one_expression_users({"expmap.py": planted}) == [
        "expmap.py:Kernel.const", "expmap.py:image", "expmap.py:lhs",
        "expmap.py:nested"]
