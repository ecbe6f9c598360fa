"""Where src/ may import integrators from.

Every integral along a worldline goes through the Magnus kernel
``worldline.propagate`` (scalar ones through ``worldline.line_integral``).
Every other integral, the trajectories, the proper time of a prescribed path
and the height integrals of ``cow_interferometer``, is stepped by
``worldline._dop853``, which takes only DOP853's coefficient table from
scipy; no module calls ``solve_ivp`` or ``quad``, and none exponentiates
with ``scipy.linalg``.  These scans pin that, so that a second integrator
cannot come back unnoticed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quline"


def scipy_imports(package):
    """{module file: names imported from ``scipy.<package>``}, over every
    import statement in src/, at any depth."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == f"scipy.{package}":
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
                names = {alias.name for alias in node.names} & {package}
            elif isinstance(node, ast.Import):
                names = {alias.name for alias in node.names
                         if alias.name.startswith(f"scipy.{package}")}
            else:
                continue
            if names:
                found.setdefault(path.name, set()).update(names)
    return found


def test_integrators_are_imported_only_where_pinned():
    assert scipy_imports("integrate") == {"worldline.py": {"DOP853"}}


def test_no_module_imports_scipy_linalg():
    assert scipy_imports("linalg") == {}


def called_names(node):
    """The names called anywhere under ``node``, as ``f(...)`` or ``m.f(...)``."""
    return [call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))]


def test_trajectories_are_not_solved_by_solve_ivp():
    """No module of src/ calls ``solve_ivp`` or ``quad``; ``_integrate`` and
    ``worldline_from_coordinate_path`` reach the stepper ``_dop853`` and its
    dense output, and ``cow_interferometer`` calls the stepper."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    for tree in trees.values():
        assert not {"solve_ivp", "quad"} & set(called_names(tree))
    functions = {node.name: node for node in trees["worldline.py"].body
                 if isinstance(node, ast.FunctionDef)}
    for start in ("_integrate", "worldline_from_coordinate_path"):
        reached, todo = set(), [start]
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo.extend(set(called_names(functions[name])) & functions.keys())
        assert {"_dop853", "_dense_solution"} <= reached
    (cow,) = [node for node in ast.walk(trees["interferometry.py"])
              if isinstance(node, ast.FunctionDef) and node.name == "cow_interferometer"]
    assert called_names(cow).count("_dop853") == 2
