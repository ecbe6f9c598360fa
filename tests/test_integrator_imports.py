"""Where src/ may import integrators from.

Every integral along a worldline goes through the Magnus kernel
``worldline.propagate`` (scalar ones through ``worldline.line_integral``).
The only other integrators are the trajectory and proper-time solves in
``worldline.py`` and the height integral of ``cow_interferometer``; no module
exponentiates with ``scipy.linalg``.  Trajectories are stepped by
``worldline._dop853`` on DOP853's coefficients, and ``solve_ivp`` runs only
the proper-time solve.  These scans pin that, so that a second integrator
along a worldline cannot come back unnoticed.
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
    assert scipy_imports("integrate") == {"worldline.py": {"DOP853", "solve_ivp"},
                                          "interferometry.py": {"quad"}}


def test_no_module_imports_scipy_linalg():
    assert scipy_imports("linalg") == {}


def called_names(node):
    """The names called anywhere under ``node``, as ``f(...)`` or ``m.f(...)``."""
    return [call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))]


def test_trajectories_are_not_solved_by_solve_ivp():
    """``_integrate`` and every worldline.py function it reaches call no
    ``solve_ivp``: the module's one call is the RK45 proper-time solve of
    ``worldline_from_coordinate_path``."""
    tree = ast.parse((SRC / "worldline.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["_integrate"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(set(called_names(functions[name])) & functions.keys())
    assert {"_dop853", "_trajectory_rates", "_dense_solution"} <= reached
    assert "worldline_from_coordinate_path" not in reached
    assert not any("solve_ivp" in called_names(functions[name]) for name in reached)
    assert called_names(tree).count("solve_ivp") == 1
    (call,) = [node for node in ast.walk(functions["worldline_from_coordinate_path"])
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "solve_ivp"]
    assert [ast.literal_eval(kw.value) for kw in call.keywords if kw.arg == "method"] == ["RK45"]
