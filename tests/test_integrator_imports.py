"""Where src/ may import integrators from.

Every integral along a worldline goes through the Magnus kernel
``worldline.propagate`` (scalar ones through ``worldline.line_integral``).
Every other integral, the trajectories and the proper time of a prescribed
path, is stepped by ``worldline._dop853``, whose coefficients
``quline.dop853_tableau`` holds as written-out copies of scipy's; no other
module calls the stepper, and none imports ``scipy.integrate``, calls
``solve_ivp`` or ``quad``, or exponentiates with ``scipy.linalg``.
These scans pin that, so that a second integrator cannot come back
unnoticed.  No module imports scipy at all, and mpmath is imported only
inside ``cow_phase``: a scan pins that, and a fresh process that runs every
CLI command finds neither loaded.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.integrate import DOP853

from quline import dop853_tableau

SRC = Path(__file__).resolve().parents[1] / "src" / "quline"
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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
    assert scipy_imports("integrate") == {}


@pytest.mark.parametrize("name", ["A", "A_EXTRA", "B", "C", "C_EXTRA", "D", "E3", "E5"])
def test_tableau_is_scipys_byte_for_byte(name):
    ours, scipys = getattr(dop853_tableau, name), getattr(DOP853, name)
    assert (ours.dtype, ours.shape) == (scipys.dtype, scipys.shape)
    assert ours.tobytes() == np.ascontiguousarray(scipys).tobytes()


def test_tableau_stage_count_is_scipys():
    assert type(dop853_tableau.n_stages) is int
    assert dop853_tableau.n_stages == DOP853.n_stages


RUN_EVERYTHING = """
import json, sys
from quline import cli
out, cow, tabulated, *bundled = sys.argv[1:]
calls = ([["run", path] for path in bundled] + [["run", tabulated], ["validate", tabulated],
         ["sweep", cow, "--steps", "3"], ["selftest"]])
codes = [cli.main(["--seed", "7", "--out-dir", out, *call]) for call in calls]
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath"))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def tabulated_scenario(path):
    """A scenario on a grid whose x and z axes are active: a static qubit
    carried over the multilinear tetrads."""
    xs, zs = [-1.0, 0.0, 1.0], [-0.5, 0.0, 0.5, 1.0, 1.5]
    tetrads = [[[[np.diag([1.0 / (1.0 + 0.3 * z + 0.01 * x), 1, 1, 1]).tolist()
                  for z in zs]] for x in xs]]
    path.write_text(yaml.safe_dump({
        "version": 1,
        "model": {"family": "tabulated",
                  "params": {"axes": [[0.0], xs, [0.0], zs], "tetrads": tetrads}},
        "worldlines": {"rest": {"type": "static", "position": [0.2, 0, 0.5], "span": 0.5}},
        "qubits": {"q0": {"kind": "fermion", "worldline": "rest", "mass": 1000.0}},
        "schedule": [{"op": "transport", "qubit": "q0", "worldline": "rest"}],
    }))
    return path


def test_cli_and_scenario_import_no_scipy(tmp_path):
    """A fresh process that runs, through ``quline.cli.main``, every bundled
    scenario, a tabulated one, ``validate``, a ``sweep`` and ``selftest``
    succeeds at each and has no scipy or mpmath module loaded afterwards."""
    bundled = sorted(map(str, SCENARIOS.glob("*.scenario")))
    assert len(bundled) == 5
    args = [str(tmp_path), str(SCENARIOS / "cow.scenario"),
            str(tabulated_scenario(tmp_path / "tabulated.scenario")), *bundled]
    out = subprocess.run([sys.executable, "-c", RUN_EVERYTHING, *args], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}).stdout
    result = json.loads(out.splitlines()[-1])
    assert result == {"codes": [0] * 9, "loaded": []}


def imported_packages():
    """{(module file, innermost function around the import or None, top-level
    package)} over every import statement in src/."""
    found = set()

    def visit(node, path, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.update((path.name, owner, alias.name.split(".")[0])
                             for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.add((path.name, owner, child.module.split(".")[0]))
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else owner
            visit(child, path, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    return found


def test_scipy_is_never_imported_and_mpmath_only_in_cow_phase():
    packages = imported_packages()
    assert ("interferometry.py", None, "numpy") in packages    # the scan sees imports
    assert {site for site in packages if site[2] == "scipy"} == set()
    assert {site for site in packages if site[2] == "mpmath"} == {
        ("interferometry.py", "cow_phase", "mpmath")}


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
    dense output, and no module but ``worldline.py`` calls the stepper."""
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
    assert {name for name, tree in trees.items()
            if "_dop853" in called_names(tree)} == {"worldline.py"}
