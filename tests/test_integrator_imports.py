"""Where src/ may import integrators from.

Every integral along a worldline goes through the Magnus kernel
``worldline.propagate`` (scalar ones through ``worldline.line_integral``).
Every other integral, the trajectories, the proper time of a prescribed path
and the height integrals of ``cow_interferometer``, is stepped by
``worldline._dop853``, whose coefficients ``quline.dop853_tableau`` holds
as written-out copies of scipy's; no module imports ``scipy.integrate``,
calls ``solve_ivp`` or ``quad``, or exponentiates with ``scipy.linalg``.
These scans pin that, so that a second integrator cannot come back
unnoticed, and a fresh import of the CLI loads no scipy at all.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import DOP853

from quline import dop853_tableau

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
    assert scipy_imports("integrate") == {}


@pytest.mark.parametrize("name", ["A", "A_EXTRA", "B", "C", "C_EXTRA", "D", "E3", "E5"])
def test_tableau_is_scipys_byte_for_byte(name):
    ours, scipys = getattr(dop853_tableau, name), getattr(DOP853, name)
    assert (ours.dtype, ours.shape) == (scipys.dtype, scipys.shape)
    assert ours.tobytes() == np.ascontiguousarray(scipys).tobytes()


def test_tableau_stage_count_is_scipys():
    assert type(dop853_tableau.n_stages) is int
    assert dop853_tableau.n_stages == DOP853.n_stages


def test_cli_and_scenario_import_no_scipy():
    """A fresh process that imports the CLI and the scenario runner has no
    scipy module loaded."""
    code = ("import sys, quline.cli, quline.scenario; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)}).stdout
    assert out.strip() == "[]"


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
