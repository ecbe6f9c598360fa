"""Where src/ may import integrators from.

Every integral along a worldline goes through the Magnus kernel
``worldline.propagate`` (scalar ones through ``worldline.line_integral``).
The only other integrators are the trajectory and proper-time solves in
``worldline.py`` and the height integral of ``cow_interferometer``; no module
exponentiates with ``scipy.linalg``.  This scan pins that, so that a second
integrator along a worldline cannot come back unnoticed.
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
