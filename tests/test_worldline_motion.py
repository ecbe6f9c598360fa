"""Every worldline class defines one evaluation, ``_motion``.

``Worldline`` derives position, velocity, acceleration, the coordinate
velocity, the trajectory and the kinematics from ``_motion`` (x, u, a), so a
class that defined one of them beside it could answer one reader
differently from the others.  This scan of src/ pins that each subclass of
``Worldline`` defines ``_motion`` and none of the readers.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quline"
READERS = {"position", "velocity", "acceleration", "coordinate_velocity", "trajectory",
           "kinematics"}


def worldline_classes():
    """{class name: names its body defines} for every class in src/ that
    derives from ``Worldline``, directly or through another such class."""
    classes = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                defined = set()
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defined.add(item.name)
                    elif isinstance(item, ast.Assign):
                        defined |= {t.id for t in item.targets if isinstance(t, ast.Name)}
                bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                         for b in node.bases}
                classes[node.name] = (bases, defined)
    derived, grew = {"Worldline"}, True
    while grew:
        found = {name for name, (bases, _) in classes.items() if bases & derived}
        grew = not found <= derived
        derived |= found
    return {name: classes[name][1] for name in derived - {"Worldline"}}


def test_worldline_subclasses_exist():
    assert {"AnalyticWorldline", "IntegratedWorldline", "SampledWorldline"} <= set(
        worldline_classes())


def test_every_subclass_defines_motion_and_no_reader():
    classes = worldline_classes()
    assert {name for name, defined in classes.items() if "_motion" not in defined} == set()
    assert {name: defined & READERS for name, defined in classes.items()
            if defined & READERS} == {}
