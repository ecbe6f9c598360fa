"""A worldline is one ``Worldline``: its model, span, motion, kind and
breakpoints.

Every way of building a worldline differs only in the motion function it
gives, so none of them needs a class of its own.  A scan of src/ pins that
no class derives from ``Worldline``, and a call of each public builder that
it returns a ``Worldline`` itself.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from quline import worldline as wld
from quline.geometry import make_builtin_model

SRC = Path(__file__).resolve().parents[1] / "src" / "quline"
FLAT = make_builtin_model("minkowski", [])
RINDLER = make_builtin_model("rindler", [0.1])


def test_no_class_derives_from_worldline():
    derived = {f"{path.name}:{node.name}"
               for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)
               and any(getattr(b, "id", getattr(b, "attr", None)) == "Worldline"
                       for b in node.bases)}
    assert derived == set()


def _straight_line(lam):
    return np.array([lam, 0.0, 0.0, 0.0])


BUILDERS = {
    "AnalyticWorldline": lambda: wld.AnalyticWorldline(
        FLAT, (0.0, 1.0), _straight_line, lambda lam: np.array([1.0, 0, 0, 0]),
        lambda lam: np.zeros(4)),
    "SampledWorldline": lambda: wld.SampledWorldline(
        FLAT, [0.0, 0.5, 1.0], [_straight_line(t) for t in (0.0, 0.5, 1.0)],
        [[1.0, 0, 0, 0]] * 3, np.zeros((3, 4))),
    "static_worldline": lambda: wld.static_worldline(RINDLER, [0.0, 0.0, 1.0], 1.0),
    "circular_worldline": lambda: wld.circular_worldline(FLAT, 1.0, 0.5),
    "integrate_timelike": lambda: wld.integrate_timelike(FLAT, None, np.zeros(4),
                                                         [1.0, 0, 0, 0]),
    "integrate_null_geodesic": lambda: wld.integrate_null_geodesic(FLAT, np.zeros(4),
                                                                   [1.0, 0, 0, 1.0]),
    "worldline_from_coordinate_path": lambda: wld.worldline_from_coordinate_path(
        FLAT, lambda t: [0.1 * t, 0.0, 0.0], lambda t: [0.1, 0.0, 0.0], 0.0, 1.0, n=11),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builders_return_a_worldline(name):
    wl = BUILDERS[name]()
    assert type(wl) is wld.Worldline
    assert callable(wl.motion) and wl.kind in ("timelike", "null")
