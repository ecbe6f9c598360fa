"""quline's declared public surface: every module of ``src/quline`` has an
``__all__``; every top-level public ``def`` or ``class`` is in it; and every
name in it is used in ``src/`` outside its own definition, or in ``bench/``,
or is on ``ALLOWED`` with the reason it stays.  A use is any name, attribute
or import of the same name, so the rule errs towards keeping a name."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TREES = {path.stem: ast.parse(path.read_text())
         for path in sorted((ROOT / "src" / "quline").glob("*.py"))}
BENCH = "\n".join(path.read_text() for path in sorted((ROOT / "bench").glob("*.py")))

# (module, name): why it stays public with no caller in src/ or bench/
ALLOWED = {
    ("geometry", "apply_local_lorentz"): "a local Lorentz gauge move; tests check its law",
    ("interferometry", "slide_endpoint"): "criterion 10: phases as an arm's end slides",
    ("photon", "wigner_rotation"): "criterion 5: the Wigner angle, without the propagator",
    ("photon", "jones_rotation"): "criterion 5: exp(i angle sigma_y), that angle's Jones map",
    ("photon", "helicity_content"): "criterion 5: the helicity the Wigner rotation keeps",
    ("measurement", "expectation"): "criterion 6: the frame-independent <S> of a spin",
    ("units", "to_natural"): "SI to natural units; the README's COW example calls it",
    ("worldline", "constant_magnetic_field"): "the field of the spin-precession tests",
    ("worldline", "AnalyticWorldline"): "a prescribed motion from closed-form callables",
    ("worldline", "worldline_from_coordinate_path"): "a prescribed spatial path x_i(t)",
}


def binds(node, name):
    """Whether the top-level statement ``node`` defines or assigns ``name``."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    return isinstance(node, ast.Assign) and name in [getattr(t, "id", None) for t in node.targets]


def declared(tree):
    """The names of the module's ``__all__``, or None without one."""
    for node in tree.body:
        if binds(node, "__all__"):
            return ast.literal_eval(node.value)
    return None


def uses(node):
    """How often each name, attribute or imported name occurs in ``node``."""
    return Counter(getattr(n, "id", None) or getattr(n, "attr", None) or n.name
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))


SRC_USES = sum(map(uses, TREES.values()), Counter())      # __all__'s strings are no use


def used(module, name):
    """Whether ``name`` occurs in src/ outside its own definition, or in bench/."""
    own = sum((uses(node)[name] for node in TREES[module].body if binds(node, name)), 0)
    return SRC_USES[name] > own or bool(re.search(rf"\b{name}\b", BENCH))


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_public_definition_is_declared(module):
    tree = TREES[module]
    names = declared(tree)
    assert names is not None, f"{module} has no __all__"
    public = [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    assert [name for name in public if name not in names] == []
    assert len(set(names)) == len(names)
    namespace = importlib.import_module("quline" if module == "__init__" else f"quline.{module}")
    assert [name for name in names if not hasattr(namespace, name)] == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_declared_name_has_a_use_or_a_reason(module):
    assert [name for name in declared(TREES[module])
            if not used(module, name) and (module, name) not in ALLOWED] == []


def test_every_allowed_name_is_declared_and_still_unused():
    for module, name in ALLOWED:
        assert name in declared(TREES[module]) and not used(module, name)
