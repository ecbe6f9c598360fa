"""The label and event checks give one verdict whichever evaluator judges them.

``check_norm`` judges one (4,) label in Python floats and an (n, 4) stack on
numpy columns, from one elementwise formula; ``same_label``,
``Event.close_to``, ``check_finite`` and ``check_domain`` judge one label or
event in Python floats.  These tests check that every verdict and every
message agree with the stack evaluator or with the numpy formulas the
checks had before, from labels at the acceptance bound to nan, inf, signed
zeros and scales far past the bound; that no verdict goes through BLAS; and
that a basis-pair field is checked once, when it is built.
"""

import ast
import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quline import composite as cp
from quline import fermion as fm
from quline import geometry as geo
from quline import spin_algebra as sa
from quline import worldline as wld
from quline.errors import DomainError, QulineError

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "quline"
EPS = np.finfo(float).eps
SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0]


def verdict(check, *args):
    """None when ``check(*args)`` passes, else its QulineError's message."""
    try:
        check(*args)
    except QulineError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


@st.composite
def directions(draw):
    z = draw(st.floats(-1.0, 1.0))
    phi = draw(st.floats(0.0, 2 * np.pi))
    rho = np.sqrt(1.0 - z * z)
    return np.array([rho * np.cos(phi), rho * np.sin(phi), z])


@st.composite
def labels(draw):
    """(label, norm): a boosted unit, null or spacelike label with beta up to
    1 - 1e-10, scaled by 1 + k eps and by a power of ten from 1e-160 to 1e160,
    and perhaps with one component replaced by nan, inf, +-0.0, or with its
    time component negated."""
    norm = draw(st.sampled_from([1, 0, -1]))
    beta = draw(st.one_of(st.floats(0.0, 1.0 - 1e-10),
                          st.sampled_from([0.0, 0.6, 1.0 - 1e-8, 1.0 - 1e-10])))
    boost = sa.spin1_boost(beta * draw(directions()))
    v = {1: boost[:, 0], 0: boost[:, 0] + boost[:, 3], -1: boost[:, 3]}[norm]
    k = draw(st.one_of(st.integers(-200, 200), st.integers(-2**26, 2**26)))
    v = v * (1.0 + k * EPS)
    if draw(st.booleans()):
        v = v * 10.0 ** draw(st.integers(-160, 160))
    corruption = draw(st.sampled_from(["none", "special", "past"]))
    if corruption == "special":
        v[draw(st.integers(0, 3))] = draw(st.sampled_from(SPECIAL))
    elif corruption == "past":
        v[0] = -v[0]
    return v, norm


@settings(max_examples=600, deadline=None)
@given(labels())
def test_one_label_and_a_stack_of_it_give_one_verdict(label):
    v, norm = label
    one = verdict(sa.check_norm, v, norm, "label")
    assert one == verdict(sa.check_norm, np.stack([v, v]), norm, "label")
    assert one == verdict(sa.check_norm, list(v), norm, "label")


def scaled_time(v, k):
    w = v.copy()
    w[0] *= 1.0 + k * EPS
    return w


@settings(max_examples=200, deadline=None)
@given(labels())
def test_one_label_and_a_stack_of_it_agree_where_the_verdict_flips(label):
    """With v^0 scaled by 1 + k eps, bisect on k for the step where the stack
    evaluator's verdict changes: there a difference of one rounding between
    the evaluators would show."""
    v, norm = label
    lo, hi = 0, 2**40
    accepted = verdict(sa.check_norm, np.stack([v, v]), norm, "label") is None
    if accepted == (verdict(sa.check_norm, np.stack([scaled_time(v, hi)] * 2), norm, "label")
                    is None):
        return
    while hi - lo > 1:
        mid = (lo + hi) // 2
        w = scaled_time(v, mid)
        if (verdict(sa.check_norm, np.stack([w, w]), norm, "label") is None) == accepted:
            lo = mid
        else:
            hi = mid
    for k in (lo, hi):
        w = scaled_time(v, k)
        assert (verdict(sa.check_norm, w, norm, "label")
                == verdict(sa.check_norm, np.stack([w, w]), norm, "label"))


@pytest.mark.parametrize("norm, v", [
    (1, [1.0, 0.0, 0.0, 0.0]), (0, [1.0, 0.0, 0.0, 1.0]), (-1, [0.0, 1.0, 0.0, 0.0]),
    (0, [-0.0, 0.0, 0.0, 0.0]), (1, [-1.0, 0.0, 0.0, 0.0]), (0, [1e-170, 0.0, 0.0, 1e-170]),
    (-1, [0.0, 1e200, 0.0, 1e200]), (1, [np.nan, 0.0, 0.0, 0.0]),
    (0, [np.inf, 0.0, 0.0, np.inf])])
def test_one_label_and_a_stack_of_it_give_one_verdict_at_the_edges(norm, v):
    v = np.array(v)
    assert (verdict(sa.check_norm, v, norm, "label")
            == verdict(sa.check_norm, np.stack([v, v]), norm, "label"))


def numpy_same_label(a, b):
    """The same-space verdict as numpy formed it before it was judged in
    Python floats."""
    with np.errstate(invalid="ignore"):
        return bool(np.abs(a - b).max() <= 1e-9 * max(a[0], b[0]))


@st.composite
def label_pairs(draw):
    """Two labels a few 1e-9 (relative) apart, at any scale, perhaps with a
    special value in either."""
    a = sa.spin1_boost(draw(st.floats(0.0, 1.0 - 1e-10)) * draw(directions()))[:, 0]
    a = a * 10.0 ** draw(st.integers(-150, 150))
    delta = np.array(draw(st.lists(st.floats(-3e-9, 3e-9), min_size=4, max_size=4)))
    b = a + delta * draw(st.sampled_from([a[0], np.abs(a).max(), 1.0]))
    for v in (a, b):
        if draw(st.integers(0, 4)) == 0:
            v[draw(st.integers(0, 3))] = draw(st.sampled_from(SPECIAL))
    return a, b


@settings(max_examples=600, deadline=None)
@given(label_pairs())
def test_same_label_is_the_numpy_formula(pair):
    a, b = pair
    assert sa.same_label(a, b) == numpy_same_label(a, b)
    assert sa.same_label(b, a) == numpy_same_label(b, a)


def numpy_close_to(x, y, tol):
    """Event.close_to's coordinate test as numpy formed it."""
    with np.errstate(over="ignore", invalid="ignore"):
        scale = 1.0 + np.abs(x).max() + np.abs(y).max()
        return bool(np.abs(x - y).max() <= tol * scale)


coordinates = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4,
                       max_size=4).map(np.array)


@settings(max_examples=400, deadline=None)
@given(coordinates, st.lists(st.floats(-3e-9, 3e-9), min_size=4, max_size=4),
       st.sampled_from([1e-9, 0.0, 1e-6, np.nan, np.inf]), st.sampled_from([0, 1, 2, 3]),
       st.sampled_from([None, *SPECIAL]))
def test_close_to_is_the_numpy_formula(x, delta, tol, where, special):
    """Within or just past the bound, at any scale; a coordinate made nan or
    infinite after the event was built fails every comparison."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = x + np.array(delta) * (1.0 + np.abs(x).max())
    a, b = geo.Event(x, "chart"), geo.Event(np.where(np.isfinite(y), y, x), "chart")
    if special is not None:
        coords = b.coords.copy()
        coords[where] = special
        object.__setattr__(b, "coords", coords)
    for p, q in ((a, b), (b, a)):
        assert p.close_to(q, tol) == numpy_close_to(p.coords, q.coords, tol)
    assert not a.close_to(geo.Event(a.coords, "other chart"))


MODELS = {"minkowski": geo.make_builtin_model("minkowski", []),
          "rindler": geo.make_builtin_model("rindler", [0.5]),
          "schwarzschild": geo.make_builtin_model("schwarzschild", [1.0])}


@st.composite
def events(draw):
    """Coordinates near each built-in chart's edges: r near 2M, theta near
    the axis, z near the Rindler horizon, perhaps with a special value."""
    c = np.array([draw(st.floats(-10.0, 10.0)),
                  draw(st.sampled_from([2.0, 2.0 + 1e-11, 2.0 + 1e-12, 5.0, -2.0, 0.0])),
                  draw(st.sampled_from([1e-8, 2e-8, np.pi - 1e-8, np.pi / 2, 0.0, np.pi])),
                  draw(st.sampled_from([-2.0, -2.0 + 1e-11, -1.0, 3.0]))])
    if draw(st.booleans()):
        c[draw(st.integers(0, 3))] = draw(st.sampled_from(SPECIAL))
    return c


@settings(max_examples=300, deadline=None)
@given(events(), st.sampled_from(sorted(MODELS)))
def test_one_event_and_a_stack_of_it_give_one_domain_verdict(c, name):
    model = MODELS[name]
    assert verdict(model.check_domain, c) == verdict(model.check_domain, np.stack([c, c]))
    assert verdict(geo.check_finite, c) == verdict(geo.check_finite, np.stack([c, c]))


def test_a_foreign_event_is_named_by_its_chart_first():
    """An event of another chart is refused by its chart, whether or not its
    coordinates lie in the model's domain."""
    flat, schwarzschild = MODELS["minkowski"], MODELS["schwarzschild"]
    for event in (flat.event(0, 1, 0, 0), flat.event(0, 10, 1, 0)):
        with pytest.raises(DomainError, match=r"^event on chart 'minkowski-cartesian', "
                                              r"model uses 'schwarzschild-polar'$"):
            schwarzschild.check_domain(event)


# the functions that only give a verdict, and the module each lives in
VERDICTS = {"spin_algebra.py": ["check_norm", "same_label"],
            "geometry.py": ["Event.close_to", "check_finite", "SpacetimeModel.check_domain"]}
BLAS_CALLS = {"dot", "matmul", "inner", "tensordot", "einsum", "norm"}


def reached(tree, name):
    """The function ``name`` (``Class.method`` for a method) of a module, and
    every module-level function it calls, directly or not."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    if "." in name:
        cls, method = name.split(".")
        (start,) = [n for n in classes[cls].body
                    if isinstance(n, ast.FunctionDef) and n.name == method]
    else:
        start = functions[name]
    found, todo = [], [start]
    while todo:
        node = todo.pop()
        if node in found:
            continue
        found.append(node)
        todo += [functions[call.func.id] for call in ast.walk(node)
                 if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                 and call.func.id in functions]
    return found


def blas_uses(node):
    """Every ``@`` and every call of a BLAS-backed product under ``node``."""
    uses = [f"@ at line {n.lineno}" for n in ast.walk(node)
            if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult)]
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in BLAS_CALLS:
                uses.append(f"{name}() at line {call.lineno}")
    return uses


@pytest.mark.parametrize("module, name", [(m, n) for m, names in VERDICTS.items()
                                          for n in names])
def test_verdicts_take_no_blas_product(module, name):
    tree = ast.parse((SRC / module).read_text())
    assert [use for node in reached(tree, name) for use in blas_uses(node)] == []


def test_the_blas_scan_sees_a_product():
    tree = ast.parse("def f(a):\n    return g(a) @ a\n\ndef g(a):\n    return np.dot(a, a)\n")
    assert sorted(use for node in reached(tree, "f") for use in blas_uses(node)) == [
        "@ at line 2", "dot() at line 5"]


FLAT = MODELS["minkowski"]
REST = np.array([1.0, 0.0, 0.0, 0.0])


def static_line():
    return wld.static_worldline(FLAT, [0.0, 0.0, 0.0], span=1.0)


def pair(a, b, event):
    return (fm.FermionState(a, event, REST), fm.FermionState(b, event, REST))


def test_basis_pair_field_is_frozen():
    line = static_line()
    field = cp.make_basis_pair_field(pair([1.0, 0.0], [0.0, 1.0], line.start_event), line)
    for name in ("initial", "final", "worldline"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(field, name, getattr(field, name))


def test_basis_pair_field_checks_each_end_when_built():
    line = static_line()
    good = pair([1.0, 0.0], [0.0, 1.0], line.start_event)
    bad = pair([1.0, 0.0], [0.6, 0.8], line.start_event)
    with pytest.raises(QulineError, match="^basis pair is not orthonormal at the start$"):
        cp.BasisPairField(bad, good, line)
    with pytest.raises(QulineError, match="^basis pair is not orthonormal at the start$"):
        cp.make_basis_pair_field(bad, line)
    with pytest.raises(QulineError, match="^basis pair degenerated during transport$"):
        cp.BasisPairField(good, bad, line)


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# fidelity and the four Bell probabilities (in BELL_OUTCOMES order) of each
# forced outcome, as the Bell projections of the three-slot state give them
# under OpenBLAS's default kernel choice; like the bundled goldens, these bytes
# differ under OPENBLAS_CORETYPE=Haswell (ROADMAP item 1)
TELEPORT_BYTES = {
    "phi+": "0x1.0000000000004p+0", "phi-": "0x1.0000000000002p+0",
    "psi+": "0x1.0000000000002p+0", "psi-": "0x1.0000000000004p+0"}
TELEPORT_PROBABILITIES = ["0x1.0000000000004p-2", "0x1.0000000000002p-2",
                          "0x1.ffffffffffffbp-3", "0x1.ffffffffffff8p-3"]


def test_bench_teleport_case_keeps_its_bytes(tmp_path, monkeypatch):
    """The first teleport case of the seed-1 ``scenario_protocols`` pool, as
    the workload sets it up and runs it, gives the same fidelities and
    probabilities to the last bit."""
    workload = load_workloads().ScenarioProtocols(ROOT, 1, tmp_path)
    workload.setup()
    case = next(c for c in workload.pool if c["kind"] == "teleport")
    results, teleport = [], cp.teleport

    def recorded(*args, **kwargs):
        results.append(teleport(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cp, "teleport", recorded)
    workload.run(case)
    assert {r.outcome: r.fidelity.hex() for r in results} == TELEPORT_BYTES
    for r in results:
        assert [r.probabilities[o].hex() for o in cp.BELL_OUTCOMES] == TELEPORT_PROBABILITIES
