"""A localized qubit is one ``LocalizedState``: an amplitude, an event and a
label, carried along a worldline by one ``carry``.  It is the one-slot case
of ``MultiQubitState``, so the label check, the space comparison, the
inner-product matrix, ``inner``, ``norm_squared``, ``normalized``, ``apply``
and ``project`` are written once, for every number of slots.

The spin and polarization states differ only in their data and formulas (the
amplitude length, the label norm, the inner-product matrices), so neither
writes its own label check, inner product or normalization, and the code that
compares, recombines or transports a state does not ask which realization it
has.  A scan of the classes and of the source of those functions pins that.
"""

import ast
import inspect
import textwrap

import numpy as np
import pytest

from quline import composite, fermion, interferometry, photon, scenario
from quline.errors import HilbertSpaceMismatch
from quline.geometry import make_builtin_model
from quline.worldline import LocalizedState, MultiQubitState, Slot, static_worldline

FLAT = make_builtin_model("minkowski", [])
SHARED = ("__post_init__", "same_space", "inner", "norm_squared", "_square", "normalized",
          "apply", "project", "metric")
REALIZATIONS = [fermion.FermionState, photon.PhotonState]


def tree(function):
    return ast.parse(textwrap.dedent(inspect.getsource(function)))


@pytest.mark.parametrize("cls, base", [(LocalizedState, MultiQubitState),
                                       *((cls, LocalizedState) for cls in REALIZATIONS)],
                         ids=["LocalizedState", "FermionState", "PhotonState"])
def test_realizations_write_nothing_the_state_shares(cls, base):
    assert cls.__bases__ == (base,)
    assert [name for name in SHARED if name in vars(cls)] == []


def test_composite_defines_no_state():
    """No class of composite.py writes a state method (``__post_init__`` aside,
    which its basis-pair field uses for its own check)."""
    classes = [obj for obj in vars(composite).values()
               if isinstance(obj, type) and obj.__module__ == composite.__name__]
    assert [(cls.__name__, name) for cls in classes for name in SHARED[1:]
            if name in vars(cls)] == []


BLIND = {"transport_phase": interferometry.transport_phase,
         "recombine": interferometry.recombine,
         "ScenarioRun._recombine": scenario.ScenarioRun._recombine,
         "ScenarioRun._transport": scenario.ScenarioRun._transport}


@pytest.mark.parametrize("name", sorted(BLIND))
def test_no_realization_branch(name):
    found = [f"line {node.lineno}" for node in ast.walk(tree(BLIND[name]))
             if (isinstance(node, ast.Name) and node.id == "isinstance")
             or (isinstance(node, ast.Attribute) and node.attr in ("psi", "pol"))]
    assert found == []


@pytest.mark.parametrize("module", [fermion, photon], ids=lambda m: m.__name__)
def test_transports_call_the_shared_carry(module):
    calls = {node.func.id for node in ast.walk(tree(module.transport))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "carry" in calls


def test_aliases_read_the_shared_fields():
    line = static_worldline(FLAT, [0.0, 0.0, 0.0], 1.0)
    spin = fermion.FermionState([0.6, 0.8j], line.start_event, line.velocity(0.0))
    pol = photon.PhotonState([0.0, 1.0, 0.0, 0.0], line.start_event, [1.0, 0.0, 0.0, 1.0])
    assert spin.psi is spin.amplitude and spin.velocity is spin.label
    assert pol.pol is pol.amplitude and pol.wavevector is pol.label
    with pytest.raises(AttributeError):
        spin.psi = np.zeros(2)


def test_states_of_different_realizations_share_no_space():
    # a spin and a polarization state at one event live in different spaces
    event = FLAT.event(0.0, 0.0, 0.0, 0.0)
    spin = fermion.FermionState([1.0, 0.0], event, [1.0, 0.0, 0.0, 0.0])
    pol = photon.PhotonState([0.0, 1.0, 0.0, 0.0], event, [1.0, 0.0, 0.0, 1.0])
    assert not spin.same_space(pol) and not pol.same_space(spin)
    with pytest.raises(HilbertSpaceMismatch):
        interferometry.transport_phase(spin, pol)
    with pytest.raises(HilbertSpaceMismatch):
        interferometry.recombine(pol, spin, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("cls", REALIZATIONS, ids=lambda cls: cls.__name__)
def test_inner_products_form_the_metric_once_per_state(cls, monkeypatch):
    """``inner`` and ``norm_squared`` give the bytes of amplitude^H M
    amplitude, M the realization's ``metrics`` at the label, and form M once
    per slot however often they run."""
    line = static_worldline(FLAT, [0.0, 0.0, 0.0], 1.0)
    if cls is fermion.FermionState:
        label, amps = [1.25, 0.0, 0.75, 0.0], ([0.6, 0.8j], [0.3 - 0.1j, 0.2j])
    else:
        label, amps = [1.0, 0.0, 0.0, 1.0], ([0, 0.6, 0.8j, 0], [0, 0.3j, -0.2, 0])
    a, b = (cls(amp, line.start_event, label) for amp in amps)
    metric = cls.metrics(np.array([label]))[0]
    want_inner = complex(a.amplitude.conj() @ metric @ b.amplitude)
    want_norm = float(np.real(b.amplitude.conj() @ metric @ b.amplitude))
    formed, metrics = [], cls.metrics
    monkeypatch.setattr(cls, "metrics", staticmethod(
        lambda labels: formed.append(labels) or metrics(labels)))
    for _ in range(3):
        assert a.inner(b) == want_inner
        assert b.norm_squared() == want_norm
        a.norm_squared()
    assert len(formed) == 2
    assert np.shares_memory(formed[0], a.label) and np.shares_memory(formed[1], b.label)


@pytest.mark.parametrize("cls, label, amplitude", [
    (fermion.FermionState, [1.25, 0.0, 0.75, 0.0], [0.6, -0.8j]),
    (photon.PhotonState, [1.0, 0.0, 0.0, 1.0], [0.0, 0.6, -0.8j, 0.0]),
], ids=["fermion", "photon"])
def test_a_one_slot_state_is_the_localized_state(cls, label, amplitude):
    """A one-slot ``MultiQubitState`` and the realization's state built from
    one amplitude, event and label give the same bytes for ``inner``,
    ``norm_squared`` and ``normalized``, also where the squared norm passes
    the floats."""
    event = FLAT.event(0.0, 0.0, 0.0, 0.0)
    for scale in (1.0, 1e200):
        amp = np.asarray(amplitude) * scale
        got = []
        for state in (cls(amp, event, label), MultiQubitState(amp, (Slot(cls, event, label),))):
            with np.errstate(over="ignore", invalid="ignore"):  # inner is not rescaled
                inner = state.inner(MultiQubitState(amp[::-1], state.slots))
            got.append([np.asarray(x).tobytes() for x in
                        (inner, state.norm_squared(), state.normalized().amplitude)])
        assert got[0] == got[1]
        assert (got[0][1] == np.float64(np.inf).tobytes()) == (scale > 1.0)


@pytest.mark.parametrize("cls, label, big, want", [
    (fermion.FermionState, [1.0, 0.0, 0.0, 0.0], [1e200, 0.0], [1.0, 0.0]),
    (fermion.FermionState, [1.0, 0.0, 0.0, 0.0], [-3e200, 4e200j], [-0.6, 0.8j]),
    (photon.PhotonState, [1.0, 0.0, 0.0, 1.0], [0.0, 1e200, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]),
], ids=["fermion", "fermion_mixed", "photon"])
def test_a_state_whose_squared_norm_overflows_normalizes(cls, label, big, want):
    """A finite amplitude whose squared norm passes the floats has
    norm_squared inf and is normalized over its largest |entry|, with no
    numpy warning (the suite turns RuntimeWarning into an error); an
    ordinary state is normalized by its plain norm, byte for byte."""
    event = FLAT.event(0.0, 0.0, 0.0, 0.0)
    state = cls(big, event, label)
    assert state.norm_squared() == np.inf
    got = state.normalized()
    np.testing.assert_allclose(got.amplitude, want, rtol=1e-15, atol=1e-300)
    assert got.norm_squared() == pytest.approx(1.0, rel=1e-15)
    small = cls(np.asarray(big) * 1e-200, event, label)
    plain = small.amplitude / np.sqrt(small.norm_squared())
    assert small.normalized().amplitude.tobytes() == plain.tobytes()
