"""A localized qubit is one ``LocalizedState``: an amplitude, an event and a
label, carried along a worldline by one ``carry``.

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

from quline import fermion, interferometry, photon, scenario
from quline.errors import HilbertSpaceMismatch
from quline.geometry import make_builtin_model
from quline.worldline import LocalizedState, static_worldline

FLAT = make_builtin_model("minkowski", [])
SHARED = ("__post_init__", "same_space", "inner", "norm_squared", "normalized")
REALIZATIONS = [fermion.FermionState, photon.PhotonState]


def tree(function):
    return ast.parse(textwrap.dedent(inspect.getsource(function)))


@pytest.mark.parametrize("cls", REALIZATIONS, ids=lambda cls: cls.__name__)
def test_realizations_write_nothing_the_state_shares(cls):
    assert cls.__bases__ == (LocalizedState,)
    assert [name for name in SHARED if name in vars(cls)] == []


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
    """``inner`` and ``norm_squared`` give the bytes of amplitude^H metric()
    amplitude, and form ``metric()`` once per state however often they run."""
    line = static_worldline(FLAT, [0.0, 0.0, 0.0], 1.0)
    if cls is fermion.FermionState:
        label, amps = [1.25, 0.0, 0.75, 0.0], ([0.6, 0.8j], [0.3 - 0.1j, 0.2j])
    else:
        label, amps = [1.0, 0.0, 0.0, 1.0], ([0, 0.6, 0.8j, 0], [0, 0.3j, -0.2, 0])
    a, b = (cls(amp, line.start_event, label) for amp in amps)
    want_inner = complex(a.amplitude.conj() @ a.metric() @ b.amplitude)
    want_norm = float(np.real(b.amplitude.conj() @ b.metric() @ b.amplitude))
    formed, metric = [], cls.metric
    monkeypatch.setattr(cls, "metric", lambda self: formed.append(self) or metric(self))
    for _ in range(3):
        assert a.inner(b) == want_inner
        assert b.norm_squared() == want_norm
        a.norm_squared()
    assert len(formed) == 2 and formed[0] is a and formed[1] is b


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
