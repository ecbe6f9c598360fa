"""Transports whose caller keeps only the end state ask the Magnus kernel for
the span ends alone, so it runs no read pass and builds no interior samples:
the basis pairs of ``make_basis_pair_field``, the slot maps of
``MultiQubitState.carry`` and the two arm transports of an interferometer that
carries a qubit.  Their end states are those of a 201-sample transport: byte
for byte on fermion legs, whose grid no read refines, and within 1e-13 on a
Schwarzschild photon leg, whose grid the read check had refined."""

import json
from pathlib import Path

import numpy as np
import pytest

from quline import composite as cp
from quline import fermion as fm
from quline import photon as ph
from quline import scenario as sc
from quline import worldline as wld
from quline.geometry import make_builtin_model

SCHW = make_builtin_model("schwarzschild", [1.0])
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def circular_orbit(r=10.0, span=40.0):
    x0 = np.array([0.0, r, np.pi / 2, 0.3])
    u_coord = np.array([1.0, 0.0, 0.0, np.sqrt(1.0 / r**3)])
    u_coord = u_coord / np.sqrt(u_coord @ SCHW.metric(x0) @ u_coord)
    return wld.integrate_timelike(SCHW, None, x0, SCHW.inverse_tetrad(x0) @ u_coord,
                                  span=span, tol=1e-12)


def ray(r0=20.0, b=8.0):
    """An equatorial ray of affine length 2 r0 at impact parameter b; its
    201-sample transport refines the grid where a read is checked."""
    x0 = np.array([0.0, r0, np.pi / 2, 0.4])
    s = b * np.sqrt(1.0 - 2.0 / r0) / r0
    return wld.integrate_null_geodesic(SCHW, x0, [1.0, -np.sqrt(1.0 - s * s), 0.0, s],
                                       span=2.0 * r0, tol=1e-12)


@pytest.fixture
def asked(monkeypatch):
    """The parameters each transport asks ``propagate`` for, with its worldline's span."""
    calls, propagate = [], wld.propagate

    def recording(worldline, generator, params, tol):
        calls.append((tuple(worldline.param_span), np.array(params)))
        return propagate(worldline, generator, params, tol)
    monkeypatch.setattr(fm, "propagate", recording)
    monkeypatch.setattr(wld, "propagate", recording)    # the photon's parallel propagator
    return calls


def assert_span_ends_only(calls, count):
    assert len(calls) == count
    for span, params in calls:
        np.testing.assert_array_equal(params, span)


def start_slot(realization, wl):
    return wld.Slot(realization, wl.start_event, wl.velocity(0.0))


def test_basis_pair_field_reads_the_span_ends(asked):
    wl = circular_orbit()
    u0 = wl.velocity(0.0)
    phi0 = fm.FermionState([1.0, 0.0], wl.start_event, u0).normalized()
    metric = phi0.metric
    psi = np.array([0.3, 1.0 + 0.2j])
    psi = psi - (phi0.psi.conj() @ metric @ psi) * phi0.psi
    psi0 = fm.FermionState(psi, wl.start_event, u0).normalized()
    field = cp.make_basis_pair_field((phi0, psi0), wl)
    assert_span_ends_only(asked, 1)
    sampled = fm.transport(phi0, wl)
    want = (sampled.final.psi, sampled.propagators[-1] @ psi0.psi)
    for got, amplitude in zip(field.final, want):
        assert got.psi.tobytes() == amplitude.tobytes()
        assert got.event.coords.tobytes() == sampled.final.event.coords.tobytes()
        assert got.velocity.tobytes() == sampled.final.velocity.tobytes()


def test_fermion_slot_map_reads_the_span_ends(asked):
    wl = circular_orbit()
    slot = start_slot(fm.FermionState, wl)
    state = wld.MultiQubitState(np.array([[0.6, 0.1j], [0.2, 0.7]]), (slot, slot))
    evolved = state.carry(1, wl)
    assert_span_ends_only(asked, 1)
    sampled = fm.transport(fm.FermionState([1.0, 0.0], slot.event, slot.label), wl)
    want = np.tensordot(sampled.propagators[-1], state.amplitude, axes=([1], [1])).T
    assert evolved.amplitude.tobytes() == want.tobytes()
    assert evolved.slots[1].label.tobytes() == sampled.final.velocity.tobytes()
    assert evolved.slots[0] is slot


def test_photon_slot_map_reads_the_span_ends(asked):
    wl = ray()
    slot = start_slot(ph.PhotonState, wl)
    jones = ph.jones_to_state([0.8, 0.6j], slot.label, slot.event).pol
    state = wld.MultiQubitState(np.outer(jones, [1.0, 0.0, 0.0, 0.0]), (slot, slot))
    evolved = state.carry(0, wl)
    assert_span_ends_only(asked, 1)
    sampled = ph.transport(ph.PhotonState([1.0, 0.0, 0.0, 0.0], slot.event, slot.label), wl)
    k = sampled.final.wavevector
    canonical = np.eye(4) - np.outer(k, [1.0, 0.0, 0.0, 0.0]) / k[0]
    want = np.tensordot(canonical @ sampled.propagators[-1], state.amplitude, axes=([1], [0]))
    assert np.abs(evolved.amplitude - want).max() <= 1e-13
    assert evolved.slots[0].label.tobytes() == k.tobytes()


def test_interferometer_arms_read_the_span_ends(asked, monkeypatch):
    data = sc.load_scenario(SCENARIOS / "displaced_arms.scenario")
    ends_only = json.dumps(sc.ScenarioRun(data, seed=7).run(), sort_keys=True)
    assert_span_ends_only(asked, 2)     # one transport per arm, nothing else
    carry = sc._carry
    monkeypatch.setattr(sc, "_carry", lambda qubit, state, wl, tol, n_samples=201:
                        carry(qubit, state, wl, tol))
    assert json.dumps(sc.ScenarioRun(data, seed=7).run(), sort_keys=True) == ends_only
    assert [len(params) for _, params in asked[2:]] == [201, 201]
