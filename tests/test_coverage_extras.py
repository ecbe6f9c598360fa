import json

import numpy as np
import pytest

from quline import cli
from quline import photon as ph
from quline.errors import DomainError, HilbertSpaceMismatch, QulineError
from quline.fermion import FermionState, transport as fermion_transport
from quline.geometry import (apply_local_lorentz, connection_finite_difference,
                             make_builtin_model)
from quline.spin_algebra import ETA, spin1_boost
from quline.worldline import (MultiQubitState, Slot, integrate_null_geodesic,
                              integrate_timelike)

FLAT = make_builtin_model("minkowski", [])


class TestBoostFieldTransformation:
    def test_position_dependent_boost_field(self):
        # smooth boost field: the transformed connection must obey the
        # inhomogeneous law; checked analytic vs generic finite difference
        model = make_builtin_model("rindler", [0.3])
        rate = 0.08

        boost = np.vectorize(lambda b: spin1_boost([b, 0.0, 0.0]), signature="()->(4,4)")

        def field(c):
            return boost(rate * np.tanh(c[..., 1]))

        def jacobian(c):
            x = c[..., 1]
            b = rate * np.tanh(x)
            db = rate * (1.0 - np.tanh(x) ** 2)
            g = 1.0 / np.sqrt(1.0 - b * b)
            dg = g**3 * b * db
            d = np.zeros(c.shape[:-1] + (4, 4, 4))
            d[..., 1, 0, 0] = dg
            d[..., 1, 0, 1] = dg * b + g * db
            d[..., 1, 1, 0] = dg * b + g * db
            # spatial xx block: d/dx (g b^2/(g+1) + 1) for the xx entry
            gb2 = g * g * b * b / (g + 1.0)
            # derivative via chain rule on g and b
            dgb2 = (2 * g * dg * b * b / (g + 1.0)
                    + 2 * g * g * b * db / (g + 1.0)
                    - g * g * b * b * dg / (g + 1.0) ** 2)
            d[..., 1, 1, 1] = dgb2
            return d

        moved = apply_local_lorentz(model, field, jacobian)
        assert moved.connection_mode == "analytic"
        rng = np.random.default_rng(0)
        for _ in range(8):
            c = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                          rng.uniform(-1, 1), rng.uniform(-0.5, 2)])
            fd = connection_finite_difference(moved, c)
            assert np.abs(moved.connection(c) - fd).max() < 1e-6

    def test_metric_unchanged_under_boost_field(self):
        model = make_builtin_model("rindler", [0.3])
        boost = np.vectorize(lambda phi: spin1_boost([0.2 * np.sin(phi), 0, 0]),
                             signature="()->(4,4)")
        moved = apply_local_lorentz(model, lambda c: boost(c[..., 3]))
        c = np.array([0.1, 0.2, 0.3, 0.7])
        assert np.abs(moved.metric(c) - model.metric(c)).max() < 1e-12


class TestDomainExit:
    def test_timelike_domain_exit_raises(self):
        model = make_builtin_model("rindler", [1.0])
        # free fall from rest: crosses z = -1/g in finite proper time
        x0 = np.array([0.0, 0.0, 0.0, 0.0])
        u0 = model.inverse_tetrad(x0) @ np.array([1.0, 0, 0, 0])
        with pytest.raises((DomainError, QulineError)):
            integrate_timelike(model, None, x0, u0, span=10.0, tol=1e-10)

    def test_null_domain_exit_raises(self):
        model = make_builtin_model("schwarzschild", [1.0])
        x0 = np.array([0.0, 3.0, np.pi / 2, 0.0])
        # radial infall ray hits r = 2M
        g = model.metric(x0)
        k_coord = np.array([np.sqrt(-g[1, 1] / g[0, 0]), -1.0, 0.0, 0.0])
        k0 = model.inverse_tetrad(x0) @ k_coord
        with pytest.raises((DomainError, QulineError)):
            integrate_null_geodesic(model, x0, k0, span=30.0, tol=1e-10)


class TestTransportPreconditions:
    def test_fermion_state_not_at_start(self):
        wl = integrate_timelike(FLAT, None, np.zeros(4), [1, 0, 0, 0], span=2.0)
        st = FermionState([1, 0], FLAT.event(5.0, 0, 0, 0), [1, 0, 0, 0])
        with pytest.raises(HilbertSpaceMismatch):
            fermion_transport(st, wl)

    def test_fermion_velocity_label_mismatch(self):
        wl = integrate_timelike(FLAT, None, np.zeros(4), [1, 0, 0, 0], span=2.0)
        g = 1 / np.sqrt(1 - 0.25)
        st = FermionState([1, 0], wl.start_event, [g, 0.5 * g, 0, 0])
        with pytest.raises(HilbertSpaceMismatch):
            fermion_transport(st, wl)

    def test_photon_needs_null_worldline(self):
        wl = integrate_timelike(FLAT, None, np.zeros(4), [1, 0, 0, 0], span=2.0)
        st = ph.jones_to_state([1, 0], np.array([1.0, 0, 0, 1.0]),
                               wl.start_event)
        with pytest.raises(QulineError):
            ph.transport(st, wl)

    def test_rest_frame_transport_rejects_null(self):
        from quline.fermion import RestFrameState, transport_rest_frame
        ray = integrate_null_geodesic(FLAT, np.zeros(4), [1.0, 0, 0, 1.0], span=2.0)
        with pytest.raises(QulineError):
            transport_rest_frame(RestFrameState([1, 0]), ray)


def photon_slot(event, k):
    return Slot(ph.PhotonState, event, k)


def photon_pair_state(k1, k2, jones1, jones2):
    ev = FLAT.event(0, 0, 0, 0)
    p1 = ph.jones_to_state(jones1, k1, ev)
    p2 = ph.jones_to_state(jones2, k2, ev)
    return MultiQubitState(np.outer(p1.pol, p2.pol), (photon_slot(ev, k1), photon_slot(ev, k2)))


def transversality(state):
    """Max |u_I psi^{...I...}| over the state's photon slots (0 for fermion slots)."""
    worst = 0.0
    for axis, slot in enumerate(state.slots):
        if slot.realization is ph.PhotonState:
            res = np.tensordot(ETA @ slot.label, state.amplitude, axes=([0], [axis]))
            worst = max(worst, np.abs(res).max())
    return worst


class TestPhotonBipartite:
    K1 = np.array([1.0, 0, 0, 1.0])
    K2 = np.array([1.0, 0.6, 0.0, 0.8])

    def test_product_inner_product_factorizes(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            j1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            j2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            j3 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            j4 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a = photon_pair_state(self.K1, self.K2, j1, j2)
            b = photon_pair_state(self.K1, self.K2, j3, j4)
            val = a.inner(b)
            expect = (j1.conj() @ j3) * (j2.conj() @ j4)
            assert abs(val - expect) < 1e-12

    def test_transversality_constraint(self):
        st = photon_pair_state(self.K1, self.K2, [1.0, 0.5j], [0.3, 1.0])
        assert transversality(st) < 1e-12

    def test_entangled_photon_pair_norm(self):
        ev = FLAT.event(0, 0, 0, 0)
        h1 = ph.jones_to_state([1, 0], self.K1, ev).pol
        v1 = ph.jones_to_state([0, 1], self.K1, ev).pol
        h2 = ph.jones_to_state([1, 0], self.K2, ev).pol
        v2 = ph.jones_to_state([0, 1], self.K2, ev).pol
        bell = (np.outer(h1, h2) + np.outer(v1, v2)) / np.sqrt(2.0)
        st = MultiQubitState(bell, (photon_slot(ev, self.K1), photon_slot(ev, self.K2)))
        assert abs(st.norm_squared() - 1.0) < 1e-12

    def test_evolve_photon_slot_along_curved_ray(self):
        model = make_builtin_model("schwarzschild", [1.0])
        x0 = np.array([0.0, 15.0, np.pi / 2, 0.0])
        k_coord = np.array([0.0, -0.35, 0.0, 0.03])
        g = model.metric(x0)
        k_coord[0] = np.sqrt(-(g[1, 1] * k_coord[1] ** 2
                               + g[3, 3] * k_coord[3] ** 2) / g[0, 0])
        k0 = model.inverse_tetrad(x0) @ k_coord
        ray = integrate_null_geodesic(model, x0, k0, span=10.0, tol=1e-12)
        ev = ray.start_event
        j1 = np.array([0.8, 0.6j])
        p1 = ph.PhotonState(
            ph.adaptation_rotation(k0).diad_inv @ j1, ev, k0)
        flat_ev = FLAT.event(0, 0, 0, 0)
        p2 = ph.jones_to_state([1.0, 0.0], self.K1, flat_ev)
        st = MultiQubitState(np.outer(p1.pol, p2.pol),
                                (photon_slot(ev, k0), photon_slot(flat_ev, self.K1)))
        out = st.carry(0, ray, tol=1e-13)
        # product state stays a product of (transported p1) x p2
        single = ph.transport(p1, ray, tol=1e-13).final
        expect = np.outer(single.pol, p2.pol)
        # both are canonical-gauge representatives of the same class
        resid = np.abs(out.amplitude - expect).max()
        assert resid < 1e-9
        assert transversality(out) < 1e-9
        assert abs(out.norm_squared() - st.norm_squared()) < 1e-9

    def test_mixed_fermion_photon_pair(self):
        ev = FLAT.event(0, 0, 0, 0)
        pol = ph.jones_to_state([0.6, 0.8j], self.K1, ev).pol
        psi = np.array([1.0, 0.0])
        st = MultiQubitState(np.outer(pol, psi), (photon_slot(ev, self.K1),
                                                     Slot(FermionState, ev, [1.0, 0, 0, 0])))
        assert abs(st.norm_squared() - 1.0) < 1e-12
        p_up = np.array([[1.0, 0], [0, 0.0]])
        prob, post = st.project(p_up, 1)
        assert prob == pytest.approx(1.0, abs=1e-12)

    def test_operator_argument_on_slot(self):
        st = photon_pair_state(self.K1, self.K2, [1.0, 0.0], [1.0, 0.0])
        # half-wave-plate-like unitary on slot 2 in its transverse space
        ar = ph.adaptation_rotation(self.K2)
        op = ar.diad_inv @ np.diag([1.0, -1.0]) @ ar.diad
        out = st.apply(op, 1)
        expect = photon_pair_state(self.K1, self.K2, [1.0, 0.0], [1.0, 0.0]).amplitude
        assert np.abs(out.amplitude - expect).max() < 1e-12
        st_v = photon_pair_state(self.K1, self.K2, [1.0, 0.0], [0.0, 1.0])
        out_v = st_v.apply(op, 1)
        assert np.abs(out_v.amplitude + st_v.amplitude).max() < 1e-12


class TestScenarioMeasureSpin:
    def test_spin_measurement_through_cli(self, tmp_path):
        import yaml
        scenario = {
            "version": 1,
            "seed": 5,
            "model": {"family": "minkowski"},
            "worldlines": {"rest": {"type": "static", "position": [0, 0, 0],
                                    "span": 1.0}},
            "qubits": {"q0": {"kind": "fermion", "state": [1, 0, 0, 0],
                              "worldline": "rest", "mass": 1000.0}},
            "schedule": [
                {"op": "transport", "qubit": "q0", "worldline": "rest"},
                {"op": "measure_spin", "qubit": "q0", "orientation": [1, 0, 0]},
                {"op": "measure_spin", "qubit": "q0", "orientation": [1, 0, 0]},
            ],
            "output": {"json": "spin.json", "csv": "spin.csv"},
        }
        f = tmp_path / "spin.scenario"
        f.write_text(yaml.safe_dump(scenario))
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == cli.EXIT_OK
        report = json.loads((tmp_path / "spin.json").read_text())
        first = report["results"]["schedule"][1]
        second = report["results"]["schedule"][2]
        # spin-up measured along x: 50/50, then repeatable on the post state
        assert first["p_plus"] == pytest.approx(0.5, abs=1e-12)
        repeat_p = second["p_plus" if first["outcome"] == 1 else "p_minus"]
        assert repeat_p == pytest.approx(1.0, abs=1e-12)

    def test_boosted_apparatus_through_cli(self, tmp_path):
        import yaml
        scenario = {
            "version": 1,
            "model": {"family": "minkowski"},
            "worldlines": {"rest": {"type": "static", "position": [0, 0, 0],
                                    "span": 1.0}},
            "qubits": {"q0": {"kind": "fermion", "state": [1, 0, 0, 0],
                              "worldline": "rest", "mass": 1000.0}},
            "schedule": [
                {"op": "measure_spin", "qubit": "q0", "orientation": [0, 0, 1],
                 "apparatus_beta": [0.6, 0, 0]},
            ],
            "output": {"json": "boosted.json"},
        }
        f = tmp_path / "boosted.scenario"
        f.write_text(yaml.safe_dump(scenario))
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == cli.EXIT_OK
        report = json.loads((tmp_path / "boosted.json").read_text())
        row = report["results"]["schedule"][0]
        # orientation z, boost x: the measured axis keeps pointing along z
        # for a particle at rest and the up state stays an eigenstate
        assert row["p_plus"] == pytest.approx(1.0, abs=1e-12)
