import numpy as np
import pytest
from scipy.linalg import expm

from quline import fermion as fm
from quline.errors import HilbertSpaceMismatch, QulineError
from quline.geometry import Event, make_builtin_model
from quline.spin_algebra import (ETA, PAULI, boost_pair_from_velocity,
                                 generator_contraction,
                                 velocity_inner_product_matrix)
from quline.worldline import (AnalyticWorldline, circular_worldline,
                              constant_magnetic_field, integrate_timelike,
                              static_worldline, worldline_from_coordinate_path)

FLAT = make_builtin_model("minkowski", [])


def flat_rest_state(psi, t=0.0):
    ev = FLAT.event(t, 0, 0, 0)
    return fm.FermionState(psi, ev, [1, 0, 0, 0])


def random_unit_timelike(rng, vmax=0.85):
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)
    beta = rng.uniform(0, vmax) * d
    g = 1 / np.sqrt(1 - beta @ beta)
    return g * np.array([1, *beta])


class TestInnerProduct:
    def test_rest_frame_orthogonality(self):
        a = flat_rest_state([1, 0])
        b = flat_rest_state([0, 1])
        assert fm.inner_product(a, b) == 0
        assert fm.inner_product(a, a) == 1

    def test_boost_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            rest_val = (psi.conj() @ phi)
            u = random_unit_timelike(rng)
            half, _ = boost_pair_from_velocity(u)
            ev = FLAT.event(0, 0, 0, 0)
            a = fm.FermionState(half.matrix @ psi, ev, u)
            b = fm.FermionState(half.matrix @ phi, ev, u)
            assert abs(fm.inner_product(a, b) - rest_val) < 1e-12

    def test_mismatch_raises(self):
        a = flat_rest_state([1, 0], t=0.0)
        b = fm.FermionState([1, 0], FLAT.event(1.0, 0, 0, 0), [1, 0, 0, 0])
        with pytest.raises(HilbertSpaceMismatch):
            fm.inner_product(a, b)
        g = 1 / np.sqrt(1 - 0.25)
        c = fm.FermionState([1, 0], FLAT.event(0, 0, 0, 0), [g, 0.5 * g, 0, 0])
        with pytest.raises(HilbertSpaceMismatch):
            fm.inner_product(a, c)


class TestRestFrameMaps:
    def test_rest_velocity_identity(self):
        st = flat_rest_state([0.6, 0.8j])
        rf = fm.to_rest_frame(st)
        assert np.abs(rf.psi_tilde - st.psi).max() < 1e-15

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        ev = FLAT.event(0, 0, 0, 0)
        for _ in range(30):
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            u = random_unit_timelike(rng)
            st = fm.FermionState(psi, ev, u)
            back = fm.from_rest_frame(fm.to_rest_frame(st), ev, u)
            assert np.abs(back.psi - psi).max() < 1e-13

    def test_norm_agreement(self):
        rng = np.random.default_rng(2)
        ev = FLAT.event(0, 0, 0, 0)
        for _ in range(30):
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            u = random_unit_timelike(rng)
            st = fm.FermionState(psi, ev, u)
            assert abs(st.norm_squared() - fm.to_rest_frame(st).norm_squared()) < 1e-12


class TestTransportFlat:
    def test_inertial_constant(self):
        g = 1 / np.sqrt(1 - 0.16)
        u0 = np.array([g, 0, 0.4 * g, 0])
        wl = integrate_timelike(FLAT, None, np.zeros(4), u0, span=5.0)
        st = fm.FermionState([0.3 + 0.1j, 0.9], wl.start_event, u0)
        res = fm.transport(st, wl)
        assert np.abs(res.final.psi - st.psi).max() < 1e-12
        assert res.norm_drift < 1e-12

    def test_thomas_precession_angle(self):
        beta = 0.6
        gamma = 1 / np.sqrt(1 - beta**2)
        wl = circular_worldline(FLAT, radius=1.0, beta=beta, revolutions=1.0)
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)  # rest spin along +x
        st = fm.FermionState(psi0, wl.start_event, wl.velocity(0.0)).normalized()
        res = fm.transport(st, wl, tol=1e-13)
        rf_out = fm.to_rest_frame(res.final)
        rf_in = fm.to_rest_frame(st)
        bloch = lambda p: np.array([(p.conj() @ PAULI[i + 1] @ p).real for i in range(3)])
        b_in, b_out = bloch(rf_in.psi_tilde), bloch(rf_out.psi_tilde)
        angle = np.arctan2(b_out[1], b_out[0]) - np.arctan2(b_in[1], b_in[0])
        expected = 2 * np.pi * (gamma - 1.0)
        # retrograde rotation for a counterclockwise orbit
        assert abs(-angle - expected) < 1e-6 * expected
        assert abs(b_out[2]) < 1e-9

    def test_magnetic_precession_closed_form(self):
        b_field, q2m, span = 0.7, 1.9, 3.0
        em = constant_magnetic_field([0, 0, b_field])
        wl = integrate_timelike(FLAT, em, np.zeros(4), [1, 0, 0, 0],
                                charge_to_mass=q2m, span=span, tol=1e-13)
        rng = np.random.default_rng(3)
        psi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        st = fm.FermionState(psi0, wl.start_event, [1, 0, 0, 0]).normalized()
        res = fm.transport(st, wl, em=em, charge_to_mass=q2m, tol=1e-13)
        # oracle: psi(tau) = exp(i (e/2m) tau B.pauli) psi0, a rotation by
        # angle (e/m) B tau about z
        oracle = expm(1j * 0.5 * q2m * span * b_field * PAULI[3]) @ st.psi
        assert np.abs(res.final.psi - oracle).max() < 1e-10

    def test_precession_angle_magnitude(self):
        b_field, q2m, span = 0.3, 2.0, 1.7
        em = constant_magnetic_field([0, 0, b_field])
        wl = integrate_timelike(FLAT, em, np.zeros(4), [1, 0, 0, 0],
                                charge_to_mass=q2m, span=span, tol=1e-13)
        st = fm.FermionState(np.array([1, 1]) / np.sqrt(2), wl.start_event,
                             [1, 0, 0, 0])
        res = fm.transport(st, wl, em=em, charge_to_mass=q2m, tol=1e-13)
        bloch = lambda p: np.array([(p.conj() @ PAULI[i + 1] @ p).real for i in range(3)])
        b0, b1 = bloch(st.psi), bloch(res.final.psi)
        angle = np.arctan2(b1[1], b1[0]) - np.arctan2(b0[1], b0[0])
        expected = q2m * b_field * span  # precession angle (e/m) B tau
        assert abs(abs(angle) - expected % (2 * np.pi)) < 1e-9


class TestRestFrameTransport:
    def test_static_flat_constant(self):
        wl = static_worldline(FLAT, [0, 0, 0], span=4.0)
        rf = fm.RestFrameState([0.2 + 0.5j, 0.8])
        res = fm.transport_rest_frame(rf, wl)
        assert np.abs(res.final.psi_tilde - rf.psi_tilde).max() < 1e-12

    @pytest.mark.parametrize("fixture", ["circular", "rindler_leg", "schw_orbit"])
    def test_matches_covariant(self, fixture):
        if fixture == "circular":
            wl = circular_worldline(FLAT, radius=1.0, beta=0.5, revolutions=0.8)
        elif fixture == "rindler_leg":
            model = make_builtin_model("rindler", [0.4])
            wl = _rindler_horizontal_leg(model, v=0.5, z=0.5, span=6.0)
        else:
            model = make_builtin_model("schwarzschild", [1.0])
            x0 = np.array([0.0, 10.0, np.pi / 2, 0.0])
            omg = np.sqrt(1.0 / 10.0**3)
            u_coord = np.array([1.0, 0.0, 0.0, omg])
            g = model.metric(x0)
            u_coord = u_coord / np.sqrt(u_coord @ g @ u_coord)
            u0 = model.inverse_tetrad(x0) @ u_coord
            wl = integrate_timelike(model, None, x0, u0, span=30.0, tol=1e-12)
        rng = np.random.default_rng(5)
        psi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        st = fm.FermionState(psi0, wl.start_event, wl.velocity(0.0)).normalized()
        res_cov = fm.transport(st, wl, tol=1e-12)
        res_rest = fm.transport_rest_frame(fm.to_rest_frame(st), wl, tol=1e-12)
        diff = np.abs(fm.to_rest_frame(res_cov.final).psi_tilde
                      - res_rest.final.psi_tilde).max()
        assert diff < 1e-8
        # covariant/rest-frame pointwise equivalence along the whole line
        for i in range(0, len(res_cov.params), 40):
            d = np.abs(fm.to_rest_frame(res_cov.states[i]).psi_tilde
                       - res_rest.states[i].psi_tilde).max()
            assert d < 1e-8

    def test_thomas_angle_same_as_covariant(self):
        beta, gamma = 0.6, 1.25
        wl = circular_worldline(FLAT, radius=1.0, beta=beta, revolutions=1.0)
        rf0 = fm.RestFrameState(np.array([1, 1]) / np.sqrt(2))
        res = fm.transport_rest_frame(rf0, wl, tol=1e-13)
        bloch = lambda p: np.array([(p.conj() @ PAULI[i + 1] @ p).real for i in range(3)])
        b0, b1 = bloch(rf0.psi_tilde), bloch(res.final.psi_tilde)
        angle = np.arctan2(b1[1], b1[0]) - np.arctan2(b0[1], b0[0])
        assert abs(-angle - 2 * np.pi * (gamma - 1)) < 1e-6


def _rindler_horizontal_leg(model, v, z, span):
    from quline.worldline import AnalyticWorldline
    f = 1 + z * model.g
    gam = 1.0 / np.sqrt(f * f - v * v)
    u_tet = np.array([gam * f, gam * v, 0.0, 0.0])

    def position(tau):
        return np.array([gam * tau, v * gam * tau, 0.0, z])

    def acceleration(tau):
        om = model.connection(position(tau))
        return gam * om[0] @ u_tet

    return AnalyticWorldline(model, (0.0, span), position, lambda tau: u_tet.copy(),
                             acceleration)


class TestUnitarity:
    def test_norm_conserved_rindler_static(self):
        model = make_builtin_model("rindler", [0.8])
        wl = static_worldline(model, [0, 0, 0.3], span=50.0)
        st = fm.FermionState([0.6, 0.8j], wl.start_event, wl.velocity(0.0))
        res = fm.transport(st, wl, tol=1e-12)
        assert res.norm_drift < 1e-9

    def test_generalized_unitarity_two_states(self):
        # inner products of simultaneously transported states are constant
        model = make_builtin_model("schwarzschild", [1.0])
        x0 = np.array([0.0, 8.0, np.pi / 2, 0.0])
        u_coord = np.array([1.0, 0.02, 0.0, 0.012])
        g = model.metric(x0)
        u_coord = u_coord / np.sqrt(u_coord @ g @ u_coord)
        u0 = model.inverse_tetrad(x0) @ u_coord
        wl = integrate_timelike(model, None, x0, u0, span=20.0, tol=1e-12)
        rng = np.random.default_rng(6)
        p1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        p2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        s1 = fm.FermionState(p1, wl.start_event, wl.velocity(0.0))
        s2 = fm.FermionState(p2, wl.start_event, wl.velocity(0.0))
        ip0 = fm.inner_product(s1, s2)
        r1 = fm.transport(s1, wl, tol=1e-12)
        r2 = fm.transport(s2, wl, tol=1e-12)
        for a, b in zip(r1.states[::50], r2.states[::50]):
            assert abs(fm.inner_product(a, b) - ip0) < 1e-9

    def test_magnetic_term_hermitian(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            u = random_unit_timelike(rng)
            f = rng.standard_normal((4, 4))
            f = f - f.T
            b_rest = fm._rest_frame_magnetic(u, f)
            op = generator_contraction(b_rest)   # (e/2m) omitted: scale irrelevant
            iu = velocity_inner_product_matrix(u)
            m = iu @ op
            assert np.abs(m - m.conj().T).max() < 1e-12


class TestPathDependence:
    def test_two_path_overlap_strictly_less_than_one(self):
        model = make_builtin_model("schwarzschild", [1.0])
        r0 = 6.0
        kappa = 0.02
        t_end = np.pi / kappa
        # path A: static; path B: a monotone full sweep around the hole,
        # starting and ending at rest at phi = 0 vs phi = 2 pi
        sweep = lambda t: np.array([r0, np.pi / 2, np.pi * (1 - np.cos(kappa * t))])
        sweep_rate = lambda t: np.array([0.0, 0.0, np.pi * kappa * np.sin(kappa * t)])
        wl_b = worldline_from_coordinate_path(model, sweep, sweep_rate, 0.0, t_end)
        tau_a = np.sqrt(model.metric([0, r0, np.pi / 2, 0])[0, 0]) * t_end
        wl_a = static_worldline(model, [r0, np.pi / 2, 2 * np.pi], span=tau_a)
        # identify phi = 0 with phi = 2 pi for the start-event comparison
        assert wl_a.velocity(0.0) @ [1, 0, 0, 0] == pytest.approx(1.0)
        psi0 = np.array([1.0, 0.0])
        sa = fm.FermionState(psi0, wl_a.start_event, wl_a.velocity(0.0))
        sb = fm.FermionState(psi0, wl_b.start_event, wl_b.velocity(0.0))
        ra = fm.transport(sa, wl_a, tol=1e-12)
        rb = fm.transport(sb, wl_b, tol=1e-12)
        fa, fbb = ra.final, rb.final
        assert fa.event.close_to(fbb.event, 1e-6)
        assert np.abs(fa.velocity - fbb.velocity).max() < 1e-6
        fb_fixed = fm.FermionState(fbb.psi, fa.event, fa.velocity)
        overlap = abs(fm.inner_product(fa.normalized(), fb_fixed.normalized()))
        assert overlap <= 1.0 + 1e-12
        assert overlap < 1.0 - 1e-6


class TestWignerIncrement:
    def test_trivial_step_is_identity(self):
        w = fm.wigner_rotation_increment([1, 0, 0, 0], np.zeros(4), np.zeros((4, 4)))
        assert np.abs(w - np.eye(2)).max() < 1e-15

    def test_pure_boost_step_rotation_axis(self):
        # Thomas generator points along beta x dbeta
        u = np.array([1.25, 0.75, 0, 0])
        du = np.array([0.0, 0.0, 0.01, 0.0])
        w = fm.wigner_rotation_increment(u, du, np.zeros((4, 4)))
        gen = w - np.eye(2)
        # rotation about z: gen proportional to i sigma_z to first order
        offdiag = abs(gen[0, 1]) + abs(gen[1, 0])
        assert offdiag < 1e-6
        assert abs(gen[0, 0].imag) > 0

    def test_composition_matches_rest_frame_transport(self):
        # helical motion: the per-step rotation axes do not commute, so the
        # composed increments converge to the integrated evolution at 2nd order
        em = constant_magnetic_field([0, 0, 1.0])
        g = 1 / np.sqrt(1 - 0.32)
        u0 = g * np.array([1.0, 0.4, 0.0, 0.4])
        wl = integrate_timelike(FLAT, em, np.zeros(4), u0, charge_to_mass=1.5,
                                span=4.0, tol=1e-13)
        rf0 = fm.RestFrameState([1.0, 0.0])
        res = fm.transport_rest_frame(rf0, wl, tol=1e-13)
        errs = []
        for n in (100, 200):
            taus = np.linspace(*wl.param_span, n + 1)
            u_mat = np.eye(2, dtype=complex)
            for i in range(n):
                mid = 0.5 * (taus[i] + taus[i + 1])
                dtau = taus[i + 1] - taus[i]
                u = wl.velocity(mid)
                du = wl.velocity_coordinate_derivative(mid) * dtau
                omega_low = np.einsum("ik,nkj->nij", ETA,
                                      wl.model.connection(wl.position(mid)))
                pull = np.einsum("n,nij->ij", wl.coordinate_velocity(mid), omega_low) * dtau
                u_mat = fm.wigner_rotation_increment(u, du, pull) @ u_mat
            errs.append(np.abs(u_mat @ rf0.psi_tilde - res.final.psi_tilde).max())
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0


class TestLazyStates:
    def test_states_equal_eager_objects(self, states_read_like):
        model = make_builtin_model("schwarzschild", [1.0])
        wl = static_worldline(model, [7.0, 1.2, 0.3], span=3.0)
        st = fm.FermionState([0.6, 0.8j], wl.start_event, wl.velocity(0.0))
        res = fm.transport(st, wl, tol=1e-12)
        positions, velocities = wl.trajectory(res.params)
        eager = [fm.FermionState(m @ st.psi, Event(x, model.chart_id), u)
                 for m, x, u in zip(res.propagators, positions, velocities)]
        assert len(eager) == 201
        states_read_like(res.states, eager)

    def test_rest_frame_states_equal_eager_objects(self, states_read_like):
        wl = circular_worldline(FLAT, radius=1.0, beta=0.5, revolutions=0.3)
        rf = fm.RestFrameState([0.2 + 0.5j, 0.8])
        res = fm.transport_rest_frame(rf, wl, n_samples=101)
        eager = [fm.RestFrameState(m @ rf.psi_tilde) for m in res.propagators]
        states_read_like(res.states, eager)

    @pytest.mark.parametrize("bad_x, bad_u, message", [
        (np.nan, 1.0, "event coordinates must be finite"),
        (0.0, 2.0, "velocity label must be future-pointing")])
    def test_interior_label_checked(self, bad_x, bad_u, message):
        # a bad label at the middle sample only, which nothing reads: the
        # label checks over all samples must still reject the transport
        def position(tau):
            return np.array([tau, bad_x if tau == 0.5 else 0.0, 0.0, 0.0])

        def velocity(tau):
            return np.array([bad_u if tau == 0.5 else 1.0, 0.0, 0.0, 0.0])

        wl = AnalyticWorldline(FLAT, (0.0, 1.0), position, velocity,
                               lambda tau: np.zeros(4))
        assert wl.sample_params()[100] == 0.5
        with pytest.raises(QulineError, match=message):
            fm.transport(flat_rest_state([1.0, 0.0]), wl)
