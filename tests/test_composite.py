import numpy as np
import pytest
from scipy.integrate import solve_ivp

from quline import composite as cp
from quline import fermion as fm
from quline import measurement as ms
from quline import photon as ph
from quline.errors import HilbertSpaceMismatch, QulineError
from quline.fermion import FermionState
from quline.geometry import make_builtin_model
from quline.spin_algebra import spin_half_boost_matrix, velocity_inner_product_matrix
from quline.worldline import (MultiQubitState, Slot, circular_worldline,
                              integrate_null_geodesic, integrate_timelike, static_worldline)

FLAT = make_builtin_model("minkowski", [])
REST = np.array([1.0, 0, 0, 0])
EV = FLAT.event(0, 0, 0, 0)

SINGLET = np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2.0)
TRIPLET0 = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)


def fermion_slot(event, u):
    return Slot(FermionState, event, u)


def rest_pair_state(coeffs):
    slot = fermion_slot(EV, REST)
    return MultiQubitState(coeffs, (slot, slot))


def orthonormal_pair(event, u, rng):
    metric = velocity_inner_product_matrix(u)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a = a / np.sqrt(np.real(a.conj() @ metric @ a))
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = b - (a.conj() @ metric @ b) * a
    b = b / np.sqrt(np.real(b.conj() @ metric @ b))
    return (FermionState(a, event, u), FermionState(b, event, u))


class TestBipartiteInnerProduct:
    def test_singlet_norm(self):
        s = rest_pair_state(SINGLET)
        assert s.inner(s) == pytest.approx(1.0, abs=1e-14)

    def test_singlet_triplet_orthogonal(self):
        s = rest_pair_state(SINGLET)
        t = rest_pair_state(TRIPLET0)
        assert abs(s.inner(t)) < 1e-14

    def test_boosted_labels_match_rest_computation(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            c1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            c2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rest_val = np.einsum("ab,ab->", c1.conj(), c2)
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            b1 = rng.uniform(0, 0.8) * d
            b2 = rng.uniform(0, 0.8) * rng.standard_normal(3)
            b2 /= max(1.0, np.linalg.norm(b2) / 0.8)
            us, halves = [], []
            for beta in (b1, b2):
                g = 1 / np.sqrt(1 - beta @ beta)
                u = g * np.array([1, *beta])
                us.append(u)
                halves.append(spin_half_boost_matrix(u[1:] / u[0]))
            slots = (fermion_slot(EV, us[0]), fermion_slot(EV, us[1]))
            m1 = np.einsum("ac,bd,cd->ab", halves[0], halves[1], c1)
            m2 = np.einsum("ac,bd,cd->ab", halves[0], halves[1], c2)
            s1 = MultiQubitState(m1, slots)
            s2 = MultiQubitState(m2, slots)
            assert abs(s1.inner(s2) - rest_val) < 1e-11

    def test_label_mismatch(self):
        s = rest_pair_state(SINGLET)
        g = 1 / np.sqrt(1 - 0.25)
        slot = fermion_slot(EV, [g, 0.5 * g, 0, 0])
        t = MultiQubitState(SINGLET, (slot, s.slots[1]))
        with pytest.raises(HilbertSpaceMismatch):
            s.inner(t)


def curved_legs():
    model = make_builtin_model("schwarzschild", [1.0])
    wl1 = static_worldline(model, [8.0, np.pi / 2, 0.3], span=6.0)
    wl2 = circular_like_orbit(model, r0=10.0, span=12.0)
    return model, wl1, wl2


def circular_like_orbit(model, r0, span):
    x0 = np.array([0.0, r0, np.pi / 2, 0.0])
    omg = np.sqrt(1.0 / r0**3)
    u_coord = np.array([1.0, 0.0, 0.0, omg])
    g = model.metric(x0)
    u_coord = u_coord / np.sqrt(u_coord @ g @ u_coord)
    u0 = model.inverse_tetrad(x0) @ u_coord
    return integrate_timelike(model, None, x0, u0, span=span, tol=1e-12)


def reference_transport(wl, generator, psi0, tol=1e-13):
    """One state carried by a direct solve of dpsi/dlam = G psi (no propagator)."""
    sol = solve_ivp(lambda lam, y: generator(*wl.kinematics(lam)) @ y, wl.param_span,
                    np.asarray(psi0, dtype=complex), method="RK45", rtol=tol, atol=tol)
    return sol.y[:, -1]


def slot_map(realization, worldline, tol):
    """A slot's map along ``worldline`` and its end slot, read by carrying slot
    0 of a state whose amplitude is the identity on it and a second slot."""
    slot = Slot(realization, worldline.start_event, worldline.velocity(0.0))
    state = MultiQubitState(np.eye(realization.dim), (slot, slot))
    carried = state.carry(0, worldline, tol)
    return carried.amplitude, carried.slots[0]


class TestSingleSolveMaps:
    """Maps built from one propagator solve agree with per-basis-vector transports."""

    def test_fermion_slot_map(self):
        _, _, orbit = curved_legs()
        u_mat, end = slot_map(FermionState, orbit, 1e-12)
        generator = lambda x, u, a, xdot, pulled: fm._covariant_generator(None, 0.0, x, u, a,
                                                                           xdot, pulled)
        for i in range(2):
            col = reference_transport(orbit, generator, np.eye(2)[i])
            assert np.abs(u_mat[:, i] - col).max() < 1e-10
        assert np.abs(end.label - orbit.velocity(orbit.param_span[1])).max() == 0.0

    def test_photon_slot_map(self):
        model = make_builtin_model("schwarzschild", [1.0])
        x0 = np.array([0.0, 15.0, np.pi / 2, 0.0])
        k_coord = np.array([0.0, -0.35, 0.0, 0.03])
        g = model.metric(x0)
        k_coord[0] = np.sqrt(-(g[1, 1] * k_coord[1] ** 2
                               + g[3, 3] * k_coord[3] ** 2) / g[0, 0])
        ray = integrate_null_geodesic(model, x0, model.inverse_tetrad(x0) @ k_coord,
                                      span=10.0, tol=1e-12)
        u_mat, end = slot_map(ph.PhotonState, ray, 1e-12)
        generator = lambda x, u, a, xdot, pulled: -np.tensordot(xdot, model.connection(x), 1)
        for i in range(4):
            pol = reference_transport(ray, generator, np.eye(4)[i])
            col = ph.PhotonState(pol, end.event, end.label).canonical().pol
            assert np.abs(u_mat[:, i] - col).max() < 1e-10

    def test_basis_pair_field(self):
        _, _, orbit = curved_legs()
        pair = orthonormal_pair(orbit.start_event, orbit.velocity(0.0),
                                np.random.default_rng(7))
        field = cp.make_basis_pair_field(pair, orbit, tol=1e-12)
        generator = lambda x, u, a, xdot, pulled: fm._covariant_generator(None, 0.0, x, u, a,
                                                                           xdot, pulled)
        for start, final in zip(pair, field.final):
            assert np.abs(final.psi - reference_transport(orbit, generator,
                                                          start.psi)).max() < 1e-10
            assert final.event.close_to(orbit.event(orbit.param_span[1]), 0.0)


class TestEvolveLocal:
    def test_zero_length_identity(self):
        model, wl1, _ = curved_legs()
        st = MultiQubitState(SINGLET, (fermion_slot(wl1.start_event, wl1.velocity(0.0)),
                                          fermion_slot(EV, REST)))
        from quline.worldline import static_worldline as sw
        tiny = sw(model, [8.0, np.pi / 2, 0.3], span=1e-12)
        out = st.carry(0, tiny)
        assert np.abs(out.amplitude - st.amplitude).max() < 1e-10

    def test_slot_evolution_commutes(self):
        model, wl1, wl2 = curved_legs()
        wl3 = circular_like_orbit(model, r0=14.0, span=10.0)
        rng = np.random.default_rng(1)
        for lines in ((wl1, wl2), (wl1, wl2, wl3)):
            slots = tuple(fermion_slot(wl.start_event, wl.velocity(0.0)) for wl in lines)
            shape = (2,) * len(lines)
            coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            st = MultiQubitState(coeffs, slots)
            st = st.normalized()
            a = b = st
            for slot, wl in enumerate(lines):
                a = a.carry(slot, wl)
            for slot, wl in reversed(list(enumerate(lines))):
                b = b.carry(slot, wl)
            assert np.abs(a.amplitude - b.amplitude).max() < 1e-10
            assert abs(a.norm_squared() - 1.0) < 1e-10

    def test_singlet_form_preserved_under_common_evolution(self):
        # transport generators are traceless: det U = 1, so the antisymmetric
        # coefficient array is exactly preserved
        wl = circular_worldline(FLAT, radius=1.0, beta=0.5, revolutions=0.6)
        slot = fermion_slot(wl.start_event, wl.velocity(0.0))
        st = MultiQubitState(SINGLET, (slot, slot))
        out = st.carry(0, wl).carry(1, wl)
        assert np.abs(out.amplitude - SINGLET).max() < 1e-10

    def test_antisymmetry_preserved(self):
        rng = np.random.default_rng(2)
        wl = circular_worldline(FLAT, radius=1.0, beta=0.4, revolutions=0.5)
        slot = fermion_slot(wl.start_event, wl.velocity(0.0))
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        anti = (a - a.T) / 2
        st = MultiQubitState(anti, (slot, slot))
        out = st.carry(0, wl).carry(1, wl)
        assert np.abs(out.amplitude + out.amplitude.T).max() < 1e-10

    @pytest.mark.parametrize("event, u", [((0.0, 1e-6, 0.0, 0.0), REST),
                                          ((0.0, 0.0, 0.0, 0.0), [1.0, 2e-9, 0.0, 0.0])],
                             ids=["event", "velocity"])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_slot_label_off_the_worldline_start_is_refused(self, event, u, slot):
        wl = static_worldline(FLAT, [0.0, 0.0, 0.0], span=1.0)    # starts at EV, at rest
        slots = [fermion_slot(EV, REST)] * 2
        slots[slot] = fermion_slot(FLAT.event(*event), u)
        with pytest.raises(HilbertSpaceMismatch):
            MultiQubitState(SINGLET, tuple(slots)).carry(slot, wl)


class TestProjectSlot:
    def test_product_state_probability_one(self):
        coeffs = np.outer([1.0, 0.0], [0.6, 0.8])
        st = rest_pair_state(coeffs)
        p_up = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob, post = st.project(p_up, 0)
        assert prob == pytest.approx(1.0, abs=1e-14)
        assert np.abs(post.amplitude - coeffs).max() < 1e-14

    def test_singlet_statistics_and_update(self):
        st = rest_pair_state(SINGLET)
        p_up = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob, post = st.project(p_up, 0)
        assert prob == pytest.approx(0.5, abs=1e-14)
        expected = np.outer([1.0, 0.0], [0.0, 1.0])
        phase = post.amplitude[0, 1]
        assert np.abs(post.amplitude - phase * expected).max() < 1e-14

    def test_zero_probability_flagged(self):
        coeffs = np.outer([1.0, 0.0], [1.0, 0.0])
        st = rest_pair_state(coeffs)
        p_dn = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(QulineError):
            st.project(p_dn, 0)

    def test_projection_commutes_with_other_slot_unitary(self):
        model, wl1, wl2 = curved_legs()
        slots = (fermion_slot(wl1.start_event, wl1.velocity(0.0)),
                 fermion_slot(wl2.start_event, wl2.velocity(0.0)))
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        st = MultiQubitState(coeffs, slots).normalized()
        p_up = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob_a, post_a = st.project(p_up, 0)
        evolved_a = post_a.carry(1, wl2)
        evolved = st.carry(1, wl2)
        prob_b, post_b = evolved.project(p_up, 0)
        assert abs(prob_a - prob_b) < 1e-12
        assert np.abs(evolved_a.amplitude - post_b.amplitude).max() < 1e-10

    def test_no_signalling_marginal(self):
        # slot-2 statistics are untouched by any slot-1 projective measurement
        st = rest_pair_state(SINGLET)
        setup = ms.SternGerlachSetup([0, 0.6, 0.0, 0.8], REST, REST)
        obs, _ = ms.spin_operator(setup)
        iu = velocity_inner_product_matrix(REST)

        def slot2_expectation(state):
            acted = state.amplitude @ obs.operator.T   # apply A on slot 2
            val = np.einsum("ab,ap,bq,pq->", state.amplitude.conj(), iu, iu, acted)
            return np.real(val) / state.norm_squared()

        p_up = np.array([[1.0, 0.0], [0.0, 0.0]])
        p_dn = np.eye(2) - p_up
        total = 0.0
        for p in (p_up, p_dn):
            prob, post = st.project(p, 0)
            total += prob * slot2_expectation(post)
        assert abs(total - slot2_expectation(st)) < 1e-12

    def test_two_slot_projection_on_a_three_slot_state(self):
        # up x v x down projected onto |up down> on slots (0, 2) keeps slot 1,
        # on a boosted label, as it is; the slots' order orders the projector
        boosted = fermion_slot(EV, [1.25, 0.0, 0.75, 0.0])
        coeffs = np.multiply.outer(np.multiply.outer([1.0, 0.0], [0.6, 0.8j]), [0.0, 1.0])
        st = MultiQubitState(coeffs, (fermion_slot(EV, REST), boosted,
                                         fermion_slot(EV, REST))).normalized()
        up_down = np.diag([0.0, 1.0, 0.0, 0.0])
        prob, post = st.project(up_down, 0, 2)
        assert prob == pytest.approx(1.0, abs=1e-14)
        assert np.abs(post.amplitude - st.amplitude).max() < 1e-14
        with pytest.raises(QulineError, match="^projection onto a zero-probability branch$"):
            st.project(up_down, 2, 0)


class TestAmplitudeChecks:
    SLOT = fermion_slot(EV, REST)

    def test_non_finite_amplitude_refused(self):
        with pytest.raises(QulineError, match="^amplitude is not finite$"):
            MultiQubitState([[np.nan, 0.0], [0.0, 1.0]], (self.SLOT, self.SLOT))
        with pytest.raises(QulineError, match="^amplitude is not finite$"):
            rest_pair_state(SINGLET).apply([[np.nan, 0.0], [0.0, 1.0]], 1)

    def test_non_finite_probability_refused(self):
        st = rest_pair_state(SINGLET)
        with pytest.raises(QulineError, match=r"^projection probability is not finite \(nan\)$"):
            st.project(np.full((2, 2), np.nan), 0)
        with pytest.raises(QulineError, match=r"^projection probability is not finite \(nan\)$"):
            rest_pair_state(np.zeros((2, 2))).project(np.eye(2), 1)

    def test_overflowing_norm_normalizes_and_projects(self):
        """An amplitude whose squared norm passes the floats has norm_squared
        inf without a numpy warning (the suite turns RuntimeWarning into an
        error); it is normalized and projected over its largest |entry|."""
        one = MultiQubitState([1e200, 1e200], (self.SLOT,))
        assert one.norm_squared() == np.inf
        np.testing.assert_allclose(one.normalized().amplitude, [2 ** -0.5] * 2, rtol=1e-15)
        prob, post = one.project(np.diag([1.0, 0.0]), 0)
        assert prob == pytest.approx(0.5, rel=1e-15)
        np.testing.assert_allclose(post.amplitude, [1.0, 0.0], rtol=1e-15)
        singlet = rest_pair_state(1e200 * SINGLET)
        up = np.diag([1.0, 0.0])
        prob, post = singlet.project(up, 0)
        want_prob, want = rest_pair_state(SINGLET).project(up, 0)
        assert prob == pytest.approx(want_prob, rel=1e-15)
        np.testing.assert_allclose(post.amplitude, want.amplitude, rtol=1e-15)
        with pytest.raises(QulineError, match="^projection onto a zero-probability branch$"):
            singlet.project(np.kron(up, up), 0, 1)

    def test_overflowing_complex_norm_normalizes_and_projects(self):
        """Complex amplitudes whose squares pass the floats make inf less inf
        in the complex products: norm_squared is still inf without a numpy
        warning, at rest and on a boosted label, and the state is normalized
        and projected over its largest |entry|."""
        rest = FermionState([3e200 + 4e200j, 0.0], EV, REST)
        assert rest.norm_squared() == np.inf
        np.testing.assert_allclose(rest.normalized().amplitude, [0.6 + 0.8j, 0.0], rtol=1e-15)
        boosted = np.array([1.25, 0.0, 0.75, 0.0])
        amplitude = np.array([6e199 - 3e199j, -2e199j])
        moving = FermionState(amplitude, EV, boosted)
        assert moving.norm_squared() == np.inf
        want = FermionState(amplitude * 1e-199, EV, boosted)
        np.testing.assert_allclose(moving.normalized().amplitude, want.normalized().amplitude,
                                   rtol=1e-15)
        up = np.diag([1.0, 0.0])
        prob, post = moving.project(up, 0)
        want_prob, want_post = want.project(up, 0)
        assert prob == pytest.approx(want_prob, rel=1e-15)
        np.testing.assert_allclose(post.amplitude, want_post.amplitude, rtol=1e-15)

    def test_shape_off_the_slots_refused(self):
        with pytest.raises(QulineError, match=r"^amplitude shape \(4,\) does not match the "
                                              r"slots' dims \(2, 2\)$"):
            MultiQubitState(np.ones(4), (self.SLOT, self.SLOT))
        with pytest.raises(QulineError, match=r"^operator shape \(4, 4\) is not \(2, 2\) "
                                              r"for slots \(1,\)$"):
            rest_pair_state(SINGLET).apply(np.eye(4), 1)
        with pytest.raises(QulineError, match=r"^operator shape \(2, 2\) is not \(4, 4\) "
                                              r"for slots \(0, 1\)$"):
            rest_pair_state(SINGLET).project(np.eye(2), 0, 1)


class TestTeleportation:
    def flat_basis_fields(self):
        fields = []
        for x in ((0, 0, 0), (1.0, 0, 0), (0, 1.0, 0)):
            wl = static_worldline(FLAT, list(x), span=2.0)
            pair = (FermionState([1, 0], wl.start_event, wl.velocity(0.0)),
                    FermionState([0, 1], wl.start_event, wl.velocity(0.0)))
            fields.append(cp.make_basis_pair_field(pair, wl))
        return fields

    def curved_basis_fields(self, rng):
        model, wl1, wl2 = curved_legs()
        wl3 = circular_like_orbit(model, r0=14.0, span=10.0)
        fields = []
        for wl in (wl1, wl2, wl3):
            pair = orthonormal_pair(wl.start_event, wl.velocity(0.0), rng)
            fields.append(cp.make_basis_pair_field(pair, wl, tol=1e-13))
        return fields

    def test_flat_phi_plus_identity(self):
        fields = self.flat_basis_fields()
        res = cp.teleport(1.0, 0.0, fields, forced_outcome="phi+")
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)
        assert abs(res.bob_state.inner(fields[2].final[0])) > 1 - 1e-12

    def test_all_outcomes_curved(self):
        rng = np.random.default_rng(4)
        fields = self.curved_basis_fields(rng)
        for _ in range(25):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            alpha, beta = z / np.linalg.norm(z)
            for outcome in cp.BELL_OUTCOMES:
                res = cp.teleport(alpha, beta, fields, forced_outcome=outcome)
                assert abs(res.fidelity - 1.0) < 1e-9
                assert abs(sum(res.probabilities.values()) - 1.0) < 1e-9
                assert abs(res.probabilities[outcome] - 0.25) < 1e-9

    def test_negative_control_outcome_dependent(self):
        rng = np.random.default_rng(5)
        fields = self.curved_basis_fields(rng)
        alpha, beta = 0.6, 0.8
        states = []
        for outcome in cp.BELL_OUTCOMES:
            res = cp.teleport(alpha, beta, fields, forced_outcome=outcome,
                              correct_in_transported_basis=False)
            states.append(res.bob_state)
        dists = []
        for i in range(4):
            for j in range(i + 1, 4):
                ov = abs(states[i].inner(states[j]))
                dists.append(np.sqrt(max(0.0, 1.0 - ov**2)))
        assert max(dists) > 1e-3

    def test_sampled_outcome_reproducible(self):
        fields = self.flat_basis_fields()
        seq1 = [cp.teleport(0.6, 0.8, fields, rng=s).outcome for s in range(12)]
        seq2 = [cp.teleport(0.6, 0.8, fields, rng=s).outcome for s in range(12)]
        assert seq1 == seq2
        assert len(set(seq1)) > 1

    def test_teleport_forms_each_label_metric_once(self, monkeypatch):
        """One call forms the inner-product matrix of each of the three
        labels once, not Bob's once per Bell outcome."""
        fields = self.curved_basis_fields(np.random.default_rng(6))
        formed, metrics = [], FermionState.metrics

        def counted(labels):
            formed.extend(tuple(u.tolist()) for u in labels)
            return metrics(labels)

        monkeypatch.setattr(FermionState, "metrics", staticmethod(counted))
        cp.teleport(0.6, 0.8, fields, forced_outcome="psi-")
        assert formed == [tuple(f.final[0].velocity.tolist()) for f in fields]

    @pytest.mark.parametrize("alpha, beta", [(np.nan, 0.8), (0.6, np.nan), (np.inf, 0.0),
                                             (0.6, 0.6)])
    def test_input_off_the_unit_circle_is_refused(self, alpha, beta):
        fields = self.flat_basis_fields()
        with pytest.raises(QulineError, match=r"^input coefficients must satisfy "
                                              r"\|alpha\|\^2 \+ \|beta\|\^2 = 1$"):
            cp.teleport(alpha, beta, fields, forced_outcome="phi+")
        with pytest.raises(QulineError):
            cp.teleport(alpha, beta, fields)

    def test_unknown_forced_outcome_is_refused(self):
        with pytest.raises(QulineError, match=r"^forced_outcome must be one of phi\+, phi-, "
                                              r"psi\+, psi- \(got 'bogus'\)$"):
            cp.teleport(0.6, 0.8, self.flat_basis_fields(), forced_outcome="bogus")
