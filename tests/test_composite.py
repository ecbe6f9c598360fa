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
from quline.spin_algebra import boost_pair_from_velocity, velocity_inner_product_matrix
from quline.worldline import (circular_worldline, integrate_null_geodesic,
                              integrate_timelike, static_worldline)

FLAT = make_builtin_model("minkowski", [])
REST = np.array([1.0, 0, 0, 0])
EV = FLAT.event(0, 0, 0, 0)

SINGLET = np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2.0)
TRIPLET0 = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)


def rest_pair_state(coeffs):
    label = cp.SlotLabel("fermion", EV, REST)
    return cp.BipartiteState(coeffs, (label, label))


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
        assert cp.bipartite_inner_product(s, s) == pytest.approx(1.0, abs=1e-14)

    def test_singlet_triplet_orthogonal(self):
        s = rest_pair_state(SINGLET)
        t = rest_pair_state(TRIPLET0)
        assert abs(cp.bipartite_inner_product(s, t)) < 1e-14

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
                half, _ = boost_pair_from_velocity(u)
                us.append(u)
                halves.append(half.matrix)
            lab1 = cp.SlotLabel("fermion", EV, us[0])
            lab2 = cp.SlotLabel("fermion", EV, us[1])
            m1 = np.einsum("ac,bd,cd->ab", halves[0], halves[1], c1)
            m2 = np.einsum("ac,bd,cd->ab", halves[0], halves[1], c2)
            s1 = cp.BipartiteState(m1, (lab1, lab2))
            s2 = cp.BipartiteState(m2, (lab1, lab2))
            assert abs(cp.bipartite_inner_product(s1, s2) - rest_val) < 1e-11

    def test_label_mismatch(self):
        s = rest_pair_state(SINGLET)
        g = 1 / np.sqrt(1 - 0.25)
        lab = cp.SlotLabel("fermion", EV, [g, 0.5 * g, 0, 0])
        t = cp.BipartiteState(SINGLET, (lab, s.labels[1]))
        with pytest.raises(HilbertSpaceMismatch):
            cp.bipartite_inner_product(s, t)


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


class TestSingleSolveMaps:
    """Maps built from one propagator solve agree with per-basis-vector transports."""

    def test_fermion_slot_map(self):
        _, _, orbit = curved_legs()
        label = cp.SlotLabel("fermion", orbit.start_event, orbit.velocity(0.0))
        u_mat, end = cp._slot_propagator(label, orbit, 1e-12)
        generator = lambda x, u, a, xdot, pulled: fm._covariant_generator(None, 0.0, x, u, a,
                                                                           xdot, pulled)
        for i in range(2):
            col = reference_transport(orbit, generator, np.eye(2)[i])
            assert np.abs(u_mat[:, i] - col).max() < 1e-10
        assert np.abs(end.velocity - orbit.velocity(orbit.param_span[1])).max() == 0.0

    def test_photon_slot_map(self):
        model = make_builtin_model("schwarzschild", [1.0])
        x0 = np.array([0.0, 15.0, np.pi / 2, 0.0])
        k_coord = np.array([0.0, -0.35, 0.0, 0.03])
        g = model.metric(x0)
        k_coord[0] = np.sqrt(-(g[1, 1] * k_coord[1] ** 2
                               + g[3, 3] * k_coord[3] ** 2) / g[0, 0])
        ray = integrate_null_geodesic(model, x0, model.inverse_tetrad(x0) @ k_coord,
                                      span=10.0, tol=1e-12)
        label = cp.SlotLabel("photon", ray.start_event, ray.velocity(0.0))
        u_mat, end = cp._slot_propagator(label, ray, 1e-12)
        generator = lambda x, u, a, xdot, pulled: -np.tensordot(xdot, model.connection(x), 1)
        for i in range(4):
            pol = reference_transport(ray, generator, np.eye(4)[i])
            col = ph.PhotonState(pol, end.event, end.velocity).canonical().pol
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
        lab1 = cp.SlotLabel("fermion", wl1.start_event, wl1.velocity(0.0))
        lab2 = cp.SlotLabel("fermion", EV, REST)
        st = cp.BipartiteState(SINGLET, (lab1, lab2))
        from quline.worldline import static_worldline as sw
        tiny = sw(model, [8.0, np.pi / 2, 0.3], span=1e-12)
        out = cp.evolve_local(st, 0, tiny)
        assert np.abs(out.coeffs - st.coeffs).max() < 1e-10

    def test_slot_evolution_commutes(self):
        model, wl1, wl2 = curved_legs()
        lab1 = cp.SlotLabel("fermion", wl1.start_event, wl1.velocity(0.0))
        lab2 = cp.SlotLabel("fermion", wl2.start_event, wl2.velocity(0.0))
        rng = np.random.default_rng(1)
        coeffs = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        st = cp.BipartiteState(coeffs, (lab1, lab2))
        st = st.normalized()
        a = cp.evolve_local(cp.evolve_local(st, 0, wl1), 1, wl2)
        b = cp.evolve_local(cp.evolve_local(st, 1, wl2), 0, wl1)
        assert np.abs(a.coeffs - b.coeffs).max() < 1e-10
        assert abs(a.norm_squared() - 1.0) < 1e-10

    def test_singlet_form_preserved_under_common_evolution(self):
        # transport generators are traceless: det U = 1, so the antisymmetric
        # coefficient array is exactly preserved
        wl = circular_worldline(FLAT, radius=1.0, beta=0.5, revolutions=0.6)
        lab = cp.SlotLabel("fermion", wl.start_event, wl.velocity(0.0))
        st = cp.BipartiteState(SINGLET, (lab, lab))
        out = cp.evolve_local(cp.evolve_local(st, 0, wl), 1, wl)
        assert np.abs(out.coeffs - SINGLET).max() < 1e-10

    def test_antisymmetry_preserved(self):
        rng = np.random.default_rng(2)
        wl = circular_worldline(FLAT, radius=1.0, beta=0.4, revolutions=0.5)
        lab = cp.SlotLabel("fermion", wl.start_event, wl.velocity(0.0))
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        anti = (a - a.T) / 2
        st = cp.BipartiteState(anti, (lab, lab))
        out = cp.evolve_local(cp.evolve_local(st, 0, wl), 1, wl)
        assert np.abs(out.coeffs + out.coeffs.T).max() < 1e-10

    @pytest.mark.parametrize("event, u", [((0.0, 1e-6, 0.0, 0.0), REST),
                                          ((0.0, 0.0, 0.0, 0.0), [1.0, 2e-9, 0.0, 0.0])],
                             ids=["event", "velocity"])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_slot_label_off_the_worldline_start_is_refused(self, event, u, slot):
        wl = static_worldline(FLAT, [0.0, 0.0, 0.0], span=1.0)    # starts at EV, at rest
        labels = [cp.SlotLabel("fermion", EV, REST)] * 2
        labels[slot] = cp.SlotLabel("fermion", FLAT.event(*event), u)
        with pytest.raises(HilbertSpaceMismatch):
            cp.evolve_local(cp.BipartiteState(SINGLET, tuple(labels)), slot, wl)


class TestProjectSlot:
    def test_product_state_probability_one(self):
        coeffs = np.outer([1.0, 0.0], [0.6, 0.8])
        st = rest_pair_state(coeffs)
        p_up = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob, post = cp.project_slot(st, 0, p_up)
        assert prob == pytest.approx(1.0, abs=1e-14)
        assert np.abs(post.coeffs - coeffs).max() < 1e-14

    def test_singlet_statistics_and_update(self):
        st = rest_pair_state(SINGLET)
        p_up = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob, post = cp.project_slot(st, 0, p_up)
        assert prob == pytest.approx(0.5, abs=1e-14)
        expected = np.outer([1.0, 0.0], [0.0, 1.0])
        phase = post.coeffs[0, 1]
        assert np.abs(post.coeffs - phase * expected).max() < 1e-14

    def test_zero_probability_flagged(self):
        coeffs = np.outer([1.0, 0.0], [1.0, 0.0])
        st = rest_pair_state(coeffs)
        p_dn = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(QulineError):
            cp.project_slot(st, 0, p_dn)

    def test_projection_commutes_with_other_slot_unitary(self):
        model, wl1, wl2 = curved_legs()
        lab1 = cp.SlotLabel("fermion", wl1.start_event, wl1.velocity(0.0))
        lab2 = cp.SlotLabel("fermion", wl2.start_event, wl2.velocity(0.0))
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        st = cp.BipartiteState(coeffs, (lab1, lab2)).normalized()
        p_up = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob_a, post_a = cp.project_slot(st, 0, p_up)
        evolved_a = cp.evolve_local(post_a, 1, wl2)
        evolved = cp.evolve_local(st, 1, wl2)
        prob_b, post_b = cp.project_slot(evolved, 0, p_up)
        assert abs(prob_a - prob_b) < 1e-12
        assert np.abs(evolved_a.coeffs - post_b.coeffs).max() < 1e-10

    def test_no_signalling_marginal(self):
        # slot-2 statistics are untouched by any slot-1 projective measurement
        st = rest_pair_state(SINGLET)
        setup = ms.SternGerlachSetup([0, 0.6, 0.0, 0.8], REST, REST)
        obs, _ = ms.spin_operator(setup)
        iu = velocity_inner_product_matrix(REST)

        def slot2_expectation(state):
            acted = state.coeffs @ obs.operator.T   # apply A on slot 2
            val = np.einsum("ab,ap,bq,pq->", state.coeffs.conj(), iu, iu, acted)
            return np.real(val) / state.norm_squared()

        p_up = np.array([[1.0, 0.0], [0.0, 0.0]])
        p_dn = np.eye(2) - p_up
        total = 0.0
        for p in (p_up, p_dn):
            prob, post = cp.project_slot(st, 0, p)
            total += prob * slot2_expectation(post)
        assert abs(total - slot2_expectation(st)) < 1e-12


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
        formed = []

        def counted(u):
            formed.append(tuple(u.tolist()))
            return velocity_inner_product_matrix(u)

        monkeypatch.setattr(cp, "velocity_inner_product_matrix", counted)
        cp.teleport(0.6, 0.8, fields, forced_outcome="psi-")
        assert formed == [tuple(f.final[0].velocity.tolist()) for f in fields]
