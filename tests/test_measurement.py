import numpy as np
import pytest

from quline import fermion as fm
from quline import measurement as ms
from quline import photon as ph
from quline.errors import DegenerateSetup, HilbertSpaceMismatch, QulineError
from quline.fermion import FermionState
from quline.geometry import make_builtin_model
from quline.spin_algebra import (EPS4_LOWER, EPS4_UPPER, ETA, PAULI, generator_contraction,
                                 minkowski_dot, spin1_boost, velocity_inner_product_matrix)
from quline.worldline import EMField, integrate_timelike

from oracles import random_local_lorentz

FLAT = make_builtin_model("minkowski", [])
REST = np.array([1.0, 0, 0, 0])
EV = FLAT.event(0, 0, 0, 0)


def rest_setup(direction):
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    return ms.SternGerlachSetup([0.0, *d], REST, REST)


def random_unit_timelike(rng, vmax=0.8):
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)
    beta = rng.uniform(0, vmax) * d
    g = 1 / np.sqrt(1 - beta @ beta)
    return g * np.array([1, *beta])


def random_setup(rng):
    v = random_unit_timelike(rng)
    u = random_unit_timelike(rng)
    # spacelike unit orientation orthogonal to v: take a spatial vector in
    # v's rest frame and boost it
    m_rest = np.array([0.0, *rng.standard_normal(3)])
    m_rest[1:] /= np.linalg.norm(m_rest[1:])
    m = spin1_boost(v[1:] / v[0]) @ m_rest
    return ms.SternGerlachSetup(m, v, u)


class TestSternGerlachSetup:
    def test_near_luminal_apparatus_is_accepted(self):
        # m.m and v.v round by O(gamma^2 eps), far above an absolute 1e-9
        for beta in (0.99999999, 0.999999999):
            g = 1 / np.sqrt(1 - beta**2)
            v = g * np.array([1.0, 0, 0, beta])
            for m in (g * np.array([beta, 0, 0, 1.0]), [0, 1.0, 0, 0]):
                n = ms.SternGerlachSetup(m, v, REST).projectors.axis
                assert abs(minkowski_dot(n, n) + 1.0) < 1e-12

    def test_non_unit_or_nan_orientation_is_refused(self):
        beta = 0.99999999
        g = 1 / np.sqrt(1 - beta**2)
        v = g * np.array([1.0, 0, 0, beta])
        m = g * np.array([beta, 0, 0, 1.0])
        for orientation, velocity in (([0, 0, 0, 1 + 1e-6], REST), (2 * m, v),
                                      ([0, 0, 0, np.nan], REST)):
            with pytest.raises(QulineError, match="unit spacelike"):
                ms.SternGerlachSetup(orientation, velocity, REST)


class TestSternGerlachAxis:
    def test_comoving_axis_is_orientation(self):
        setup = rest_setup([0, 0, 1])
        n = setup.projectors.axis
        assert np.abs(n - [0, 0, 0, 1]).max() < 1e-15

    def test_boost_along_orientation_keeps_direction(self):
        g = 1 / np.sqrt(1 - 0.49)
        u = np.array([g, 0.7 * g, 0, 0])
        setup = ms.SternGerlachSetup([0, 1, 0, 0], REST, u)
        n = setup.projectors.axis
        # spatial part parallel to m; time component enforces n.u = 0
        assert abs(n[2]) < 1e-14 and abs(n[3]) < 1e-14
        assert abs(minkowski_dot(n, u)) < 1e-12
        assert abs(minkowski_dot(n, n) + 1.0) < 1e-12

    def test_generic_orthogonality_and_normalization(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            setup = random_setup(rng)
            n = setup.projectors.axis
            assert abs(minkowski_dot(n, setup.particle_velocity)) < 1e-12
            assert abs(minkowski_dot(n, n) + 1.0) < 1e-12

    def test_nonrelativistic_limit_linear_in_beta(self):
        m = np.array([0.0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0.0])
        errs = []
        betas = [1e-1, 1e-2, 1e-3]
        for b in betas:
            g = 1 / np.sqrt(1 - b * b)
            u = np.array([g, g * b * 0.6, g * b * 0.8, 0.0])
            n = ms.SternGerlachSetup(m, REST, u).projectors.axis
            errs.append(np.abs(n - m).max())
        slopes = np.diff(np.log(errs)) / np.diff(np.log(betas))
        assert np.all(np.abs(slopes - 1.0) < 0.1)

    def test_degenerate_setup(self):
        # a valid (timelike u, unit m) setup never degenerates; the guard
        # fires for the unphysical null-velocity case, built around validation
        setup = ms.SternGerlachSetup.__new__(ms.SternGerlachSetup)
        object.__setattr__(setup, "orientation", np.array([0.0, 1.0, 0.0, 0.0]))
        object.__setattr__(setup, "apparatus_velocity", np.array([1.0, 0, 0, 0]))
        object.__setattr__(setup, "particle_velocity", np.array([1.0, 1.0, 0, 0]))
        with pytest.raises(DegenerateSetup):
            setup.projectors.axis


class TestSpinOperator:
    def test_rest_z_is_sigma_z(self):
        obs, proj = ms.spin_operator(rest_setup([0, 0, 1]))
        assert np.abs(obs.operator - PAULI[3]).max() < 1e-14
        assert np.abs(proj.plus - np.diag([1.0, 0.0])).max() < 1e-14

    def test_rest_x_eigenvectors(self):
        obs, _ = ms.spin_operator(rest_setup([1, 0, 0]))
        vals, vecs = np.linalg.eig(obs.operator)
        order = np.argsort(vals.real)[::-1]
        plus = vecs[:, order[0]]
        plus = plus / plus[0]
        assert np.abs(plus - [1.0, 1.0]).max() < 1e-12

    def test_boosted_spectrum(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            setup = random_setup(rng)
            obs, proj = ms.spin_operator(setup)
            vals = np.sort(np.linalg.eigvals(obs.operator).real)
            assert np.abs(vals - [-1.0, 1.0]).max() < 1e-12
            # I_u-Hermiticity of the operator
            iu = velocity_inner_product_matrix(setup.particle_velocity)
            mat = iu @ obs.operator
            assert np.abs(mat - mat.conj().T).max() < 1e-12

    def test_projector_algebra(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            setup = random_setup(rng)
            _, proj = ms.spin_operator(setup)
            eye = np.eye(2)
            assert np.abs(proj.plus + proj.minus - eye).max() < 1e-12
            assert np.abs(proj.plus @ proj.plus - proj.plus).max() < 1e-12
            assert np.abs(proj.minus @ proj.minus - proj.minus).max() < 1e-12
            assert np.abs(proj.plus @ proj.minus).max() < 1e-12
            iu = velocity_inner_product_matrix(setup.particle_velocity)
            for p in (proj.plus, proj.minus):
                m = iu @ p
                assert np.abs(m - m.conj().T).max() < 1e-12


class TestExpectation:
    def test_rest_up_z(self):
        st = FermionState([1, 0], EV, REST)
        obs, _ = ms.spin_operator(rest_setup([0, 0, 1]))
        assert ms.expectation(st, obs) == pytest.approx(1.0, abs=1e-14)
        obs_x, _ = ms.spin_operator(rest_setup([1, 0, 0]))
        assert ms.expectation(st, obs_x) == pytest.approx(0.0, abs=1e-14)

    def test_boost_everything_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            setup = random_setup(rng)
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            st = FermionState(psi, EV, setup.particle_velocity).normalized()
            obs, _ = ms.spin_operator(setup)
            base = ms.expectation(st, obs)
            lam = random_local_lorentz(rng)
            setup2 = ms.SternGerlachSetup(lam.matrix @ setup.orientation,
                                          lam.matrix @ setup.apparatus_velocity,
                                          lam.matrix @ setup.particle_velocity)
            st2 = FermionState(lam.half @ st.psi, EV, lam.matrix @ st.velocity)
            obs2, _ = ms.spin_operator(setup2)
            assert abs(ms.expectation(st2, obs2) - base) < 1e-12


class TestMeasureSpin:
    def test_eigenstate_probability_one(self):
        st = FermionState([1, 0], EV, REST)
        outcome, post, probs = ms.measure_spin(st, rest_setup([0, 0, 1]), rng=0)
        assert outcome == +1
        assert probs[+1] == pytest.approx(1.0, abs=1e-14)
        assert abs(ms.expectation(post, ms.spin_operator(rest_setup([0, 0, 1]))[0]) - 1) < 1e-12

    def test_cos_half_angle_statistics(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            st = FermionState(psi, EV, REST).normalized()
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            _, _, probs = ms.measure_spin(st, rest_setup(d), rng=1)
            # brute-force 2x2 oracle: eigenvectors of d.pauli
            nsig = np.einsum("i,iab->ab", d, PAULI[1:])
            vals, vecs = np.linalg.eigh(nsig)
            p_plus = abs(vecs[:, np.argmax(vals)].conj() @ st.psi) ** 2
            assert abs(probs[+1] - p_plus) < 1e-12
            # and the closed form through the spin direction
            spin_dir = np.array([(st.psi.conj() @ PAULI[i + 1] @ st.psi).real
                                 for i in range(3)])
            spin_dir /= np.linalg.norm(spin_dir)
            theta = np.arccos(np.clip(d @ spin_dir, -1, 1))
            assert abs(probs[+1] - np.cos(theta / 2.0) ** 2) < 1e-12

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            setup = random_setup(rng)
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            st = FermionState(psi, EV, setup.particle_velocity).normalized()
            _, _, probs = ms.measure_spin(st, setup, rng=2)
            assert abs(probs[+1] + probs[-1] - 1.0) < 1e-12

    def test_seeded_reproducibility(self):
        st = FermionState([0.6, 0.8], EV, REST)
        setup = rest_setup([0, 0, 1])
        seq1 = [ms.measure_spin(st, setup, rng=seed)[0] for seed in range(40)]
        seq2 = [ms.measure_spin(st, setup, rng=seed)[0] for seed in range(40)]
        assert seq1 == seq2
        assert len(set(seq1)) == 2  # both outcomes occur for a tilted state

    def test_label_mismatch(self):
        g = 1 / np.sqrt(1 - 0.25)
        st = FermionState([1, 0], EV, [g, 0.5 * g, 0, 0])
        with pytest.raises(HilbertSpaceMismatch):
            ms.measure_spin(st, rest_setup([0, 0, 1]), rng=0)


def device_field(setup):
    """F_IJ = eps_IJKL v^K m^L: the device's field, purely magnetic along m
    in the device's rest frame."""
    return np.einsum("ijkl,k,l->ij", EPS4_LOWER, setup.apparatus_velocity, setup.orientation)


def field_strength(setup):
    """|B^rest| in closed form: the boosted unit field b = m (v.u) - v (m.u)
    has -b.b = (v.u)^2 - (m.u)^2."""
    m, v, u = setup.orientation, setup.apparatus_velocity, setup.particle_velocity
    return np.sqrt(minkowski_dot(v, u) ** 2 - minkowski_dot(m, u) ** 2)


def boosted_field_axis(setup):
    """The unit rest-frame field direction b / |b| from the closed form."""
    m, v, u = setup.orientation, setup.apparatus_velocity, setup.particle_velocity
    return (m * minkowski_dot(v, u) - v * minkowski_dot(m, u)) / field_strength(setup)


# (model, start, initial tetrad velocity) of one short timelike geodesic each
TIE_GEODESICS = {
    "minkowski": (FLAT, [0.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.1]),
    "rindler": (make_builtin_model("rindler", [0.5]), [0.0, 0.0, 0.0, 0.2], [0.1, 0.2, 0.4]),
    "schwarzschild": (make_builtin_model("schwarzschild", [1.0]), [0.0, 8.0, np.pi / 2, 0.0],
                      [0.05, 0.0, 0.35]),
}


class TestTransportTie:
    """The Stern-Gerlach operator is the spin transport's own magnetic term."""

    @pytest.mark.parametrize("family", TIE_GEODESICS)
    def test_operator_and_axis_are_the_rest_frame_field(self, family):
        # gc(B^rest) / |B^rest| with B^rest by the transport's formula is S, and
        # its unit dual eps^IJKL u_J B_KL / (2 |B|) is the reported axis
        model, x0, beta = TIE_GEODESICS[family]
        wl = integrate_timelike(model, None, x0, spin1_boost(beta)[:, 0], span=2.0, tol=1e-12)
        rng = np.random.default_rng(11)
        for u in wl.velocity(np.linspace(0.0, 2.0, 5)):
            for _ in range(10):
                device = random_local_lorentz(rng).matrix
                setup = ms.SternGerlachSetup(device[:, 1], device[:, 0], u)
                b_rest = fm._rest_frame_magnetic(u, device_field(setup))
                strength = field_strength(setup)
                dual = 0.5 * np.einsum("ijkl,j,kl->i", EPS4_UPPER, ETA @ u, b_rest)
                obs, proj = ms.spin_operator(setup)
                assert np.abs(generator_contraction(b_rest) / strength
                              - obs.operator).max() <= 1e-14
                assert np.abs(dual / strength - setup.projectors.axis).max() <= 1e-14
                assert np.abs(proj.axis - obs.direction).max() == 0.0
                # and both are the closed forms, to the label's own unit norm:
                # an integrated label meets u.u = 1 to the solver tolerance
                n = boosted_field_axis(setup)
                assert np.abs(obs.direction - n).max() <= 1e-11
                spin = -2j * generator_contraction(np.outer(ETA @ u, ETA @ n))
                assert np.abs(obs.operator - spin).max() <= 1e-11

    def test_device_field_precesses_without_mixing_the_outcomes(self):
        # along an inertial line through the device's constant field the
        # generator is -(i/2)(q/m) |B| S, so the end map keeps each eigenstate
        # of S and turns their relative phase by (q/m) |B| tau
        charge_to_mass, tau = 0.7, 2.5
        device = random_local_lorentz(12).matrix
        u = spin1_boost([0.2, -0.1, 0.3])[:, 0]
        setup = ms.SternGerlachSetup(device[:, 1], device[:, 0], u)
        field = device_field(setup)
        wl = integrate_timelike(FLAT, None, [0.0, 0.0, 0.0, 0.0], u, span=tau, tol=1e-12)
        st = FermionState([0.6, 0.8j], wl.start_event, u)
        res = fm.transport(st, wl, em=EMField(lambda x: field),
                           charge_to_mass=charge_to_mass, tol=1e-12)
        end = res.propagators[-1]
        _, proj = ms.spin_operator(setup)
        assert np.abs(proj.plus @ end @ proj.minus).max() <= 1e-12
        assert np.abs(proj.minus @ end @ proj.plus).max() <= 1e-12
        # P+- are rank one, so end P+- = lambda+- P+- with lambda+- = tr(end P+-)
        plus, minus = np.trace(end @ proj.plus), np.trace(end @ proj.minus)
        assert abs(abs(plus) - 1.0) <= 1e-12 and abs(abs(minus) - 1.0) <= 1e-12
        turn = charge_to_mass * field_strength(setup) * tau
        assert abs(minus / plus - np.exp(1j * turn)) <= 1e-12


KZ = np.array([1.0, 0, 0, 1.0])


class TestPolarizers:
    def test_transmit_self(self):
        pol = ms.linear_polarizer(0.7, KZ)
        st = ph.PhotonState(pol.vector, EV, KZ)
        assert ms.polarizer_probability(st, pol) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_blocked(self):
        pol = ms.linear_polarizer(0.0, KZ)
        st = ph.jones_to_state([0.0, 1.0], KZ, EV)
        assert ms.polarizer_probability(st, pol) == pytest.approx(0.0, abs=1e-14)

    def test_malus_law(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            if d[2] < -0.9:
                continue
            k = np.array([1.0, *d])
            a1, a2 = rng.uniform(0, 2 * np.pi, 2)
            st = ph.jones_to_state([np.cos(a1), np.sin(a1)], k, EV)
            pol = ms.linear_polarizer(a2, k)
            assert abs(ms.polarizer_probability(st, pol)
                       - np.cos(a1 - a2) ** 2) < 1e-12

    def test_circular_decomposition(self):
        pol = ms.circular_polarizer(+1, KZ)
        p1 = pol.vector * np.sqrt(2.0)
        re, im = p1.real, p1.imag
        assert abs(re @ ETA @ im) < 1e-14
        assert abs(-(re @ ETA @ re) - 1) < 1e-14
        assert abs(-(im @ ETA @ im) - 1) < 1e-14

    def test_gauge_invariance(self):
        rng = np.random.default_rng(8)
        st = ph.jones_to_state([0.6, 0.8j], KZ, EV)
        pol = ms.linear_polarizer(0.3, KZ)
        base = ms.polarizer_probability(st, pol)
        for _ in range(100):
            ups = rng.standard_normal() + 1j * rng.standard_normal()
            shifted = st.gauge_shift(ups)
            kappa = rng.standard_normal() + 1j * rng.standard_normal()
            pol2 = ms.PolarizerVector.__new__(ms.PolarizerVector)
            object.__setattr__(pol2, "vector", pol.vector + kappa * KZ.astype(complex))
            object.__setattr__(pol2, "wavevector", KZ)
            assert abs(ms.polarizer_probability(shifted, pol2) - base) < 1e-12

    def test_measure_polarization_update(self):
        pol = ms.linear_polarizer(0.25, KZ)
        st = ph.jones_to_state([1.0, 0.0], KZ, EV)
        transmitted, post, p = ms.measure_polarization(st, pol, rng=3)
        assert 0.0 <= p <= 1.0
        if transmitted:
            assert np.abs(post.pol - pol.vector).max() < 1e-14

    def test_frame_invariance_of_probability(self):
        # re-express photon and polarizer through a common Lorentz rotation
        rng = np.random.default_rng(9)
        st = ph.jones_to_state([0.6, 0.8j], KZ, EV)
        pol = ms.linear_polarizer(1.1, KZ)
        base = ms.polarizer_probability(st, pol)
        for _ in range(100):
            lam = random_local_lorentz(rng).matrix
            k2 = lam @ KZ
            st2 = ph.PhotonState(lam @ st.pol, EV, k2)
            p2 = ms.PolarizerVector(lam @ pol.vector, k2)
            assert abs(ms.polarizer_probability(st2, p2) - base) < 1e-12
