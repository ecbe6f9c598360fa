import gc
import weakref

import numpy as np
import pytest

from quline import photon as ph
from quline.errors import AdaptationSingular, DomainError, HilbertSpaceMismatch, QulineError
from quline.geometry import Event, apply_local_lorentz, make_builtin_model, parallel_propagator
from quline.measurement import circular_polarizer, linear_polarizer
from quline.spin_algebra import ETA
from quline.worldline import AnalyticWorldline, integrate_null_geodesic

from oracles import gauge_shift, trajectory, transversality

FLAT = make_builtin_model("minkowski", [])


def flat_ray_along(direction, energy=1.0, span=3.0):
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    k0 = energy * np.array([1.0, *d])
    return integrate_null_geodesic(FLAT, np.zeros(4), k0, span=span)


def schwarzschild_ray(r0=15.0, span=22.0, tol=1e-12):
    model = make_builtin_model("schwarzschild", [1.0])
    x0 = np.array([0.0, r0, np.pi / 2, 0.0])
    k_coord = np.array([0.0, -0.35, 0.0, 0.03])
    g = model.metric(x0)
    k_coord[0] = np.sqrt(-(g[1, 1] * k_coord[1] ** 2 + g[3, 3] * k_coord[3] ** 2)
                         / g[0, 0])
    k0 = model.inverse_tetrad(x0) @ k_coord
    return model, integrate_null_geodesic(model, x0, k0, span=span, tol=tol)


def redirect(state, new_wavevector):
    """Mirror-style element: carry the Jones vector onto a new ray direction.

    The polarization content is expressed in the adapted basis of the old
    ray and rebuilt on the new ray's adapted basis at the same event.
    """
    _, jones = ph.adapt(state)
    return ph.jones_to_state(jones, np.asarray(new_wavevector, dtype=float), state.event)


class TestAdaptation:
    def test_along_z_identity(self):
        k = np.array([1.0, 0, 0, 1.0])
        st = ph.PhotonState([0.0, 0.3 + 0.1j, 0.7, 0.0], FLAT.event(0, 0, 0, 0), k)
        ar, jones = ph.adapt(st)
        assert np.abs(ar.rotation - np.eye(4)).max() == 0.0
        assert np.abs(jones - st.pol[1:3]).max() == 0.0

    def test_antiparallel_singular(self):
        k = np.array([1.0, 0, 0, -1.0])
        st = ph.PhotonState([0, 1, 0, 0], FLAT.event(0, 0, 0, 0), k)
        with pytest.raises(AdaptationSingular):
            ph.adapt(st)

    @pytest.mark.parametrize("k", [[1.0, 5e-9, 0.0, 1.0], [1e6, 5e-3, 0.0, 1e6]])
    def test_polarizers_on_a_ray_near_plus_z(self, k):
        # a direction a few nanoradians off +z is adapted by its own rotation,
        # so the diad stays transverse to k and both polarizers can be built
        k = np.array(k)
        ar = ph.adaptation_rotation(k)
        assert np.abs(ar.diad @ ETA @ k).max() == 0.0
        for polarizer in (linear_polarizer(0.0, k), circular_polarizer(1, k)):
            assert abs((ETA @ k) @ polarizer.vector) <= 1e-15 * k[0]

    def test_rotation_standardizes_and_is_orthogonal(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            if d[2] < -0.999:
                continue
            k = np.array([2.0, *(2.0 * d)])
            ar = ph.adaptation_rotation(k)
            out = ar.rotation @ k
            assert np.abs(out - [2.0, 0, 0, 2.0]).max() < 1e-12
            r3 = ar.rotation[1:, 1:]
            assert np.abs(r3 @ r3.T - np.eye(3)).max() < 1e-12
            assert np.abs(ar.rotation[0] - [1, 0, 0, 0]).max() == 0.0
            # diad annihilates u and the tetrad time axis
            assert np.abs(ar.diad @ k).max() < 1e-12
            assert np.abs(ar.diad[:, 0]).max() == 0.0
            assert np.abs(ar.diad @ ar.diad.T - np.eye(2)).max() < 1e-12

    def test_gauge_invariant_jones(self):
        rng = np.random.default_rng(1)
        k = np.array([1.5, 0.9, 0.6, np.sqrt(1.5**2 - 0.9**2 - 0.6**2)])
        pol = np.array([0.0, 1.0, -0.5j, 0.0])
        pol -= (ETA @ k) @ pol / ((ETA @ k) @ k.astype(complex) + 1e-300) * 0  # keep raw
        # make transverse by hand: project onto the diad span
        ar = ph.adaptation_rotation(k)
        pol = ar.diad_inv @ (ar.diad @ pol)
        st = ph.PhotonState(pol, FLAT.event(0, 0, 0, 0), k).normalized()
        _, jones0 = ph.adapt(st)
        for _ in range(100):
            ups = rng.standard_normal() + 1j * rng.standard_normal()
            _, jones = ph.adapt(gauge_shift(st, ups))
            assert np.abs(jones - jones0).max() < 1e-12


class TestInnerProduct:
    def test_linear_basis(self):
        k = np.array([1.0, 0, 0, 1.0])
        ev = FLAT.event(0, 0, 0, 0)
        h = ph.PhotonState([0, 1, 0, 0], ev, k)
        v = ph.PhotonState([0, 0, 1, 0], ev, k)
        assert h.inner(h) == 1
        assert h.inner(v) == 0

    def test_reduces_to_jones_inner_product(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            if d[2] < -0.9:
                continue
            k = np.array([1.0, *d])
            ar = ph.adaptation_rotation(k)
            ja = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            jb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            ev = FLAT.event(0, 0, 0, 0)
            a = ph.PhotonState(ar.diad_inv @ ja, ev, k)
            b = ph.PhotonState(ar.diad_inv @ jb, ev, k)
            # gauge shifts must not change the class inner product
            a2 = gauge_shift(a, 0.3 - 1.1j)
            b2 = gauge_shift(b, -0.8 + 0.2j)
            val = a2.inner(b2)
            assert abs(val - (ja.conj() @ jb)) < 1e-12

    def test_transversality(self):
        # |k_I psi^I|: zero for a transverse polarization and, up to rounding,
        # for a gauge shift of it; |c (0.6 k^0 - 0.8 k^3)| once c (0.6, 0, 0, 0.8)
        # is added
        k = np.array([2.0, 0.0, 1.2, 1.6])
        st = ph.PhotonState([0.0, 1.0, 0.0, 0.0], FLAT.event(0, 0, 0, 0), k)
        assert transversality(st) == 0.0
        assert transversality(gauge_shift(st, 0.3 - 1.1j)) <= 1e-15
        shifted = ph.PhotonState(st.pol + (0.5 + 0.5j) * np.array([0.6, 0.0, 0.0, 0.8]),
                                 st.event, k)
        assert transversality(shifted) == pytest.approx(abs((0.5 + 0.5j) * (1.2 - 1.28)),
                                                         rel=1e-15)

    def test_wavevector_mismatch(self):
        ev = FLAT.event(0, 0, 0, 0)
        a = ph.PhotonState([0, 1, 0, 0], ev, [1.0, 0, 0, 1.0])
        b = ph.PhotonState([0, 1, 0, 0], ev, [2.0, 0, 0, 2.0])
        with pytest.raises(HilbertSpaceMismatch):
            a.inner(b)


class TestTransport:
    def test_flat_ray_constant(self):
        wl = flat_ray_along([0, 0, 1])
        st = ph.PhotonState([0, 1, 1j, 0], wl.start_event, wl.velocity(0.0)).normalized()
        res = ph.transport(st, wl)
        assert np.abs(res.final.pol - st.pol).max() < 1e-12
        assert res.norm_drift < 1e-12

    def test_schwarzschild_angle_vs_transported_diad(self):
        model, wl = schwarzschild_ray()
        ar0 = ph.adaptation_rotation(wl.velocity(0.0))
        d1, d2 = ar0.diad_inv[:, 0], ar0.diad_inv[:, 1]
        angle0 = 0.35
        pol0 = np.cos(angle0) * d1 + np.sin(angle0) * d2
        st = ph.PhotonState(pol0, wl.start_event, wl.velocity(0.0))
        res = ph.transport(st, wl, tol=1e-13)
        end = parallel_propagator(wl, wl.param_span[1:], 1e-13)[0]
        # angle of the polarization against the transported diad is unchanged
        c1 = -((end @ d1) @ ETA @ res.final.pol)
        c2 = -((end @ d2) @ ETA @ res.final.pol)
        angle_end = np.arctan2(np.real(c2), np.real(c1))
        assert abs(angle_end - angle0) < 1e-9
        assert res.audits["transversality_drift"] < 1e-9
        assert res.norm_drift < 1e-9

    def test_gauge_class_transport_consistency(self):
        # shifting the representative before transport shifts nothing physical
        model, wl = schwarzschild_ray(span=10.0)
        ar0 = ph.adaptation_rotation(wl.velocity(0.0))
        pol0 = ar0.diad_inv @ np.array([0.8, 0.6j])
        ev = wl.start_event
        a = ph.PhotonState(pol0, ev, wl.velocity(0.0))
        b = gauge_shift(a, 1.3 - 0.4j)
        ra = ph.transport(a, wl, tol=1e-12)
        rb = ph.transport(b, wl, tol=1e-12)
        _, ja = ph.adapt(ra.final)
        _, jb = ph.adapt(rb.final)
        assert np.abs(ja - jb).max() < 1e-9

    def test_flat_mirror_loop(self):
        # square loop; identity mirrors; the net map is the composed basis
        # change of the redirections, and the transport legs contribute nothing
        dirs = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
                np.array([-1.0, 0, 0]), np.array([0, -1.0, 0])]
        ev = FLAT.event(0, 0, 0, 0)
        k_of = lambda d: np.array([1.0, *d])
        jones0 = np.array([1.0, 0.7j])
        jones0 = jones0 / np.sqrt(abs(jones0 @ jones0.conj()))
        st = ph.jones_to_state(jones0, k_of(dirs[0]), ev)
        pol_start = st.pol.copy()
        for i in range(4):
            wl = integrate_null_geodesic(FLAT, st.event.coords, st.wavevector, span=2.0)
            st = ph.transport(st, wl, tol=1e-13).final
            st = redirect(st, k_of(dirs[(i + 1) % 4]))
        # oracle: compose the four redirection basis changes directly
        comp = np.eye(4)
        for i in range(4):
            f_old = ph.adaptation_rotation(k_of(dirs[i]))
            f_new = ph.adaptation_rotation(k_of(dirs[(i + 1) % 4]))
            comp = (f_new.diad_inv @ f_old.diad) @ comp
        expected = comp @ pol_start
        assert np.abs(st.pol - expected).max() < 1e-10
        # the composed action is unitary on the class: norm preserved
        assert abs(st.norm_squared() - 1.0) < 1e-10


class TestHelicity:
    def test_helicity_preserved_along_transport(self):
        model, wl = schwarzschild_ray()
        ar0 = ph.adaptation_rotation(wl.velocity(0.0))
        jones0 = np.array([0.6, 0.8j])
        st = ph.PhotonState(ar0.diad_inv @ jones0, wl.start_event, wl.velocity(0.0))
        res = ph.transport(st, wl, tol=1e-13)
        h0 = ph.helicity_content(jones0)
        for s in res.states[::25]:
            _, j = ph.adapt(s)
            assert abs(ph.helicity_content(j) - h0) < 1e-9


def adapted_angle_rate(worldline, lam):
    """u^mu omega_{mu 1 2}; the Wigner rate when the tetrad is adapted."""
    omega_low = np.einsum("ik,nkj->nij", ETA, worldline.model.connection(worldline.position(lam)))
    return float(np.einsum("n,n->", worldline.coordinate_velocity(lam), omega_low[:, 1, 2]))


class TestWignerRotation:
    def test_flat_constant_tetrad_zero(self):
        wl = flat_ray_along([0.3, -0.2, 0.8])
        _, angles = ph.wigner_rotation(wl)
        assert np.abs(angles).max() < 1e-10

    def test_adapted_frame_matches_connection_integral(self):
        # rotation-gauged flat model, ray along z: tetrad is adapted all the
        # way and the rate must equal u^mu omega_{mu 1 2}
        rate = 0.21

        def field(coords):
            a = rate * coords[..., 3]
            c, s = np.cos(a), np.sin(a)
            lam = np.zeros(coords.shape[:-1] + (4, 4)) + np.eye(4)
            lam[..., 1, 1] = c
            lam[..., 1, 2] = -s
            lam[..., 2, 1] = s
            lam[..., 2, 2] = c
            return lam

        def jacobian(coords):
            a = rate * coords[..., 3]
            c, s = np.cos(a), np.sin(a)
            d = np.zeros(coords.shape[:-1] + (4, 4, 4))
            d[..., 3, 1, 1] = -s * rate
            d[..., 3, 1, 2] = -c * rate
            d[..., 3, 2, 1] = c * rate
            d[..., 3, 2, 2] = -s * rate
            return d

        model = apply_local_lorentz(FLAT, field, jacobian)
        k0 = np.array([1.0, 0, 0, 1.0])
        wl = integrate_null_geodesic(model, np.zeros(4), k0, span=2.5, tol=1e-13)
        lams, angles = ph.wigner_rotation(wl, tol=1e-12)
        from scipy.integrate import quad
        for lam, phi in zip(lams[::40], angles[::40]):
            expected, _ = quad(lambda s: adapted_angle_rate(wl, s), 0.0, lam,
                               epsabs=1e-13, epsrel=1e-13)
            assert abs(phi - expected) < 1e-9
        # and the transported Jones vector rotates by exactly that angle
        st = ph.jones_to_state([1.0, 0.0], k0, wl.start_event)
        res = ph.transport(st, wl, tol=1e-13)
        _, j_end = ph.adapt(res.final)
        expect = ph.jones_rotation(angles[-1]) @ np.array([1.0, 0.0])
        assert np.abs(j_end - expect).max() < 1e-9

    def test_schwarzschild_matches_full_transport(self):
        model, wl = schwarzschild_ray()
        lams, angles = ph.wigner_rotation(wl, tol=1e-12)
        jones0 = np.array([0.8, -0.6j])
        st = ph.PhotonState(ph.adaptation_rotation(wl.velocity(0.0)).diad_inv @ jones0,
                            wl.start_event, wl.velocity(0.0))
        res = ph.transport(st, wl, tol=1e-13, n_samples=len(lams))
        for i in range(0, len(lams), 25):
            _, j = ph.adapt(res.states[i])
            expect = ph.jones_rotation(angles[i]) @ jones0
            assert np.abs(j - expect).max() < 1e-8

    def test_off_equatorial_schwarzschild_matches_full_transport(self):
        # off the equatorial plane the adapted frame turns: Phi grows to about
        # 0.28 rad, and every sample must agree with parallel transport
        model = make_builtin_model("schwarzschild", [1.0])
        x0 = np.array([0.0, 15.0, 1.1, 0.0])
        k_coord = np.array([0.0, -0.35, 0.02, 0.05])
        g = np.diag(model.metric(x0))
        k_coord[0] = np.sqrt(-(g[1:] @ k_coord[1:] ** 2) / g[0])
        k0 = model.inverse_tetrad(x0) @ k_coord
        wl = integrate_null_geodesic(model, x0, k0, span=22.0, tol=1e-12)
        lams, angles = ph.wigner_rotation(wl, tol=1e-12)
        assert len(lams) == 201 and np.abs(angles).max() > 0.25
        jones0 = np.array([0.8, -0.6j])
        st = ph.PhotonState(ph.adaptation_rotation(k0).diad_inv @ jones0, wl.start_event, k0)
        res = ph.transport(st, wl, tol=1e-13, n_samples=len(lams))
        worst = max(np.abs(ph.adapt(s)[1] - ph.jones_rotation(phi) @ jones0).max()
                    for s, phi in zip(res.states, angles))
        assert worst <= 1e-11


class TestOpticalElements:
    def test_waveplate_in_adapted_basis(self):
        k = np.array([1.0, 0.6, 0.0, 0.8])
        ev = FLAT.event(0, 0, 0, 0)
        st = ph.jones_to_state([1.0, 0.0], k, ev)
        quarter = np.diag([1.0, 1j])
        out = ph.apply_jones(st, quarter)
        _, j = ph.adapt(out)
        assert np.abs(j - [1.0, 0.0]).max() < 1e-12
        out2 = ph.apply_jones(ph.jones_to_state([0, 1.0], k, ev), quarter)
        _, j2 = ph.adapt(out2)
        assert np.abs(j2 - [0.0, 1j]).max() < 1e-12


class TestLazyStates:
    def test_states_equal_eager_objects(self, states_read_like):
        model, wl = schwarzschild_ray(span=8.0)
        k0 = wl.velocity(0.0)
        st = ph.jones_to_state([0.6, 0.8j], k0, wl.start_event)
        res = ph.transport(st, wl, tol=1e-12)
        positions, wavevectors = trajectory(wl, res.params)
        pols = res.propagators @ st.pol
        canonical = pols - (pols[:, 0] / wavevectors[:, 0])[:, None] * wavevectors
        eager = [ph.PhotonState(p, Event(x, model.chart_id), k)
                 for p, x, k in zip(canonical, positions, wavevectors)]
        assert len(eager) == 201
        states_read_like(res.states, eager)

    def test_interior_wavevector_label_checked(self):
        # k is not null at the middle sample only, which nothing reads: the
        # label check over all samples must still reject the transport
        def wavevector(lam):
            return np.array([1.0, 0.0, 0.0, 2.0 if lam == 0.5 else 1.0])

        wl = AnalyticWorldline(FLAT, (0.0, 1.0), lambda lam: np.array([lam, 0.0, 0.0, lam]),
                               wavevector, lambda lam: np.zeros(4), kind="null")
        assert wl.sample_params()[100] == 0.5
        st = ph.PhotonState([0.0, 1.0, 0.0, 0.0], wl.start_event, wavevector(0.0))
        with pytest.raises(QulineError, match=r"wavevector must be future null \(k.k = -3.0\)"):
            ph.transport(st, wl)

    def test_non_finite_sample_position_names_its_row(self):
        # nan at lambda = 0.1 only: a sample of the 11-point grid that no
        # kernel node reads; the sample check names it as a domain error
        def position(lam):
            return np.array([lam, np.nan if lam == 0.1 else 0.0, 0.0, lam])

        k = np.array([1.0, 0.0, 0.0, 1.0])
        wl = AnalyticWorldline(FLAT, (0.0, 1.0), position, lambda lam: k,
                               lambda lam: np.zeros(4), kind="null")
        assert wl.sample_params(11)[1] == 0.1
        st = ph.PhotonState([0.0, 1.0, 0.0, 0.0], wl.start_event, k)
        assert len(ph.transport(st, wl, n_samples=3).states) == 3
        message = r"^event coordinates must be finite, got \[0\.1, nan, 0\.0, 0\.1\]$"
        with pytest.raises(DomainError, match=message):
            ph.transport(st, wl, n_samples=11)


def test_transport_result_is_freed_without_the_cycle_collector():
    """A photon result holds no reference cycle, also after its states are
    read, so it goes with its last reference, with the cyclic collector off."""
    wl = flat_ray_along([0.0, 1.0, 1.0])
    st = ph.jones_to_state([1.0, 0.0], wl.velocity(0.0), wl.start_event)
    enabled = gc.isenabled()
    gc.disable()
    try:
        res = ph.transport(st, wl)
        assert len(res.states[:3]) == 3 and res.final is not None
        ref = weakref.ref(res)
        del res
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
