import math
import warnings
from functools import partial

import mpmath as mp
import numpy as np
import pytest

from quline import fermion, photon
from quline import worldline as wld
from quline.errors import ComplexVelocity, DomainError, QulineError, ToleranceError
from quline.geometry import (_STENCIL, DEFAULT_FD_STEP, _stencil_derivative,
                             apply_local_lorentz, make_builtin_model, pulled_connection)
from quline.spin_algebra import minkowski_dot, product_bound

from oracles import trajectory


@pytest.fixture(scope="module")
def flat():
    return make_builtin_model("minkowski", [])


def killing_energy(worldline, xi, mass=1.0):
    """E = p_mu xi^mu at 201 samples for a declared Killing field xi (coordinate
    components, callable of coords or a constant vector)."""
    xi_fn = xi if callable(xi) else (lambda c, _v=np.asarray(xi, dtype=float): _v)
    params = worldline.sample_params()
    positions = worldline.position(params)
    velocities = worldline.coordinate_velocity(params)
    energies = np.empty_like(params)
    for i, (x, v) in enumerate(zip(positions, velocities)):
        energies[i] = mass * worldline.model.lower_coordinate(x, v) @ xi_fn(x)
    return params, energies


class TestTimelike:
    def test_free_particle_straight(self, flat):
        g = 1 / np.sqrt(1 - 0.09)
        u0 = np.array([g, 0.3 * g, 0, 0])
        wl = wld.integrate_timelike(flat, None, np.zeros(4), u0, span=4.0)
        for tau in wl.sample_params(20):
            assert np.abs(wl.position(tau) - u0 * tau).max() < 1e-10
            assert np.abs(wl.acceleration(tau)).max() == 0.0

    def test_cyclotron_against_closed_form(self, flat):
        # u1 + i u2 = gamma beta exp(-i omega tau), omega = (e/m) B
        beta, b_field, q2m = 0.6, 0.8, 1.3
        gamma = 1 / np.sqrt(1 - beta**2)
        omega = q2m * b_field
        em = wld.constant_magnetic_field([0, 0, b_field])
        u0 = np.array([gamma, gamma * beta, 0, 0])
        wl = wld.integrate_timelike(flat, em, np.zeros(4), u0, charge_to_mass=q2m,
                                    span=7.0, tol=1e-12)
        for tau in wl.sample_params(40):
            u = wl.velocity(tau)
            expect = gamma * beta * np.exp(-1j * omega * tau)
            assert abs((u[1] + 1j * u[2]) - expect) < 1e-9
            speed = np.linalg.norm(u[1:]) / u[0]
            assert abs(speed - beta) < 1e-9

    def test_helical_speed_constant(self, flat):
        em = wld.constant_magnetic_field([0, 0, 1.0])
        beta_xy, beta_z = 0.4, 0.3
        g = 1 / np.sqrt(1 - beta_xy**2 - beta_z**2)
        u0 = g * np.array([1.0, beta_xy, 0.0, beta_z])
        wl = wld.integrate_timelike(flat, em, np.zeros(4), u0, charge_to_mass=0.7,
                                    span=9.0, tol=1e-12)
        for tau in wl.sample_params(30):
            u = wl.velocity(tau)
            assert abs(np.linalg.norm(u[1:]) / u[0] - np.sqrt(beta_xy**2 + beta_z**2)) < 1e-9
            assert abs(u[3] - g * beta_z) < 1e-9  # B does no work along its axis

    def test_rindler_static_acceleration(self):
        g_acc = 0.7
        model = make_builtin_model("rindler", [g_acc])
        for z in (0.0, 0.5, 2.0):
            wl = wld.static_worldline(model, [0, 0, z], span=3.0)
            a = wl.acceleration(1.0)
            assert abs(np.sqrt(-minkowski_dot(a, a)) - g_acc / (1 + z * g_acc)) < 1e-12
            assert abs(minkowski_dot(a, wl.velocity(1.0))) < 1e-12

    def test_normalization_preserved(self, flat):
        em = wld.constant_magnetic_field([0.3, 0.2, 1.0])
        g = 1 / np.sqrt(1 - 0.25)
        wl = wld.integrate_timelike(flat, em, np.zeros(4), [g, 0, 0.5 * g, 0],
                                    charge_to_mass=2.0, span=10.0, tol=1e-12)
        assert wl.norm_audit() < 1e-9

    def test_rejects_bad_input(self, flat):
        with pytest.raises(QulineError):
            wld.integrate_timelike(flat, None, np.zeros(4), [1.0, 0.5, 0, 0], span=1.0)
        with pytest.raises(QulineError):
            wld.integrate_timelike(flat, None, np.zeros(4), [1, 0, 0, 0], span=-2.0)

    @pytest.mark.parametrize("em", [None, wld.constant_magnetic_field([0, 0, 1])],
                             ids=["free", "charged"])
    def test_overflowing_rates_are_a_domain_error(self, em):
        """Rates past the largest float (M / r**2 at r = 1e300) end in one
        DomainError naming the parameter, with or without a Lorentz force."""
        model = make_builtin_model("schwarzschild", [1.0])
        with pytest.raises(DomainError, match=r"^schwarzschild: trajectory rates overflow at "
                                              r"parameter 0\.0$"):
            wld.integrate_timelike(model, em, [0, 1e300, np.pi / 2, 0], [1, 0, 0, 0],
                                   charge_to_mass=1.0)

    def test_time_reversal(self):
        model = make_builtin_model("schwarzschild", [1.0])
        x0 = np.array([0.0, 12.0, np.pi / 2, 0.3])
        u0 = model.inverse_tetrad(x0) @ np.array([1 / np.sqrt(1 - 2 / 12.0), 0, 0, 0])
        tol = 1e-11
        fwd = wld.integrate_timelike(model, None, x0, u0, span=5.0, tol=tol)
        xe = fwd.position(5.0)
        ue = fwd.velocity(5.0)
        # run the reversed trajectory: flip spatial velocity components sign of u
        back = wld.integrate_timelike(model, None, xe, np.array([ue[0], *(-ue[1:])]),
                                      span=5.0, tol=tol)
        xb = back.position(5.0)
        assert np.abs(xb[1:] - x0[1:]).max() < 10 * tol * 1e3

    @pytest.mark.parametrize("case", ["rindler_fall", "schwarzschild_orbit"])
    def test_convergence_order_at_least_4(self, case):
        # loose tolerance + max_step cap makes the adaptive pair behave like a
        # fixed-step scheme; errors against a tight reference must drop at
        # 4th order or better under step halving
        if case == "rindler_fall":
            model = make_builtin_model("rindler", [0.5])
            x0 = np.zeros(4)
            u0 = model.inverse_tetrad(x0) @ np.array([1.0, 0, 0, 0])
            span, steps = 1.6, [0.2, 0.1, 0.05, 0.025]
        else:
            # eccentric orbit: circular-orbit tetrad components are linear in
            # proper time and integrate exactly, so perturb radially
            model = make_builtin_model("schwarzschild", [1.0])
            x0 = np.array([0.0, 8.0, np.pi / 2, 0.0])
            omg = np.sqrt(1.0 / 8.0**3)
            u_coord = np.array([1.0, 0.05, 0.0, 0.9 * omg])
            u0 = model.inverse_tetrad(x0) @ u_coord
            g = model.metric(x0)
            u_coord[0] = np.sqrt((1 - g[1, 1] * u_coord[1] ** 2
                                  - g[3, 3] * u_coord[3] ** 2) / g[0, 0])
            u0 = model.inverse_tetrad(x0) @ u_coord
            span, steps = 40.0, [2.0, 1.0, 0.5, 0.25]
        ref = wld.integrate_timelike(model, None, x0, u0, span=span, tol=1e-13)
        # the stepper alone: at tol 10 its labels drift past the label rule,
        # which an integrated worldline must meet
        rates = wld._trajectory_rates(model, None)
        errs = []
        for h in steps:
            ts, ys, _ = wld._dop853(rates, 0.0, np.concatenate([x0, u0]), span, 10.0, h)
            assert ts[-1] == span
            errs.append(np.abs(ys[-1, :4] - ref.position(span)).max())
        slopes = np.diff(np.log(errs)) / np.diff(np.log(steps))
        assert slopes.mean() >= 4.0


class TestNullGeodesics:
    def test_flat_straight_ray(self, flat):
        k0 = np.array([2.0, 0.0, 2.0, 0.0])
        wl = wld.integrate_null_geodesic(flat, np.zeros(4), k0, span=3.0)
        for lam in wl.sample_params(10):
            assert np.abs(wl.position(lam) - k0 * lam).max() < 1e-12

    def test_rejects_non_null(self, flat):
        with pytest.raises(QulineError):
            wld.integrate_null_geodesic(flat, np.zeros(4), [1.0, 0.9, 0, 0], span=1.0)

    def test_rejects_past_pointing(self, flat):
        with pytest.raises(QulineError, match="future-pointing"):
            wld.integrate_null_geodesic(flat, np.zeros(4), [-1.0, 0.0, 0.0, -1.0], span=1.0)

    def test_schwarzschild_conserved_quantities(self):
        model = make_builtin_model("schwarzschild", [1.0])
        x0 = np.array([0.0, 15.0, np.pi / 2, 0.0])
        k_coord = np.array([0.0, -0.4, 0.0, 0.015])
        g = model.metric(x0)
        k_coord[0] = np.sqrt(-(g[1, 1] * k_coord[1] ** 2 + g[3, 3] * k_coord[3] ** 2)
                             / g[0, 0])
        k0 = model.inverse_tetrad(x0) @ k_coord
        wl = wld.integrate_null_geodesic(model, x0, k0, span=25.0, tol=1e-12)
        _, energy = killing_energy(wl, [1.0, 0, 0, 0])
        _, ang = killing_energy(wl, [0.0, 0, 0, 1.0])
        impact = ang / energy
        assert np.abs(energy - energy[0]).max() < 1e-9 * abs(energy[0])
        assert np.abs(impact - impact[0]).max() < 1e-9 * (1 + abs(impact[0]))
        assert wl.norm_audit() < 1e-9

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e5, 1e100, 1e150])
    def test_wavevector_scale_is_not_physical(self, scale):
        """The ray with k scaled by s and its span by 1/s is the same curve: it
        ends where the s = 1 ray ends, within the integration tolerance, with
        no warning, up to a scale whose squares are near the largest float."""
        model = make_builtin_model("schwarzschild", [1.0])
        x0, k0 = [0.0, 15.0, np.pi / 2, 0.0], np.array([1.0, -0.6, 0.0, 0.8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ray = wld.integrate_null_geodesic(model, x0, scale * k0, span=2.0 / scale)
            end = ray.event(ray.param_span[1]).coords
        unit = wld.integrate_null_geodesic(model, x0, k0, span=2.0)
        want = unit.event(unit.param_span[1]).coords
        np.testing.assert_allclose(end, want, rtol=0.0, atol=1e-11)

    def test_rindler_ray_matches_mapped_flat_ray(self):
        # Minkowski ray T = X = lam maps to t = artanh(g lam)/g, x = lam,
        # z = (sqrt(1 - g^2 lam^2) - 1)/g in the accelerated chart
        g_acc = 0.2
        model = make_builtin_model("rindler", [g_acc])
        x0 = np.zeros(4)
        k0 = np.array([1.0, 1.0, 0.0, 0.0])
        span = 2.0
        wl = wld.integrate_null_geodesic(model, x0, k0, span=span, tol=1e-13)
        # the chart parameterization differs; compare x and z at equal t
        for lam_flat in np.linspace(0.05, 0.95 * np.tanh(g_acc * span) / g_acc, 12):
            t_r = np.arctanh(g_acc * lam_flat) / g_acc
            x_expect = lam_flat
            z_expect = (np.sqrt(1 - (g_acc * lam_flat) ** 2) - 1) / g_acc
            # invert wl: find parameter where t(lam) = t_r
            from scipy.optimize import brentq
            lam_w = brentq(lambda s: wl.position(s)[0] - t_r, 0, span, xtol=1e-14)
            pos = wl.position(lam_w)
            assert abs(pos[1] - x_expect) < 1e-8
            assert abs(pos[3] - z_expect) < 1e-8


def drifting(dense_solution, delta, span):
    """``_dense_solution`` whose reads have (u^0)^2, and so u.u, moved by
    delta lam / span: a label that drifts from the start to the span end."""
    def solution(ts, ys, K, rates):
        dense = dense_solution(ts, ys, K, rates)

        def read(lam):
            y = dense(lam).copy()
            y[..., 4] = np.sqrt(y[..., 4] ** 2 + delta * np.asarray(lam) / span)
            return y

        return read

    return solution


class TestOneLabelRule:
    """An integrated worldline is judged by ``check_norm`` on the labels its
    transports read, the 201 ``samples``: |u.u - 1| <= 1e-9 + 64 eps E for a
    velocity, |k.k| <= (1e-9 + 64 eps) E for a wavevector, E the Euclidean
    square.  The trajectory tolerance and span widen nothing."""

    @pytest.mark.parametrize("kind, u0, span, tol", [
        ("timelike", [1.0, 0.0, 0.0, 0.0], 1.0, 1e-13),               # the 1e-9 floor
        ("timelike", [1.25, 0.75, 0.0, 0.0], 3.0, 1e-6),              # tol * span adds nothing
        ("timelike", [100.0, math.sqrt(9999.0), 0.0, 0.0], 1.0, 1e-11),   # 64 eps E, E ~ 2e4
        ("null", [2.0, 0.0, 1.2, 1.6], 2.0, 1e-11),                   # k0 = 2: E = 8
    ], ids=["timelike_floor", "timelike_loose_tol", "timelike_fast", "null_k0_2"])
    @pytest.mark.parametrize("fraction", [0.99, 1.01], ids=["inside", "past"])
    def test_drift_is_judged_by_check_norm(self, flat, monkeypatch, kind, u0, span, tol,
                                           fraction):
        u0 = np.array(u0)
        norm = 1.0 if kind == "timelike" else 0.0
        e = float(u0 @ u0)
        bound = product_bound(e) if kind == "timelike" else product_bound(1.0) * e
        # the end label's u.u sits at fraction * bound from its target
        delta = fraction * bound - (minkowski_dot(u0, u0) - norm)
        monkeypatch.setattr(wld, "_dense_solution", drifting(wld._dense_solution, delta, span))
        if kind == "null":
            integrate = partial(wld.integrate_null_geodesic, flat, np.zeros(4), u0)
        else:
            integrate = partial(wld.integrate_timelike, flat, None, np.zeros(4), u0)
        if fraction < 1.0:
            wl = integrate(span=span, tol=tol)
            assert wl.norm_audit() == pytest.approx(fraction * bound, rel=1e-2)
            return
        s = "u" if kind == "timelike" else "k"
        with pytest.raises(ToleranceError,
                           match=rf"^{kind} velocity label drifted during integration "
                                 rf"\({s}\.{s} = ") as info:
            integrate(span=span, tol=tol)
        assert info.value.achieved == pytest.approx(fraction * bound, rel=1e-2)


class TestKillingEnergy:
    def test_rindler_free_fall_energy_constant(self):
        model = make_builtin_model("rindler", [0.5])
        x0 = np.array([0.0, 0.0, 0.0, 1.0])
        u0 = model.inverse_tetrad(x0) @ np.array([1.0 / np.sqrt(model.metric(x0)[0, 0]), 0, 0, 0])
        wl = wld.integrate_timelike(model, None, x0, u0, span=1.5, tol=1e-12)
        _, energy = killing_energy(wl, [1.0, 0, 0, 0], mass=2.0)
        assert np.abs(energy - energy[0]).max() < 1e-9 * abs(energy[0])

    def test_minkowski_geodesic_energy(self, flat):
        g = 1 / np.sqrt(1 - 0.49)
        wl = wld.integrate_timelike(flat, None, np.zeros(4), [g, 0.7 * g, 0, 0], span=2.0)
        _, energy = killing_energy(wl, [1.0, 0, 0, 0], mass=3.0)
        assert np.abs(energy - 3.0 * g).max() < 1e-9

    def test_one_read_matches_the_per_sample_loop(self):
        """Positions and coordinate velocities are read in one array call each;
        every energy is that of the per-sample evaluation, bit for bit."""
        model = make_builtin_model("schwarzschild", [1.0])
        x0 = np.array([0.0, 10.0, np.pi / 2, 0.3])
        u_coord = np.array([1.0, 0.01, 0.0, 1.05 / 10.0**1.5])
        u_coord /= np.sqrt(u_coord @ model.metric(x0) @ u_coord)
        wl = wld.integrate_timelike(model, None, x0, model.inverse_tetrad(x0) @ u_coord,
                                    span=60.0, tol=1e-12)
        for xi in ([1.0, 0.0, 0.0, 0.0], lambda c: np.array([1.0, 0.0, 0.0, c[1]])):
            xi_fn = xi if callable(xi) else (lambda c: np.asarray(xi))
            params, energy = killing_energy(wl, xi, mass=2.0)
            want = []
            for lam in params:
                x = wl.position(lam)
                lowered = 2.0 * model.lower_coordinate(x, wl.coordinate_velocity(lam))
                want.append(lowered @ xi_fn(x))
            np.testing.assert_array_equal(energy, want)

    def test_speed_from_energy_conservation(self):
        v1, dz, g_acc = 0.3, 0.1, 0.2
        v2 = wld.rindler_speed_at_height(v1, dz, g_acc)
        g00 = (1 + dz * g_acc) ** 2
        gamma1 = 1 / np.sqrt(1 - v1**2)
        gamma2 = 1 / np.sqrt(g00 - v2**2)
        assert abs(gamma2 * g00 - gamma1) < 1e-12
        with pytest.raises(ComplexVelocity):
            wld.rindler_speed_at_height(0.01, 10.0, 1.0)

    def test_speed_at_height_over_arrays(self):
        dz = np.array([0.0, 0.05, 0.1, 0.15])
        v2 = wld.rindler_speed_at_height(0.3, dz, 0.2)
        assert v2.tolist() == [wld.rindler_speed_at_height(0.3, float(d), 0.2) for d in dz]
        with pytest.raises(ComplexVelocity, match="dz=3.0"):
            wld.rindler_speed_at_height(0.3, np.array([0.1, 3.0, 5.0]), 0.2)


class TestPrescribedWorldlines:
    def test_circular_orbit_normalization(self, flat):
        wl = wld.circular_worldline(flat, radius=2.0, beta=0.5, revolutions=1.0)
        assert wl.norm_audit() < 1e-12
        tau_rev = 2 * np.pi * 2.0 / (0.5 / np.sqrt(1 - 0.25))
        assert wl.param_span[1] == pytest.approx(tau_rev)
        # proper acceleration magnitude gamma^2 beta^2 / R
        a = wl.acceleration(0.3)
        g = 1 / np.sqrt(1 - 0.25)
        assert abs(np.sqrt(-minkowski_dot(a, a)) - g**2 * 0.25 / 2.0) < 1e-12

    def test_sampled_round_trip(self, flat):
        # an integrated orbit replayed from 400 of its samples
        em = wld.constant_magnetic_field([0, 0, 1.0])
        g = 1 / np.sqrt(1 - 0.36)
        wl = wld.integrate_timelike(flat, em, np.zeros(4), [g, 0.6 * g, 0, 0],
                                    charge_to_mass=1.0, span=3.0, tol=1e-12)
        params = wl.sample_params(400)
        back = wld.SampledWorldline(flat, params, *wl.kinematics(params)[:3])
        for tau in np.linspace(0.1, 2.9, 7):
            assert np.abs(back.position(tau) - wl.position(tau)).max() < 1e-8
            assert np.abs(back.velocity(tau) - wl.velocity(tau)).max() < 1e-8

    def test_sampled_of_one_sample_has_an_empty_span(self, flat):
        wl = wld.static_worldline(flat, [0.0, 0.0, 0.0], 1.0)
        params = wl.sample_params(1)
        with pytest.raises(DomainError, match="span is empty"):
            wld.SampledWorldline(flat, params, *wl.kinematics(params)[:3])


    def test_coordinate_path_matches_mpmath_reference(self):
        """A prescribed path's knots sit at evenly spaced coordinate times, and
        its proper time, position and velocity agree with a 25-digit mpmath
        reference: tau(t) by quadrature, t(tau) by Newton steps on it."""
        model = make_builtin_model("rindler", [0.5])
        path = lambda t: np.array([0.2 * t, 0.0, 0.3 * np.sin(t)])
        rate = lambda t: np.array([0.2, 0.0, 0.3 * np.cos(t)])
        n = 801
        wl = wld.worldline_from_coordinate_path(model, path, rate, 0.0, 3.0, n=n)
        knots = np.linspace(0.0, 3.0, n)
        assert wl.position(wl.breakpoints)[:, 0].tolist() == knots.tolist()
        with mp.workdps(25):
            # dtau/dt = sqrt((1 + g z)^2 - |dx/dt|^2) along the path, g = 0.5
            dtau = lambda t: mp.sqrt((1 + mp.mpf("0.15") * mp.sin(t)) ** 2
                                     - mp.mpf("0.04") - mp.mpf("0.09") * mp.cos(t) ** 2)
            tau_at = lambda t: mp.quad(dtau, [0, t])
            for k in range(0, n, 40):
                assert abs(tau_at(mp.mpf(knots[k])) - wl.breakpoints[k]) < 2e-12
            for tau in np.random.default_rng(3).uniform(0.0, wl.param_span[1], 12):
                t = mp.mpf(wl.position(tau)[0])
                for _ in range(3):
                    t -= (tau_at(t) - tau) / dtau(t)
                x = np.array([float(t), *path(float(t))])
                w = np.linalg.solve(model.tetrad(x), [1.0, *rate(float(t))])
                assert np.abs(wl.position(tau) - x).max() < 3e-12
                assert np.abs(wl.velocity(tau) - w / np.sqrt(minkowski_dot(w, w))).max() < 1e-12

    @pytest.mark.parametrize("t1", [-1.0, 0.0], ids=["backwards", "empty"])
    def test_coordinate_path_needs_a_forward_span(self, flat, t1):
        still = lambda t: np.zeros(3)
        with pytest.raises(DomainError, match=rf"^coordinate path needs t1 > t0 "
                                              rf"\(t0 = 0.0, t1 = {t1}\)$"):
            wld.worldline_from_coordinate_path(flat, still, still, 0.0, t1)


def counting(fn):
    """``fn`` as a field, and the list of the coordinate shapes it is called with."""
    shapes = []

    def field(coords):
        shapes.append(np.shape(coords))
        return fn(coords)

    return field, shapes


class TestEMField:
    def test_antisymmetry_enforced(self):
        with pytest.raises(QulineError):
            wld.EMField(lambda c: np.eye(4)).tensor(np.zeros(4))

    def test_non_finite_tensor_rejected(self):
        f = wld.constant_magnetic_field([0, 0, 1.0]).tensor(np.zeros(4))
        f[1, 2] = f[2, 1] = np.nan
        with pytest.raises(QulineError, match="must be antisymmetric"):
            wld.EMField(lambda c: f).tensor(np.zeros(4))

    def test_tensor_of_rows_makes_one_call(self):
        rows = np.random.default_rng(2).standard_normal((7, 4))
        f = wld.constant_magnetic_field([0.3, 0, 1.0]).tensor(np.zeros(4))
        field, shapes = counting(lambda c: f * c[..., :1, None])
        em = wld.EMField(field)
        got = em.tensor(rows)
        assert shapes == [(7, 4)]
        np.testing.assert_array_equal(got, [em.tensor(x) for x in rows])

    def test_constant_field_and_potential_broadcast_over_rows(self):
        rows = np.zeros((5, 4))
        f = wld.constant_magnetic_field([0.3, 0, 1.0]).tensor(np.zeros(4))
        field, shapes = counting(lambda c: f)
        em = wld.EMField(field, lambda c: np.array([0.5, 0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(em.tensor(rows), np.broadcast_to(f, (5, 4, 4)))
        assert shapes == [(5, 4)]
        np.testing.assert_array_equal(em.potential(rows), [[0.5, 0.0, 0.0, 0.0]] * 5)
        np.testing.assert_array_equal(wld.EMField(field).potential(rows), np.zeros((5, 4)))

    def test_norm_audit_of_a_charged_worldline_makes_one_call(self, flat):
        f = wld.constant_magnetic_field([0, 0, 0.8]).tensor(np.zeros(4))
        field, shapes = counting(lambda c: f)
        wl = wld.integrate_timelike(flat, wld.EMField(field), np.zeros(4), [1.25, 0.75, 0, 0],
                                    1.3, span=4.0)
        shapes.clear()
        wl.norm_audit()
        assert shapes == [(201, 4)]

    def test_potential_consistency(self, flat):
        # symmetric gauge for B along z; lower components A_i = -(B x r / 2)_i
        b = 0.9

        def potential(coords):
            x, y = coords[..., 1], coords[..., 2]
            return np.stack([np.zeros_like(x), 0.5 * b * y, -0.5 * b * x, np.zeros_like(x)],
                            axis=-1)

        em = wld.EMField(lambda c: wld.constant_magnetic_field([0, 0, b]).tensor(c),
                         potential)
        # |F_IJ - tetrad components of 2 grad_[mu A_nu]| at one event
        coords = np.array([0.0, 0.4, -1.2, 2.0])
        points = coords + DEFAULT_FD_STEP * _STENCIL[1:]
        dA = _stencil_derivative(em.potential(points), DEFAULT_FD_STEP)
        f_coord = dA - dA.T          # F_{mu nu} = d_mu A_nu - d_nu A_mu
        e = flat.tetrad(coords)      # e^mu_I
        f_tet = np.einsum("mi,nj,mn->ij", e, e, f_coord)
        assert np.abs(f_tet - em.tensor(coords)).max() < 1e-6


class TestKinematics:
    @staticmethod
    def worldlines(flat):
        em = wld.constant_magnetic_field([0, 0, 1.0])
        g = 1 / np.sqrt(1 - 0.36)
        integrated = wld.integrate_timelike(flat, em, np.zeros(4), [g, 0.6 * g, 0, 0],
                                            charge_to_mass=1.0, span=3.0, tol=1e-12)
        params = integrated.sample_params(50)
        sampled = wld.SampledWorldline(flat, params, *integrated.kinematics(params)[:3])
        analytic = wld.circular_worldline(flat, radius=2.0, beta=0.5)
        model = make_builtin_model("schwarzschild", [1.0])
        static = wld.static_worldline(model, [6.0, 1.2, 0.3], span=2.0)
        x0 = np.array([0.0, 9.0, 1.2, 0.3])
        falling = wld.integrate_timelike(model, None, x0, [1.0, 0.0, 0.0, 0.0], span=2.0)
        # a flat circular orbit from math.cos and math.sin, which take one
        # parameter at a time: arrays of parameters are evaluated node by node
        gamma, radius, w = 1.25, 1.5, 0.5
        scalar = wld.AnalyticWorldline(
            flat, (0.0, 2.0),
            lambda s: [gamma * s, radius * math.cos(w * s), radius * math.sin(w * s), 0.0],
            lambda s: [gamma, -radius * w * math.sin(w * s), radius * w * math.cos(w * s), 0.0],
            lambda s: [0.0, -radius * w * w * math.cos(w * s),
                       -radius * w * w * math.sin(w * s), 0.0])
        return [analytic, static, integrated, sampled, falling, scalar]

    def test_kinematics_matches_separate_evaluations(self, flat):
        for wl in self.worldlines(flat):
            for lam in wl.sample_params(7):
                got = wl.kinematics(lam)
                xdot = wl.coordinate_velocity(lam)
                want = (wl.position(lam), wl.velocity(lam), wl.acceleration(lam), xdot,
                        pulled_connection(wl.model, wl.position(lam), xdot))
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)

    def test_trajectory_matches_separate_evaluations(self, flat):
        for wl in self.worldlines(flat):
            params = wl.sample_params(9)
            positions, velocities = trajectory(wl, params)
            np.testing.assert_allclose(positions, [wl.position(l) for l in params],
                                       rtol=1e-15, atol=1e-15)
            np.testing.assert_allclose(velocities, [wl.velocity(l) for l in params],
                                       rtol=1e-15, atol=1e-15)

    def test_closed_forms_broadcast_bit_for_bit(self, flat):
        # static and circular evaluate a parameter array in one call; it must
        # equal the scalar evaluations stacked, bit for bit
        analytic, static = self.worldlines(flat)[:2]
        for wl in (analytic, static):
            params = wl.sample_params(301)
            scalar = [np.array(v) for v in zip(*map(wl.kinematics, params))]
            for got, want in zip(wl.kinematics(params), scalar):
                assert got.shape[:2] == (301, 4)
                np.testing.assert_array_equal(got, want)
            for got, want in zip(trajectory(wl, params), scalar):
                np.testing.assert_array_equal(got, want)


NAN = float("nan")
SCHW = make_builtin_model("schwarzschild", [1.0])
FLAT = make_builtin_model("minkowski", [])


@pytest.mark.parametrize("call, error, message", [
    (lambda: wld.integrate_null_geodesic(FLAT, [NAN, 0, 0, 0], [1, 0, 0, 1]),
     DomainError, r"event coordinates must be finite, got \[nan, 0.0, 0.0, 0.0\]"),
    (lambda: wld.integrate_null_geodesic(FLAT, np.zeros(4), [NAN, 0, 0, 1]),
     QulineError, r"k0 must be null \(k.k = nan\)"),
    (lambda: wld.integrate_timelike(SCHW, None, [0, 10, 1.5, 0], [NAN, 0, 0, 0]),
     QulineError, r"u0 must be normalized timelike \(u.u = nan\)"),
    (lambda: wld.integrate_timelike(SCHW, None, [0, 10, math.inf, 0], [1, 0, 0, 0]),
     DomainError, r"finite, got \[0.0, 10.0, inf, 0.0\]"),
    (lambda: FLAT.connections([[0, 0, 0, 0], [NAN, 0, 0, 0]]),
     DomainError, r"finite, got \[nan, 0.0, 0.0, 0.0\]"),
    (lambda: apply_local_lorentz(FLAT, lambda c: np.eye(4)).connection([0, NAN, 0, 0]),
     DomainError, r"finite, got \[0.0, nan, 0.0, 0.0\]"),
    (lambda: wld.static_worldline(FLAT, [NAN, 0, 0], 1.0),
     DomainError, r"finite, got \[0.0, nan, 0.0, 0.0\]"),
], ids=["null_x0", "null_k0", "timelike_u0", "timelike_x0", "connections", "regauged",
        "static"])
def test_non_finite_coordinates_are_refused_before_stepping(monkeypatch, call, error, message):
    """A nan or inf in an event or an initial velocity ends in its one-line
    error before the trajectory stepper is reached (a nan initial step would
    never end the step loop)."""
    def unreachable(*args):
        raise AssertionError("the trajectory stepper was reached")
    monkeypatch.setattr(wld, "_dop853", unreachable)
    with pytest.raises(error, match=message):
        call()


def charged_line():
    g = 1 / np.sqrt(1 - 0.36)
    return wld.integrate_timelike(FLAT, wld.constant_magnetic_field([0.2, 0.0, 0.9]),
                                  np.zeros(4), [g, 0.6 * g, 0, 0], charge_to_mass=1.3,
                                  span=4.0, tol=1e-12)


def schwarzschild_ray():
    return wld.integrate_null_geodesic(SCHW, [0.0, 15.0, np.pi / 2, 0.0],
                                       [1.0, -0.6, 0.0, 0.8], span=12.0, tol=1e-12)


@pytest.mark.parametrize("make", [
    charged_line, schwarzschild_ray,
    lambda: wld.circular_worldline(FLAT, 2.0, 0.6, revolutions=0.5),
    lambda: wld.static_worldline(SCHW, [9.0, 1.2, 0.4], 3.0),
], ids=["charged", "schwarzschild_ray", "circular", "static"])
def test_kept_evaluations_equal_a_fresh_motion_call(make):
    """A worldline's kept evaluations, at its span start and at its 201
    sample parameters, hold the bytes of a fresh motion call there and are
    read-only; the start's event and label, and a transport's samples, are
    read from them."""
    wl = make()
    for kept, params in ((wl.start, wl.param_span[0]), (wl.samples, wl.sample_params())):
        assert len(kept) == 3
        for got, want in zip(kept, wl.motion(params)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
    event, label = wl.label_at(wl.param_span[0])
    assert event.coords.tobytes() == wl.start_event.coords.tobytes() == wl.start[0].tobytes()
    assert label is wl.start[1] and wl.starts_at(event, label)
    if wl.kind == "timelike":
        res = fermion.transport(fermion.FermionState([0.6, 0.8j], event, label), wl)
    else:
        pol = np.array([0.0, 0.0, 1.0, 0.0])
        res = photon.transport(photon.PhotonState(pol, event, label), wl)
    for i in (0, 77, 200):
        assert res.states[i].event.coords.tobytes() == wl.samples[0][i].tobytes()
        assert res.states[i].label.tobytes() == wl.samples[1][i].tobytes()


def test_integrated_worldline_evaluates_its_samples_once():
    """Its drift audit's evaluation is the one its transports read: reading
    ``samples`` after the solve calls the field no more, while each
    ``norm_audit`` still evaluates afresh."""
    f = wld.constant_magnetic_field([0, 0, 0.8]).tensor(np.zeros(4))
    field, shapes = counting(lambda c: f)
    wl = wld.integrate_timelike(FLAT, wld.EMField(field), np.zeros(4), [1.25, 0.75, 0, 0],
                                1.3, span=4.0)
    shapes.clear()
    kept = wl.samples
    assert shapes == []
    wl.norm_audit()
    assert shapes == [(201, 4)] and wl.samples is kept
