import math

import numpy as np
import pytest

from quline import worldline as wld
from quline.errors import ComplexVelocity, QulineError
from quline.geometry import make_builtin_model, pulled_connection
from quline.spin_algebra import minkowski_dot


@pytest.fixture(scope="module")
def flat():
    return make_builtin_model("minkowski", [])


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
        errs = []
        for h in steps:
            wl = wld.integrate_timelike(model, None, x0, u0, span=span, tol=10.0,
                                        max_step=h)
            errs.append(np.abs(wl.position(span) - ref.position(span)).max())
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
        _, energy = wld.killing_energy(wl, [1.0, 0, 0, 0])
        _, ang = wld.killing_energy(wl, [0.0, 0, 0, 1.0])
        impact = ang / energy
        assert np.abs(energy - energy[0]).max() < 1e-9 * abs(energy[0])
        assert np.abs(impact - impact[0]).max() < 1e-9 * (1 + abs(impact[0]))
        assert wl.norm_audit() < 1e-9

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


class TestKillingEnergy:
    def test_rindler_free_fall_energy_constant(self):
        model = make_builtin_model("rindler", [0.5])
        x0 = np.array([0.0, 0.0, 0.0, 1.0])
        u0 = model.inverse_tetrad(x0) @ np.array([1.0 / np.sqrt(model.metric(x0)[0, 0]), 0, 0, 0])
        wl = wld.integrate_timelike(model, None, x0, u0, span=1.5, tol=1e-12)
        _, energy = wld.killing_energy(wl, [1.0, 0, 0, 0], mass=2.0)
        assert np.abs(energy - energy[0]).max() < 1e-9 * abs(energy[0])

    def test_minkowski_geodesic_energy(self, flat):
        g = 1 / np.sqrt(1 - 0.49)
        wl = wld.integrate_timelike(flat, None, np.zeros(4), [g, 0.7 * g, 0, 0], span=2.0)
        _, energy = wld.killing_energy(wl, [1.0, 0, 0, 0], mass=3.0)
        assert np.abs(energy - 3.0 * g).max() < 1e-9

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

    def test_csv_round_trip(self, tmp_path, flat):
        em = wld.constant_magnetic_field([0, 0, 1.0])
        g = 1 / np.sqrt(1 - 0.36)
        wl = wld.integrate_timelike(flat, em, np.zeros(4), [g, 0.6 * g, 0, 0],
                                    charge_to_mass=1.0, span=3.0, tol=1e-12)
        path = tmp_path / "orbit.csv"
        wl.to_csv(path, n=400)
        back = wld.worldline_from_csv(path, flat)
        for tau in np.linspace(0.1, 2.9, 7):
            assert np.abs(back.position(tau) - wl.position(tau)).max() < 1e-8
            assert np.abs(back.velocity(tau) - wl.velocity(tau)).max() < 1e-8


    def test_coordinate_path_grid_matches_root_finding(self):
        """The proper-time grid of a prescribed path: the time t of each sample
        is the root of tau(t) = tau_k on the dense output of the proper-time
        integral, found per sample by brentq."""
        from scipy.integrate import solve_ivp
        from scipy.optimize import brentq
        model = make_builtin_model("rindler", [0.5])
        path = lambda t: np.array([0.2 * t, 0.0, 0.3 * np.sin(t)])
        rate = lambda t: np.array([0.2, 0.0, 0.3 * np.cos(t)])
        n = 301
        wl = wld.worldline_from_coordinate_path(model, path, rate, 0.0, 3.0, n=n)

        def dtau_dt(t):
            xdot = np.array([1.0, *rate(t)])
            return np.sqrt(xdot @ model.metric([t, *path(t)]) @ xdot)

        sol = solve_ivp(lambda t, y: [dtau_dt(t)], (0.0, 3.0), [0.0], method="RK45",
                        rtol=1e-12, atol=1e-12, dense_output=True)
        taus = np.linspace(0.0, sol.y[0, -1], n)
        want = [0.0] + [brentq(lambda t, tau=tau: sol.sol(t)[0] - tau, 0.0, 3.0, xtol=1e-14)
                        for tau in taus[1:-1]] + [3.0]
        np.testing.assert_allclose(wl.param_span, (0.0, taus[-1]), rtol=1e-14)
        np.testing.assert_allclose(wl.position(np.linspace(*wl.param_span, n))[:, 0], want,
                                   rtol=0.0, atol=1e-13)


class TestEMField:
    def test_antisymmetry_enforced(self):
        with pytest.raises(QulineError):
            wld.EMField(lambda c: np.eye(4)).tensor(np.zeros(4))

    def test_potential_consistency(self, flat):
        # symmetric gauge for B along z; lower components A_i = -(B x r / 2)_i
        b = 0.9

        def potential(coords):
            return np.array([0.0, 0.5 * b * coords[2], -0.5 * b * coords[1], 0.0])

        em = wld.EMField(lambda c: wld.constant_magnetic_field([0, 0, b]).tensor(c),
                         potential)
        res = em.consistency_residual(flat, np.array([0.0, 0.4, -1.2, 2.0]))
        assert res < 1e-6


class TestKinematics:
    @staticmethod
    def worldlines(flat, tmp_path):
        em = wld.constant_magnetic_field([0, 0, 1.0])
        g = 1 / np.sqrt(1 - 0.36)
        integrated = wld.integrate_timelike(flat, em, np.zeros(4), [g, 0.6 * g, 0, 0],
                                            charge_to_mass=1.0, span=3.0, tol=1e-12)
        integrated.to_csv(tmp_path / "orbit.csv", n=50)
        sampled = wld.worldline_from_csv(tmp_path / "orbit.csv", flat)
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

    def test_kinematics_matches_separate_evaluations(self, flat, tmp_path):
        for wl in self.worldlines(flat, tmp_path):
            for lam in wl.sample_params(7):
                got = wl.kinematics(lam)
                xdot = wl.coordinate_velocity(lam)
                want = (wl.position(lam), wl.velocity(lam), wl.acceleration(lam), xdot,
                        pulled_connection(wl.model, wl.position(lam), xdot))
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)

    def test_trajectory_matches_separate_evaluations(self, flat, tmp_path):
        for wl in self.worldlines(flat, tmp_path):
            params = wl.sample_params(9)
            positions, velocities = wl.trajectory(params)
            np.testing.assert_allclose(positions, [wl.position(l) for l in params],
                                       rtol=1e-15, atol=1e-15)
            np.testing.assert_allclose(velocities, [wl.velocity(l) for l in params],
                                       rtol=1e-15, atol=1e-15)

    def test_closed_forms_broadcast_bit_for_bit(self, flat, tmp_path):
        # static and circular evaluate a parameter array in one call; it must
        # equal the scalar evaluations stacked, bit for bit
        analytic, static = self.worldlines(flat, tmp_path)[:2]
        for wl in (analytic, static):
            params = wl.sample_params(301)
            scalar = [np.array(v) for v in zip(*map(wl.kinematics, params))]
            for got, want in zip(wl.kinematics(params), scalar):
                assert got.shape[:2] == (301, 4)
                np.testing.assert_array_equal(got, want)
            for got, want in zip(wl.trajectory(params), scalar):
                np.testing.assert_array_equal(got, want)

    def test_csv_matches_per_row_values(self, flat, tmp_path):
        for wl in self.worldlines(flat, tmp_path):
            wl.to_csv(tmp_path / "out.csv", n=37)
            lines = ["param," + ",".join(f"{c}{i}" for c in "xua" for i in range(4))]
            for lam in wl.sample_params(37):
                row = [lam, *wl.position(lam), *wl.velocity(lam), *wl.acceleration(lam)]
                lines.append(",".join(f"{v:.17g}" for v in row))
            expected = "".join(line + "\r\n" for line in lines).encode()
            assert (tmp_path / "out.csv").read_bytes() == expected
