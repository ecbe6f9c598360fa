import numpy as np
import pytest

from quline import geometry as geo
from quline.errors import DomainError, QulineError
from quline.spin_algebra import ETA, LocalLorentz, minkowski_dot, spin1_boost
from quline.worldline import integrate_null_geodesic, integrate_timelike


def sample_events(model, rng, n):
    out = []
    while len(out) < n:
        if model.name == "schwarzschild":
            c = np.array([rng.uniform(-5, 5), rng.uniform(2.5, 40),
                          rng.uniform(0.2, np.pi - 0.2), rng.uniform(0, 2 * np.pi)])
        elif model.name == "rindler":
            c = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5),
                          rng.uniform(-5, 5), rng.uniform(-0.8, 5)])
        else:
            c = rng.uniform(-5, 5, 4)
        if model.in_domain(c):
            out.append(c)
    return out


BUILTINS = [("minkowski", []), ("rindler", [0.5]), ("schwarzschild", [1.0])]


class TestBuiltinModels:
    def test_unknown_family(self):
        with pytest.raises(QulineError):
            geo.make_builtin_model("desitter", [1.0])

    def test_bad_parameters(self):
        with pytest.raises(QulineError):
            geo.make_builtin_model("rindler", [-9.8])
        with pytest.raises(QulineError):
            geo.make_builtin_model("schwarzschild", [0.0])

    def test_rindler_g00_exact(self):
        g_acc = 9.8 / 299792458.0**2  # SI 9.8 m/s^2 in natural units (1/m)
        model = geo.make_builtin_model("rindler", [g_acc])
        assert model.metric([0, 0, 0, 0])[0, 0] == 1.0
        z = 104.2
        assert model.metric([0, 0, 0, z])[0, 0] == (1 + z * g_acc) ** 2

    def test_minkowski_connection_zero(self):
        model = geo.make_builtin_model("minkowski", [])
        rng = np.random.default_rng(0)
        for c in sample_events(model, rng, 20):
            assert np.abs(model.connection(c)).max() == 0.0

    def test_schwarzschild_g00(self):
        model = geo.make_builtin_model("schwarzschild", [1.0])
        assert model.metric([0, 10.0, np.pi / 2, 0])[0, 0] == pytest.approx(0.8, abs=1e-15)

    @pytest.mark.parametrize("name,params", BUILTINS)
    def test_orthonormality_1000_events(self, name, params):
        model = geo.make_builtin_model(name, params)
        rng = np.random.default_rng(1)
        for c in sample_events(model, rng, 1000):
            e = model.tetrad(c)
            resid = np.abs(e.T @ model.metric(c) @ e - ETA).max()
            assert resid < 1e-10

    @pytest.mark.parametrize("name,params", BUILTINS)
    def test_metric_reconstruction(self, name, params):
        model = geo.make_builtin_model(name, params)
        rng = np.random.default_rng(2)
        for c in sample_events(model, rng, 100):
            einv = model.inverse_tetrad(c)
            g = einv.T @ ETA @ einv
            assert np.abs(g - model.metric(c)).max() < 1e-12 * (1 + np.abs(g).max())

    def test_domain_error(self):
        model = geo.make_builtin_model("schwarzschild", [1.0])
        with pytest.raises(DomainError):
            model.connection([0.0, 1.5, np.pi / 2, 0.0])


class TestConnection:
    def test_rindler_boost_component(self):
        g_acc = 0.37
        model = geo.make_builtin_model("rindler", [g_acc])
        omega = model.connection([0.0, 0.0, 0.0, 0.0])
        expected = np.zeros((4, 4, 4))
        expected[0, 0, 3] = g_acc
        expected[0, 3, 0] = g_acc
        assert np.abs(omega - expected).max() < 1e-14

    @pytest.mark.parametrize("name,params", BUILTINS[1:])
    def test_fd_matches_analytic(self, name, params):
        model = geo.make_builtin_model(name, params)
        rng = np.random.default_rng(3)
        for c in sample_events(model, rng, 15):
            w_fd = geo.connection_finite_difference(model, c, 1e-5)
            assert np.abs(w_fd - model.connection(c)).max() < 1e-6

    @pytest.mark.parametrize("name,params", BUILTINS)
    def test_antisymmetry_after_lowering(self, name, params):
        model = geo.make_builtin_model(name, params)
        rng = np.random.default_rng(4)
        tol = 1e-12 if model.connection_mode == "analytic" else 1e-8
        for c in sample_events(model, rng, 50):
            low = geo.lower_connection(model.connection(c))
            assert np.abs(low + low.transpose(0, 2, 1)).max() < tol


def rotation_field_z(angle_rate):
    """x-dependent rotation about z: angle = angle_rate * x."""

    def field(coords):
        a = angle_rate * coords[..., 1]
        c, s = np.cos(a), np.sin(a)
        lam = np.zeros(coords.shape[:-1] + (4, 4)) + np.eye(4)
        lam[..., 1, 1] = c
        lam[..., 1, 2] = -s
        lam[..., 2, 1] = s
        lam[..., 2, 2] = c
        return lam

    def jacobian(coords):
        a = angle_rate * coords[..., 1]
        c, s = np.cos(a), np.sin(a)
        d = np.zeros(coords.shape[:-1] + (4, 4, 4))
        d[..., 1, 1, 1] = -s * angle_rate
        d[..., 1, 1, 2] = -c * angle_rate
        d[..., 1, 2, 1] = c * angle_rate
        d[..., 1, 2, 2] = -s * angle_rate
        return d

    return field, jacobian


class TestLocalLorentz:
    def test_identity_field_bitwise(self):
        model = geo.make_builtin_model("rindler", [0.3])
        ident = lambda event: np.eye(4)
        moved = geo.apply_local_lorentz(model, ident,
                                        jacobian=lambda event: np.zeros((4, 4, 4)))
        c = np.array([0.1, 0.2, 0.3, 0.4])
        assert np.array_equal(moved.tetrad(c), model.tetrad(c))
        assert np.abs(moved.connection(c) - model.connection(c)).max() == 0.0

    def test_constant_boost_flat_connection_zero(self):
        model = geo.make_builtin_model("minkowski", [])
        lam = spin1_boost([0.3, -0.1, 0.2])
        moved = geo.apply_local_lorentz(model, lambda event: lam)
        c = np.array([0.0, 1.0, -2.0, 0.5])
        assert np.abs(moved.connection(c)).max() < 1e-9

    def test_metric_invariant(self):
        model = geo.make_builtin_model("schwarzschild", [1.0])
        field, jac = rotation_field_z(0.2)
        moved = geo.apply_local_lorentz(model, field, jac)
        c = np.array([1.0, 8.0, 1.2, 0.7])
        assert np.abs(moved.metric(c) - model.metric(c)).max() < 1e-14

    def test_rotation_field_gives_inhomogeneous_term(self):
        # on flat space omega' = Lambda d(Lambda^{-1}) exactly
        model = geo.make_builtin_model("minkowski", [])
        field, jac = rotation_field_z(0.31)
        moved = geo.apply_local_lorentz(model, field, jac)
        c = np.array([0.3, 1.7, -0.4, 2.2])
        lam = field(c)
        dlam = jac(c)
        lam_inv = np.linalg.inv(lam)
        expected = np.einsum("ik,nkj->nij", lam,
                             -np.einsum("ik,nkl,lj->nij", lam_inv, dlam, lam_inv))
        assert np.abs(moved.connection(c) - expected).max() < 1e-12

    def test_transformation_law_fd_vs_analytic(self):
        # generic check of the inhomogeneous transformation on a curved model
        model = geo.make_builtin_model("rindler", [0.4])
        field, jac = rotation_field_z(0.17)
        moved = geo.apply_local_lorentz(model, field, jac)
        rng = np.random.default_rng(5)
        for c in sample_events(model, rng, 10):
            analytic = moved.connection(c)
            fd = geo.connection_finite_difference(moved, c, 1e-5)
            assert np.abs(analytic - fd).max() < 1e-6

    def test_non_lorentz_rejected(self):
        model = geo.make_builtin_model("minkowski", [])
        bad = geo.apply_local_lorentz(model, lambda event: np.diag([2.0, 1, 1, 1]))
        with pytest.raises(QulineError):
            bad.tetrad(np.zeros(4))

    @pytest.mark.parametrize("analytic", [False, True], ids=["finite_difference", "analytic"])
    def test_connections_of_a_batch_make_one_call(self, analytic):
        model = geo.make_builtin_model("schwarzschild", [1.0])
        rotation, rotation_jacobian = rotation_field_z(0.2)
        calls = []

        def field(coords):
            calls.append("field")
            return rotation(coords)

        def jacobian(coords):
            calls.append("jacobian")
            return rotation_jacobian(coords)

        moved = geo.apply_local_lorentz(model, field, jacobian if analytic else None)
        points = np.array(sample_events(model, np.random.default_rng(3), 15))
        omega = moved.connections(points)
        assert calls == (["field", "jacobian"] if analytic else ["field"])
        np.testing.assert_array_equal(omega, [moved.connection(p) for p in points])


class TestParallelTransport:
    def test_flat_straight_line_constant(self):
        model = geo.make_builtin_model("minkowski", [])
        wl = integrate_timelike(model, None, np.zeros(4), [1, 0, 0, 0], span=5.0)
        v0 = np.array([0.3, 0.2, -0.5, 1.0])
        _, vecs = geo.parallel_transport_vector(wl, v0)
        assert np.abs(vecs - v0).max() < 1e-12

    def test_flat_closed_loop_identity(self):
        # piecewise loop: out and back along x
        model = geo.make_builtin_model("minkowski", [])
        g = 1 / np.sqrt(1 - 0.25)
        wl_out = integrate_timelike(model, None, np.zeros(4), [g, 0.5 * g, 0, 0], span=2.0)
        end = wl_out.position(2.0)
        wl_back = integrate_timelike(model, None, end, [g, -0.5 * g, 0, 0], span=2.0)
        v0 = np.array([1.0, 0.3, 0.0, -0.2])
        _, vecs1 = geo.parallel_transport_vector(wl_out, v0)
        _, vecs2 = geo.parallel_transport_vector(wl_back, vecs1[-1])
        assert np.abs(vecs2[-1] - v0).max() < 1e-9

    def test_schwarzschild_norm_preserved(self):
        model = geo.make_builtin_model("schwarzschild", [1.0])
        r0 = 10.0
        x0 = np.array([0.0, r0, np.pi / 2, 0.0])
        k0_coord = np.array([1.0, 0.3, 0.0, 0.02])
        g = model.metric(x0)
        # make it null by solving for k^t
        a, b = g[0, 0], g[1, 1] * k0_coord[1] ** 2 + g[3, 3] * k0_coord[3] ** 2
        k0_coord[0] = np.sqrt(-b / a)
        k0 = model.inverse_tetrad(x0) @ k0_coord
        wl = integrate_null_geodesic(model, x0, k0, span=12.0, tol=1e-12)
        v0 = np.array([0.0, 0.2, 1.0, -0.3])
        _, vecs = geo.parallel_transport_vector(wl, v0, tol=1e-12)
        n0 = minkowski_dot(v0, v0)
        drift = max(abs(minkowski_dot(v, v) - n0) for v in vecs)
        assert drift < 1e-9

    def test_step_halving_reference(self):
        # transported vector against a 10x finer reference integration
        model = geo.make_builtin_model("schwarzschild", [1.0])
        x0 = np.array([0.0, 8.0, np.pi / 2, 0.0])
        ut = 1.0 / np.sqrt(1 - 2 / 8.0 - 8.0**2 * (np.sqrt(1 / 8.0**3)) ** 2 * 0)
        # static-ish timelike start then integrate geodesic
        u0 = model.inverse_tetrad(x0) @ np.array([1 / np.sqrt(1 - 2 / 8.0), 0, 0, 0])
        wl = integrate_timelike(model, None, x0, u0, span=6.0, tol=1e-10)
        v0 = np.array([0.5, 1.0, 0.0, 0.7])
        _, coarse = geo.parallel_transport_vector(wl, v0, tol=1e-8)
        _, fine = geo.parallel_transport_vector(wl, v0, tol=1e-13)
        assert np.abs(coarse[-1] - fine[-1]).max() < 1e-8


class TestLocalLorentzType:
    def test_validation(self):
        with pytest.raises(QulineError):
            LocalLorentz(np.diag([1.0, 1.0, 1.0, 2.0]))
        lam = LocalLorentz(spin1_boost([0.5, 0, 0]))
        inv = lam.inverse()
        assert np.abs(inv.matrix @ lam.matrix - np.eye(4)).max() < 1e-12

    def test_non_finite_matrix_rejected(self):
        nan_entry = spin1_boost([0.5, 0, 0])
        nan_entry[2, 3] = np.nan
        with pytest.raises(QulineError, match="not a Lorentz transformation"):
            LocalLorentz(nan_entry)
        # a re-gauged model checks every row's Lambda
        model = geo.make_builtin_model("minkowski", [])
        moved = geo.apply_local_lorentz(
            model, lambda c: np.where(c[..., 1, None, None] > 1.0, nan_entry, np.eye(4)))
        moved.tetrads(np.zeros((3, 4)))
        with pytest.raises(QulineError, match="not a Lorentz transformation"):
            moved.tetrads(np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]]))
