"""The Magnus transport kernel against stock DOP853, the batched kinematics,
geometry and generators it evaluates against per-point calls, and the
trajectory layer (closed-form frames, array dense output) against the
generic right-hand side and scipy's ``OdeSolution``."""

import re
import warnings
from functools import partial

import numpy as np
import pytest
import scipy
from scipy.integrate import DOP853, OdeSolution, solve_ivp
from scipy.integrate._ivp import rk

from quline import fermion as fm
from quline import photon as ph
from quline import worldline as wld
from quline.errors import DomainError, ToleranceError
from quline.geometry import (SpacetimeModel, TabulatedModel, _parallel_generator,
                             apply_local_lorentz, connection_finite_difference,
                             make_builtin_model, parallel_propagator, pulled_connection)
from quline.spin_algebra import lorentz_image, spin1_boost

SCHW = make_builtin_model("schwarzschild", [1.0])
FLAT = make_builtin_model("minkowski", [])
RINDLER = make_builtin_model("rindler", [0.4])
EM = wld.constant_magnetic_field([0.2, 0.0, 0.9])


def rindler_table(g_acc=0.3, nz=41):
    zs = np.linspace(-0.5, 2.0, nz)
    tetrads = np.zeros((1, 1, 1, nz, 4, 4))
    for i, z in enumerate(zs):
        tetrads[0, 0, 0, i] = np.diag([1.0 / (1.0 + z * g_acc), 1, 1, 1])
    return TabulatedModel([[0.0], [0.0], [0.0], zs], tetrads)


def schwarzschild_orbit(r=10.0, span=40.0):
    x0 = np.array([0.0, r, np.pi / 2, 0.3])
    u_coord = np.array([1.0, 0.0, 0.0, np.sqrt(1.0 / r**3)])
    u_coord = u_coord / np.sqrt(u_coord @ SCHW.metric(x0) @ u_coord)
    return wld.integrate_timelike(SCHW, None, x0, SCHW.inverse_tetrad(x0) @ u_coord,
                                  span=span, tol=1e-12)


def eccentric_orbit(r=12.0, span=150.0):
    """An equatorial orbit slightly off circular: the rest-frame generator
    turns the spinor about e_theta alone, so it commutes with itself along
    the orbit while its size varies."""
    x0 = np.array([0.0, r, np.pi / 2, 0.3])
    u_coord = np.array([1.0, 0.02, 0.0, 1.1 / r**1.5])
    u_coord = u_coord / np.sqrt(u_coord @ SCHW.metric(x0) @ u_coord)
    return wld.integrate_timelike(SCHW, None, x0, SCHW.inverse_tetrad(x0) @ u_coord,
                                  span=span, tol=1e-12)


def schwarzschild_ray(r0=15.0, span=12.0):
    x0 = np.array([0.0, r0, np.pi / 2, 0.0])
    s = 8.0 * np.sqrt(1.0 - 2.0 / r0) / r0
    return wld.integrate_null_geodesic(SCHW, x0, [1.0, -np.sqrt(1 - s * s), 0.0, s],
                                       span=span, tol=1e-12)


def lorentz_orbit():
    g = 1 / np.sqrt(1 - 0.36)
    return wld.integrate_timelike(FLAT, EM, np.zeros(4), [g, 0.6 * g, 0, 0],
                                  charge_to_mass=1.3, span=4.0, tol=1e-12)


def sampled_orbit():
    params = np.linspace(0.0, 4.0, 120)
    x, u, a = lorentz_orbit().kinematics(params)[:3]
    return wld.SampledWorldline(FLAT, params, x, u, a)


def rindler_static():
    return wld.static_worldline(RINDLER, [0, 0, 0.5], 3.0)


def rindler_static_backwards():
    return wld.static_worldline(RINDLER, [0, 0, 0.5], -3.0)


def flat_circular_backwards():
    return wld.circular_worldline(FLAT, 2.0, 0.6, revolutions=-1.0)


def flat_circular():
    return wld.circular_worldline(FLAT, 2.0, 0.6)


def tabulated_static():
    return wld.static_worldline(rindler_table(), [0, 0, 0.4], 2.0)


def covariant(wl, em=None, q2m=0.0):
    return partial(fm._covariant_generator, em, q2m), 2


def rest_frame(wl):
    return fm._rest_frame_generator, 2


def parallel(wl):
    return _parallel_generator, 2


CASES = {    # name: (worldline, generator)
    "schwarzschild_orbit_covariant": (schwarzschild_orbit, covariant),
    "schwarzschild_orbit_rest_frame": (schwarzschild_orbit, rest_frame),
    "eccentric_orbit_rest_frame": (eccentric_orbit, rest_frame),
    "schwarzschild_ray": (schwarzschild_ray, parallel),
    "rindler_static": (rindler_static, covariant),
    "rindler_static_backwards": (rindler_static_backwards, covariant),
    "flat_circular": (flat_circular, rest_frame),
    "flat_circular_backwards": (flat_circular_backwards, rest_frame),
    "lorentz_force_em": (lorentz_orbit, lambda wl: covariant(wl, EM, 1.3)),
    "sampled": (sampled_orbit, covariant),
    "tabulated": (tabulated_static, covariant),
}


def stock_maps(wl, generator, dim, params, tol):
    """Stock DOP853's transport maps at ``params``, and its G evaluations."""
    def rhs(lam, y):
        return (generator(*wl.kinematics(lam)) @ y.reshape(dim, dim)).ravel()

    with warnings.catch_warnings():     # scipy raises an rtol below 100 eps, and says so
        warnings.simplefilter("ignore", UserWarning)
        sol = solve_ivp(rhs, wl.param_span, np.eye(dim, dtype=complex).ravel(),
                        method="DOP853", rtol=tol, atol=tol, dense_output=True)
    return np.moveaxis(sol.sol(params), 0, -1).reshape(-1, dim, dim), sol.nfev


def counting(generator):
    """``generator`` wrapped to count the nodes it is evaluated at, in ``.nodes``."""
    def counted(*kinematics):
        counted.nodes += len(kinematics[0])
        return generator(*kinematics)
    counted.nodes = 0
    return counted


# errors below a few ulps of the O(1) map entries are rounding
ROUNDING = 4 * np.finfo(float).eps


@pytest.mark.parametrize("name", sorted(CASES))
def test_propagate_matches_stock_dop853(name):
    """At the same tolerance the Magnus kernel is no further from stock DOP853
    at 1e-14 than stock DOP853 itself is, on 53 parameters (read between grid
    points) and on the two span ends alone."""
    make_worldline, make_generator = CASES[name]
    wl = make_worldline()
    generator, dim = make_generator(wl)
    tol = 1e-12
    for params in (np.linspace(*wl.param_span, 53), np.array(wl.param_span)):
        reference = stock_maps(wl, generator, dim, params, 1e-14)[0]
        stock = stock_maps(wl, generator, dim, params, tol)[0]
        maps = wld.propagate(wl, generator, params, tol)
        assert maps.shape == (len(params), 2, 2)
        np.testing.assert_array_equal(maps[0], np.eye(2))
        assert (np.abs(maps - reference).max()
                <= max(np.abs(stock - reference).max(), ROUNDING))


def test_sampled_transport_steps_to_the_knots():
    """The knots of a sampled worldline are grid points: the kernel evaluates
    G at no more than 1,000 nodes there (stock DOP853 at over 10,000), and a
    hundred times tighter tolerance moves the maps by less than 1e-12."""
    wl = sampled_orbit()
    generator, dim = covariant(wl)
    params = np.linspace(*wl.param_span, 53)
    assert len(wl.breakpoints) == 120
    counted = counting(generator)
    maps = wld.propagate(wl, counted, params, 1e-12)
    assert counted.nodes <= 1000 < stock_maps(wl, generator, dim, params, 1e-12)[1]
    assert np.abs(maps - wld.propagate(wl, generator, params, 1e-14)).max() <= 1e-12


def test_nodes_do_not_depend_on_the_parameters_asked_for():
    """Parameters are read between grid points, so asking for 201 of them
    costs no more G evaluations than asking for the span ends."""
    wl = schwarzschild_ray()
    nodes = []
    for n in (2, 201):
        counted = counting(parallel(wl)[0])
        wld.propagate(wl, counted, np.linspace(*wl.param_span, n), 1e-12)
        nodes.append(counted.nodes)
    assert nodes[0] == nodes[1] > 0


def test_tolerance_below_the_rounding_floor_is_refused():
    """A tolerance under the rounding of the error estimate is refused before
    G is evaluated; the floor itself is met."""
    wl = schwarzschild_ray()
    counted = counting(parallel(wl)[0])
    with pytest.raises(ToleranceError, match="1e-20 is below the rounding floor"):
        wld.propagate(wl, counted, np.array(wl.param_span), 1e-20)
    assert counted.nodes == 0
    maps = wld.propagate(wl, counted, np.array(wl.param_span), wld.TOLERANCE_FLOOR)
    assert np.abs(maps - wld.propagate(wl, counted, np.array(wl.param_span), 1e-12)).max() < 1e-12


def test_unresolvable_generator_hits_the_refinement_cap():
    """G with an integrable singularity between grid points is never
    resolved: the kernel bisects the intervals about it MAX_LEVELS times,
    a band of a few dozen at each level, then raises ToleranceError."""
    wl = wld.static_worldline(FLAT, [0.0, 0.0, 0.0], 3.0)

    def singular(x, u, a, xdot, pulled):
        t = x[:, 0] - np.sqrt(2.0)
        return (1j * np.sign(t) / np.sqrt(np.abs(t)))[:, None, None] * np.diag([1.0, -1.0])

    counted = counting(singular)
    with pytest.raises(ToleranceError, match="not resolved to 1e-12 within 40 bisections"):
        wld.propagate(wl, counted, np.array(wl.param_span), 1e-12)
    assert counted.nodes <= 32 * len(wld.NODES) * (wld.MAX_LEVELS + 1)


def test_generator_that_is_not_finite_is_refused():
    """A nan in G would keep every interval unresolved; the kernel names the
    first parameter where G is not finite instead."""
    wl = wld.static_worldline(FLAT, [0.0, 0.0, 0.0], 3.0)

    def broken(x, u, a, xdot, pulled):
        return np.where(x[:, 0] > 2.0, np.nan, 1j)[:, None, None] * np.diag([1.0, -1.0])

    with pytest.raises(ToleranceError, match="generator not finite at parameter 3.0"):
        wld.propagate(wl, broken, np.array(wl.param_span), 1e-12)


def test_generator_odd_about_the_midpoint_is_resolved_where_it_is_read():
    """For G odd about an interval's midpoint the half steps and the whole
    agree exactly, however coarse the interval: the estimate alone accepts
    the span's one interval here, and the maps read inside it are off by
    order 1.  The read check refines until all 201 agree with the closed form
    exp(i phi sigma_z), phi = (cos(w T / 2) - cos(w (lam - T / 2))) / w."""
    span, w = 3.0, 7.3
    wl = wld.static_worldline(FLAT, [0.0, 0.0, 0.0], span)

    def odd(x, u, a, xdot, pulled):
        return (1j * np.sin(w * (x[:, 0] - 0.5 * span)))[:, None, None] * np.diag([1.0, -1.0])

    params = wl.sample_params()
    phi = (np.cos(0.5 * w * span) - np.cos(w * (params - 0.5 * span))) / w
    maps = wld.propagate(wl, odd, params, 1e-12)
    np.testing.assert_allclose(maps[:, [0, 1], [0, 1]], np.exp(1j * np.outer(phi, [1.0, -1.0])),
                               rtol=0.0, atol=1e-12)


def test_propagate_takes_parameters_in_any_order_within_the_span():
    wl = schwarzschild_ray()
    generator = parallel(wl)[0]
    params = np.linspace(*wl.param_span, 5)
    maps = wld.propagate(wl, generator, params, 1e-12)
    order = [3, 0, 4, 3, 1, 2]      # shuffled, one repeated: the same grid
    np.testing.assert_array_equal(wld.propagate(wl, generator, params[order], 1e-12),
                                  maps[order])
    np.testing.assert_array_equal(wld.propagate(wl, generator, [0.0], 1e-12), [np.eye(2)])
    assert wld.propagate(wl, generator, np.zeros((0, 3)), 1e-12).shape == (0, 3, 2, 2)
    assert wld.propagate(wl, generator, 3.0, 1e-12).shape == (2, 2)
    backwards = rindler_static_backwards()
    with pytest.raises(DomainError, match="outside the worldline span"):
        wld.propagate(backwards, covariant(backwards)[0], [0.0, 1.0], 1e-12)


def test_each_parameter_is_read_alone():
    """The grid does not depend on the parameters, so the map at each one,
    on a knot or between knots, is the same asked alone or with the others."""
    wl = sampled_orbit()
    generator = covariant(wl)[0]
    params = np.concatenate([wl.breakpoints[::17], np.linspace(*wl.param_span, 7)[1:-1]])
    maps = wld.propagate(wl, generator, params, 1e-12)
    for lam, want in zip(params, maps):
        np.testing.assert_array_equal(wld.propagate(wl, generator, lam, 1e-12), want)


def test_line_integral_is_the_transport_of_a_nilpotent_generator():
    """On a circular orbit, x^1 = r cos(w t) with t = gamma tau: its integral
    over proper time is r sin(w gamma tau) / (w gamma).  The maps of f sigma_+
    are exactly unipotent, so the integral is their entry [0, 1]."""
    radius, beta = 0.7, 0.6
    wl = wld.circular_worldline(FLAT, radius=radius, beta=beta, revolutions=2.0)
    params = np.linspace(*wl.param_span, 9)
    rate = beta / radius / np.sqrt(1.0 - beta * beta)
    values = wld.line_integral(wl, lambda x, u, a, xdot, pulled: x[:, 1], params, 1e-12)
    np.testing.assert_allclose(values, radius * np.sin(rate * params) / rate,
                               rtol=0.0, atol=1e-12)
    maps = wld.propagate(wl, lambda x, u, a, xdot, pulled: x[:, 1, None, None]
                         * np.array([[0.0, 1.0], [0.0, 0.0]]), params, 1e-12)
    assert np.all(maps[:, 1, 0] == 0.0) and np.all(maps[:, [0, 1], [0, 1]] == 1.0)
    np.testing.assert_array_equal(maps[:, 0, 1].real, values)


def image_line(family):
    """A worldline with a nonzero pulled connection (zero in flat space) in
    each model family."""
    if family == "minkowski":
        return flat_circular()
    if family == "rindler":
        return wld.integrate_timelike(RINDLER, None, [0.0, 0.1, -0.2, 0.5],
                                      spin1_boost([0.3, 0.0, 0.4])[:, 0], span=3.0,
                                      tol=1e-12)
    if family == "schwarzschild":
        return schwarzschild_ray()
    if family == "tabulated":
        return tabulated_static()
    model, x0, u0 = moved_line()
    return wld.integrate_timelike(model, None, x0, u0, span=0.5, tol=1e-12)


@pytest.mark.parametrize("family", ["minkowski", "rindler", "schwarzschild", "tabulated",
                                    "transformed"])
def test_parallel_propagator_is_the_image_of_the_spinor_map(family):
    """Lambda^I_J = 1/2 tr(S^dag sigmabar^I S sigma^K) eta_KJ of the spin-half
    maps is parallel transport: it matches a stock DOP853 solve of the 4x4
    system dV/dlam = -pulled V, and is a Lorentz matrix."""
    wl = image_line(family)
    params = np.linspace(*wl.param_span, 21)

    def minus_pulled(x, u, a, xdot, pulled):
        return -pulled

    want = stock_maps(wl, minus_pulled, 4, params, 1e-13)[0]
    got = parallel_propagator(wl, params, 1e-12)
    assert got.dtype == float and got.shape == (21, 4, 4)
    assert np.abs(got - want).max() <= 1e-11
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    assert np.abs(np.swapaxes(got, 1, 2) @ eta @ got - eta).max() <= 1e-12
    spinor = wld.propagate(wl, _parallel_generator, params, 1e-12)
    np.testing.assert_array_equal(lorentz_image(spinor), got)


@pytest.mark.parametrize("make_worldline", [
    flat_circular, rindler_static, lorentz_orbit, schwarzschild_ray, sampled_orbit])
def test_kinematics_of_array_stacks_scalar_calls(make_worldline):
    wl = make_worldline()
    lams = wl.param_span[0] + np.diff(wl.param_span)[0] * np.array(
        [0.0, 0.013, 0.27, 0.5, 0.731, 1.0])
    got = wl.kinematics(lams)
    # x, u, a and xdot are 4-vectors, the pulled connection a 4x4 matrix
    shapes = [(len(lams), 4)] * 4 + [(len(lams), 4, 4)]
    for i, want in enumerate(zip(*(wl.kinematics(lam) for lam in lams))):
        assert got[i].shape == shapes[i]
        np.testing.assert_array_equal(got[i], np.array(want))


def stage_kinematics(wl, n=15):
    return wl.kinematics(np.linspace(*wl.param_span, n))


@pytest.mark.parametrize("name, make", [
    ("covariant_em", lambda wl: covariant(wl, EM, 1.3)),
    ("rest_frame", rest_frame),
    ("parallel", parallel),
])
def test_batched_generators_match_per_node_calls(name, make):
    wl = lorentz_orbit() if name == "covariant_em" else schwarzschild_orbit(span=5.0)
    generator, dim = make(wl)
    kin = stage_kinematics(wl)
    batched = generator(*kin)
    assert batched.shape == (15, dim, dim)
    for i, node in enumerate(zip(*kin)):
        single = generator(*node)
        assert single.shape == (dim, dim)
        np.testing.assert_array_equal(batched[i], single)


def moved_model():
    return apply_local_lorentz(SCHW, lambda ev: spin1_boost([0.1 * np.sin(ev.coords[3]),
                                                             0.0, 0.05]))


@pytest.mark.parametrize("model", [FLAT, RINDLER, SCHW, rindler_table(), moved_model()],
                         ids=["minkowski", "rindler", "schwarzschild", "tabulated",
                              "transformed"])
def test_connections_match_pointwise_connection(model):
    if model.name == "tabulated":
        points = np.array([[0.0, 0.0, 0.0, z] for z in (0.1, 0.45, 1.3)])
    else:
        points = np.array([[0.3, 7.0, 1.1, 0.2], [1.0, 9.5, 1.6, 2.0],
                           [2.0, 4.0, 2.3, -1.0]])
    np.testing.assert_array_equal(model.connections(points),
                                  [model.connection(p) for p in points])
    np.testing.assert_array_equal(model.tetrads(points),
                                  [model.tetrad(p) for p in points])
    np.testing.assert_array_equal(connection_finite_difference(model, points),
                                  [connection_finite_difference(model, p) for p in points])


@pytest.mark.parametrize("model, outside", [
    (SCHW, [0.0, 1.5, 1.0, 0.0]), (SCHW, [0.0, 8.0, 0.0, 0.0]),
    (RINDLER, [0.0, 0.0, 0.0, -3.0]), (rindler_table(), [0.0, 8.0, 1.0, 2.5]),
    (moved_model(), [0.0, 1.5, 1.0, 0.0])])
def test_connections_reject_points_outside_domain(model, outside):
    points = np.array([[0.0, 8.0, 1.0, 0.0], outside])
    with pytest.raises(DomainError, match=re.escape(str(points[1].tolist()))):
        model.connections(points)


@pytest.mark.parametrize("model", [FLAT, RINDLER, SCHW, rindler_table(), moved_model()],
                         ids=["minkowski", "rindler", "schwarzschild", "tabulated",
                              "transformed"])
def test_pulled_connections_match_per_event_calls(model):
    """One frame evaluation over (n, 4) rows gives each event's to_coords and
    pulled_connection, and so does the one-event form."""
    if model.name == "tabulated":
        points = np.array([[0.0, 0.0, 0.0, z] for z in (0.1, 0.45, 1.3)])
    else:
        points = np.array([[0.3, 7.0, 1.1, 0.2], [1.0, 9.5, 1.6, 2.0],
                           [2.0, 4.0, 2.3, -1.0]])
    u = np.random.default_rng(4).standard_normal(points.shape)
    xdot, pulled = model.pulled_connections(points, u)
    assert xdot.shape == (3, 4) and pulled.shape == (3, 4, 4)
    for p, v, got_xdot, got_pulled in zip(points, u, xdot, pulled):
        want_xdot = model.to_coords(p, v)
        want_pulled = pulled_connection(model, p, want_xdot)
        np.testing.assert_array_equal(got_xdot, want_xdot)
        np.testing.assert_array_equal(got_pulled, want_pulled)
        for got, want in zip(model.pulled_connections(p, v), (want_xdot, want_pulled)):
            np.testing.assert_array_equal(got, want)


def test_photon_states_are_the_canonical_representatives():
    ray = schwarzschild_ray()
    k = ray.velocity(0.0)
    pol = np.array([0.0, k[3], 0.3j, -k[1]]) / np.hypot(k[1], k[3])
    res = ph.transport(ph.PhotonState(pol, ray.start_event, k), ray, tol=1e-12)
    positions, wavevectors = ray.trajectory(res.params)
    for state, m, x, kk in zip(res.states, res.propagators, positions, wavevectors):
        want = ph.PhotonState(m @ pol, state.event, kk).canonical()
        np.testing.assert_array_equal(state.pol, want.pol)
        np.testing.assert_array_equal(state.event.coords, x)


# -- the trajectory layer ----------------------------------------------------

def random_events(model, rng, n=40):
    """In-domain events with random tetrad velocities (timelike and not)."""
    if model.name == "schwarzschild":
        x = np.column_stack([rng.uniform(-5, 5, n), rng.uniform(2.1, 40.0, n),
                             rng.uniform(0.05, np.pi - 0.05, n), rng.uniform(0, 7, n)])
    elif model.name == "rindler":
        x = np.column_stack([rng.uniform(-5, 5, (n, 3)),
                             rng.uniform(-0.95 / model.g, 10.0, n)])
    else:
        x = rng.uniform(-10, 10, (n, 4))
    return x, rng.standard_normal((n, 4))


@pytest.mark.parametrize("model", [FLAT, RINDLER, SCHW, make_builtin_model("rindler", [3.0]),
                                   make_builtin_model("schwarzschild", [0.3])],
                         ids=["minkowski", "rindler", "schwarzschild", "rindler_g3",
                              "schwarzschild_m03"])
def test_trajectory_rates_match_base_class(model):
    """The closed-form contraction equals the generic tetrad/connection one to
    a few ulps (bit for bit where libm and the BLAS (4, 4) @ (4,) kernel
    round as the scalar path assumes)."""
    assert (len(model.OMEGA) == 0) == (model.name == "minkowski")
    rng = np.random.default_rng(11)
    for x, u in zip(*random_events(model, rng)):
        got = model.trajectory_rates(x, u)
        want = SpacetimeModel.trajectory_rates(model, x, u)
        assert got.shape == (8,)
        np.testing.assert_allclose(got, want, rtol=1e-14,
                                   atol=1e-14 * np.abs(want).max())


def generic_rhs(model, accel=None):
    """The trajectory right-hand side written out from tetrad and connection."""
    def rhs(lam, y):
        x, u = y[:4], y[4:]
        xdot = model.tetrad(x) @ u
        a = np.zeros(4) if accel is None else accel(x, u)
        return np.concatenate([xdot, a - np.einsum("n,nij->ij", xdot,
                                                   model.connection(x)) @ u])
    return rhs


def lorentz_force(em, q2m):
    return lambda x, u: q2m * (wld.ETA @ em.tensor(x) @ u)


def moved_line():
    model = moved_model()
    x0 = np.array([0.0, 9.0, 1.2, 0.4])
    return model, x0, spin1_boost([0.1, 0.2, -0.3])[:, 0]


TRAJECTORIES = {   # name: (model, x0, u0, span, em, charge_to_mass, kind)
    "schwarzschild_orbit": (SCHW, [0.0, 10.0, np.pi / 2, 0.3],
                            SCHW.inverse_tetrad([0.0, 10.0, np.pi / 2, 0.3])
                            @ np.array([1.0, 0.0, 0.0, 10.0**-1.5]) / np.sqrt(0.7),
                            40.0, None, 0.0, "timelike"),
    "schwarzschild_ray": (SCHW, [0.0, 15.0, np.pi / 2, 0.0],
                          [1.0, -0.6, 0.0, 0.8], 12.0, None, 0.0, "null"),
    "rindler_line": (RINDLER, [0.0, 0.1, -0.2, 0.5], spin1_boost([0.3, 0.0, 0.4])[:, 0],
                     3.0, None, 0.0, "timelike"),
    "minkowski_line": (FLAT, [0.0, 1.0, 2.0, 3.0], spin1_boost([0.2, -0.1, 0.5])[:, 0],
                       5.0, None, 0.0, "timelike"),
    "lorentz_force": (FLAT, [0.0, 0.0, 0.0, 0.0], [1.25, 0.75, 0.0, 0.0],
                      4.0, EM, 1.3, "timelike"),
    "transformed": (*moved_line(), 2.0, None, 0.0, "timelike"),
}


@pytest.mark.parametrize("name", sorted(TRAJECTORIES))
def test_integrated_worldline_matches_stock_dop853(name):
    """The same steps and dense output as DOP853 on the generic RHS, up to
    the few-ulp differences of the two right-hand sides (none where libm and
    BLAS round as the scalar path assumes)."""
    model, x0, u0, span, em, q2m, kind = TRAJECTORIES[name]
    x0, u0 = np.asarray(x0, dtype=float), np.asarray(u0, dtype=float)
    tol = 1e-12
    if kind == "null":
        wl = wld.integrate_null_geodesic(model, x0, u0, span=span, tol=tol)
    else:
        wl = wld.integrate_timelike(model, em, x0, u0, charge_to_mass=q2m, span=span,
                                    tol=tol)
    accel = lorentz_force(em, q2m) if em is not None else None
    stock = solve_ivp(generic_rhs(model, accel), (0.0, span), np.concatenate([x0, u0]),
                      method="DOP853", rtol=tol, atol=tol, dense_output=True)
    assert len(stock.t) > 3
    assert wl._sol.ts.shape == stock.t.shape
    np.testing.assert_allclose(wl._sol.ts, stock.t, rtol=1e-12, atol=1e-12)
    params = np.linspace(0.0, span, 37)
    x, u = wl.trajectory(params)
    np.testing.assert_allclose(np.hstack([x, u]), stock.sol(params).T, rtol=1e-12,
                               atol=1e-12)
    if em is not None:    # the force reaches the acceleration of the worldline too
        np.testing.assert_array_equal(wl.acceleration(params[5]),
                                      accel(x[5], u[5]))


def dense_of(ode):
    """The DenseSolution holding the numbers of scipy's OdeSolution ``ode``."""
    return wld.DenseSolution(ode.ts, np.array([[*p.F[::-1], p.y_old]
                                               for p in ode.interpolants]))


def dense_pairs():
    """(DenseSolution, OdeSolution) of a trajectory solve, the same solve run
    backwards and a stock solve of the complex 2x2 spinor transport."""
    model, x0, u0, span, *_ = TRAJECTORIES["schwarzschild_orbit"]
    traj, back = (solve_ivp(generic_rhs(model), (0.0, s), np.concatenate([x0, u0]),
                            method="DOP853", rtol=1e-12, atol=1e-12,
                            dense_output=True).sol
                  for s in (span, -span))
    wl = schwarzschild_ray()
    generator, dim = parallel(wl)

    def rhs(lam, y):
        return (generator(*wl.kinematics(lam)) @ y.reshape(dim, dim)).ravel()

    prop = solve_ivp(rhs, wl.param_span, np.eye(dim, dtype=complex).ravel(),
                     method="DOP853", rtol=1e-12, atol=1e-12, dense_output=True).sol
    return [(dense_of(ode), ode) for ode in (traj, back, prop)]


@pytest.mark.parametrize("which", [0, 1, 2], ids=["trajectory", "backwards", "propagator"])
def test_dense_solution_matches_ode_solution_bit_for_bit(which):
    dense, ode = dense_pairs()[which]
    ts = ode.ts
    rng = np.random.default_rng(5)
    inside = rng.uniform(ts.min(), ts.max(), 41)        # unsorted
    probes = [ts[0], ts[-1], ts[3], 0.5 * (ts[2] + ts[3]), float(inside[0])]
    for t in probes:
        got, want = dense(t), ode(t)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), t
    arrays = [inside, ts, ts[::-1], np.array([ts[-1], ts[0], ts[5], ts[5]]),
              np.array([ts.min() - 0.5, ts.max() + 0.5])]
    for t in arrays:
        got, want = dense(t), np.ascontiguousarray(ode(t).T)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["ascending", "descending"])
def test_dense_solution_takes_the_earlier_segment_at_a_boundary(sign):
    """On a solve the two segments meeting at a boundary agree there to
    rounding; on these deliberately discontinuous ones they do not."""
    rng = np.random.default_rng(8)
    ts = sign * np.array([0.0, 0.5, 1.25, 2.0])
    pieces = [rk.Dop853DenseOutput(t0, t1, rng.standard_normal(3), rng.standard_normal((7, 3)))
              for t0, t1 in zip(ts[:-1], ts[1:])]
    ode = OdeSolution(ts, pieces)
    dense = dense_of(ode)
    t = np.concatenate([ts, sign * np.array([-1.0, 0.2, 1.9, 3.0])])
    assert dense(t).tobytes() == np.ascontiguousarray(ode(t).T).tobytes()
    for boundary in ts:
        assert dense(boundary).tobytes() == ode(boundary).tobytes()


def stock_steps(fun, span, y0, tol=1e-12):
    """Stock DOP853 stepped by hand, its dense output built after every step as
    solve_ivp builds it: (ts, ys, stage rows K[:13], the 3 extra stages, the
    polynomial rows and start state of each step)."""
    solver = DOP853(fun, span[0], np.asarray(y0), span[1], rtol=tol, atol=tol)
    ts, ys, K, extra, rows = [solver.t], [solver.y], [], [], []
    while solver.status == "running":
        assert solver.step() is None
        K.append(solver.K.copy())
        piece = solver.dense_output()
        extra.append(solver.K_extended[13:].copy())
        rows.append([*piece.F[::-1], piece.y_old])
        ts.append(solver.t)
        ys.append(solver.y)
    return (np.array(ts), np.array(ys), np.array(K), np.array(extra), np.array(rows))


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("which", ["trajectory", "backwards"])
def test_dense_output_after_the_solve_matches_per_step_scipy(which):
    """The 3 extra stages and the polynomial rows made for all steps at once,
    against scipy's per-step DOP853._dense_output_impl on the same steps, over
    a span run forwards and backwards; and the dense output a trajectory
    keeps, which takes those same steps."""
    model, x0, u0, span, *_ = TRAJECTORIES["schwarzschild_orbit"]
    rates = wld._trajectory_rates(model, None)
    sign = 1.0 if which == "trajectory" else -1.0
    ts, ys, K, extra, rows = stock_steps(rates, (0.0, sign * span), np.concatenate([x0, u0]))
    stages = []

    def recorded(lams, z):
        stages.append(rates(lams, z))
        return stages[-1]

    K = np.concatenate([K, np.full((len(K), 3, K.shape[2]), np.nan)], axis=1)
    dense = wld._dense_solution(ts, ys, K, recorded)
    assert len(ts) > 5 and len(stages) == 3
    assert_close(np.stack(stages, axis=1), extra)
    assert_close(dense.rows, rows)
    if which == "trajectory":
        kept = wld.integrate_timelike(model, None, x0, u0, span=span, tol=1e-12)._sol
        np.testing.assert_array_equal(kept.ts, ts)
        assert_close(kept.rows, rows)


def test_row_rates_name_the_first_parameter_off_the_chart():
    rates = wld._trajectory_rates(SCHW, None)
    inside, outside = [0.0, 8.0, 1.0, 0.0], [0.0, 1.5, 1.0, 0.0]
    u = [1.0, 0.0, 0.0, 0.0]
    rows = np.array([inside + u, outside + u, outside + u])
    with pytest.raises(DomainError, match="at parameter 0.25$"):
        rates(np.array([0.125, 0.25, 0.5]), rows)
    assert rates(np.array([0.125]), rows[:1]).shape == (1, 8)


def test_solves_build_no_per_step_dense_output(monkeypatch):
    """Trajectories make their dense output after the solve, never one
    Dop853DenseOutput per step, and transports build none."""
    def refuse(*args):
        raise AssertionError("a per-step Dop853DenseOutput was built")

    monkeypatch.setattr(rk, "Dop853DenseOutput", refuse)
    ray = schwarzschild_ray(span=4.0)
    for wl in (schwarzschild_orbit(span=6.0), lorentz_orbit(), ray):
        assert wl.trajectory([0.5])[0].shape == (1, 4)
    wld.propagate(ray, parallel(ray)[0], [0.0, 2.0, 4.0], 1e-12)
    fm.transport_rest_frame(fm.RestFrameState([1.0, 0.0]), lorentz_orbit())


def test_scipy_private_surfaces_present():
    """The trajectory solver, DenseSolution and these tests read these scipy
    internals."""
    where = f"installed scipy {scipy.__version__}"
    solver = DOP853(lambda t, y: -y, 0.0, np.ones(3), 1.0)
    assert np.shape(getattr(solver, "K_extended", None)) == (16, 3), where
    assert np.shares_memory(solver.K, solver.K_extended) and solver.K.shape == (13, 3), where
    assert hasattr(rk, "Dop853DenseOutput"), f"scipy.integrate._ivp.rk.Dop853DenseOutput missing in {where}"
    shapes = {"A": (12, 12), "B": (12,), "C": (12,), "A_EXTRA": (3, 16),
              "C_EXTRA": (3,), "D": (4, 16)}
    for name, shape in shapes.items():
        got = np.shape(getattr(DOP853, name, None))
        assert got == shape, f"DOP853.{name} has shape {got}, expected {shape}, in {where}"
    _, ode = dense_pairs()[0]
    piece = ode.interpolants[1]
    assert isinstance(piece, rk.Dop853DenseOutput), where
    assert np.shape(piece.F) == (7, 8), f"Dop853DenseOutput.F is {np.shape(piece.F)} in {where}"
    assert np.shape(piece.y_old) == (8,), where
    assert piece.t_old == ode.ts[1] and piece.h == ode.ts[2] - ode.ts[1], where
