"""The batched-stage transport kernel against stock DOP853, and the batched
kinematics, geometry and generators it evaluates against per-point calls."""

from functools import partial

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from quline import fermion as fm
from quline import photon as ph
from quline import worldline as wld
from quline.errors import DomainError
from quline.geometry import (TabulatedModel, _parallel_generator, apply_local_lorentz,
                             make_builtin_model)
from quline.spin_algebra import spin1_boost

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
    x, u, a, _ = lorentz_orbit().kinematics(params)
    return wld.SampledWorldline(FLAT, params, x, u, a)


def rindler_static():
    return wld.static_worldline(RINDLER, [0, 0, 0.5], 3.0)


def flat_circular():
    return wld.circular_worldline(FLAT, 2.0, 0.6)


def tabulated_static():
    return wld.static_worldline(rindler_table(), [0, 0, 0.4], 2.0)


def covariant(wl, em=None, q2m=0.0):
    return partial(fm._covariant_generator, wl.model, em, q2m), 2


def rest_frame(wl):
    return partial(fm._rest_frame_generator, wl.model), 2


def parallel(wl):
    return partial(_parallel_generator, wl.model), 4


CASES = {    # name: (worldline, generator)
    "schwarzschild_orbit_covariant": (schwarzschild_orbit, covariant),
    "schwarzschild_orbit_rest_frame": (schwarzschild_orbit, rest_frame),
    "schwarzschild_ray": (schwarzschild_ray, parallel),
    "rindler_static": (rindler_static, covariant),
    "flat_circular": (flat_circular, rest_frame),
    "lorentz_force_em": (lorentz_orbit, lambda wl: covariant(wl, EM, 1.3)),
    "sampled": (sampled_orbit, covariant),
    "tabulated": (tabulated_static, covariant),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_propagate_matches_stock_dop853(name):
    make_worldline, make_generator = CASES[name]
    wl = make_worldline()
    generator, dim = make_generator(wl)
    tol = 1e-12

    def rhs(lam, y):
        return (generator(*wl.kinematics(lam)) @ y.reshape(dim, dim)).ravel()

    stock = solve_ivp(rhs, wl.param_span, np.eye(dim, dtype=complex).ravel(),
                      method="DOP853", rtol=tol, atol=tol, dense_output=True)
    prop = wld.propagate(wl, generator, dim, tol)
    assert prop.steps == len(stock.t) - 1
    np.testing.assert_array_equal(prop.sol.ts, stock.t)
    params = np.linspace(*wl.param_span, 53)
    want = np.moveaxis(stock.sol(params), 0, -1).reshape(-1, dim, dim)
    assert np.abs(prop(params) - want).max() <= 1e-13
    # every attempted step evaluates G at its 15 stage nodes; 2 more for the start
    assert prop.nfev >= 2 + 15 * prop.steps and (prop.nfev - 2) % 15 == 0


@pytest.mark.parametrize("make_worldline", [
    flat_circular, rindler_static, lorentz_orbit, schwarzschild_ray, sampled_orbit])
def test_kinematics_of_array_stacks_scalar_calls(make_worldline):
    wl = make_worldline()
    lams = wl.param_span[0] + np.diff(wl.param_span)[0] * np.array(
        [0.0, 0.013, 0.27, 0.5, 0.731, 1.0])
    got = wl.kinematics(lams)
    for i, want in enumerate(zip(*(wl.kinematics(lam) for lam in lams))):
        assert got[i].shape == (len(lams), 4)
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


@pytest.mark.parametrize("model, outside", [
    (SCHW, [0.0, 1.5, 1.0, 0.0]), (SCHW, [0.0, 8.0, 0.0, 0.0]),
    (RINDLER, [0.0, 0.0, 0.0, -3.0])])
def test_connections_reject_points_outside_domain(model, outside):
    points = np.array([[0.0, 8.0, 1.0, 0.0], outside])
    with pytest.raises(DomainError):
        model.connections(points)


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
