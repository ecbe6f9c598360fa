"""The Magnus transport kernel against stock DOP853, the batched kinematics,
geometry and generators it evaluates against per-point calls, and the
trajectory layer (closed-form frames, array dense output) against the
generic right-hand side and scipy's ``OdeSolution``."""

import math
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
from quline.geometry import (SpacetimeModel, TabulatedModel, _AnalyticModel,
                             _parallel_generator, apply_local_lorentz,
                             connection_finite_difference, make_builtin_model,
                             parallel_propagator, pulled_connection)
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


def affine_ray(r0=15.0, b=8.0):
    """An equatorial Schwarzschild ray of affine length 2 r0 at impact
    parameter b, built as the orbit_transport benchmark builds its rays."""
    x0 = np.array([0.0, r0, np.pi / 2, 0.4])
    s = b * np.sqrt(1.0 - 2.0 / r0) / r0
    return wld.integrate_null_geodesic(SCHW, x0, [1.0, -np.sqrt(1.0 - s * s), 0.0, s],
                                       span=2.0 * r0, tol=1e-12)


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
    """``generator`` wrapped to count the nodes it is evaluated at, in
    ``.nodes``, and the calls, in ``.calls``."""
    def counted(*kinematics):
        counted.nodes += len(kinematics[0])
        counted.calls += 1
        return generator(*kinematics)
    counted.nodes = counted.calls = 0
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
    costs no more G evaluations than asking for the span ends (on this ray
    the read check, applied where a parameter is read, passes wherever the
    estimate does)."""
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


def matrix_first_dot(x, y):
    """The kernel's 2x2 product on (n, 2, 2) stacks, the layout it kept before
    it held its stacks entry-first: the reference for that layout."""
    return x[..., :, :1] * y[..., :1, :] + x[..., :, 1:] * y[..., 1:, :]


def matrix_first_commutator(x, y):
    return matrix_first_dot(x, y) - matrix_first_dot(y, x)


def matrix_first_magnus(g, h):
    h = h[:, None, None]
    g0, g1, g2 = np.moveaxis(g, 1, 0)
    a1 = h * g1
    a2 = np.sqrt(15.0) / 3.0 * h * (g2 - g0)
    a3 = 10.0 / 3.0 * h * (g2 - 2.0 * g1 + g0)
    c1 = matrix_first_commutator(a1, a2)
    c2 = matrix_first_commutator(a1, 2.0 * a3 + c1) / -60.0
    return a1 + a3 / 12.0 + matrix_first_commutator(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0


def matrix_first_exp2(omega):
    s = np.sqrt(omega[:, 0, 1] * omega[:, 1, 0] - omega[:, 0, 0] * omega[:, 1, 1] + 0j)
    with np.errstate(invalid="ignore"):
        sinhc = np.where(s == 0, 1.0, np.sinh(s) / s)[:, None, None]
    return np.cosh(s)[:, None, None] * np.eye(2) + sinhc * omega


def matrix_first_richardson(g, h):
    n = len(h)
    dot = matrix_first_dot
    with np.errstate(over="ignore", invalid="ignore"):
        steps = matrix_first_exp2(matrix_first_magnus(
            np.moveaxis(g.reshape(n, 3, 3, 2, 2), 1, 0).reshape(3 * n, 3, 2, 2),
            np.outer([0.5, 0.5, 1.0], h).ravel()))
        first, second, whole = steps.reshape(3, n, 2, 2)
        inverse = np.swapaxes(whole[:, ::-1, ::-1], 1, 2) * [[1, -1], [-1, 1]]
        drift = dot(dot(first, inverse), second)
        drift -= 0.5 * (drift[:, 0, 0] + drift[:, 1, 1])[:, None, None] * np.eye(2)
        error = np.abs(dot(second, first) - whole).max(axis=(1, 2)) / 63.0
        return dot(second, dot(matrix_first_exp2(drift / 63.0), first)), error


def matrix_first_prefix_products(steps):
    out = steps.copy()
    shift = 1
    while shift < len(out):
        out[shift:] = matrix_first_dot(out[shift:], out[:-shift])
        shift *= 2
    return out


@pytest.mark.parametrize("n", [1, 2, 199, 4097])
@pytest.mark.parametrize("special", ["none", "zero", "too_large"])
def test_entry_first_stacks_repeat_the_matrix_first_arithmetic(n, special):
    """The kernel's Richardson steps, error estimates and prefix products on
    entry-first (2, 2, n) stacks are those of the (n, 2, 2) layout byte for
    byte, on random traceless G, with one interval's G zero (s = 0 in the
    closed-form exp) or too large to exponentiate (an inf or nan estimate)."""
    rng = np.random.default_rng(n)
    g = rng.normal(size=(n, 9, 2, 2)) + 1j * rng.normal(size=(n, 9, 2, 2))
    g[..., 1, 1] = -g[..., 0, 0]
    h = rng.uniform(0.01, 0.5, n)
    if special == "zero":
        g[n // 2] = 0.0
    elif special == "too_large":
        g[n // 2] *= 1e200
    want_steps, want_error = matrix_first_richardson(g, h)
    steps, error = wld._richardson(g, h)
    assert steps.shape == (2, 2, n)
    assert_same_bytes(np.ascontiguousarray(np.moveaxis(steps, -1, 0)), want_steps)
    assert_same_bytes(error, want_error)
    assert_same_bytes(wld._richardson(g, h, estimate=False), steps)
    finite = np.isfinite(want_error).all()
    assert finite == (special != "too_large")
    products = wld._prefix_products(np.ascontiguousarray(np.moveaxis(want_steps, 0, -1)))
    assert_same_bytes(np.ascontiguousarray(np.moveaxis(products, -1, 0)),
                      matrix_first_prefix_products(want_steps))


def test_maps_come_back_c_contiguous_and_complex():
    wl = schwarzschild_ray()
    generator = parallel(wl)[0]
    for params in (wl.sample_params(), 3.0, np.linspace(*wl.param_span, 6).reshape(2, 3)):
        maps = wld.propagate(wl, generator, params, 1e-12)
        assert maps.shape == np.shape(params) + (2, 2)
        assert maps.dtype == complex and maps.flags.c_contiguous


def test_each_parameter_is_read_alone():
    """On this orbit the grid does not depend on the parameters (the read
    check passes wherever the estimate does), so the map at each one, on a
    knot or between knots, is the same asked alone or with the others."""
    wl = sampled_orbit()
    generator = covariant(wl)[0]
    params = np.concatenate([wl.breakpoints[::17], np.linspace(*wl.param_span, 7)[1:-1]])
    maps = wld.propagate(wl, generator, params, 1e-12)
    for lam, want in zip(params, maps):
        np.testing.assert_array_equal(wld.propagate(wl, generator, lam, 1e-12), want)


@pytest.mark.parametrize("make_worldline, generator, most_nodes", [
    (schwarzschild_ray, _parallel_generator, 140),
    (eccentric_orbit, fm._rest_frame_generator, 270),
    (affine_ray, _parallel_generator, 530),
])
def test_a_rejected_interval_is_split_as_its_estimate_asks(make_worldline, generator,
                                                            most_nodes):
    """A rejected interval splits into as many parts as its error estimate
    asks for, in one round: each case takes at most two generator calls
    (level 0, one round of parts).  Node counts are pinned with a few percent
    to spare: 133, 261 and 517; bisection alone, one level per round, takes
    189 nodes in 6 calls, 261 in 7 and 465 in 8."""
    wl = make_worldline()
    counted = counting(generator)
    wld.propagate(wl, counted, wl.sample_params(), 1e-12)
    assert counted.calls <= 2
    assert counted.nodes <= most_nodes


@pytest.mark.parametrize("name", [
    "flat_circular", "flat_circular_backwards", "lorentz_force_em", "rindler_static",
    "rindler_static_backwards", "schwarzschild_orbit_covariant",
    "schwarzschild_orbit_rest_frame", "tabulated"])
def test_level_0_is_one_generator_call(name):
    """Level 0 is a round like the others: on these cases its one interval is
    accepted, and its ends, midpoint and six Gauss nodes come from one
    generator call, for 201 parameters as for the span ends."""
    make_worldline, make_generator = CASES[name]
    wl = make_worldline()
    generator = make_generator(wl)[0]
    for params in (wl.sample_params(), np.array(wl.param_span)):
        counted = counting(generator)
        wld.propagate(wl, counted, params, 1e-12)
        assert (counted.calls, counted.nodes) == (1, len(wld.NODES))


def test_parts_share_their_new_nodes_across_chunks(monkeypatch):
    """A split into 16 parts evaluates each new end and midpoint once, in the
    kinematics call of the first chunk that needs it: chunks of 3 intervals
    give the maps of one chunk, bit for bit, from as many G evaluations."""
    wl = schwarzschild_ray()
    params = wl.sample_params()
    results = []
    for chunk in (wld.CHUNK, 3):
        monkeypatch.setattr(wld, "CHUNK", chunk)
        counted = counting(_parallel_generator)
        results.append((wld.propagate(wl, counted, params, 1e-12), counted.nodes, counted.calls))
    (maps, nodes, calls), (chunked, chunked_nodes, chunked_calls) = results
    np.testing.assert_array_equal(chunked, maps)
    assert chunked_nodes == nodes and chunked_calls > calls


def test_long_transport_checks_reads_only_where_a_parameter_is_read():
    """Only an interval that holds a parameter is read inside; on the others
    only the step counts, and the estimate covers it.  Thirty revolutions of
    a flat circular orbit at r = 0.1, beta = 0.99 (201 parameters, tol
    2.3e-14) take at most 360,000 G evaluations (446,485 with the read check
    on every interval), and agree to 1e-10 with the run at 3e-15."""
    wl = wld.circular_worldline(FLAT, 0.1, 0.99, revolutions=30.0)
    generator, _ = covariant(wl)
    params = wl.sample_params()
    counted = counting(generator)
    maps = wld.propagate(wl, counted, params, 2.3e-14)
    assert counted.nodes <= 360_000
    assert np.abs(maps - wld.propagate(wl, generator, params, 3e-15)).max() <= 1e-10


def test_parameters_on_grid_points_are_read_from_the_steps():
    """A parameter on an interval's start (theta = 0) or at the span end
    (theta = 1) is read from the product of the accepted steps, so the read
    check never sizes the grid for it: the eccentric orbit asked at its two
    ends takes at most 170 G evaluations (261 with 201 parameters), and its
    end map is the 201-parameter run's to 1e-13."""
    wl = eccentric_orbit()
    counted = counting(fm._rest_frame_generator)
    ends = wld.propagate(wl, counted, np.array(wl.param_span), 1e-12)
    every = wld.propagate(wl, fm._rest_frame_generator, wl.sample_params(), 1e-12)
    assert counted.nodes <= 170
    np.testing.assert_array_equal(ends[0], np.eye(2))
    assert np.abs(ends[1] - every[-1]).max() <= 1e-13


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


@pytest.mark.parametrize("make_worldline", [
    flat_circular, rindler_static, lorentz_orbit, schwarzschild_ray, sampled_orbit])
def test_velocity_coordinate_derivative_of_array_stacks_scalar_calls(make_worldline):
    wl = make_worldline()
    lams = np.linspace(*wl.param_span, 7)
    got = wl.velocity_coordinate_derivative(lams)
    assert got.shape == (len(lams), 4)
    np.testing.assert_array_equal(
        got, np.array([wl.velocity_coordinate_derivative(lam) for lam in lams]))


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
    boost = np.vectorize(lambda phi: spin1_boost([0.1 * np.sin(phi), 0.0, 0.05]),
                         signature="()->(4,4)")
    return apply_local_lorentz(SCHW, lambda c: boost(c[..., 3]))


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


def omega_table_rates(model, state):
    """The one-event trajectory rates contracted from the OMEGA table: the
    frame over ``math``, each pulled entry p[I][J] = xdot^nu omega_nu^I_J
    accumulated onto 0.0, each udot^I summed as (r_0 u_0 + r_2 u_2) +
    (r_1 u_1 + r_3 u_3).  The reference the models' straight-line
    ``_rates`` must equal bit for bit."""
    x, u = state[:4], state[4:]
    diag, values = model._frame(x, math)
    xdot = [d * v for d, v in zip(diag, u)]
    p = [[0.0] * 4 for _ in range(4)]
    for (nu, i, j), w in zip(model.OMEGA, values):
        p[i][j] += xdot[nu] * w
    return np.array(xdot + [-((r[0] * u[0] + r[2] * u[2]) + (r[1] * u[1] + r[3] * u[3]))
                            for r in p])


ANALYTIC_PARAMS = {"RindlerModel": (0.4,), "SchwarzschildModel": (1.0,)}


@pytest.mark.parametrize("cls", _AnalyticModel.__subclasses__(), ids=lambda cls: cls.__name__)
def test_one_event_rates_equal_the_omega_table_bit_for_bit(cls):
    """Each analytic model's straight-line one-event rates equal the OMEGA
    table contraction byte for byte, zero signs included, on 20,000 random
    in-domain states whose components are often 0.0 or -0.0, through
    ``trajectory_rates`` with (4,) arrays and the trajectory right-hand side."""
    model = cls(*ANALYTIC_PARAMS.get(cls.__name__, ()))
    rng = np.random.default_rng(18)
    n = 20000
    states = np.hstack([rng.uniform([-5.0, -1.0, -0.2, -5.0], [5.0, 50.0, 3.4, 7.0], (6 * n, 4)),
                        rng.standard_normal((6 * n, 4))])
    zeros = rng.integers(0, 4, states.shape)
    states[zeros == 1], states[zeros == 2] = 0.0, -0.0
    states = states[np.broadcast_to(model.in_domain(states[:, :4].T), 6 * n)][:n]
    assert len(states) == n
    want = np.array([omega_table_rates(model, y.tolist()) for y in states])
    udot_zeros = want[:, 4:][want[:, 4:] == 0.0]
    assert np.signbit(udot_zeros).any() and not np.signbit(udot_zeros).all()
    rates = wld._trajectory_rates(model, None)
    for got in (np.array([model.trajectory_rates(y[:4], y[4:]) for y in states]),
                np.array([rates(0.0, y) for y in states])):
        assert_same_bytes(got, want)


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


def counted_calls(fun):
    """``fun`` wrapped to count its calls, in ``.calls``."""
    def counted(t, y):
        counted.calls += 1
        return fun(t, y)
    counted.calls = 0
    return counted


def trajectory_problem(name):
    """(rates, y0, span) of a TRAJECTORIES entry, as ``_integrate`` solves it."""
    model, x0, u0, span, em, q2m, _ = TRAJECTORIES[name]
    rates = wld._trajectory_rates(model, wld._lorentz_force_accel(model, em, q2m))
    return rates, np.concatenate([np.asarray(x0, dtype=float), np.asarray(u0, dtype=float)]), span


def assert_same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(TRAJECTORIES))
def test_stepper_takes_the_steps_of_stock_dop853(name):
    """The trajectory stepper takes stock DOP853's steps bit for bit: the same
    step boundaries, states and 13 stage rows, from as many right-hand-side
    calls (stock_steps adds the 3 dense-output stages of each step)."""
    rates, y0, span = trajectory_problem(name)
    ours, stock = counted_calls(rates), counted_calls(rates)
    ts, ys, K = wld._dop853(ours, 0.0, y0, span, 1e-12, np.inf)
    want_ts, want_ys, want_K = stock_steps(stock, (0.0, span), y0)[:3]
    assert K.shape[1] == 16 and len(K) > 3
    for got, want in ((ts, want_ts), (ys, want_ys), (K[:, :13], want_K)):
        assert_same_bytes(got, want)
    assert ours.calls == stock.calls - 3 * len(K)


@pytest.mark.parametrize("name", ["schwarzschild_orbit", "schwarzschild_ray", "rindler_line",
                                  "minkowski_line"])
def test_trajectory_solves_equal_the_omega_table_solves_bit_for_bit(name):
    """A solve on the straight-line one-event rates takes the steps of the
    same solve on the OMEGA table contraction: the same step boundaries,
    states and stage rows, byte for byte, from as many calls."""
    rates, y0, span = trajectory_problem(name)
    model = TRAJECTORIES[name][0]
    ours = counted_calls(rates)
    table = counted_calls(lambda lam, y: omega_table_rates(model, y.tolist()))
    ts, ys, K = wld._dop853(ours, 0.0, y0, span, 1e-12, np.inf)
    want_ts, want_ys, want_K = wld._dop853(table, 0.0, y0, span, 1e-12, np.inf)
    assert len(K) > 3
    for got, want in ((ts, want_ts), (ys, want_ys), (K[:, :13], want_K[:, :13])):
        assert_same_bytes(got, want)
    assert ours.calls == table.calls


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["ascending", "descending"])
def test_capped_stepper_takes_the_steps_of_stock_dop853(sign):
    """With ``max_step`` binding, forwards and backwards, the stepper still
    takes stock DOP853's steps, states and stage rows from as many calls."""
    rates, y0, span = trajectory_problem("schwarzschild_orbit")
    max_step, ours, stock = span / 60, counted_calls(rates), counted_calls(rates)
    ts, ys, K = wld._dop853(ours, 0.0, y0, sign * span, 1e-12, max_step)
    solver = DOP853(stock, 0.0, y0, sign * span, rtol=1e-12, atol=1e-12, max_step=max_step)
    want_ts, want_ys, want_K = [solver.t], [solver.y], []
    while solver.status == "running":
        assert solver.step() is None
        want_ts.append(solver.t)
        want_ys.append(solver.y)
        want_K.append(solver.K.copy())
    assert len(K) >= 60 > len(wld._dop853(rates, 0.0, y0, span, 1e-12, np.inf)[2])
    for got, want in ((ts, want_ts), (ys, want_ys), (K[:, :13], want_K)):
        assert_same_bytes(got, np.array(want))
    assert ours.calls == stock.calls == solver.nfev


def test_stepper_fails_where_stock_dop853_fails():
    """y' = y^2 from y(0) = 1 blows up at t = 1: the stepper raises scipy's
    message after the same right-hand-side calls as solve_ivp's failed solve."""
    calls = {"ours": [], "stock": []}

    def blow_up(which):
        def fun(t, y):
            calls[which].append((t, *y))
            return y * y
        return fun

    message = "Required step size is less than spacing between numbers."
    with pytest.raises(ToleranceError, match=re.escape(f"worldline integration failed: {message}")):
        wld._dop853(blow_up("ours"), 0.0, np.ones(1), 2.0, 1e-12, np.inf)
    sol = solve_ivp(blow_up("stock"), (0.0, 2.0), [1.0], method="DOP853", rtol=1e-12,
                    atol=1e-12)
    assert sol.status == -1 and sol.message == message and 0.99 < sol.t[-1] < 1.0 + 1e-9
    assert_same_bytes(np.array(calls["ours"]), np.array(calls["stock"]))


def test_initial_step_of_a_huge_wavevector_does_not_overflow():
    """A flat ray with wavevector 1e150 (1, 0, 0, 1) has scaled rates near
    1e162, whose squares overflow: the initial step comes from the rescaled
    norm, with no warning, and the ray ends where the straight line does."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ray = wld.integrate_null_geodesic(FLAT, np.zeros(4), [1e150, 0.0, 0.0, 1e150], span=2.0)
        end = ray.position(2.0)
    np.testing.assert_allclose(end, [2e150, 0.0, 0.0, 2e150], rtol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wld._rms(np.array([3e200, 4e200]), 1e-12) == pytest.approx(5e212 / 2 ** 0.5)
        assert wld._rms(np.array([1e300, 1.0]), 1e-12) == np.inf


def test_row_rates_name_the_first_parameter_off_the_chart():
    rates = wld._trajectory_rates(SCHW, None)
    inside, outside = [0.0, 8.0, 1.0, 0.0], [0.0, 1.5, 1.0, 0.0]
    u = [1.0, 0.0, 0.0, 0.0]
    rows = np.array([inside + u, outside + u, outside + u])
    with pytest.raises(DomainError, match="at parameter 0.25$"):
        rates(np.array([0.125, 0.25, 0.5]), rows)
    assert rates(np.array([0.125]), rows[:1]).shape == (1, 8)


@pytest.mark.parametrize("model, outside", [
    (SCHW, [0.0, 1.5, 1.0, 0.0]), (SCHW, [0.0, 8.0, 0.0, 0.0]),
    (RINDLER, [0.0, 0.0, 0.0, -3.0])], ids=["horizon", "axis", "rindler"])
def test_one_event_rates_check_the_chart_at_every_call(model, outside):
    """The scalar path of a free trajectory on an analytic model checks the
    chart at every evaluation, with the row path's message, and inside it
    gives the row path's derivative."""
    rates = wld._trajectory_rates(model, None)
    u = [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(DomainError, match=r"trajectory left chart domain at parameter 0\.25$"):
        rates(0.25, np.array(outside + u))
    inside = np.array([0.0, 8.0, 1.0, 0.3, 1.2, 0.3, 0.1, 0.5])
    assert_close(rates(0.5, inside), rates(np.array([0.5]), inside[None])[0])


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
    assert getattr(DOP853, "n_stages", None) == 12, where
    solver = DOP853(lambda t, y: -y, 0.0, np.ones(3), 1.0)
    assert np.shape(getattr(solver, "K_extended", None)) == (16, 3), where
    assert np.shares_memory(solver.K, solver.K_extended) and solver.K.shape == (13, 3), where
    assert hasattr(rk, "Dop853DenseOutput"), f"scipy.integrate._ivp.rk.Dop853DenseOutput missing in {where}"
    shapes = {"A": (12, 12), "B": (12,), "C": (12,), "A_EXTRA": (3, 16),
              "C_EXTRA": (3,), "D": (4, 16), "E3": (13,), "E5": (13,)}
    for name, shape in shapes.items():
        got = np.shape(getattr(DOP853, name, None))
        assert got == shape, f"DOP853.{name} has shape {got}, expected {shape}, in {where}"
    _, ode = dense_pairs()[0]
    piece = ode.interpolants[1]
    assert isinstance(piece, rk.Dop853DenseOutput), where
    assert np.shape(piece.F) == (7, 8), f"Dop853DenseOutput.F is {np.shape(piece.F)} in {where}"
    assert np.shape(piece.y_old) == (8,), where
    assert piece.t_old == ode.ts[1] and piece.h == ode.ts[2] - ode.ts[1], where
