"""quline's numpy interpolators against the scipy objects they replace.

``TabulatedModel`` interpolates its grid multilinearly, ``SampledWorldline``
reads a cubic Hermite spline and ``worldline_from_coordinate_path`` takes
the not-a-knot spline's slopes at its knots, all in numpy.  scipy is
imported here only, as the reference:

* the multilinear tetrads equal ``RegularGridInterpolator(method="linear")``
  byte for byte, on interior points, nodes and the grid's ends;
* the Hermite spline equals ``CubicHermiteSpline`` byte for byte, on interior
  points, knots, the span ends and points outside the span;
* the not-a-knot slopes agree with ``CubicSpline(x, y)(x, 1)`` within
  5e-14 of the largest slope (a different tridiagonal solve rounds
  differently), and byte for byte with two knots, where both are the chord.

Malformed grids and knots end in a QulineError naming the axis or row.
"""

import numpy as np
import pytest
import yaml
from scipy.interpolate import CubicHermiteSpline, CubicSpline, RegularGridInterpolator

from quline import cli
from quline import worldline as wld
from quline.errors import DomainError, QulineError
from quline.geometry import TabulatedModel, make_builtin_model

FLAT = make_builtin_model("minkowski", [])
SLOPE_TOL = 5e-14


def random_axis(rng, n):
    return np.cumsum(rng.uniform(0.05, 1.0, n)) - 2.0


def random_table(rng, axes):
    shape = tuple(map(len, axes)) + (4, 4)
    table = rng.normal(size=shape) + 4.0 * np.eye(4)
    table.flat[0] = -0.0            # a signed zero at a corner node
    return table


def grid_points(rng, axes, n=400):
    """Random interior points, then points with one coordinate on a node,
    then the two far corners of the grid."""
    pts = np.column_stack([rng.uniform(a[0], a[-1], n) for a in axes])
    for k, a in enumerate(axes):
        rows = slice(20 * k, 20 * k + 20)
        pts[rows, k] = rng.choice(a, 20)
    return np.vstack([pts, [a[0] for a in axes], [a[-1] for a in axes]])


@pytest.mark.parametrize("active", [(3,), (1, 3), (0, 2, 3), (0, 1, 2, 3)],
                         ids=["z", "xz", "tyz", "txyz"])
def test_tabulated_tetrads_are_scipys_multilinear_bytes(active):
    rng = np.random.default_rng(len(active))
    axes = [random_axis(rng, 3 + i) if i in active else np.array([0.25]) for i in range(4)]
    table = random_table(rng, axes)
    model = TabulatedModel(axes, table)
    squeezed = table.reshape(tuple(len(axes[i]) for i in active) + (4, 4))
    scipys = RegularGridInterpolator([axes[i] for i in active], squeezed, method="linear")
    pts = grid_points(rng, [axes[i] for i in active])
    points = np.tile(np.array([a[0] for a in axes]), (len(pts), 1))
    points[:, list(active)] = pts
    ours = model.tetrads(points)
    assert ours.shape == (len(points), 4, 4)
    assert ours.tobytes() == scipys(pts).tobytes()
    assert model.tetrads(points[7]).tobytes() == scipys(pts[7]).reshape(4, 4).tobytes()


def test_tabulated_tetrads_off_the_grid_raise_domain_error():
    axes = [[0.0], [0.0], [0.0], [0.0, 1.0, 2.0]]
    model = TabulatedModel(axes, np.tile(np.eye(4), (1, 1, 1, 3, 1, 1)))
    for z in (-1e-9, 2.0 + 1e-9, np.nan):
        with pytest.raises(DomainError):
            model.tetrads(np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, z]]))
    # an inactive axis is constant: any finite value reads the table
    assert model.tetrads([5.0, -3.0, 7.0, 1.0]).tolist() == np.eye(4).tolist()


BAD_AXES = {
    "descending": ([2.0, 1.0, 0.0], r"tabulated axis 3 must be strictly increasing: "
                                    r"node 1 is 1\.0 after 2\.0"),
    "repeated": ([0.0, 1.0, 1.0], r"tabulated axis 3 must be strictly increasing: "
                                  r"node 2 is 1\.0 after 1\.0"),
    "nan": ([0.0, np.nan, 2.0], r"tabulated axis 3 must be a non-empty list of finite nodes"),
}


@pytest.mark.parametrize("case", sorted(BAD_AXES))
def test_tabulated_axis_that_is_not_strictly_increasing_is_refused(case):
    zs, message = BAD_AXES[case]
    with pytest.raises(QulineError, match=f"^{message}$"):
        TabulatedModel([[0.0], [0.0], [0.0], zs], np.tile(np.eye(4), (1, 1, 1, 3, 1, 1)))


@pytest.mark.parametrize("case", ["descending", "repeated"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_tabulated_axis_that_is_not_strictly_increasing_exits_2(tmp_path, capsys, case,
                                                               command):
    zs, message = BAD_AXES[case]
    scenario = {
        "version": 1,
        "model": {"family": "tabulated",
                  "params": {"axes": [[0.0], [0.0], [0.0], zs],
                             "tetrads": [[[[np.eye(4).tolist()] * 3]]]}},
        "worldlines": {"rest": {"type": "static", "position": [0, 0, 0.5], "span": 0.5}},
        "qubits": {"q0": {"kind": "fermion", "worldline": "rest", "mass": 1000.0}},
        "schedule": [{"op": "transport", "qubit": "q0", "worldline": "rest"}],
    }
    path = tmp_path / "bad_axis.scenario"
    path.write_text(yaml.safe_dump(scenario))
    assert cli.main(["--out-dir", str(tmp_path), command, str(path)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err.strip()
    assert err.startswith("parse error: [model] tabulated params: tabulated axis 3 ")
    assert "\n" not in err


def spline_inputs(rng, n=40, m=12):
    knots = np.cumsum(rng.uniform(0.01, 0.2, n))
    y = rng.normal(size=(n, m))
    y[0, 0] = -0.0
    return knots, y, rng.normal(size=(n, m))


def test_hermite_spline_is_scipys_bytes():
    rng = np.random.default_rng(5)
    knots, y, dydx = spline_inputs(rng)
    ours, scipys = wld._hermite_spline(knots, y, dydx), CubicHermiteSpline(knots, y, dydx)
    span = knots[-1] - knots[0]
    lams = np.concatenate([rng.uniform(knots[0], knots[-1], 500), knots,
                           rng.uniform(knots[0] - span, knots[0], 20),
                           rng.uniform(knots[-1], knots[-1] + span, 20)])
    assert ours(lams).shape == (len(lams), y.shape[1])
    assert ours(lams).tobytes() == scipys(lams).tobytes()
    for lam in (knots[0], knots[17], knots[-1], knots[0] - 0.3, knots[-1] + 0.3, 1.234):
        assert ours(lam).tobytes() == scipys(lam).tobytes()


def test_sampled_worldline_reads_scipys_hermite_spline():
    params = np.linspace(0.0, 4.0, 60)
    x, u, a = wld.integrate_timelike(FLAT, wld.constant_magnetic_field([0.2, 0.0, 0.9]),
                                     np.zeros(4), [1.25, 0.75, 0.0, 0.0], charge_to_mass=1.3,
                                     span=4.0, tol=1e-12).kinematics(params)[:3]
    wl = wld.SampledWorldline(FLAT, params, x, u, a)
    xdot, pulled = FLAT.pulled_connections(x, u)
    udot = a - (pulled @ u[:, :, None])[:, :, 0]
    scipys = CubicHermiteSpline(params, np.hstack([x, u, a]),
                                np.hstack([xdot, udot, np.gradient(a, params, axis=0)]))
    lams = np.concatenate([np.linspace(0.0, 4.0, 301), params])
    assert np.hstack(wl.motion(lams)).tobytes() == scipys(lams).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 11, 801])
def test_not_a_knot_slopes_match_scipys_cubic_spline(n):
    rng = np.random.default_rng(n)
    for knots in (np.linspace(0.0, 3.0, n), np.cumsum(rng.uniform(0.01, 1.0, n))):
        y = np.column_stack([np.sin(3.0 * knots), 5.0 * np.cos(knots), knots**2,
                             rng.normal(size=n)])
        ours, scipys = wld._not_a_knot_slopes(knots, y), CubicSpline(knots, y)(knots, 1)
        assert ours.shape == scipys.shape
        if n == 2:
            assert ours.tobytes() == scipys.tobytes()
        assert np.abs(ours - scipys).max() <= SLOPE_TOL * np.abs(scipys).max()


def test_not_a_knot_slopes_are_exact_on_cubics():
    """The not-a-knot spline through samples of a cubic is that cubic."""
    knots = np.cumsum(np.random.default_rng(2).uniform(0.1, 0.5, 30))
    y = np.column_stack([knots**3 - knots, 2.0 - 0.5 * knots**2])
    exact = np.column_stack([3.0 * knots**2 - 1.0, -knots])
    np.testing.assert_allclose(wld._not_a_knot_slopes(knots, y), exact, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [0, 1])
def test_coordinate_path_needs_two_knots(n):
    with pytest.raises(DomainError, match=rf"^coordinate path needs at least 2 knots \(n = {n}\)$"):
        wld.worldline_from_coordinate_path(FLAT, lambda t: [0.1 * t, 0.0, 0.0],
                                           lambda t: [0.1, 0.0, 0.0], 0.0, 1.0, n=n)


BAD_KNOTS = {
    "nan": (3, np.nan, r"row 3 has nan after 0\.2"),
    "inf": (0, np.inf, r"row 0 has inf"),
    "decreasing": (4, 0.1, r"row 4 has 0\.1 after 0\.30000000000000004"),
    "repeated": (2, 0.1, r"row 2 has 0\.1 after 0\.1"),
}


def sampled_rows(n=8):
    params = 0.1 * np.arange(n)
    x = np.column_stack([params, np.zeros((n, 3))])
    u = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    return params, x, u, np.zeros((n, 4))


@pytest.mark.parametrize("case", sorted(BAD_KNOTS))
def test_sampled_worldline_refuses_bad_knots(case):
    row, value, message = BAD_KNOTS[case]
    params, x, u, a = sampled_rows()
    params[row] = value
    with pytest.raises(DomainError, match=rf"^sampled worldline params must be finite and "
                                          rf"strictly increasing: {message}$"):
        wld.SampledWorldline(FLAT, params, x, u, a)


@pytest.mark.parametrize("case", sorted(BAD_KNOTS))
def test_csv_worldline_refuses_bad_knots(tmp_path, case):
    row, value, message = BAD_KNOTS[case]
    wl = wld.static_worldline(FLAT, [0.0, 0.0, 0.0], 0.7)
    path = tmp_path / "line.csv"
    wl.to_csv(path, n=8)
    lines = path.read_text().splitlines()
    fields = lines[1 + row].split(",")
    fields[0] = lines[row].split(",")[0] if case == "repeated" else repr(float(value))
    lines[1 + row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DomainError, match=f"row {row} has "):
        wld.worldline_from_csv(path, FLAT)


def test_sampled_worldline_refuses_non_finite_samples():
    params, x, u, a = sampled_rows()
    a[5, 2] = np.nan
    with pytest.raises(DomainError, match=r"^sampled worldline samples must be finite: "
                                          r"row 5 is not$"):
        wld.SampledWorldline(FLAT, params, x, u, a)
