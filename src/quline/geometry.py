"""Spacetimes as tetrad fields: metrics, connections, local Lorentz gauge moves.

A model evaluates, at any event of its single open chart:

* ``metric(coords)``        g_{mu nu}                      (4,4), row mu
* ``tetrad(coords)``        e^mu_I                         (4,4), row mu, column I
* ``inverse_tetrad(coords)``e^I_mu                         (4,4), row I, column mu
* ``connection(coords)``    omega_nu^I_J                   (4,4,4), [nu, I, J]

Each model has one batched primitive, ``tetrads(points)``: e^mu_I at a (4,)
event or at each row of an (n, 4) array, (n,4,4).  ``connections(points)``
is batched the same way; unless a model knows omega in closed form it is
:func:`connection_finite_difference`, one ``tetrads`` call over the 17n
points of the n events' stencils.  ``pulled_connections(points, u)`` gives
what a transport step needs along tetrad velocities u^I, the coordinate
velocity xdot^mu = e^mu_I u^I and the pulled connection
xdot^nu omega_nu^I_J, from one evaluation of the frame where the model
knows it in closed form; ``Worldline.kinematics`` hands both to the
transport generators; parallel transport dV/dlam = -pulled V is the Lorentz
image of the spinor transport by i L(1/2 eta pulled).  The one-event forms
``tetrad``, ``connection`` and ``check_domain`` are defined once, on the base
class.

Natural units c = hbar = 1 throughout; all conversion happens at the CLI
boundary.  The connection is omega_nu^I_J = e^I_rho d_nu e^rho_J
+ Gamma^sigma_{nu rho} e^I_sigma e^rho_J; after lowering the I index with
eta it is antisymmetric in (I, J).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QulineError
from .spin_algebra import ETA, ETA_ROWS, check_lorentz, generator_contraction, lorentz_image

__all__ = [
    "Event", "check_finite", "SpacetimeModel", "connection_finite_difference", "MinkowskiModel",
    "RindlerModel", "SchwarzschildModel", "TabulatedModel", "make_builtin_model",
    "TransformedModel", "apply_local_lorentz", "pulled_connection", "parallel_propagator",
]

# 4th-order central difference stencil; default step in chart units.
_FD_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_FD_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
# unit offsets of the stencil points: the centre, then _FD_OFFSETS along each axis
_STENCIL = np.vstack([np.zeros(4),
                      np.einsum("nm,k->nkm", np.eye(4), _FD_OFFSETS).reshape(-1, 4)])
DEFAULT_FD_STEP = 1e-5
# eta_II eta_JJ: a Lorentz matrix's inverse eta Lambda^T eta is its transpose times these
_LORENTZ_SIGNS = np.outer(np.diag(ETA), np.diag(ETA))


@dataclass(frozen=True)
class Event:
    """A point of a chart: four coordinates plus the chart it lives on."""

    coords: np.ndarray
    chart_id: str

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float).reshape(4)
        check_finite(c)
        object.__setattr__(self, "coords", c)

    def close_to(self, other, tol=1e-9):
        """Same chart, and every coordinate within ``tol`` (1 + max|x| + max|y|)
        of the other's; judged in Python floats, and nan fails."""
        if self.chart_id != other.chart_id:
            return False
        a, b = self.coords.tolist(), other.coords.tolist()
        bound = tol * (1.0 + max(map(abs, a)) + max(map(abs, b)))
        return all(abs(x - y) <= bound for x, y in zip(a, b))


def check_finite(coords):
    """Raise unless every event coordinate is finite, for one event or a
    stack; judged in Python floats."""
    if not all(map(math.isfinite, np.asarray(coords, dtype=float).ravel().tolist())):
        raise QulineError("event coordinates must be finite")


def _coords_of(x):
    return x.coords if isinstance(x, Event) else np.asarray(x, dtype=float).reshape(4)


class SpacetimeModel:
    """Base class: a chart, a tetrad field and everything derived from it.

    Subclasses provide ``tetrads`` and, where they know them in closed form,
    ``connections`` and ``metric``; the fallbacks defined here take the
    metric from the inverse tetrad and the connection from finite
    differences of the tetrad and the metric, with step ``fd_step``.
    """

    name = "model"
    chart_id = "chart"
    connection_mode = "finite-difference"
    signature = "(+,-,-,-)"
    fd_step = DEFAULT_FD_STEP

    # -- mandatory surface -------------------------------------------------
    def tetrads(self, points):
        """e^mu_I at a (4,) event, (4, 4), or at each row of an (n, 4) array,
        (n, 4, 4)."""
        raise NotImplementedError

    def in_domain(self, coords):
        """Whether the chart holds the event(s): coordinates on the first
        axis, four Python floats, (4,) or (4, n); a bool or an (n,) array of
        them."""
        return True

    # -- derived surface ---------------------------------------------------
    def event(self, *coords):
        c = np.asarray(coords, dtype=float).reshape(4)
        self.check_domain(c)
        return Event(c, self.chart_id)

    def check_domain(self, x):
        """Raise DomainError unless the event (an Event or (4,) coordinates),
        or every row of an (n, 4) array, is finite and lies on this chart;
        names an Event of another chart, or the first event that is not.  One
        event is judged in Python floats; a stack, or an event that fails, on
        numpy arrays, which word the message."""
        if isinstance(x, Event):
            if x.chart_id != self.chart_id:
                raise DomainError(f"event on chart {x.chart_id!r}, model uses {self.chart_id!r}")
            c = x.coords
        else:
            c = np.asarray(x, dtype=float)
        if c.shape == (4,):
            one = c.tolist()
            if all(map(math.isfinite, one)) and self.in_domain(one):
                return
        finite = np.isfinite(c.reshape(-1, 4)).all(axis=1)
        if not finite.all():
            raise DomainError(f"event coordinates must be finite, got "
                              f"{c.reshape(-1, 4)[np.argmin(finite)].tolist()}")
        inside = self.in_domain(c.T)
        if not np.all(inside):
            first = c.reshape(-1, 4)[np.argmin(np.reshape(inside, -1))]
            raise DomainError(f"{self.name}: coordinates {first.tolist()} "
                              "outside chart domain")

    def tetrad(self, x):
        return self.tetrads(_coords_of(x))

    def inverse_tetrad(self, x):
        return np.linalg.inv(self.tetrad(x))

    def metric(self, x):
        einv = self.inverse_tetrad(x)
        return einv.T @ ETA @ einv

    def connection(self, x):
        self.check_domain(x)
        return self.connections(_coords_of(x))

    def connections(self, points):
        """omega_nu^I_J at a (4,) event, (4, 4, 4), or at each row of an
        (n, 4) array, (n, 4, 4, 4)."""
        self.check_domain(points)
        return connection_finite_difference(self, points)

    def pulled_connections(self, points, velocities):
        """(xdot, pulled) along the tetrad velocities u^I at the events: the
        coordinate velocity xdot^mu = e^mu_I u^I and the pulled connection
        xdot^nu omega_nu^I_J; (4,) and (4, 4) at a (4,) event, (n, 4) and
        (n, 4, 4) at the rows of (n, 4) arrays.  Raises DomainError off the
        chart."""
        xdot = self.to_coords(points, velocities)
        return xdot, pulled_connection(self, points, xdot)

    def trajectory_rates(self, x, u):
        """(xdot^mu, udot^I) of a free trajectory at the event ``x`` with tetrad
        velocity ``u``, one (8,) vector, or row by row for (n, 4) arrays, (n, 8):
        xdot^mu = e^mu_I u^I and udot^I = -xdot^nu omega_nu^I_J u^J (add any
        force to udot)."""
        xdot, pulled = self.pulled_connections(x, u)
        return np.concatenate([xdot, -(pulled @ u[..., None])[..., 0]], axis=-1)

    # -- small conveniences used throughout the library ---------------------
    def to_coords(self, x, v_tetrad):
        """Tetrad components V^I -> coordinate components V^mu; row by row for
        an (n, 4) array of events and an (n, 4) array of vectors."""
        v = np.asarray(v_tetrad)
        if v.ndim == 1:
            return self.tetrad(x) @ v
        return (self.tetrads(x) @ v[:, :, None])[:, :, 0]

    def lower_coordinate(self, x, v_coords):
        return self.metric(x) @ np.asarray(v_coords)


def _stencil_derivative(samples, step):
    """d_nu of a field from its values at the 16 offset stencil points, which
    run along the first axis; [nu, ...]."""
    grouped = samples.reshape((4, len(_FD_OFFSETS)) + samples.shape[1:])
    return np.einsum("k,nk...->n...", _FD_WEIGHTS, grouped) / step


def connection_finite_difference(model, coords):
    """omega_nu^I_J from finite differences of the tetrad and the metric, with
    the model's step ``fd_step``, at a (4,) event, (4, 4, 4), or at each row of
    an (n, 4) array, (n, 4, 4, 4).

    Used both as the generic evaluator for models without analytic
    connections and as the self-consistency oracle for the analytic ones.
    One ``tetrads`` call covers the 17 stencil points of every event: the
    centre, then _FD_OFFSETS[k] * fd_step along coordinate nu at 1 + 4 nu + k.
    Tetrad and metric derivatives share those evaluations.
    """
    coords = np.asarray(coords, dtype=float)
    h = model.fd_step
    points = coords + h * _STENCIL.reshape((17,) + (1,) * (coords.ndim - 1) + (4,))
    flat = points.reshape(-1, 4)
    if not np.all(model.in_domain(flat.T)):
        raise DomainError(f"{model.name}: finite-difference stencil leaves chart domain")
    e = model.tetrads(flat).reshape(points.shape + (4,))   # e[stencil, ..., mu, I]
    try:
        einv = np.linalg.inv(e)
    except np.linalg.LinAlgError:
        worst = np.abs(np.linalg.det(e)).reshape(17, -1).min(axis=0).argmin()
        raise DomainError(f"{model.name}: tetrad singular on the finite-difference stencil "
                          f"of event {coords.reshape(-1, 4)[worst].tolist()}") from None
    g = np.swapaxes(einv, -1, -2) @ ETA @ einv
    e0, einv0 = e[0], einv[0]
    de = _stencil_derivative(e[1:], h)                     # de[nu, ..., rho, J]
    dg = _stencil_derivative(g[1:], h)                     # dg[nu, ..., a, b]
    # Gamma^s_{nr} = 1/2 g^{sa}(d_n g_{ar} + d_r g_{an} - d_a g_{nr})
    gamma = 0.5 * np.einsum("...sa,n...ra->...snr",
                            e0 @ ETA @ np.swapaxes(e0, -1, -2),
                            np.einsum("n...ar->n...ra", dg)
                            + np.einsum("r...an->n...ra", dg)
                            - np.einsum("a...nr->n...ra", dg))
    return (np.einsum("...ir,n...rj->...nij", einv0, de)
            + np.einsum("...snr,...is,...rj->...nij", gamma, einv0, e0))


class _AnalyticModel(SpacetimeModel):
    """A model with a diagonal tetrad and a sparse connection in closed form.

    ``_frame(c, xp)`` is the one formula: from the coordinates ``c`` it
    returns the tetrad diagonal (e^0_0, e^1_1, e^2_2, e^3_3) and the values
    of the nonzero omega_nu^I_J, listed once per class as ``(nu, I, J)`` in
    ``OMEGA``.  It runs over a backend namespace: ``numpy`` for a (4,) event
    or the transposed rows of an (n, 4) array, ``math`` for one event's
    Python floats.  ``tetrads`` and ``connections`` scatter it into zeros,
    ``pulled_connections`` contracts it with the velocities and
    ``trajectory_rates`` contracts that for (n, 4) rows.

    ``_rates(s)`` gives one event's trajectory derivative (xdot^mu, udot^I)
    as a list of 8 floats, from the state s = (x^mu, u^I) as 8 floats, or
    None when the chart does not hold x: it tests the bounds ``in_domain``
    tests, with the same expressions, so it refuses exactly the states
    ``in_domain`` refuses, nan coordinates among them.  Each class writes it
    out as straight-line code: the contraction of ``_frame(x, math)`` over
    ``OMEGA`` term by term, keeping the zero terms that fix the sign of a
    zero, so that it equals that contraction bit for bit.
    ``trajectory_rates`` calls it for (4,) arrays and returns an (8,) array,
    raising DomainError off the chart.
    """

    connection_mode = "analytic"
    OMEGA = ()

    def _frame(self, c, xp):
        raise NotImplementedError

    def tetrads(self, points):
        c = np.asarray(points, dtype=float)
        e = np.zeros(c.shape[:-1] + (4, 4))
        for i, d in enumerate(self._frame(c.T, np)[0]):
            e[..., i, i] = d
        return e

    def connections(self, points):
        self.check_domain(points)
        c = np.asarray(points, dtype=float)
        omega = np.zeros(c.shape[:-1] + (4, 4, 4))
        for (nu, i, j), w in zip(self.OMEGA, self._frame(c.T, np)[1]):
            omega[..., nu, i, j] = w
        return omega

    def pulled_connections(self, points, velocities):
        self.check_domain(points)
        u = np.asarray(velocities, dtype=float)
        diag, values = self._frame(np.asarray(points, dtype=float).T, np)
        xdot = np.empty_like(u)
        for i, d in enumerate(diag):
            xdot[..., i] = d * u[..., i]
        # accumulated onto zeros, as the sum over nu of the base-class contraction
        pulled = np.zeros(u.shape + (4,))
        for (nu, i, j), w in zip(self.OMEGA, values):
            pulled[..., i, j] += xdot[..., nu] * w
        return xdot, pulled

    def _rates(self, s):
        raise NotImplementedError

    def trajectory_rates(self, x, u):
        if x.ndim == 1:
            rates = self._rates(x.tolist() + u.tolist())
            if rates is None:
                self.check_domain(x)        # raises: the chart does not hold x
            return np.array(rates)
        xdot, pulled = self.pulled_connections(x, u)
        r = pulled * u[:, None, :]
        # summed in the pairing numpy's bundled OpenBLAS uses for a (4, 4) @
        # (4,) product on x86-64, so that the result equals the base-class
        # contraction bit for bit there; another BLAS kernel or CPU dispatch,
        # or a numpy sin/cos that differs from math's, may move it by an ulp
        return np.concatenate([xdot, -((r[..., 0] + r[..., 2]) + (r[..., 1] + r[..., 3]))],
                              axis=1)


class MinkowskiModel(_AnalyticModel):
    name = "minkowski"
    chart_id = "minkowski-cartesian"

    def metric(self, x):
        return ETA.copy()

    def _frame(self, c, xp):
        return (1.0, 1.0, 1.0, 1.0), ()

    def _rates(self, s):
        u0, u1, u2, u3 = s[4:]
        w = -((0.0 * u0 + 0.0 * u2) + (0.0 * u1 + 0.0 * u3))
        return [u0, u1, u2, u3, w, w, w, w]


class RindlerModel(_AnalyticModel):
    """Uniformly accelerated frame: g_00 = (1 + z g)^2, Cartesian (t, x, y, z).

    ``g`` is the proper acceleration at z = 0 in natural units (1/length).
    Stored explicitly so g_00 is evaluated exactly, never sampled.
    """

    name = "rindler"
    chart_id = "rindler-cartesian"
    OMEGA = ((0, 0, 3), (0, 3, 0))

    def __init__(self, g):
        if g <= 0:
            raise DomainError("Rindler acceleration must be positive")
        self.g = float(g)

    def in_domain(self, coords):
        return self._f(coords) > 1e-12

    def _f(self, coords):
        return 1.0 + coords[3] * self.g

    def _frame(self, c, xp):
        return (1.0 / self._f(c), 1.0, 1.0, 1.0), (self.g, self.g)

    def _rates(self, s):
        f = self._f(s)
        if not f > 1e-12:
            return None
        u0, u1, u2, u3 = s[4:]
        x0 = 1.0 / f * u0
        p = 0.0 + x0 * self.g
        z02, z13 = 0.0 * u0 + 0.0 * u2, 0.0 * u1 + 0.0 * u3
        return [x0, u1, u2, u3, -(z02 + (0.0 * u1 + p * u3)), -(z02 + z13),
                -(z02 + z13), -((p * u0 + 0.0 * u2) + z13)]

    def inverse_tetrad(self, x):
        f = self._f(_coords_of(x))
        return np.diag([f, 1.0, 1.0, 1.0])

    def metric(self, x):
        f = self._f(_coords_of(x))
        return np.diag([f * f, -1.0, -1.0, -1.0])


class SchwarzschildModel(_AnalyticModel):
    """Static exterior chart (t, r, theta, phi) with the diagonal tetrad.

    Domain: r > 2M with a small margin, theta bounded away from the axis
    where the phi leg of the tetrad degenerates.
    """

    name = "schwarzschild"
    chart_id = "schwarzschild-polar"
    _axis_margin = 1e-8
    OMEGA = ((0, 0, 1), (0, 1, 0), (2, 1, 2), (2, 2, 1),
             (3, 1, 3), (3, 3, 1), (3, 2, 3), (3, 3, 2))

    def __init__(self, mass):
        if mass <= 0:
            raise DomainError("Schwarzschild mass must be positive")
        self.mass = float(mass)
        # the chart's bounds on r and theta, which in_domain and _rates test
        self._r_min = 2.0 * self.mass * (1.0 + 1e-12)
        self._th_max = np.pi - self._axis_margin

    def in_domain(self, coords):
        r, th = coords[1], coords[2]
        return (r > self._r_min) & (self._axis_margin < th) & (th < self._th_max)

    def _f(self, coords):
        return 1.0 - 2.0 * self.mass / coords[1]

    def _frame(self, c, xp):
        r, th = c[1], c[2]
        sf = xp.sqrt(1.0 - 2.0 * self.mass / r)
        sin, cos = xp.sin(th), xp.cos(th)
        m_r2 = self.mass / r**2
        return ((1.0 / sf, sf, 1.0 / r, 1.0 / (r * sin)),
                (m_r2, m_r2, -sf, sf, -sf * sin, sf * sin, -cos, cos))

    def _rates(self, s):
        _, r, th, _, u0, u1, u2, u3 = s
        if not (r > self._r_min and self._axis_margin < th < self._th_max):
            return None
        sf = math.sqrt(1.0 - 2.0 * self.mass / r)
        sin, cos = math.sin(th), math.cos(th)
        x0, x2, x3 = 1.0 / sf * u0, 1.0 / r * u2, 1.0 / (r * sin) * u3
        # x * (-w) is -(x * w) exactly, and 0.0 - y is 0.0 + (-y)
        p01 = 0.0 + x0 * (self.mass / r**2)
        a, b, c = x2 * sf, x3 * (sf * sin), x3 * cos
        p12, p21, p13, p31, p23, p32 = 0.0 - a, 0.0 + a, 0.0 - b, 0.0 + b, 0.0 - c, 0.0 + c
        z02 = 0.0 * u0 + 0.0 * u2
        return [x0, sf * u1, x2, x3,
                -(z02 + (p01 * u1 + 0.0 * u3)),
                -((p01 * u0 + p12 * u2) + (0.0 * u1 + p13 * u3)),
                -(z02 + (p21 * u1 + p23 * u3)),
                -((0.0 * u0 + p32 * u2) + (p31 * u1 + 0.0 * u3))]

    def inverse_tetrad(self, x):
        c = _coords_of(x)
        f, r, th = self._f(c), c[1], c[2]
        return np.diag([np.sqrt(f), 1.0 / np.sqrt(f), r, r * np.sin(th)])

    def metric(self, x):
        c = _coords_of(x)
        f, r, th = self._f(c), c[1], c[2]
        return np.diag([f, -1.0 / f, -r * r, -(r * np.sin(th)) ** 2])


class TabulatedModel(SpacetimeModel):
    """Custom model from tetrad samples e^mu_I on a rectangular grid.

    Each axis is a non-empty list of finite, strictly increasing nodes, and
    one with a single node is treated as constant.  Between nodes the tetrad
    is multilinear over the other (active) axes: ``searchsorted`` finds each
    point's cell, a point on a node taking the cell to its right and the
    last node the last cell, and the cell's corners are weighted in the
    order and with the arithmetic of scipy's linear ``RegularGridInterpolator``,
    whose numbers they give byte for byte.  A point off the grid raises
    DomainError.  Connection is always finite-difference.
    """

    name = "tabulated"
    chart_id = "tabulated-grid"

    def __init__(self, axes, tetrads):
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        for i, a in enumerate(self.axes):
            if a.ndim != 1 or not a.size or not np.isfinite(a).all():
                raise QulineError(f"tabulated axis {i} must be a non-empty list of finite nodes")
            rising = a[1:] > a[:-1]
            if not rising.all():
                k = int(np.argmin(rising)) + 1
                raise QulineError(f"tabulated axis {i} must be strictly increasing: node {k} "
                                  f"is {a[k].item()!r} after {a[k - 1].item()!r}")
        self.values = np.asarray(tetrads, dtype=float)
        if len(self.axes) != 4 or self.values.shape != tuple(map(len, self.axes)) + (4, 4):
            raise QulineError("need four axes and a tetrad table of shape grid + (4, 4)")
        finite = np.isfinite(self.values).all(axis=(-2, -1))
        sizes = np.linalg.svd(np.where(finite[..., None, None], self.values, 0.0),
                              compute_uv=False)     # singular values, largest first
        bad = ~finite | (sizes[..., -1] <= np.finfo(float).eps * sizes[..., 0])
        if bad.any():
            raise QulineError(f"tabulated tetrad at node {tuple(np.argwhere(bad)[0].tolist())} "
                              "is singular or not finite")
        spans = [a[-1] - a[0] for a in self.axes if len(a) > 1]
        if spans:
            self.fd_step = float(min(spans) * 1e-4)
        self._active = [i for i, a in enumerate(self.axes) if len(a) > 1]
        table = self.values
        for i in reversed(range(4)):
            if i not in self._active:
                table = table.take(0, axis=i)
        self._table = table         # the values over the active axes

    def in_domain(self, coords):
        inside = True
        for i in self._active:
            a = self.axes[i]
            inside = inside & (a[0] <= coords[i]) & (coords[i] <= a[-1])
        return inside

    def tetrads(self, points):
        c = np.asarray(points, dtype=float)
        if not self._active:
            return np.broadcast_to(self._table, c.shape[:-1] + (4, 4)).copy()
        rows = c.reshape(-1, 4)
        if not np.all(self.in_domain(rows.T)):
            self.check_domain(rows)
        # per active axis, the cell's lower and upper corner with its weight
        corners = []
        for i in self._active:
            a, x = self.axes[i], rows[:, i]
            cell = a[1:-1].searchsorted(x, side="right")
            y = (x - a[cell]) / (a[cell + 1] - a[cell])
            corners.append(((cell, 1 - y), (cell + 1, y)))
        value = 0.0
        for corner in itertools.product(*corners):
            index, weights = zip(*corner)
            weight = 1.0
            for w in weights:
                weight = weight * w
            value = value + self._table[index] * weight[:, None, None]
        return value.reshape(c.shape[:-1] + (4, 4))


def make_builtin_model(name, params=()):
    """Construct one of the built-in model families.

    ``params``: [] for minkowski, [g] for rindler, [M] for schwarzschild,
    in natural units.
    """
    params = list(np.atleast_1d(np.asarray(params, dtype=float))) if len(params) else []
    if name == "minkowski":
        return MinkowskiModel()
    if name == "rindler":
        if len(params) != 1:
            raise QulineError("rindler takes exactly one parameter (acceleration g)")
        return RindlerModel(params[0])
    if name == "schwarzschild":
        if len(params) != 1:
            raise QulineError("schwarzschild takes exactly one parameter (mass M)")
        return SchwarzschildModel(params[0])
    raise QulineError(f"unknown model family {name!r}")


class TransformedModel(SpacetimeModel):
    """A model re-gauged by a local Lorentz field Lambda(x), as
    :func:`apply_local_lorentz` documents.

    Inverse tetrad transforms as e^I_mu -> Lambda^I_J e^J_mu; the metric is
    unchanged; the connection picks up the inhomogeneous Lambda dLambda term.
    Every row's Lambda is checked to be a proper orthochronous Lorentz matrix.
    """

    def __init__(self, base, field, jacobian=None):
        self.base = base
        self.field = field
        self.jacobian = jacobian
        self.fd_step = base.fd_step
        self.name = base.name + "+lorentz"
        self.chart_id = base.chart_id
        self.connection_mode = (
            "analytic" if jacobian is not None and base.connection_mode == "analytic"
            else "finite-difference"
        )

    def in_domain(self, coords):
        return self.base.in_domain(coords)

    def _lambda(self, c):
        lam = np.broadcast_to(self.field(c), c.shape[:-1] + (4, 4)).astype(float)
        check_lorentz(lam)
        return lam

    def tetrads(self, points):
        c = np.asarray(points, dtype=float)
        return self.base.tetrads(c) @ (self._lambda(c).swapaxes(-1, -2) * _LORENTZ_SIGNS)

    def inverse_tetrad(self, x):
        c = _coords_of(x)
        return self._lambda(c) @ self.base.inverse_tetrad(c)

    def metric(self, x):
        return self.base.metric(_coords_of(x))

    def connections(self, points):
        if self.connection_mode != "analytic":
            return super().connections(points)
        c = np.asarray(points, dtype=float)
        base_omega = self.base.connections(c)          # checks the domain
        lam = self._lambda(c)
        lam_inv = lam.swapaxes(-1, -2) * _LORENTZ_SIGNS
        dlam = np.broadcast_to(self.jacobian(c), c.shape[:-1] + (4, 4, 4)).astype(float)
        omega = np.einsum("...ik,...nkl,...lj->...nij", lam, base_omega, lam_inv)
        # inhomogeneous term Lambda d_mu(Lambda^{-1}), with
        # d(Lambda^{-1}) = -Lambda^{-1} dLambda Lambda^{-1}
        dlam_inv = -np.einsum("...ik,...nkl,...lj->...nij", lam_inv, dlam, lam_inv)
        return omega + np.einsum("...ik,...nkj->...nij", lam, dlam_inv)


def apply_local_lorentz(model, field, jacobian=None):
    """Re-gauge ``model`` by the local Lorentz field Lambda^I_J(x).

    ``field`` and the optional ``jacobian`` take chart coordinates on the
    last axis, (4,) or (n, 4), and return Lambda, (..., 4, 4), and
    d_mu Lambda^I_J, (..., 4, 4, 4) indexed [mu, I, J]; a constant return
    broadcasts over the rows.  Each is called once per batch of events (the
    finite-difference connection of n events calls ``field`` once, on its 17n
    stencil points).  With ``jacobian`` and an analytic base connection, the
    connection is evaluated without finite differences.
    """
    return TransformedModel(model, field, jacobian)


def pulled_connection(model, x, xdot):
    """xdot^nu omega_nu^I_J at one event, or row by row for (n, 4) arrays."""
    return np.einsum("...n,...nij->...ij", xdot, model.connections(x))


def _parallel_generator(x, u, a, xdot, pulled):
    """i L(1/2 eta pulled), the spin-half generator of parallel transport."""
    return 0.5j * generator_contraction(ETA_ROWS * pulled)


def parallel_propagator(worldline, params, tol):
    """The (n, 4, 4) real maps at ``params`` of parallel transport
    dV^I/dlam = -xdot^nu omega_nu^I_J V^J along ``worldline``: the
    :func:`quline.spin_algebra.lorentz_image` of the spin-half maps of
    :func:`_parallel_generator` (the covariant one without Fermi-Walker)."""
    from .worldline import propagate

    return lorentz_image(propagate(worldline, _parallel_generator, params, tol))

