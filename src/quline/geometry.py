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

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QulineError, ToleranceError
from .spin_algebra import (ETA, LocalLorentz, generator_contraction, lorentz_image,
                           minkowski_dot)

# 4th-order central difference stencil; default step in chart units.
_FD_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_FD_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
# unit offsets of the stencil points: the centre, then _FD_OFFSETS along each axis
_STENCIL = np.vstack([np.zeros(4),
                      np.einsum("nm,k->nkm", np.eye(4), _FD_OFFSETS).reshape(-1, 4)])
DEFAULT_FD_STEP = 1e-5


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
        if self.chart_id != other.chart_id:
            return False
        scale = 1.0 + np.abs(self.coords).max() + np.abs(other.coords).max()
        return np.abs(self.coords - other.coords).max() <= tol * scale


def check_finite(coords):
    """Raise unless every event coordinate is finite, for one event or a stack."""
    if not np.all(np.isfinite(coords)):
        raise QulineError("event coordinates must be finite")


def _coords_of(x):
    return x.coords if isinstance(x, Event) else np.asarray(x, dtype=float).reshape(4)


class SpacetimeModel:
    """Base class: a chart, a tetrad field and everything derived from it.

    Subclasses provide ``tetrads`` and, where they know them in closed form,
    ``connections`` and ``metric``; the fallbacks defined here take the
    metric from the inverse tetrad and the connection from finite
    differences of the tetrad and the metric.
    """

    name = "model"
    chart_id = "chart"
    connection_mode = "finite-difference"
    signature = "(+,-,-,-)"

    def __init__(self, fd_step=DEFAULT_FD_STEP):
        self.fd_step = float(fd_step)

    # -- mandatory surface -------------------------------------------------
    def tetrads(self, points):
        """e^mu_I at a (4,) event, (4, 4), or at each row of an (n, 4) array,
        (n, 4, 4)."""
        raise NotImplementedError

    def in_domain(self, coords):
        """Whether the chart holds the event(s): coordinates on the first
        axis, (4,) or (4, n); a bool or an (n,) array of them."""
        return True

    # -- derived surface ---------------------------------------------------
    def event(self, *coords):
        c = np.asarray(coords, dtype=float).reshape(4)
        self.check_domain(c)
        return Event(c, self.chart_id)

    def check_domain(self, x):
        """Raise DomainError unless the event (an Event or (4,) coordinates),
        or every row of an (n, 4) array, lies on this chart; names the first
        event outside."""
        c = x.coords if isinstance(x, Event) else np.asarray(x, dtype=float)
        inside = self.in_domain(c.T)
        if not np.all(inside):
            first = c.reshape(-1, 4)[np.argmin(np.reshape(inside, -1))]
            raise DomainError(f"{self.name}: coordinates {first.tolist()} "
                              "outside chart domain")
        if isinstance(x, Event) and x.chart_id != self.chart_id:
            raise DomainError(f"event on chart {x.chart_id!r}, model uses {self.chart_id!r}")

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
        return connection_finite_difference(self, points, self.fd_step)

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


def connection_finite_difference(model, coords, step=None):
    """omega_nu^I_J from finite differences of the tetrad and the metric, at a
    (4,) event, (4, 4, 4), or at each row of an (n, 4) array, (n, 4, 4, 4).

    Used both as the generic evaluator for models without analytic
    connections and as the self-consistency oracle for the analytic ones.
    One ``tetrads`` call covers the 17 stencil points of every event: the
    centre, then _FD_OFFSETS[k] * step along coordinate nu at 1 + 4 nu + k.
    Tetrad and metric derivatives share those evaluations.
    """
    coords = np.asarray(coords, dtype=float)
    h = model.fd_step if step is None else step
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
    ``OMEGA``.  It runs over a backend namespace: ``math`` for one event's
    Python floats, ``numpy`` for a (4,) event or the transposed rows of an
    (n, 4) array.  ``tetrads`` and ``connections`` scatter it into zeros;
    ``pulled_connections`` contracts it with the velocities, and
    ``trajectory_rates`` contracts it in scalar arithmetic at one event and
    through ``pulled_connections``, in the same pairing, at many.
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

    def trajectory_rates(self, x, u):
        if x.ndim > 1:
            xdot, pulled = self.pulled_connections(x, u)
            r = pulled * u[:, None, :]
            return np.concatenate([xdot, -((r[..., 0] + r[..., 2]) + (r[..., 1] + r[..., 3]))],
                                  axis=1)
        diag, values = self._frame(x.tolist(), math)
        u = u.tolist()
        xdot = [d * v for d, v in zip(diag, u)]
        p = [[0.0] * 4 for _ in range(4)]      # p[I][J] = xdot^nu omega_nu^I_J
        for (nu, i, j), w in zip(self.OMEGA, values):
            p[i][j] += xdot[nu] * w
        # summed in the pairing numpy's bundled OpenBLAS uses for a (4, 4) @
        # (4,) product on x86-64, so that the result equals the base-class
        # contraction bit for bit there; another BLAS kernel or CPU dispatch,
        # or a numpy sin/cos that differs from math's, may move it by an ulp
        return np.array(xdot + [-((r[0] * u[0] + r[2] * u[2]) + (r[1] * u[1] + r[3] * u[3]))
                                for r in p])


class MinkowskiModel(_AnalyticModel):
    name = "minkowski"
    chart_id = "minkowski-cartesian"

    def metric(self, x):
        return ETA.copy()

    def _frame(self, c, xp):
        return (1.0, 1.0, 1.0, 1.0), ()


class RindlerModel(_AnalyticModel):
    """Uniformly accelerated frame: g_00 = (1 + z g)^2, Cartesian (t, x, y, z).

    ``g`` is the proper acceleration at z = 0 in natural units (1/length).
    Stored explicitly so g_00 is evaluated exactly, never sampled.
    """

    name = "rindler"
    chart_id = "rindler-cartesian"
    OMEGA = ((0, 0, 3), (0, 3, 0))

    def __init__(self, g, fd_step=DEFAULT_FD_STEP):
        super().__init__(fd_step)
        if g <= 0:
            raise DomainError("Rindler acceleration must be positive")
        self.g = float(g)

    def in_domain(self, coords):
        return 1.0 + coords[3] * self.g > 1e-12

    def _f(self, coords):
        return 1.0 + coords[3] * self.g

    def _frame(self, c, xp):
        return (1.0 / self._f(c), 1.0, 1.0, 1.0), (self.g, self.g)

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

    def __init__(self, mass, fd_step=DEFAULT_FD_STEP):
        super().__init__(fd_step)
        if mass <= 0:
            raise DomainError("Schwarzschild mass must be positive")
        self.mass = float(mass)

    def in_domain(self, coords):
        r, th = coords[1], coords[2]
        return ((r > 2.0 * self.mass * (1.0 + 1e-12))
                & (self._axis_margin < th) & (th < np.pi - self._axis_margin))

    def _f(self, coords):
        return 1.0 - 2.0 * self.mass / coords[1]

    def _frame(self, c, xp):
        r, th = c[1], c[2]
        sf = xp.sqrt(1.0 - 2.0 * self.mass / r)
        sin, cos = xp.sin(th), xp.cos(th)
        m_r2 = self.mass / r**2
        return ((1.0 / sf, sf, 1.0 / r, 1.0 / (r * sin)),
                (m_r2, m_r2, -sf, sf, -sf * sin, sf * sin, -cos, cos))

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

    Multilinear interpolation between nodes; axes with a single node are
    treated as constant.  Connection is always finite-difference.
    """

    name = "tabulated"
    chart_id = "tabulated-grid"

    def __init__(self, axes, tetrads, fd_step=None):
        self.axes = [np.asarray(a, dtype=float) for a in axes]
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
        step = fd_step if fd_step is not None else min(spans) * 1e-4 if spans else DEFAULT_FD_STEP
        super().__init__(step)
        self._active = [i for i, a in enumerate(self.axes) if len(a) > 1]
        from scipy.interpolate import RegularGridInterpolator
        pts = [self.axes[i] for i in self._active]
        vals = self.values
        for i in reversed(range(4)):
            if i not in self._active:
                vals = vals.take(0, axis=i)
        self._interp = RegularGridInterpolator(pts, vals, method="linear") if pts else None
        self._const = vals if not pts else None

    def in_domain(self, coords):
        inside = True
        for i in self._active:
            a = self.axes[i]
            inside = inside & (a[0] <= coords[i]) & (coords[i] <= a[-1])
        return inside

    def tetrads(self, points):
        c = np.asarray(points, dtype=float)
        if self._interp is None:
            return np.broadcast_to(self._const, c.shape[:-1] + (4, 4)).copy()
        return self._interp(c[..., self._active]).reshape(c.shape[:-1] + (4, 4))


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
    """A model re-gauged by a local Lorentz field Lambda(x).

    Inverse tetrad transforms as e^I_mu -> Lambda^I_J e^J_mu; the metric is
    unchanged; the connection picks up the inhomogeneous Lambda dLambda term.
    If ``jacobian`` (event -> d_mu Lambda^I_J, shape (4,4,4)) is supplied and
    the base connection is analytic, the transformed connection is evaluated
    without finite differences.
    """

    def __init__(self, base, field, jacobian=None):
        super().__init__(base.fd_step)
        self.base = base
        self.field = field
        self.jacobian = jacobian
        self.name = base.name + "+lorentz"
        self.chart_id = base.chart_id
        self.connection_mode = (
            "analytic" if jacobian is not None and base.connection_mode == "analytic"
            else "finite-difference"
        )

    def in_domain(self, coords):
        return self.base.in_domain(coords)

    def _lambda(self, coords):
        lam = self.field(Event(coords, self.chart_id))
        if isinstance(lam, LocalLorentz):
            return lam.matrix
        lam = np.asarray(lam, dtype=float)
        LocalLorentz(lam)  # validates
        return lam

    def tetrads(self, points):
        c = np.asarray(points, dtype=float)
        lam = np.reshape([self._lambda(p) for p in c.reshape(-1, 4)], c.shape[:-1] + (4, 4))
        return self.base.tetrads(c) @ np.linalg.inv(lam)

    def inverse_tetrad(self, x):
        c = _coords_of(x)
        return self._lambda(c) @ self.base.inverse_tetrad(c)

    def metric(self, x):
        return self.base.metric(_coords_of(x))

    def connections(self, points):
        if self.connection_mode != "analytic":
            return super().connections(points)
        c = np.asarray(points, dtype=float)
        base_omegas = self.base.connections(c)          # checks the domain
        # ``field`` and ``jacobian`` take one Event, so this runs row by row
        omegas = []
        for p, base_omega in zip(c.reshape(-1, 4), base_omegas.reshape(-1, 4, 4, 4)):
            lam = self._lambda(p)
            lam_inv = np.linalg.inv(lam)
            dlam = np.asarray(self.jacobian(Event(p, self.chart_id)), dtype=float)
            omega = np.einsum("ik,nkl,lj->nij", lam, base_omega, lam_inv)
            # inhomogeneous term Lambda d_mu(Lambda^{-1}), with
            # d(Lambda^{-1}) = -Lambda^{-1} dLambda Lambda^{-1}
            dlam_inv = -np.einsum("ik,nkl,lj->nij", lam_inv, dlam, lam_inv)
            omegas.append(omega + np.einsum("ik,nkj->nij", lam, dlam_inv))
        return np.reshape(omegas, c.shape[:-1] + (4, 4, 4))


def apply_local_lorentz(model, field, jacobian=None):
    """Re-gauge ``model`` by the local Lorentz field ``field`` (event -> Lambda).

    Without ``jacobian``, ``TransformedModel.tetrads`` calls ``field`` and
    validates its ``LocalLorentz`` at each of the 17 stencil points per event:
    connections (and transports) cost several hundred times the analytic
    base's, 8 ms against 0.02 ms for 15 Schwarzschild events on a 2-vCPU Xeon.
    """
    return TransformedModel(model, field, jacobian)


def lower_connection(omega):
    """omega_{nu I J} = eta_{IK} omega_nu^K_J; antisymmetric in (I, J)."""
    return np.einsum("ik,nkj->nij", ETA, omega)


def pulled_connection(model, x, xdot):
    """xdot^nu omega_nu^I_J at one event, or row by row for (n, 4) arrays."""
    return np.einsum("...n,...nij->...ij", xdot, model.connections(x))


def _parallel_generator(x, u, a, xdot, pulled):
    """i L(1/2 eta pulled), the spin-half generator of parallel transport."""
    return 0.5j * generator_contraction(ETA @ pulled)


def parallel_propagator(worldline, params, tol):
    """The (n, 4, 4) real maps at ``params`` of parallel transport
    dV^I/dlam = -xdot^nu omega_nu^I_J V^J along ``worldline``: the
    :func:`quline.spin_algebra.lorentz_image` of the spin-half maps of
    :func:`_parallel_generator` (the covariant one without Fermi-Walker)."""
    from .worldline import propagate

    return lorentz_image(propagate(worldline, _parallel_generator, params, tol))


def parallel_transport_vector(worldline, v0, tol=1e-11):
    """Parallel transport tetrad components V^I along a sampled worldline.

    Returns (params, vectors) with vectors[i] the transported V at params[i];
    eta-norm conservation is checked against ``tol`` and reported via
    :class:`ToleranceError` on failure.
    """
    v0 = np.asarray(v0, dtype=float).reshape(4)
    t0, t1 = worldline.param_span
    params = np.linspace(t0, t1, 201)
    vectors = parallel_propagator(worldline, params, tol) @ v0
    n0 = minkowski_dot(v0, v0)
    drift = np.abs(minkowski_dot(vectors.T, vectors.T) - n0).max()
    scale = 1.0 + abs(n0)
    if drift > 1000.0 * tol * scale * max(1.0, abs(t1 - t0)):
        raise ToleranceError("parallel transport norm drift exceeds budget",
                             achieved=drift, requested=tol)
    return params, vectors
