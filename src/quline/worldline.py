"""Worldlines: Lorentz-force trajectories, null geodesics, prescribed paths.

A worldline knows its model and defines one evaluation, ``_motion(lam)``,
which returns (x, u, a) for a scalar parameter or three (n, 4) arrays for a
1-d array of n (proper time for timelike curves, an affine parameter for
null ones).  Every reader below comes from it, on the base class:

* ``position(lam)``             chart coordinates x^mu
* ``coordinate_velocity(lam)``  dx^mu/dlam (coordinate components)
* ``velocity(lam)``             u^I (tetrad components)
* ``acceleration(lam)``         a^I = Du^I/Dlam (tetrad components)
* ``kinematics(lam)``           (x, u, a, xdot, pulled), the four above and
                                the pulled connection xdot^nu omega_nu^I_J
                                from one evaluation of the model's frame;
                                for a 1-d array of n parameters, (n, 4)
                                arrays and an (n, 4, 4) one
* ``trajectory(params)``        positions and velocities, two (n, 4) arrays

A closed form is one function of the parameter, an ``AnalyticWorldline``
calls its scalar callables node by node, a sampled worldline is one spline
of the stacked (x, u, a), and an integrated one reads its dense output once
per call.

Timelike velocities satisfy u.u = 1, null ones u.u = 0; normalization is
verified after integration, never re-imposed.

Every qubit observable comes from one linear transport dS/dlam = G(lam) S
of 2x2 spin-half maps along a worldline (vectors take their Lorentz image);
:func:`propagate` returns S at the requested parameters from Magnus steps on
G at Gauss nodes, and callers apply it to their states; a scalar integral
along it (:func:`line_integral`) is the transport of a nilpotent generator.
The kernel refines its grid in rounds, level 0 the first, each evaluating G
in one call per CHUNK intervals: an interval the error estimate rejects is
split at once into the 2^m equal parts the estimate asks for, with depth
counted in bisections (m for such a split).
A generator is a function of the five arrays ``kinematics`` returns and of
nothing else along the worldline.  Trajectories are stepped by
:func:`_dop853`, scipy's DOP853 operation for operation without its solver
classes, which does only the work of step-size control while it runs;
their dense output is made afterwards in one pass.  The same stepper takes
the proper time of a prescribed path and the COW assembly's height integrals.
"""

from __future__ import annotations

import csv
import warnings
from collections.abc import Sequence

import numpy as np
from scipy.integrate import DOP853

from .errors import (ComplexVelocity, DomainError, QulineError, ToleranceError,
                     reject_where)
from .geometry import Event, _AnalyticModel
from .spin_algebra import _ROUNDING, ETA, check_norm, minkowski_dot


class EMField:
    """External electromagnetic field, as callables of chart coordinates on
    the last axis, (4,) or (n, 4), called once per batch of rows: ``field``
    returns F_IJ (antisymmetric tetrad components), (..., 4, 4), and the
    optional ``potential`` A_mu (lower coordinate components, used only by
    phase integrals), (..., 4).  A constant return broadcasts over the rows.
    """

    def __init__(self, field, potential=None):
        self._field = field
        self._potential = potential

    def tensor(self, coords):
        """F_IJ at one event, or an (n, 4, 4) stack at each row of (n, 4) coords."""
        coords = np.asarray(coords, dtype=float)
        f = np.broadcast_to(self._field(coords), coords.shape[:-1] + (4, 4)).astype(float)
        scale = 1e-12 * (1.0 + np.abs(f).max(axis=(-2, -1)))
        if not (np.all(np.isfinite(f))
                and np.all(np.abs(f + np.swapaxes(f, -1, -2)).max(axis=(-2, -1)) <= scale)):
            raise QulineError("EM field tensor must be antisymmetric")
        return f

    def has_potential(self):
        return self._potential is not None

    def potential(self, coords):
        """A_mu at one event, or an (n, 4) stack at each row of (n, 4) coords."""
        coords = np.asarray(coords, dtype=float)
        if self._potential is None:
            return np.zeros(coords.shape)
        return np.broadcast_to(self._potential(coords), coords.shape).astype(float)


def constant_magnetic_field(b_vector):
    """Homogeneous magnetic field in the frame of the tetrad: F_ij = -eps_ijk B^k."""
    b = np.asarray(b_vector, dtype=float).reshape(3)
    f = np.zeros((4, 4))
    f[1, 2] = -b[2]
    f[2, 1] = b[2]
    f[2, 3] = -b[0]
    f[3, 2] = b[0]
    f[3, 1] = -b[1]
    f[1, 3] = b[1]
    return EMField(lambda coords: f)


class Worldline:
    """Base class; see module docstring for the evaluation surface."""

    kind = "timelike"
    # parameters where the kinematics may be only piecewise smooth; the
    # transport kernel's grid contains them
    breakpoints = ()

    def __init__(self, model, span):
        self.model = model
        self.param_span = (float(span[0]), float(span[1]))
        if self.param_span[0] == self.param_span[1]:
            raise DomainError("worldline parameter span is empty")

    def _motion(self, lam):
        """(x, u, a) at ``lam``, a scalar or a 1-d array of parameters (then
        three (n, 4) arrays): the one evaluation a subclass defines."""
        raise NotImplementedError

    def position(self, lam):
        return self._motion(lam)[0]

    def velocity(self, lam):
        return self._motion(lam)[1]

    def acceleration(self, lam):
        return self._motion(lam)[2]

    def coordinate_velocity(self, lam):
        return self.model.to_coords(*self._motion(lam)[:2])

    def kinematics(self, lam):
        """(position, velocity, acceleration, coordinate_velocity, pulled) at
        ``lam``, a scalar or a 1-d array of parameters (then (n, 4) arrays and
        an (n, 4, 4) one), with the coordinate velocity and the pulled
        connection xdot^nu omega_nu^I_J from one call of the model's
        ``pulled_connections``."""
        x, u, a = self._motion(lam)
        return (x, u, a, *self.model.pulled_connections(x, u))

    def trajectory(self, params):
        """Positions and velocities at every parameter value, as two (n, 4) arrays."""
        return self._motion(np.asarray(params, dtype=float))[:2]

    def velocity_coordinate_derivative(self, lam):
        """du^I/dlam (ordinary derivative of the tetrad components), row by row
        for a 1-d array of parameters."""
        _, u, a, _, pulled = self.kinematics(lam)
        return a - (pulled @ u[..., None])[..., 0]

    def event(self, lam):
        return Event(self.position(lam), self.model.chart_id)

    @property
    def start_event(self):
        return self.event(self.param_span[0])

    @property
    def end_event(self):
        return self.event(self.param_span[1])

    def sample_params(self, n=201):
        return np.linspace(self.param_span[0], self.param_span[1], n)

    def norm_audit(self):
        """Max |u.u - target| over 201 samples (target 1 timelike, 0 null)."""
        target = 1.0 if self.kind == "timelike" else 0.0
        u = self.trajectory(self.sample_params())[1].T
        return float(np.abs(minkowski_dot(u, u) - target).max())

    def to_csv(self, path, n=201):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["param"] + [f"x{m}" for m in range(4)]
                       + [f"u{i}" for i in range(4)] + [f"a{i}" for i in range(4)])
            params = self.sample_params(n)
            x, u, a = self.kinematics(params)[:3]
            for row in np.column_stack([params, x, u, a]).tolist():
                w.writerow([f"{v:.17g}" for v in row])


class AnalyticWorldline(Worldline):
    """Worldline given by closed-form callables of the parameter.

    The callables may take one parameter value at a time, so an array of
    parameters is evaluated node by node.
    """

    def __init__(self, model, span, position, velocity, acceleration, kind="timelike"):
        super().__init__(model, span)
        self._callables = (position, velocity, acceleration)
        self.kind = kind

    def _motion(self, lam):
        if np.ndim(lam):
            return tuple(np.array(v) for v in zip(*map(self._motion, lam)))
        return tuple(np.asarray(f(lam), dtype=float) for f in self._callables)


class _MotionWorldline(Worldline):
    """Worldline given by one function lam -> (x, u, a) that takes a scalar or
    a 1-d array of parameters, as ``_motion`` does."""

    def __init__(self, model, span, motion, kind="timelike"):
        super().__init__(model, span)
        self._function = motion
        self.kind = kind

    def _motion(self, lam):
        return self._function(lam)


def _restricted(worldline, end):
    """``worldline`` from its span start to a later ``end``: the same motion,
    with the breakpoints that lie inside the shorter span."""
    t0 = worldline.param_span[0]
    arm = _MotionWorldline(worldline.model, (t0, end), worldline._motion, worldline.kind)
    arm.breakpoints = [b for b in worldline.breakpoints if t0 < b < end]
    return arm


class IntegratedWorldline(Worldline):
    """Worldline backed by the :class:`DenseSolution` of an adaptive DOP853 solve,
    read once per evaluation.  ``accel_fn(x, u)`` is the force per unit mass;
    None for a free trajectory.
    """

    def __init__(self, model, sol, span, kind, accel_fn):
        super().__init__(model, span)
        self.kind = kind
        self._sol = sol
        self._accel = accel_fn

    def _motion(self, lam):
        y = self._sol(lam)
        x, u = y[..., :4], y[..., 4:]
        return x, u, np.zeros_like(u) if self._accel is None else self._accel(x, u)


class SampledWorldline(Worldline):
    """Worldline replayed from tabulated samples: one cubic-Hermite spline of
    the stacked (x, u, a)."""

    def __init__(self, model, params, positions, velocities, accelerations, kind="timelike"):
        super().__init__(model, (params[0], params[-1]))
        self.kind = kind
        from scipy.interpolate import CubicHermiteSpline
        params = np.asarray(params, dtype=float)
        positions = np.asarray(positions, dtype=float)
        velocities = np.asarray(velocities, dtype=float)
        accelerations = np.asarray(accelerations, dtype=float)
        self.breakpoints = params       # the knots of the spline
        xdot, pulled = model.pulled_connections(positions, velocities)
        udot = accelerations - (pulled @ velocities[:, :, None])[:, :, 0]
        self._spline = CubicHermiteSpline(
            params, np.hstack([positions, velocities, accelerations]),
            np.hstack([xdot, udot, np.gradient(accelerations, params, axis=0)]))

    def _motion(self, lam):
        y = self._spline(lam)
        return y[..., :4], y[..., 4:8], y[..., 8:]


class DenseSolution:
    """The dense output of a DOP853 solve, evaluated as one array.

    ``ts`` are the step boundaries and ``rows`` the (steps, 8, n) array of each
    step's seven polynomial rows (last row first) and its start state, the
    numbers of scipy's ``Dop853DenseOutput``.  Calling it at a parameter gives
    the (n,) state, at an array of m parameters an (m, n) array, from one
    ``searchsorted`` and the Horner arithmetic of ``Dop853DenseOutput``, bit
    for bit.  As in scipy's ``OdeSolution``, a parameter on a step boundary
    takes the segment of lower index and one outside the span the nearest end
    segment, for an ascending or a descending span.
    """

    def __init__(self, ts, rows):
        self.ts = ts
        self.descending = ts[-1] < ts[0]
        # the interior step boundaries in ascending order
        self.breaks = (ts[::-1] if self.descending else ts)[1:-1]
        self.t_old = ts[:-1]
        self.h = ts[1:] - ts[:-1]
        self.rows = rows

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        # searching the interior boundaries alone gives the clipped segment index
        if self.descending:
            seg = len(self.breaks) - self.breaks.searchsorted(t.ravel(), side="right")
        else:
            seg = self.breaks.searchsorted(t.ravel(), side="left")
        x = ((t.ravel() - self.t_old[seg]) / self.h[seg])[:, None]
        factors = (1 - x, x)
        rows = self.rows[seg]
        y = rows[:, 0] + 0.0
        for k in range(1, rows.shape[1]):
            y *= factors[k % 2]
            y += rows[:, k]
        return y.reshape(t.shape + y.shape[1:])


def _dense_solution(ts, ys, K, rates):
    """The :class:`DenseSolution` of a DOP853 solve, made after the solve.

    ``ts`` and ``ys`` are the solve's step boundaries and states, (steps + 1,)
    and (steps + 1, n), and ``K`` the (steps, 16, n) stage rows of its
    accepted steps: in rows 0-12 the 12 stages and the derivative at the step
    end, rows 13-15 free.  The 3 extra stages of DOP853's continuous
    extension (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.6) are
    formed there for all steps at once: ``rates(lams, z)`` returns the
    derivatives at the (steps,) parameters ``lams`` and (steps, n) states
    ``z``.  The stage sums and the polynomial rows are those of scipy's
    per-step ``DOP853._dense_output_impl``, operation for operation.
    """
    t_old, h = ts[:-1], ts[1:] - ts[:-1]
    y_old, y = ys[:-1], ys[1:]
    hs = h[:, None]                 # h of each step, against its state rows
    n_stages = DOP853.n_stages
    for s, (a, c) in enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA), start=n_stages + 1):
        dy = (K[:, :s].transpose(0, 2, 1) @ a[:s]) * hs
        K[:, s] = rates(t_old + c * h, y_old + dy)
    f_old, f = K[:, 0], K[:, n_stages]
    delta_y = y - y_old
    low = np.stack([2 * delta_y - hs * (f + f_old), hs * f_old - delta_y, delta_y, y_old], axis=1)
    high = hs[:, None] * (DOP853.D @ K)
    return DenseSolution(ts, np.concatenate([high[:, ::-1], low], axis=1))


def _rms(v, scale):
    """scipy's RMS norm ||v / scale|| / sqrt(n), rescaled where its squares
    overflow: inf, without a warning, only where the norm is past the floats."""
    with np.errstate(over="ignore"):
        v = v / scale
        norm, big = np.linalg.norm(v), np.abs(v).max()
        if norm == np.inf and big < np.inf:
            norm = big * np.linalg.norm(v / big)
    return norm / len(v) ** 0.5


def _dop853(fun, t0, y0, t1, tol, max_step):
    """Scipy's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.5) from
    t0 to t1 at rtol = atol = tol, operation for operation as scipy's
    ``DOP853`` solver class runs it: the same initial step, stage sums,
    error norm and step-size controller, so the same steps, stage rows and
    ``fun`` calls, without the per-stage wrappers of scipy's solver classes.

    Returns the step boundaries, the states there and the stage rows of the
    accepted steps, (steps + 1,), (steps + 1, n) and (steps, 16, n), as
    :func:`_dense_solution` takes them: rows 0-12 hold the 12 stages and the
    derivative at the step end.  A step size below 10 ulps of the parameter
    raises ToleranceError with scipy's message.  As in scipy, an empty span
    takes no step.
    """
    floor = 100 * np.finfo(float).eps
    if tol < floor:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {floor})`.", stacklevel=4)
    if tol < 0:
        raise ValueError("`atol` must be positive.")
    rtol, atol, n = max(tol, floor), tol, len(y0)
    if t1 == t0:
        return np.array([t0]), y0[None], np.empty((0, 16, n))
    t, y = t0, y0
    f = fun(t, y)
    direction = np.sign(t1 - t0)
    # scipy's select_initial_step for the order-7 error estimator; d1 = inf gives h1 = 0
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y, scale), _rms(f, scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(t1 - t0))
    f1 = fun(t + h0 * direction, y + h0 * direction * f)
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = _rms(f1 - f, scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / 8))
    h_abs = min(100 * h0, h1, abs(t1 - t0), max_step)
    K = np.empty((DOP853.n_stages + 1, n))
    stages = [(K[:s].T, DOP853.A[s, :s], DOP853.C[s]) for s in range(1, DOP853.n_stages)]
    K_B, K_E = K[:-1].T, K.T
    ts, ys, rows = [t], [y], np.empty((32, 16, n))
    while direction * (t - t1) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise ToleranceError("worldline integration failed: Required step size "
                                     "is less than spacing between numbers.")
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s, (K_s, a, c) in enumerate(stages, start=1):
                K[s] = fun(t + c * h, y + np.dot(K_s, a) * h)
            y_new = y + h * np.dot(K_B, DOP853.B)
            K[-1] = f_new = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.linalg.norm(np.dot(K_E, DOP853.E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(K_E, DOP853.E3) / scale) ** 2
            error = (0.0 if err5 == 0 and err3 == 0
                     else np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * n))
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error ** -0.125)
            rejected = True
        if len(ts) > len(rows):
            rows = np.concatenate([rows, np.empty_like(rows)])
        rows[len(ts) - 1, :DOP853.n_stages + 1] = K
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    return np.array(ts), np.array(ys), rows[:len(ts) - 1]


class LazyStates(Sequence):
    """Read-only sequence of the states a transport sampled along a worldline.

    The transport keeps its samples as arrays; ``build(i)`` makes the state
    object of sample i, only when an index, a slice (giving a list) or an
    iteration asks for it.  Indices work as on a list, negative ones too.
    """

    def __init__(self, build, n):
        self._build = build
        self._indices = range(n)

    def __len__(self):
        return len(self._indices)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._build(i) for i in self._indices[index]]
        return self._build(self._indices[index])


class TransportResult:
    """The samples of a transport along a worldline, as arrays over ``params``.

    ``propagators[i]`` is the transport map from the worldline start to
    ``params[i]``; it carries any other initial state the same way.
    ``audits`` holds the drifts measured over all samples, ``norm_drift``
    among them (also an attribute).  ``states[i]`` is the state there, made by
    ``build(i)`` when it is read, and ``final`` the last; ``build`` closes over
    the sample arrays, not over the result, so a result holds no reference
    cycle.
    """

    def __init__(self, params, propagators, audits, build):
        self.params = params
        self.propagators = propagators
        self.audits = audits
        self.norm_drift = audits["norm_drift"]
        self.states = LazyStates(build, len(params))

    @property
    def final(self):
        return self.states[-1]


# Gauss-Legendre nodes on [0, 1].  An interval of the transport kernel takes
# Magnus steps on its two halves and on the whole (SUBNODES, in that order);
# G is evaluated at its ends, midpoint and halves' nodes (NODES, in order)
# and interpolated to the whole's.
GAUSS_NODES = 0.5 + np.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
SUBNODES = np.concatenate([0.5 * GAUSS_NODES, 0.5 * (1.0 + GAUSS_NODES), GAUSS_NODES])
NODES = np.concatenate([[0.0], SUBNODES[:3], [0.5], SUBNODES[3:6], [1.0]])


def _lagrange(nodes, t):
    """The Lagrange basis polynomials through ``nodes`` at each of ``t``, (..., n),
    in barycentric form (exact at a node)."""
    barycentric = 1.0 / np.prod(np.where(np.eye(len(nodes), dtype=bool), 1.0,
                                         nodes[:, None] - nodes), axis=-1)
    gap = t[..., None] - nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = barycentric / gap
        weights /= weights.sum(axis=-1, keepdims=True)
    hit = gap == 0
    return np.where(hit.any(axis=-1, keepdims=True), hit, weights)


# G at the whole's outer Gauss nodes by the degree-8 interpolant through NODES
# less by the degree-6 one through the inner 7: how far a read can be off
_READ_CHECK = _lagrange(NODES, GAUSS_NODES[::2])
_READ_CHECK[:, 1:-1] -= _lagrange(NODES[1:-1], GAUSS_NODES[::2])
_AT_SUBNODES = _lagrange(NODES, SUBNODES[None])     # the interpolant at SUBNODES
MAX_LEVELS = 40         # bisections of one interval before the kernel gives up
TOLERANCE_FLOOR = float(10 * np.finfo(float).eps)   # an estimate rounds by ~eps/63
CHUNK = 4096            # intervals evaluated at once; their kinematics take ~5 kB each
_EYE = np.eye(2)[:, :, None]       # the 2x2 identity as an entry-first stack


def _dot(x, y):
    """x @ y for entry-first stacks of 2x2 matrices, (2, 2, n), which run along
    the contiguous stack axis; faster than matmul's per-matrix loop."""
    return x[:, :1] * y[:1] + x[:, 1:] * y[1:]


def _commutator(x, y):
    return _dot(x, y) - _dot(y, x)


def _magnus(g, h):
    """Omega_6 of intervals of widths ``h`` from G at their 3 Gauss nodes,
    g (3, 2, 2, n): the sixth-order Magnus step of Blanes, Casas, Oteo & Ros,
    Phys. Rep. 470 (2009) 151, sec. 5."""
    g0, g1, g2 = g
    a1 = h * g1
    a2 = np.sqrt(15.0) / 3.0 * h * (g2 - g0)
    a3 = 10.0 / 3.0 * h * (g2 - 2.0 * g1 + g0)
    c1 = _commutator(a1, a2)
    c2 = _commutator(a1, 2.0 * a3 + c1) / -60.0
    return a1 + a3 / 12.0 + _commutator(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0


def _exp2(omega):
    """exp of each traceless matrix of a (2, 2, n) stack in closed form,
    cosh(s) 1 + sinh(s)/s omega with s^2 = -det(omega); both are even in s."""
    s = np.sqrt(omega[0, 1] * omega[1, 0] - omega[0, 0] * omega[1, 1] + 0j)
    with np.errstate(invalid="ignore"):
        sinhc = np.where(s == 0, 1.0, np.sinh(s) / s)
    return np.cosh(s) * _EYE + sinhc * omega


def _interpolate(g, weights):
    """G at the fractions of intervals that ``weights`` (n or 1, m, 9), their
    ``_lagrange`` weights on NODES, stand for: the degree-8 polynomial through
    its values g (n, 9, 2, 2) at NODES."""
    return (weights @ g.reshape(len(g), len(NODES), 4)).reshape(len(g), weights.shape[-2], 2, 2)


def _richardson(g, h, estimate=True):
    """(map, error estimate) of intervals of widths h from G at their
    SUBNODES, g (n, 9, 2, 2), the map a (2, 2, n) stack; the map alone if not
    ``estimate``.  The method is symmetric: about the exact half maps X1, X2,
    the whole step is X2 exp(e) X1 and the half steps' product X2 exp(e/64) X1
    to O(h^9).  So their difference over 63 estimates the half steps' error,
    first whole^-1 second = exp(-63 e/64), and the map puts exp(-e/64) between
    the halves (Richardson extrapolation in SL(2,C)).  A step too large to
    exponentiate gives inf or nan, and is bisected."""
    # G at each step's 3 nodes, (node, 2, 2, 3n): all first halves, second halves, wholes
    g = g.reshape(len(h), 3, 3, 2, 2).transpose(2, 3, 4, 1, 0).reshape(3, 2, 2, 3 * len(h))
    with np.errstate(over="ignore", invalid="ignore"):
        steps = _exp2(_magnus(g, np.outer([0.5, 0.5, 1.0], h).ravel()))
        first, second, whole = steps.reshape(2, 2, 3, len(h)).transpose(2, 0, 1, 3)
        inverse = np.swapaxes(whole[::-1, ::-1], 0, 1) * [[[1], [-1]], [[-1], [1]]]   # det 1
        drift = _dot(_dot(first, inverse), second)
        drift -= 0.5 * (drift[0, 0] + drift[1, 1]) * _EYE
        step = _dot(second, _dot(_exp2(drift / 63.0), first))
        if not estimate:
            return step
        return step, np.abs(_dot(second, first) - whole).max(axis=(0, 1)) / 63.0


def _prefix_products(steps):
    """P[k] = steps[k] @ ... @ steps[0] of a (2, 2, n) stack, in log2(n) products."""
    out = steps.copy()
    shift = 1
    while shift < out.shape[-1]:
        out[..., shift:] = _dot(out[..., shift:], out[..., :-shift])
        shift *= 2
    return out


def _split(at, depth, worst, g, tol):
    """The next round's parts of the rejected intervals, as (at, depths,
    known, unknown): each part's left end, midpoint and right end (k, 3),
    its depth in bisections, G at those three (k, 3, 2, 2) where the
    rejected interval's nodes hold it, and a (k, 3) mask of where they do not.

    An interval whose worst error is finite and below 1 splits into 2^m
    equal parts, m = ceil(log2(worst / (tol / 2)) / 7), since the half steps'
    error falls as h^7; any other is bisected.  No part goes past MAX_LEVELS
    bisections.  ``at`` (n, 3) holds the rejected intervals' ends and
    midpoints, and ``g`` (n, 5, 2, 2) G at their fractions 0, 1/4, 1/2, 3/4
    and 1.  A left end off those is the right end of the part before it.
    """
    sized = np.ceil(np.log2(worst / (0.5 * tol)) / 7.0)
    m = np.where(worst < 1.0, sized, 1.0)       # False for inf and nan
    m = np.minimum(m, MAX_LEVELS - depth).astype(int)
    size = 2 ** m
    part = np.repeat(np.arange(len(size)), size)        # the rejected interval of each part
    j = np.arange(len(part)) - np.repeat(np.cumsum(size) - size, size)
    n, start, width = size[part], at[part, 0], (at[:, 2] - at[:, 0])[part]
    end = np.where(j + 1 == n, at[part, 2], start + (j + 1) / n * width)
    # a part's ends and midpoint in quarters of the interval it splits
    quarters = 4.0 * (j[:, None] + np.array([0.0, 0.5, 1.0])) / n[:, None]
    return (np.stack([start + j / n * width, start + (j + 0.5) / n * width, end], axis=1),
            depth[part] + m[part], g[part[:, None], quarters.astype(int)], quarters % 1.0 != 0.0)


def propagate(worldline, generator, params, tol):
    """The (n, 2, 2) maps S(lam) of dS/dlam = G(lam) S along ``worldline`` at
    the n ``params``, S = 1 at the span start.

    ``generator(x, u, a, xdot, pulled)`` maps (n, 4) ``kinematics`` rows to a
    traceless (n, 2, 2) G.  The grid runs from span end to span end through
    ``worldline.breakpoints``.  An interval takes :func:`_richardson` steps
    and is accepted once the estimate, and on an interval that holds a
    parameter strictly inside its width times the ``_READ_CHECK`` of G, is at
    most tol / 2;
    the other half is left for what the estimate does not see.  Refinement
    goes in rounds, level 0 the first.  Each round takes its nodes from one
    ``kinematics`` and one generator call per CHUNK intervals: the ends and
    midpoints not yet known, then the Gauss nodes of the halves.  A rejected
    interval is split as :func:`_split` sizes it from the larger of the two,
    its parts reusing every node of it that falls on theirs, and a part's
    unknown left end is the right end of the part before it.  A parameter is
    read by the same steps, over the part of its interval before it, on the
    interpolant of G; one on a grid point from the accepted steps alone.
    :class:`ToleranceError` is raised for ``tol`` below TOLERANCE_FLOOR, a G
    that is not finite, and past MAX_LEVELS bisections of one interval.
    """
    if not tol >= TOLERANCE_FLOOR:
        raise ToleranceError(f"transport tolerance {tol:.3g} is below the rounding floor "
                             f"{TOLERANCE_FLOOR:.3g}")
    params = np.asarray(params, dtype=float)
    lams = params.ravel()
    t0, t1 = worldline.param_span
    direction = np.sign(t1 - t0)
    if np.any((direction * (lams - t0) < 0) | (direction * (lams - t1) > 0)):
        raise DomainError("transport parameters outside the worldline span")

    asked = np.sort(direction * lams)
    edges = direction * np.unique(direction * np.concatenate([[t0, t1], worldline.breakpoints]))
    # level 0: the grid's intervals, with no G known
    parts = np.stack([edges[:-1], 0.5 * (edges[:-1] + edges[1:]), edges[1:]], axis=1)
    depths = np.zeros(len(parts), dtype=int)
    known, unknown = np.empty(parts.shape + (2, 2)), np.ones(parts.shape, dtype=bool)
    accepted, kept = [], []
    while True:
        refined = []
        last = known[0, 2]      # a placeholder: the round's first part shares no end
        for c in range(0, len(parts), CHUNK):
            at, missing = parts[c:c + CHUNK], unknown[c:c + CHUNK]
            left, right = at[:, 0], at[:, 2]
            width = right - left
            # a missing left end is the right end of the part before
            shared = missing[:, 0] & (np.arange(c, c + len(at)) > 0)
            evaluate = missing.copy()
            evaluate[shared, 0] = False
            nodes = np.concatenate([at[evaluate],
                                    (left[:, None] + SUBNODES[:6] * width[:, None]).ravel()])
            new = generator(*worldline.kinematics(nodes))
            finite = np.isfinite(new).all(axis=(1, 2))
            if not finite.all():
                raise ToleranceError(f"transport generator not finite at parameter "
                                     f"{nodes[np.argmin(finite)]}")
            ends = known[c:c + CHUNK].astype(new.dtype)
            count = evaluate.sum()
            ends[evaluate] = new[:count]
            ends[shared, 0] = np.concatenate([[last], ends[:-1, 2]])[shared]
            last = ends[-1, 2]
            sub = new[count:].reshape(len(at), 6, 2, 2)
            g = np.concatenate([ends[:, :1], sub[:, :3], ends[:, 1:2], sub[:, 3:], ends[:, 2:]],
                               axis=1)
            steps, error = _richardson(_interpolate(g, _AT_SUBNODES), width)
            held = (np.searchsorted(asked, direction * left, "right")
                    < np.searchsorted(asked, direction * right, "left"))
            # G odd about the midpoint fools the estimate, not the read check;
            # the steps are exact then, only reads inside are off
            change = (g - g[:, 4:5]).reshape(len(g), len(NODES), 4)     # exact 0 for constant G
            misread = np.abs(_READ_CHECK @ change).max(axis=(1, 2))
            worst = np.maximum(error, np.where(held, width * misread, 0.0))
            done = worst <= 0.5 * tol
            read = done & held              # G is kept where a parameter is read
            accepted.append((left[done], right[done], steps[..., done], read[done]))
            kept.append(g[read])
            refined.append((at[~done], depths[c:c + CHUNK][~done], worst[~done],
                            g[~done][:, ::2]))
        at, depth, worst, g = (np.concatenate(a) for a in zip(*refined))
        if not len(at):
            break
        if depth.max() >= MAX_LEVELS:
            raise ToleranceError(f"transport not resolved to {tol:.3g} within "
                                 f"{MAX_LEVELS} bisections")
        parts, depths, known, unknown = _split(at, depth, worst, g, tol)
    lefts, rights, steps, read = (np.concatenate(a, axis=-1) for a in zip(*accepted))
    order = np.argsort(direction * lefts)
    slots = (np.cumsum(read) - 1)[order]
    lefts, rights, steps = lefts[order], rights[order], steps[..., order]
    starts = np.concatenate([_EYE, _prefix_products(steps)[..., :-1]], axis=-1)
    k = np.searchsorted(direction * lefts, direction * lams, side="right") - 1
    k = np.minimum(k, len(lefts) - 1)
    widths = rights[k] - lefts[k]
    theta = np.minimum((lams - lefts[k]) / widths, 1.0)
    # on an interval's start the read is 1, at the span end the whole step
    maps = np.where(lams == lefts[k], _EYE, steps[..., k])
    inside = (lams != lefts[k]) & (lams != rights[k])
    if inside.any():
        maps[..., inside] = _richardson(
            _interpolate(np.concatenate(kept)[slots[k[inside]]],
                         _lagrange(NODES, theta[inside, None] * SUBNODES)),
            theta[inside] * widths[inside], estimate=False)
    return np.moveaxis(_dot(maps, starts[..., k]), -1, 0).reshape(params.shape + (2, 2)).copy()


def line_integral(worldline, integrand, params, tol):
    """The integral of ``integrand(x, u, a, xdot, pulled)`` (n values for (n, 4)
    ``kinematics`` rows) from the span start to each of ``params``: entry
    [0, 1] of :func:`propagate` of the nilpotent f sigma_+, whose Magnus steps
    are exactly 1 + Omega, so the kernel's estimate and errors apply as they are."""
    raising = np.array([[0.0, 1.0], [0.0, 0.0]])
    maps = propagate(worldline, lambda *k: integrand(*k)[:, None, None] * raising, params, tol)
    return maps[..., 0, 1].real


def worldline_from_csv(path, model, kind="timelike"):
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append([float(rec["param"])]
                        + [float(rec[f"x{m}"]) for m in range(4)]
                        + [float(rec[f"u{i}"]) for i in range(4)]
                        + [float(rec[f"a{i}"]) for i in range(4)])
    arr = np.asarray(rows)
    return SampledWorldline(model, arr[:, 0], arr[:, 1:5], arr[:, 5:9], arr[:, 9:13], kind)


def _lorentz_force_accel(model, em, charge_to_mass):
    """a^I(x, u) of the Lorentz force, at one event or row by row; None
    when there is no field or no charge."""
    if em is None or charge_to_mass == 0.0:
        return None

    def accel(x, u):
        f = em.tensor(x)
        return charge_to_mass * (ETA @ f @ u[..., None])[..., 0]

    return accel


def _trajectory_rates(model, accel_fn):
    """rates(lam, y): the derivative of the trajectory state y = (x^mu, u^I) at
    one parameter, (8,), or at each of (n,) parameters for (n, 8) states.
    Raises DomainError, naming the first parameter, for a state off the chart.
    A free trajectory on an analytic model reads one state as 8 floats, checks
    the chart on them and passes them to the model's straight-line one-event
    rates, ``_rates``; rows, forces and other models go through
    ``trajectory_rates``."""
    scalar = accel_fn is None and isinstance(model, _AnalyticModel)

    def rates(lam, y):
        if scalar and y.ndim == 1:
            state = y.tolist()
            if not model.in_domain(state[:4]):
                raise DomainError(f"{model.name}: trajectory left chart domain at parameter {lam}")
            return model._rates(state)
        x, u = y[..., :4], y[..., 4:]
        inside = model.in_domain(x.T)
        if not (inside if y.ndim == 1 else np.all(inside)):
            first = np.ravel(lam)[np.argmin(np.ravel(inside))]
            raise DomainError(f"{model.name}: trajectory left chart domain at parameter {first}")
        derivative = model.trajectory_rates(x, u)
        if accel_fn is not None:
            derivative[..., 4:] += accel_fn(x, u)
        return derivative

    return rates


def _integrate(model, x0, u0, span, tol, kind, accel_fn, max_step=np.inf):
    if span <= 0:
        raise DomainError("span must be positive")
    x0 = np.asarray(x0, dtype=float).reshape(4)
    model.check_domain(x0)
    rates = _trajectory_rates(model, accel_fn)
    ts, ys, K = _dop853(rates, 0.0, np.concatenate([x0, u0]), float(span), tol, max_step)
    dense = _dense_solution(ts, ys, K, rates)
    wl = IntegratedWorldline(model, dense, (0.0, span), kind, accel_fn)
    drift = wl.norm_audit()
    # not drift: the start's own offset from its target, which its label check
    # allowed, and the rounding of u.u, O(eps (u.u)_E) and so O(gamma^2 eps) near c
    offset = abs(minkowski_dot(u0, u0) - (1.0 if kind == "timelike" else 0.0))
    budget = max(1e-9, 1000.0 * tol * max(1.0, abs(span))) + offset + _ROUNDING * (u0 @ u0)
    if drift > budget:
        raise ToleranceError("velocity normalization drifted during integration",
                             achieved=drift, requested=budget)
    return wl


def integrate_timelike(model, em, x0, u0, charge_to_mass=0.0, span=1.0, tol=1e-11,
                       max_step=np.inf):
    """Integrate the Lorentz-force law m D^2x/Dtau^2 = -e u F from (x0, u0).

    ``u0`` is a future-pointing unit timelike vector in tetrad components;
    ``charge_to_mass`` is e/m in natural units.
    """
    u0 = np.asarray(u0, dtype=float).reshape(4)
    check_norm(u0, 1, "u0 must be normalized timelike")
    return _integrate(model, x0, u0, span, tol, "timelike",
                      _lorentz_force_accel(model, em, charge_to_mass), max_step)


def integrate_null_geodesic(model, x0, k0, span=1.0, tol=1e-11):
    """Integrate a null geodesic with the wavevector itself as affine velocity."""
    k0 = np.asarray(k0, dtype=float).reshape(4)
    check_norm(k0, 0, "k0 must be null")
    return _integrate(model, x0, k0, span, tol, "null", None)


def static_worldline(model, spatial_coords, span):
    """Worldline of an observer at fixed spatial chart coordinates.

    Requires a static model whose tetrad time leg is aligned with the
    coordinate time direction (true for all built-in families); the tetrad
    velocity is then exactly (1,0,0,0) and the proper acceleration follows
    from the connection.
    """
    x_ref = np.array([0.0, *np.asarray(spatial_coords, dtype=float)])
    model.check_domain(x_ref)
    e = model.tetrad(x_ref)
    if np.abs(e[1:, 0]).max() > 1e-12 or np.abs(e[0, 1:]).max() > 1e-12:
        raise QulineError("static_worldline needs a static, time-aligned tetrad")
    ut_coord = e[0, 0]              # dx^t/dtau at the fixed spatial point
    u_tet = np.array([1.0, 0.0, 0.0, 0.0])
    omega = model.connection(x_ref)
    a_tet = ut_coord * omega[0, :, 0]

    def motion(tau):
        return (_four_vectors(tau, ut_coord * tau, *x_ref[1:]), _four_vectors(tau, *u_tet),
                _four_vectors(tau, *a_tet))

    return _MotionWorldline(model, (0.0, span), motion)


def circular_worldline(model, radius, beta, revolutions=1.0):
    """Flat-space circular orbit in the x-y plane at constant speed beta.

    Parameterized by proper time; one revolution takes 2 pi radius /
    (gamma beta) of proper time.
    """
    if model.name != "minkowski":
        raise QulineError("circular_worldline is defined for the minkowski model")
    if not 0.0 < beta < 1.0:
        raise DomainError("beta must lie in (0, 1)")
    if not radius > 0.0:
        raise DomainError("radius must be positive")
    gamma = 1.0 / np.sqrt(1.0 - beta * beta)
    omega_coord = beta / radius
    span = revolutions * 2.0 * np.pi * radius / (gamma * beta)
    mag = gamma * gamma * beta * beta / radius

    def motion(tau):
        t = gamma * tau
        # x's angle rounds as omega (gamma tau), u's and a's as (omega gamma) tau
        at = omega_coord * t
        ang = omega_coord * gamma * tau
        return (_four_vectors(tau, t, radius * np.cos(at), radius * np.sin(at), 0.0),
                gamma * _four_vectors(tau, 1.0, -beta * np.sin(ang), beta * np.cos(ang), 0.0),
                _four_vectors(tau, 0.0, -mag * np.cos(ang), -mag * np.sin(ang), 0.0))

    return _MotionWorldline(model, (0.0, span), motion)


def _four_vectors(tau, *components):
    """One 4-vector per value of ``tau`` (a scalar or an array): the four
    components, each a constant or an array of ``tau``'s shape, on the last axis."""
    vectors = np.empty(np.shape(tau) + (4,))
    for i, component in enumerate(components):
        vectors[..., i] = component
    return vectors


def worldline_from_coordinate_path(model, spatial_path, spatial_rate, t0, t1, n=801):
    """Proper-time worldline from a prescribed spatial path x_i(t).

    ``spatial_path(t)`` returns the three spatial chart coordinates and
    ``spatial_rate(t)`` their coordinate-time derivatives.  Proper time is
    accumulated by :func:`_dop853` on dtau/dt and read from its dense output
    at ``n`` evenly spaced coordinate times, the knots of the worldline;
    velocity and acceleration follow from the tetrad and connection, the
    ordinary u-derivative from a spline.  The path must stay timelike
    throughout.
    """
    if not t1 > t0:
        raise DomainError(f"coordinate path needs t1 > t0 (t0 = {t0}, t1 = {t1})")

    def frame_rates(ts):
        """Events, the tetrad components w^I of dx^mu/dt and dtau/dt = |w| at
        the coordinate times ``ts``."""
        x = np.array([[t, *spatial_path(t)] for t in ts], dtype=float)
        xdot = np.array([[1.0, *spatial_rate(t)] for t in ts], dtype=float)
        w = np.linalg.solve(model.tetrads(x), xdot[:, :, None])[:, :, 0]
        val = minkowski_dot(w.T, w.T)
        if np.any(val <= 0.0):
            raise QulineError("prescribed path is not timelike")
        return x, w, np.sqrt(val)

    def dtau_dt(t, tau):
        return frame_rates(np.ravel(t))[2].reshape(np.shape(tau))

    ts, ys, K = _dop853(dtau_dt, t0, np.zeros(1), t1, 1e-12, np.inf)
    knots = np.linspace(t0, t1, n)
    taus = _dense_solution(ts, ys, K, dtau_dt)(knots)[:, 0]
    positions, w, rate = frame_rates(knots)
    u_tet = w / rate[:, None]
    from scipy.interpolate import CubicSpline
    _, pulled = model.pulled_connections(positions, u_tet)
    accels = CubicSpline(taus, u_tet)(taus, 1) + (pulled @ u_tet[:, :, None])[:, :, 0]
    return SampledWorldline(model, taus, positions, u_tet, accels, "timelike")


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


def rindler_speed_at_height(v1, dz, g, xp=np):
    """Speed at height dz from energy conservation, given speed v1 at z = 0.

    v2 = sqrt(g00 (1 - g00 / gamma1^2)) with g00 = (1 + dz g)^2.  Evaluated
    in the cancellation-free form v2^2 = g00 (v1^2 - h (1 - v1^2)) with
    h = g00 - 1 = dz g (2 + dz g), which stays accurate when dz g is many
    orders below v1^2.  Elementwise over numpy arrays, or over mpmath
    scalars with ``xp=mpmath``.  Raises ComplexVelocity, naming the first
    height the particle cannot reach.
    """
    h = dz * g * (2.0 + dz * g)
    g00 = 1.0 + h
    v2_sq = g00 * (v1 * v1 - h * (1.0 - v1 * v1))
    reject_where(v2_sq <= 0.0, ComplexVelocity, "no real speed at height",
                 dz=dz, v1=v1, g=g)
    return xp.sqrt(v2_sq)
