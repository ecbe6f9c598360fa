"""Worldlines: Lorentz-force trajectories, null geodesics, prescribed paths.

Every worldline is one :class:`Worldline`, five fields: its model, its
parameter span (proper time for timelike curves, an affine parameter for
null ones), its motion, its kind ("timelike" or "null") and its
breakpoints.  The motion is the one evaluation, ``motion(lam)`` = (x, u, a)
for a scalar parameter or three (n, 4) arrays for a 1-d array of n; every
reader comes from it:

* ``position(lam)``             chart coordinates x^mu
* ``coordinate_velocity(lam)``  dx^mu/dlam (coordinate components)
* ``velocity(lam)``             u^I (tetrad components)
* ``acceleration(lam)``         a^I = Du^I/Dlam (tetrad components)
* ``kinematics(lam)``           (x, u, a, xdot, pulled), the four above and
                                the pulled connection xdot^nu omega_nu^I_J
                                from one evaluation of the model's frame;
                                for a 1-d array of n parameters, (n, 4)
                                arrays and an (n, 4, 4) one
* ``label_at(lam)``             the Hilbert-space label (Event, u^I) of a qubit there
* ``start``, ``samples``        the motion at the span start and at the 201
                                ``sample_params()``, each evaluated once and kept

The functions that build worldlines differ only in the motion they give: a
closed form is one function of the parameter, ``AnalyticWorldline`` calls
its scalar callables node by node, ``SampledWorldline`` reads one cubic
Hermite spline of the stacked (x, u, a), whose knots are its breakpoints,
and an integrated worldline reads its dense output once per call.  The
splines are numpy's arithmetic on scipy's formulas, and no module of
quline imports scipy.

Timelike velocities satisfy u.u = 1, null ones u.u = 0; after integration the
``samples`` are judged by ``check_norm``, as every label is, never re-imposed.

Every qubit observable comes from one linear transport dS/dlam = G(lam) S
of 2x2 spin-half maps along a worldline (vectors take their Lorentz image);
:func:`propagate` returns S at the requested parameters from Magnus steps on
G at Gauss nodes.  Every state is one :class:`MultiQubitState`, an
amplitude tensor with one axis per :class:`Slot`, the Hilbert space an
(event, label) names for a spin (``fermion.FermionState``) or a
polarization (``photon.PhotonState``) realization, which adds only its
amplitude length, label norm and inner-product matrices.  A localized qubit,
:class:`LocalizedState`, is the one-slot state, so the label check, the
inner product, normalization, operators and projections are written once;
:func:`carry` applies a transport's maps to one and samples it along the
worldline, for both realizations alike.  A scalar integral along a
worldline (:func:`line_integral`) is the transport of a nilpotent generator.
The kernel refines its grid in rounds, level 0 the first, each evaluating G
in one call per CHUNK intervals: an interval the error estimate rejects is
split at once into the 2^m equal parts the estimate asks for, with depth
counted in bisections (m for such a split).
A generator is a function of the five arrays ``kinematics`` returns and of
nothing else along the worldline.  Trajectories are stepped by
:func:`_dop853`, scipy's DOP853 operation for operation without its solver
classes or an import of scipy (the coefficients are :mod:`.dop853_tableau`),
which does only the work of step-size control while it runs;
their dense output is made afterwards in one pass.  The same stepper takes
the proper time of a prescribed path.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import dop853_tableau as tableau
from .errors import (ComplexVelocity, DomainError, HilbertSpaceMismatch, QulineError,
                     ToleranceError, reject_where)
from .geometry import Event, _AnalyticModel
from .spin_algebra import ETA, check_norm, minkowski_dot, same_label

__all__ = [
    "EMField", "constant_magnetic_field", "Worldline", "AnalyticWorldline", "SampledWorldline",
    "DenseSolution", "LazyStates", "TransportResult", "Slot", "MultiQubitState", "LocalizedState",
    "carry", "propagate", "line_integral", "integrate_timelike", "integrate_null_geodesic",
    "static_worldline", "circular_worldline", "worldline_from_coordinate_path",
    "rindler_speed_at_height",
]


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
    """A worldline: its model, parameter span, motion, kind and breakpoints.

    ``motion(lam)`` is the one evaluation, (x, u, a) at a scalar parameter
    or three (n, 4) arrays at a 1-d array of n; ``kind`` is "timelike" or
    "null"; ``breakpoints`` are the parameters where the kinematics may be
    only piecewise smooth, which the transport kernel's grid contains.

    Two evaluations are kept, read-only, once made: ``start``, the motion at
    the span start, which ``start_event``, ``starts_at`` and ``label_at``
    there read, and ``samples``, the motion at the 201 ``sample_params()``,
    which :func:`carry`'s 201 samples read.  ``norm_audit`` calls ``motion``
    afresh every time, and ``samples`` keeps the first of its evaluations,
    so an integrated worldline, whose labels are audited and judged when it
    is made, evaluates its sample grid once for those and for its transports.
    Every other reader calls ``motion`` afresh.
    """

    def __init__(self, model, span, motion, kind="timelike", breakpoints=()):
        self.model = model
        self.param_span = (float(span[0]), float(span[1]))
        if self.param_span[0] == self.param_span[1]:
            raise DomainError("worldline parameter span is empty")
        self.motion = motion
        self.kind = kind
        self.breakpoints = breakpoints

    def position(self, lam):
        return self.motion(lam)[0]

    def velocity(self, lam):
        return self.motion(lam)[1]

    def acceleration(self, lam):
        return self.motion(lam)[2]

    def coordinate_velocity(self, lam):
        return self.model.to_coords(*self.motion(lam)[:2])

    def kinematics(self, lam):
        """(position, velocity, acceleration, coordinate_velocity, pulled) at
        ``lam``, a scalar or a 1-d array of parameters (then (n, 4) arrays and
        an (n, 4, 4) one), with the coordinate velocity and the pulled
        connection xdot^nu omega_nu^I_J from one call of the model's
        ``pulled_connections``."""
        x, u, a = self.motion(lam)
        return (x, u, a, *self.model.pulled_connections(x, u))

    def event(self, lam):
        return Event(self.position(lam), self.model.chart_id)

    @cached_property
    def start(self):
        """(x, u, a) at the span start, from one motion call, kept read-only."""
        return _read_only(self.motion(self.param_span[0]))

    @cached_property
    def samples(self):
        """(x, u, a) at the 201 ``sample_params()``, kept read-only: the first
        ``norm_audit``'s evaluation, or one motion call if read before that."""
        return _read_only(self.motion(self.sample_params()))

    @property
    def start_event(self):
        return Event(self.start[0], self.model.chart_id)

    def label_at(self, lam):
        """The Hilbert-space label (event, velocity) at the scalar ``lam``, from
        one motion; at the span start, from ``start``."""
        x, u, _ = self.start if lam == self.param_span[0] else self.motion(lam)
        return Event(x, self.model.chart_id), u

    def starts_at(self, event, label):
        """True when (``event``, ``label``) names the Hilbert space at the start."""
        x, u, _ = self.start
        return event.close_to(Event(x, self.model.chart_id)) and same_label(label, u)

    def sample_params(self, n=201):
        return np.linspace(self.param_span[0], self.param_span[1], n)

    def norm_audit(self):
        """Max |u.u - target| over 201 samples (target 1 timelike, 0 null),
        from a fresh motion call; the first is kept as ``samples``."""
        evaluation = _read_only(self.motion(self.sample_params()))
        self.__dict__.setdefault("samples", evaluation)
        target = 1.0 if self.kind == "timelike" else 0.0
        u = evaluation[1].T
        return float(np.abs(minkowski_dot(u, u) - target).max())


def _read_only(arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def AnalyticWorldline(model, span, position, velocity, acceleration, kind="timelike"):
    """Worldline given by closed-form callables of the parameter.

    The callables may take one parameter value at a time, so an array of
    parameters is evaluated node by node.
    """
    def motion(lam):
        if np.ndim(lam):
            return tuple(np.array(v) for v in zip(*map(motion, lam)))
        return tuple(np.asarray(f(lam), dtype=float) for f in (position, velocity, acceleration))

    return Worldline(model, span, motion, kind)


def _restricted(worldline, end):
    """``worldline`` from its span start to a later ``end``: the same motion,
    with the breakpoints that lie inside the shorter span."""
    t0 = worldline.param_span[0]
    return Worldline(worldline.model, (t0, end), worldline.motion, worldline.kind,
                     [b for b in worldline.breakpoints if t0 < b < end])


def SampledWorldline(model, params, positions, velocities, accelerations, kind="timelike"):
    """Worldline replayed from tabulated samples: one cubic Hermite spline of
    the stacked (x, u, a), whose knots are the breakpoints.

    Row i holds the samples at ``params[i]``.  The params must be finite and
    strictly increasing and the samples finite; DomainError names the first
    row that is not, before any arithmetic.  The slopes at the knots are the
    model's rates (xdot, udot) and a finite-difference da/dlam.
    """
    params = np.asarray(params, dtype=float)
    positions = np.asarray(positions, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    accelerations = np.asarray(accelerations, dtype=float)
    samples = np.hstack([positions, velocities, accelerations])
    rows_ok = np.isfinite(params)
    rows_ok[1:] &= params[1:] > params[:-1]
    if not rows_ok.all():
        i = int(np.argmin(rows_ok))
        after = f" after {params[i - 1].item()!r}" if i else ""
        raise DomainError(f"sampled worldline params must be finite and strictly increasing: "
                          f"row {i} has {params[i].item()!r}{after}")
    finite = np.isfinite(samples).all(axis=1)
    if not finite.all():
        raise DomainError(f"sampled worldline samples must be finite: row {np.argmin(finite)} "
                          "is not")

    def motion(lam):
        y = spline(lam)
        return y[..., :4], y[..., 4:8], y[..., 8:]

    worldline = Worldline(model, (params[0], params[-1]), motion, kind, params)
    xdot, pulled = model.pulled_connections(positions, velocities)
    udot = accelerations - (pulled @ velocities[:, :, None])[:, :, 0]
    spline = _hermite_spline(params, samples,
                             np.hstack([xdot, udot, np.gradient(accelerations, params, axis=0)]))
    return worldline


def _hermite_spline(knots, y, dydx):
    """The cubic Hermite spline through the rows of ``y`` with slopes ``dydx``
    at the increasing ``knots``, as a function of a scalar parameter, (m,),
    or of a 1-d array of n, (n, m).

    Each interval's cubic is in power form about its left knot, with the
    coefficients and the arithmetic of scipy's ``CubicHermiteSpline`` (a
    ``PPoly``), whose numbers it gives byte for byte.  As there, a parameter
    on a knot takes the interval to its right, and one outside the span the
    nearest end interval.
    """
    h = np.diff(knots)[:, None]
    slope = np.diff(y, axis=0) / h
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / h
    c0, c1, c2, c3 = y[:-1], dydx[:-1], (slope - dydx[:-1]) / h - t, t / h
    inner = knots[1:-1]

    def spline(lam):
        lam = np.asarray(lam, dtype=float)
        i = inner.searchsorted(lam, side="right")
        s = (lam - knots[i])[..., None]
        s2 = s * s
        return 0.0 + c0[i] + c1[i] * s + c2[i] * s2 + c3[i] * (s2 * s)

    return spline


def _not_a_knot_slopes(knots, y):
    """dy/dx at the increasing ``knots`` of the not-a-knot cubic spline through
    the rows of ``y``, (n, m): scipy's ``CubicSpline(knots, y)(knots, 1)`` to
    rounding.  Its one tridiagonal system (de Boor, *A Practical Guide to
    Splines*, ch. IV) is factored once and solved for each column; with
    n = 3 the spline is the parabola through the knots, with n = 2 the line.
    """
    h = np.diff(knots)
    m = np.diff(y, axis=0) / h[:, None]
    n = len(knots)
    if n == 2:
        return np.concatenate([m, m])
    if n == 3:
        c = (m[1] - m[0]) / (h[0] + h[1])
        return np.stack([m[0] - c * h[0], m[0] + c * h[0], m[1] + c * h[1]])
    # row i: sub[i] s[i-1] + diag[i] s[i] + sup[i] s[i+1] = rhs[i]; the end rows
    # make the third derivative continuous at the second and last-but-one knots
    d0, d1 = knots[2] - knots[0], knots[-1] - knots[-3]
    hc = h[:, None]
    rhs = np.concatenate([((hc[0] + 2.0 * d0) * hc[1] * m[0] + hc[0] ** 2 * m[1])[None] / d0,
                          3.0 * (hc[1:] * m[:-1] + hc[:-1] * m[1:]),
                          (hc[-1] ** 2 * m[-2] + (2.0 * d1 + hc[-1]) * hc[-2] * m[-1])[None] / d1])
    sub = [0.0, *h[1:].tolist(), d1]
    diag = [h[1], *(2.0 * (h[:-1] + h[1:])).tolist(), h[-2]]
    sup = [d0, *h[:-1].tolist(), 0.0]
    factor = [0.0] * n
    for i in range(1, n):
        factor[i] = sub[i] / diag[i - 1]
        diag[i] -= factor[i] * sup[i - 1]
    columns = rhs.T.tolist()
    for col in columns:     # Python floats: a loop over numpy rows is slower
        for i in range(1, n):
            col[i] -= factor[i] * col[i - 1]
        col[-1] /= diag[-1]
        for i in range(n - 2, -1, -1):
            col[i] = (col[i] - sup[i] * col[i + 1]) / diag[i]
    return np.array(columns).T


class DenseSolution:
    """The dense output of a DOP853 solve over an ascending span, evaluated as
    one array.

    ``ts`` are the step boundaries and ``rows`` the (steps, 8, n) array of each
    step's seven polynomial rows (last row first) and its start state, the
    numbers of scipy's ``Dop853DenseOutput``.  Calling it at a parameter gives
    the (n,) state, at an array of m parameters an (m, n) array, from one
    ``searchsorted`` and the Horner arithmetic of ``Dop853DenseOutput``, bit
    for bit.  As in scipy's ``OdeSolution``, a parameter on a step boundary
    takes the segment of lower index and one outside the span the nearest end
    segment.
    """

    def __init__(self, ts, rows):
        self.ts = ts
        self.breaks = ts[1:-1]      # the interior step boundaries
        self.t_old = ts[:-1]
        self.h = ts[1:] - ts[:-1]
        self.rows = rows

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        # searching the interior boundaries alone gives the clipped segment index
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
    n_stages = tableau.n_stages
    for s, (a, c) in enumerate(zip(tableau.A_EXTRA, tableau.C_EXTRA), start=n_stages + 1):
        dy = (K[:, :s].transpose(0, 2, 1) @ a[:s]) * hs
        K[:, s] = rates(t_old + c * h, y_old + dy)
    f_old, f = K[:, 0], K[:, n_stages]
    delta_y = y - y_old
    low = np.stack([2 * delta_y - hs * (f + f_old), hs * f_old - delta_y, delta_y, y_old], axis=1)
    high = hs[:, None] * (tableau.D @ K)
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


@np.errstate(over="ignore")
def _dop853(fun, t0, y0, t1, tol, max_step):
    """Scipy's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.5) from
    t0 to t1 at rtol = atol = tol, operation for operation as scipy's
    ``DOP853`` solver class runs it: the same initial step, stage sums,
    error norm and step-size controller, so the same steps, stage rows and
    ``fun`` calls, without the per-stage wrappers of scipy's solver classes.

    ``fun(t, y)`` returns the derivative as an (n,) array or a list of n
    floats; each stage state it receives is a fresh array.  The step control
    runs in Python floats (``t``, ``h``, the step sizes and the error), which
    round as numpy's float64 scalars do; every stage sum and error sum is the
    same ``np.dot`` as scipy's, so the same BLAS kernel sums it, and each
    stage state is that sum scaled by ``h`` and added to ``y`` in place, the
    two roundings of ``y + dot * h``.  The error norms are ``sqrt(v.dot(v))``,
    what ``np.linalg.norm`` computes for a real vector.

    Returns the step boundaries, the states there and the stage rows of the
    accepted steps, (steps + 1,), (steps + 1, n) and (steps, 16, n), as
    :func:`_dense_solution` takes them: rows 0-12 hold the 12 stages and the
    derivative at the step end.  A step size below 10 ulps of the parameter
    raises ToleranceError with scipy's message.  Overflow does not warn:
    where the squares of a step's error norms pass the floats, the error is
    formed from norms rescaled as :func:`_rms` does.
    """
    floor = 100 * np.finfo(float).eps
    if tol < floor:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {floor})`.", stacklevel=4)
    if tol < 0:
        raise ValueError("`atol` must be positive.")
    rtol, atol, n = max(tol, floor), tol, len(y0)
    t, t1, y = float(t0), float(t1), y0
    f = np.asarray(fun(t, y), dtype=float)
    direction = float(np.sign(t1 - t))
    # scipy's select_initial_step for the order-7 error estimator; d1 = inf gives h1 = 0
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y, scale), _rms(f, scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(t1 - t))
    f1 = np.asarray(fun(t + h0 * direction, y + h0 * direction * f), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = _rms(f1 - f, scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / 8))
    h_abs = float(min(100 * h0, h1, abs(t1 - t), max_step))
    K = np.empty((tableau.n_stages + 1, n))
    stages = [(K[:s].T, tableau.A[s, :s], float(tableau.C[s]))
              for s in range(1, tableau.n_stages)]
    K_B, K_E, B, E5, E3 = K[:-1].T, K.T, tableau.B, tableau.E5, tableau.E3
    ts, ys, rows = [t], [y], np.empty((32, 16, n))
    while direction * (t - t1) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
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
            h_abs = abs(h)
            K[0] = f
            for s, (K_s, a, c) in enumerate(stages, start=1):
                z = np.dot(K_s, a)
                z *= h
                z += y
                K[s] = fun(t + c * h, z)
            y_new = np.dot(K_B, B)
            y_new *= h
            y_new += y
            K[-1] = f_new = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            e5, e3 = np.dot(K_E, E5) / scale, np.dot(K_E, E3) / scale
            try:
                err5, err3 = math.sqrt(e5.dot(e5)) ** 2, math.sqrt(e3.dot(e3)) ** 2
                square = (err5 + 0.01 * err3) * n
            except OverflowError:       # a norm squared past the floats, inf in numpy
                square = math.inf
            if square == math.inf:      # the same error from rescaled norms
                rms5, rms3 = _rms(e5, 1.0), _rms(e3, 1.0)
                error = abs(h) * rms5 * (rms5 / np.hypot(rms5, 0.1 * rms3))
            else:
                error = 0.0 if err5 == 0 and err3 == 0 else abs(h) * err5 / math.sqrt(square)
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error ** -0.125)
            rejected = True
        if len(ts) > len(rows):
            rows = np.concatenate([rows, np.empty_like(rows)])
        rows[len(ts) - 1, :tableau.n_stages + 1] = K
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
        self.states = LazyStates(build, len(params))

    @property
    def norm_drift(self):
        return self.audits["norm_drift"]

    @property
    def final(self):
        return self.states[-1]


@dataclass(frozen=True)
class Slot:
    """The Hilbert space of one tensor axis: a LocalizedState realization
    (:class:`quline.fermion.FermionState` or
    :class:`quline.photon.PhotonState`), an event and a label.  The label is
    refused as a float 4-vector unless it has the realization's label norm.
    ``metric``, the realization's inner-product matrix at the label, is formed
    once per slot and kept."""

    realization: type
    event: Event
    label: np.ndarray

    def __post_init__(self):
        label = np.asarray(self.label, dtype=float).reshape(4)
        check_norm(label, self.realization.label_norm, self.realization.label_message)
        object.__setattr__(self, "label", label)

    @cached_property
    def metric(self):
        return self.realization.metrics(self.label[None])[0]

    def same_space(self, other):
        return (self.realization is other.realization and self.event.close_to(other.event)
                and same_label(self.label, other.label))


def _kron(a, b):
    """The Kronecker product of two square matrices; folded over n slots, it
    gives the bytes of the one n-operand einsum, each entry 0 plus the
    slots' product taken left to right."""
    return np.einsum(a, [0, 2], b, [1, 3], [0, 1, 2, 3]).reshape(len(a) * len(b), -1)


@dataclass(frozen=True)
class MultiQubitState:
    """An amplitude tensor with one axis per slot, of that slot's ``dim``.

    A non-finite amplitude or a shape that does not match the slots is
    refused.  ``metric``, the Kronecker product of the slots' metrics (the
    slot's own for one slot), is formed once per state and kept, so a label
    changed in place afterwards is not seen.  An amplitude whose squared
    norm passes the floats, whatever its real and imaginary parts, has
    norm_squared inf, without a warning, and is normalized and projected
    over its largest |entry|.  Every method returns a state of its own class.
    """

    amplitude: np.ndarray
    slots: tuple

    def __post_init__(self):
        amplitude = np.asarray(self.amplitude, dtype=complex)
        slots = tuple(self.slots)
        dims = tuple([slot.realization.dim for slot in slots])
        if amplitude.shape != dims:
            raise QulineError(f"amplitude shape {amplitude.shape} does not match the slots' "
                              f"dims {dims}")
        if not np.isfinite(amplitude).all():
            raise QulineError("amplitude is not finite")
        object.__setattr__(self, "amplitude", amplitude)
        object.__setattr__(self, "slots", slots)

    @classmethod
    def _of(cls, amplitude, slots):
        """A state of this class with ``amplitude`` on ``slots``, however the
        class's own constructor names its space."""
        state = object.__new__(cls)
        MultiQubitState.__init__(state, amplitude, slots)
        return state

    @cached_property
    def metric(self):
        return reduce(_kron, [slot.metric for slot in self.slots])

    def _inner(self, a, b):
        return complex(a.ravel().conj() @ self.metric @ b.ravel())

    def same_space(self, other):
        return len(self.slots) == len(other.slots) and all(
            map(Slot.same_space, self.slots, other.slots))

    def inner(self, other):
        """<self|other>; the slots must name the same spaces."""
        if not self.same_space(other):
            raise HilbertSpaceMismatch("states live in different Hilbert spaces")
        return self._inner(self.amplitude, other.amplitude)

    def norm_squared(self):
        return self._square(self.amplitude)

    def _square(self, a):
        """<a|a>, inf for a finite ``a`` whose terms pass the floats: the
        complex products then take inf less inf, nan or -inf in either part."""
        with np.errstate(over="ignore", invalid="ignore"):
            square = self._inner(a, a).real
        if math.isfinite(square) or not np.isfinite(a).all():
            return square
        return math.inf

    def normalized(self):
        amplitude, square = self.amplitude, self.norm_squared()
        if square == math.inf:      # squares past the floats: normalize it rescaled
            amplitude = amplitude / np.abs(amplitude).max()
            square = self._square(amplitude)
        n = np.sqrt(square)
        if n == 0.0:
            raise QulineError("cannot normalize the zero state")
        return self._of(amplitude / n, self.slots)

    def _acted(self, operator, slots):
        """The amplitude with ``operator``, a (D, D) matrix on the product of the
        spaces of ``slots`` (D the product of their dims), applied to their axes."""
        order = [*slots, *(i for i in range(len(self.slots)) if i not in slots)]
        moved = self.amplitude.transpose(order)
        size = math.prod(moved.shape[:len(slots)])
        operator = np.asarray(operator, dtype=complex)
        if operator.shape != (size, size):
            raise QulineError(f"operator shape {operator.shape} is not ({size}, {size}) "
                              f"for slots {slots}")
        acted = np.dot(operator, moved.reshape(size, -1)).reshape(moved.shape)
        return acted.transpose([order.index(i) for i in range(len(order))])

    def apply(self, operator, *slots):
        """This state with ``operator`` applied to the given slots."""
        return self._of(self._acted(operator, slots), self.slots)

    def project(self, projector, *slots):
        """Lueders update by ``projector`` on the given slots: (probability,
        normalized state).  A non-finite probability and a zero-probability
        branch are refused."""
        projected = self._acted(projector, slots)
        kept, total = self._square(projected), self.norm_squared()
        if total == math.inf:       # squares past the floats: the same ratio rescaled
            big = np.abs(self.amplitude).max()
            projected = projected / big
            kept, total = self._square(projected), self._square(self.amplitude / big)
        prob = kept / total if total > 0.0 else math.nan
        if not math.isfinite(prob):
            raise QulineError(f"projection probability is not finite ({prob})")
        if prob < 1e-15:
            raise QulineError("projection onto a zero-probability branch")
        return prob, self._of(projected / np.sqrt(kept), self.slots)

    def carry(self, slot, worldline, tol=1e-12):
        """This state with slot ``slot`` carried along ``worldline``, whose start
        must be its label, by the end map of its realization's transport: one
        solve read at the span ends.  A photon slot's map reports the canonical
        gauge psi^0 = 0."""
        from .fermion import transport as fermion_transport
        from .photon import PhotonState, canonical_gauge, transport as photon_transport

        old = self.slots[slot]
        start = old.realization(np.eye(old.realization.dim)[0], old.event, old.label)
        if old.realization is PhotonState:
            res = photon_transport(start, worldline, tol, n_samples=2)
            end_map = canonical_gauge(res.propagators[-1].T, res.final.label).T
        else:
            res = fermion_transport(start, worldline, tol=tol, n_samples=2)
            end_map = res.propagators[-1]
        slots = list(self.slots)
        slots[slot] = Slot(old.realization, res.final.event, res.final.label)
        return self._of(self._acted(end_map, (slot,)), slots)


class LocalizedState(MultiQubitState):
    """A localized qubit: the one-slot state, an amplitude on the Hilbert
    space its (event, label) names.  A realization sets only its data: the
    amplitude length ``dim``, the label norm ``label_norm`` and
    ``label_message``, and ``metrics``, its inner-product matrix at each row
    of an (n, 4) stack of labels."""

    def __init__(self, amplitude, event, label):
        super().__init__(amplitude, (Slot(type(self), event, label),))

    event = property(lambda self: self.slots[0].event)
    label = property(lambda self: self.slots[0].label)


def carry(state, worldline, propagator, n_samples, gauge=None):
    """Carry ``state`` from the start of ``worldline``, where its label must be,
    by the maps ``propagator(params)`` at ``n_samples`` evenly spaced parameters.

    Each sample takes the worldline's (event, label) there, whose domain and
    label norm are checked; the norm drift is audited.  ``gauge(amplitudes,
    labels)``, if given, returns the amplitudes reported and further audits.
    """
    if not worldline.starts_at(state.event, state.label):
        raise HilbertSpaceMismatch("state label differs from the worldline start")
    params = worldline.sample_params(n_samples)
    maps = propagator(params)
    amplitudes = maps @ state.amplitude
    positions, labels = (worldline.samples if n_samples == 201
                         else worldline.motion(params))[:2]
    worldline.model.check_domain(positions)
    check_norm(labels, state.label_norm, state.label_message)
    norms = np.einsum("na,nab,nb->n", amplitudes.conj(), state.metrics(labels), amplitudes).real
    audits = {"norm_drift": float(np.abs(norms - state.norm_squared()).max())}
    if gauge is not None:
        amplitudes, more = gauge(amplitudes, labels)
        audits.update(more)
    chart_id, realization = worldline.model.chart_id, type(state)
    return TransportResult(params, maps, audits,
                           lambda i: realization(amplitudes[i], Event(positions[i], chart_id),
                                                 labels[i]))


# Gauss-Legendre nodes on [0, 1].  An interval of the transport kernel takes
# Magnus steps on its two halves and on the whole (SUBNODES, in that order);
# G is evaluated at its ends, midpoint and halves' nodes (NODES, in order)
# and interpolated to the whole's.
GAUSS_NODES = 0.5 + np.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
SUBNODES = np.concatenate([0.5 * GAUSS_NODES, 0.5 * (1.0 + GAUSS_NODES), GAUSS_NODES])
NODES = np.concatenate([[0.0], SUBNODES[:3], [0.5], SUBNODES[3:6], [1.0]])


def _barycentric(nodes):
    """The barycentric weights 1 / prod_(k != j) (x_j - x_k) of ``nodes``."""
    return 1.0 / np.prod(np.where(np.eye(len(nodes), dtype=bool), 1.0,
                                  nodes[:, None] - nodes), axis=-1)


_NODE_WEIGHTS = _barycentric(NODES)


def _node_sum(w):
    """w[0] + w[1] + ... over the first axis of ``w``, in the order np.sum
    adds a contiguous row of up to 15: one by one below 8 terms, otherwise
    the first 8 pairwise and the rest one by one."""
    if len(w) < 8:
        return sum(w[1:], w[0])
    return sum(w[8:], ((w[0] + w[1]) + (w[2] + w[3])) + ((w[4] + w[5]) + (w[6] + w[7])))


def _lagrange(t, nodes=NODES, barycentric=_NODE_WEIGHTS):
    """The Lagrange basis polynomials through ``nodes``, whose barycentric
    weights are ``barycentric``, at each of ``t``, node first: (len(nodes),
    *t.shape), in barycentric form (exact at a node).  Each node's weights
    are one row over all of ``t``, and :func:`_node_sum` adds them in the
    order of a sum over a row of nodes."""
    column = (-1,) + (1,) * np.ndim(t)
    weights = t - nodes.reshape(column)         # the gaps, divided in place
    hit = weights == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(barycentric.reshape(column), weights, out=weights)
        weights /= _node_sum(weights)
    if not hit.any():
        return weights
    return np.where(hit.any(axis=0), hit, weights)


# G at the whole's outer Gauss nodes by the degree-8 interpolant through NODES
# less by the degree-6 one through the inner 7: how far a read can be off
_READ_CHECK = _lagrange(GAUSS_NODES[::2]).T.copy()
_READ_CHECK[:, 1:-1] -= _lagrange(GAUSS_NODES[::2], NODES[1:-1], _barycentric(NODES[1:-1])).T
_AT_SUBNODES = _lagrange(SUBNODES).T.copy()     # the interpolant at SUBNODES
MAX_LEVELS = 40         # bisections of one interval before the kernel gives up
TOLERANCE_FLOOR = float(10 * np.finfo(float).eps)   # an estimate rounds by ~eps/63
CHUNK = 4096            # intervals evaluated at once; their kinematics take ~5 kB each
_EYE = np.eye(2)[:, :, None]       # the 2x2 identity as an entry-first stack
_WIDTHS = np.array([0.5, 0.5, 1.0])[:, None]     # a step's halves and whole, in its width
_INVERSE_SIGNS = np.array([[[1], [-1]], [[-1], [1]]])   # [[d, -b], [-c, a]] of [[a, b], [c, d]]


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


def _node_products(g):
    """(G at SUBNODES (n, 9, 2, 2), how far a read can be off (n,)) of
    intervals whose G at NODES is g (n, 9, 2, 2): the interpolant and the
    ``_READ_CHECK`` of G less its midpoint value (exact 0 for constant G), each
    one product against the intervals' G node by node, (9, 4n)."""
    by_node = g.transpose(1, 0, 2, 3).reshape(len(NODES), -1)
    at_subnodes = (_AT_SUBNODES @ by_node).reshape(len(SUBNODES), len(g), 2, 2)
    misread = np.abs(_READ_CHECK @ (by_node - by_node[4])).reshape(-1, len(g), 4)
    return at_subnodes.transpose(1, 0, 2, 3), misread.max(axis=(0, 2))


def _interpolate_reads(g, held, theta):
    """(order, G) for reads at the first ``theta`` (m) of the intervals held
    (m) whose G at NODES is g (n, 9, 2, 2): G (m, 6, 2, 2) at the six
    half-step nodes SUBNODES[:6] of read order[i], by the degree-8 polynomial
    through the nodes.  The reads go in runs of one interval, the intervals
    with fewer reads first.  Their weights are built node first, (9, m, 6);
    the c reads of one interval are one (6c, 9) @ (9, 4) product against its
    G, and the intervals with c reads are one stack."""
    count = np.bincount(held)
    order = np.lexsort((held, count[held]))
    held = held[order]
    runs = count[held]          # the reads of each read's interval, non-decreasing
    edges = [0, *(np.flatnonzero(runs[1:] != runs[:-1]) + 1).tolist(), len(held)]
    weights = _lagrange(theta[order, None] * SUBNODES[:6]).transpose(1, 2, 0)
    g = g.reshape(len(g), len(NODES), 4)
    out = np.empty((len(held), 6, 4), dtype=complex)
    for lo, hi in zip(edges[:-1], edges[1:]):
        c = int(runs[lo])
        np.matmul(weights[lo:hi].reshape(-1, 6 * c, len(NODES)), g[held[lo:hi:c]],
                  out=out[lo:hi].reshape(-1, 6 * c, 4))
    return order, out.reshape(-1, 6, 2, 2)


def _half_steps(g, h):
    """(X2 X1, steps): the product of the two Omega_6 half steps X1, X2 of
    intervals of widths h, and the steps, a (k, 2, 2, n) stack, from G at
    the first 3k SUBNODES, g (n, 3k, 2, 2): the halves' six for a read, or
    all nine, which add the whole step, for :func:`_richardson`.  A step
    too large to exponentiate gives inf or nan."""
    k = g.shape[1] // 3
    # G at each step's 3 nodes, (node, 2, 2, kn): all first halves, then second halves, ...
    g = g.reshape(len(h), k, 3, 2, 2).transpose(2, 3, 4, 1, 0).reshape(3, 2, 2, k * len(h))
    with np.errstate(over="ignore", invalid="ignore"):
        steps = _exp2(_magnus(g, (_WIDTHS[:k] * h).ravel()))
        steps = steps.reshape(2, 2, k, len(h)).transpose(2, 0, 1, 3)
        return _dot(steps[1], steps[0]), steps


def _richardson(g, h):
    """(map, error estimate) of intervals of widths h from G at their
    SUBNODES, g (n, 9, 2, 2), the map a (2, 2, n) stack built from
    :func:`_half_steps`.  The method is symmetric: about the exact half maps
    X1, X2, the whole step is X2 exp(e) X1 and the half steps' product
    X2 exp(e/64) X1 to O(h^9).  So their difference over 63 estimates the
    half steps' error, first whole^-1 second = exp(-63 e/64), and the map
    puts exp(-e/64) between the halves (Richardson extrapolation in
    SL(2,C)).  A step too large to exponentiate gives inf or nan, and is
    bisected."""
    halves, (first, second, whole) = _half_steps(g, h)
    with np.errstate(over="ignore", invalid="ignore"):
        inverse = np.swapaxes(whole[::-1, ::-1], 0, 1) * _INVERSE_SIGNS   # det 1
        drift = _dot(_dot(first, inverse), second)
        drift -= 0.5 * (drift[0, 0] + drift[1, 1]) * _EYE
        step = _dot(second, _dot(_exp2(drift / 63.0), first))
        return step, np.abs(halves - whole).max(axis=(0, 1)) / 63.0


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
    unknown left end is the right end of the part before it.  A parameter
    strictly inside an accepted interval is read as the product of the two
    :func:`_half_steps` over the part of the interval before it, from the
    interpolant of G at their six nodes, with no whole step or correction:
    the interval's estimate, at most tol / 2, is the half steps' error over
    it, and by the h^7 law of :func:`_split` that over the part theta is
    about theta^7 times as large.  A parameter on a grid point is read from
    the accepted steps alone.
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
    inside = (direction * (lams - t0) >= 0) & (direction * (lams - t1) <= 0)   # nan fails
    reject_where(~inside, DomainError, "transport parameter outside the worldline span", lam=lams)

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
            at_subnodes, misread = _node_products(g)
            steps, error = _richardson(at_subnodes, width)
            held = (np.searchsorted(asked, direction * left, "right")
                    < np.searchsorted(asked, direction * right, "left"))
            # G odd about the midpoint fools the estimate, not the read check;
            # the steps are exact then, only reads inside are off
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
    inside = np.flatnonzero((lams != lefts[k]) & (lams != rights[k]))
    if len(inside):
        order, g = _interpolate_reads(np.concatenate(kept), slots[k[inside]], theta[inside])
        reads = inside[order]
        maps[..., reads] = _half_steps(g, theta[reads] * widths[reads])[0]
    return np.moveaxis(_dot(maps, starts[..., k]), -1, 0).reshape(params.shape + (2, 2)).copy()


def line_integral(worldline, integrand, params, tol):
    """The integral of ``integrand(x, u, a, xdot, pulled)`` (n values for (n, 4)
    ``kinematics`` rows) from the span start to each of ``params``: entry
    [0, 1] of :func:`propagate` of the nilpotent f sigma_+, whose Magnus steps
    are exactly 1 + Omega, so the kernel's estimate and errors apply as they are."""
    raising = np.array([[0.0, 1.0], [0.0, 0.0]])
    maps = propagate(worldline, lambda *k: integrand(*k)[:, None, None] * raising, params, tol)
    return maps[..., 0, 1].real


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
    Raises DomainError, naming the first parameter, for a state off the chart
    or, at one parameter, for rates that overflow a Python float.
    A free trajectory on an analytic model reads one state as 8 floats and
    returns the list of 8 its straight-line one-event rates, ``_rates``, give,
    which check the chart themselves: no ``in_domain`` call and no array is
    made per call.  Rows, forces and other models go through
    ``trajectory_rates``, whose one-event path on an analytic model is
    ``_rates`` too."""
    scalar = accel_fn is None and isinstance(model, _AnalyticModel)

    def rates(lam, y):
        try:
            if scalar and y.ndim == 1:
                derivative = model._rates(y.tolist())
                if derivative is None:
                    raise DomainError(f"{model.name}: trajectory left chart domain at "
                                      f"parameter {lam}")
                return derivative
            x, u = y[..., :4], y[..., 4:]
            inside = model.in_domain(x.T)
            if not (inside if y.ndim == 1 else np.all(inside)):
                first = np.ravel(lam)[np.argmin(np.ravel(inside))]
                raise DomainError(f"{model.name}: trajectory left chart domain at parameter "
                                  f"{first}")
            derivative = model.trajectory_rates(x, u)
        except OverflowError:       # a Python float power past the largest float
            raise DomainError(f"{model.name}: trajectory rates overflow at parameter "
                              f"{lam}") from None
        if accel_fn is not None:
            derivative[..., 4:] += accel_fn(x, u)
        return derivative

    return rates


def _integrate(model, x0, u0, span, tol, kind, accel_fn):
    if span <= 0:
        raise DomainError("span must be positive")
    x0 = np.asarray(x0, dtype=float).reshape(4)
    model.check_domain(x0)
    rates = _trajectory_rates(model, accel_fn)
    ts, ys, K = _dop853(rates, 0.0, np.concatenate([x0, u0]), float(span), tol, np.inf)
    dense = _dense_solution(ts, ys, K, rates)

    def motion(lam):
        y = dense(lam)
        x, u = y[..., :4], y[..., 4:]
        return x, u, np.zeros_like(u) if accel_fn is None else accel_fn(x, u)

    wl = Worldline(model, (0.0, span), motion, kind)
    drift = wl.norm_audit()
    try:                # the labels carry reads meet the one label rule, and no other bound
        check_norm(wl.samples[1], 1 if kind == "timelike" else 0,
                   f"{kind} velocity label drifted during integration")
    except QulineError as exc:
        raise ToleranceError(str(exc), achieved=drift) from None
    return wl


def integrate_timelike(model, em, x0, u0, charge_to_mass=0.0, span=1.0, tol=1e-11):
    """Integrate the Lorentz-force law m D^2x/Dtau^2 = -e u F from (x0, u0).

    ``u0`` is a future-pointing unit timelike vector in tetrad components;
    ``charge_to_mass`` is e/m in natural units.
    """
    u0 = np.asarray(u0, dtype=float).reshape(4)
    check_norm(u0, 1, "u0 must be normalized timelike")
    return _integrate(model, x0, u0, span, tol, "timelike",
                      _lorentz_force_accel(model, em, charge_to_mass))


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

    return Worldline(model, (0.0, span), motion)


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

    return Worldline(model, (0.0, span), motion)


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
    ordinary u-derivative from the slopes at the knots of the not-a-knot
    cubic spline through u(tau).  The path must stay timelike throughout.
    """
    if not t1 > t0:
        raise DomainError(f"coordinate path needs t1 > t0 (t0 = {t0}, t1 = {t1})")
    if n < 2:
        raise DomainError(f"coordinate path needs at least 2 knots (n = {n})")

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
    _, pulled = model.pulled_connections(positions, u_tet)
    accels = _not_a_knot_slopes(taus, u_tet) + (pulled @ u_tet[:, :, None])[:, :, 0]
    return SampledWorldline(model, taus, positions, u_tet, accels, "timelike")


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
