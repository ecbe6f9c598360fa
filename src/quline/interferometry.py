"""Interference phases for path-superposed qubits, and the COW experiment.

For each arm the internal phase is the line integral of (k + eA) along the
trajectory: integral of m dtau for massive particles (plus the potential
term), identically zero for photons.  Recombining at nearby endpoints x1,
x2 with common wavevector k the phase difference is

    dtheta = (k + eA).(x1 - x2) + (theta2_int - theta1_int),

independent of where the endpoints sit on their arms.  States transported
along the arms contribute a further transport phase arg<psi1|psi2>; the
recombined state is a psi1 + b psi2 e^{i dtheta}.

All phases are in radians and natural units; nothing is reduced mod 2 pi
except at presentation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ComplexVelocity, DomainError, HilbertSpaceMismatch,
                     OrthogonalStates, QulineError, WavevectorMismatch, reject_where)
from .geometry import Event
from .worldline import _restricted, line_integral, rindler_speed_at_height


@dataclass(frozen=True)
class PhaseLedger:
    """Internal phase and endpoint data for one interferometer arm."""

    arm_id: str
    kind: str                 # "fermion" | "photon"
    theta_int: float
    end_param: float
    event: Event
    k_lower: np.ndarray       # k_mu at the endpoint, coordinate components
    mass: float
    charge: float
    worldline: object
    em: object


def arm_phase(worldline, em=None, kind="fermion", mass=None, charge=1.0,
              end_param=None, arm_id=""):
    """Accumulate the internal phase along an arm up to ``end_param``.

    Fermion arms need ``mass``; their internal phase is mass * (proper time)
    plus charge * integral A.dx over the arm up to ``end`` when a potential
    is supplied.  Photon arms have internal phase exactly zero.
    """
    t0, t1 = worldline.param_span
    end = t1 if end_param is None else float(end_param)
    if not t0 <= end <= t1:
        raise DomainError("end_param outside the worldline parameter span")
    model = worldline.model
    x_end = worldline.position(end)
    if kind == "photon":
        if worldline.kind != "null":
            raise QulineError("photon arms must be null worldlines")
        theta = 0.0
        k_lower = model.lower_coordinate(x_end, worldline.coordinate_velocity(end))
        mass_val, charge = 0.0, 0.0
    elif kind == "fermion":
        if worldline.kind != "timelike":
            raise QulineError("fermion arms must be timelike worldlines")
        if mass is None or mass <= 0:
            raise DomainError("fermion arms need a positive mass")
        theta = mass * (end - t0)
        if em is not None and em.has_potential() and end > t0:
            a_dot_xdot = lambda x, u, a, xdot, pulled: np.einsum(
                "ni,ni->n", em.potential(x), xdot)
            theta += charge * line_integral(_restricted(worldline, end), a_dot_xdot, end,
                                            1e-12)
        mass_val = mass
        k_lower = mass * model.lower_coordinate(x_end, worldline.coordinate_velocity(end))
    else:
        raise QulineError(f"unknown arm kind {kind!r}")
    return PhaseLedger(arm_id, kind, float(theta), end, worldline.event(end),
                       np.asarray(k_lower, dtype=float), mass_val, charge, worldline, em)


def slide_endpoint(ledger: PhaseLedger, dparam):
    """Re-evaluate an arm ledger with its endpoint slid along the arm."""
    return arm_phase(ledger.worldline, ledger.em, ledger.kind,
                     ledger.mass if ledger.kind == "fermion" else None,
                     ledger.charge, ledger.end_param + dparam, ledger.arm_id)


def phase_difference(arm1: PhaseLedger, arm2: PhaseLedger, a_common_lower=None,
                     match_tol=1e-9):
    """dtheta = (k + eA).(x1 - x2) + (theta2 - theta1) at the recombination region."""
    scale = 1.0 + np.abs(arm1.k_lower).max() + np.abs(arm2.k_lower).max()
    if np.abs(arm1.k_lower - arm2.k_lower).max() > match_tol * scale:
        raise WavevectorMismatch("arm wavevectors differ at the recombination region")
    k = 0.5 * (arm1.k_lower + arm2.k_lower)
    if a_common_lower is not None:
        k = k + arm1.charge * np.asarray(a_common_lower, dtype=float)
    dx = arm1.event.coords - arm2.event.coords
    return float(k @ dx + (arm2.theta_int - arm1.theta_int))


def displacement_phase(k_lower, x1, x2):
    """k.(x1 - x2); the part of dtheta from spatially offset wavepackets."""
    return float(np.asarray(k_lower) @ (np.asarray(x1) - np.asarray(x2)))


def transport_phase(state1, state2) -> float:
    """arg <psi1|psi2> in (-pi, pi]; error when the overlap vanishes."""
    ov = state1.inner(state2)
    scale = np.sqrt(state1.norm_squared() * state2.norm_squared())
    if abs(ov) <= 1e-12 * max(scale, 1e-300):
        raise OrthogonalStates("transport phase of orthogonal states is undefined")
    return float(np.angle(ov))


def recombine(state1, state2, a, b, delta_theta):
    """Superpose two transported states: a psi1 + b psi2 e^{i dtheta}.

    Returns (state, detection_probability).  The probability carries the
    second beam splitter's 1/2, so the two output ports sum to one:
    p = 1/2 ||a psi1 + b psi2 e^{i dtheta}||^2, giving (1 + cos dtheta)/2
    for equal amplitudes and identical unit-norm states.
    """
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-9:
        raise QulineError("splitter amplitudes must satisfy |a|^2 + |b|^2 = 1")
    if not state1.same_space(state2):
        raise HilbertSpaceMismatch("recombining states from different Hilbert spaces")
    out = type(state1)(a * state1.amplitude + b * np.exp(1j * delta_theta) * state2.amplitude,
                       state1.event, state1.label)
    return out, 0.5 * out.norm_squared()


COW_MODES = ("exact", "weak_field", "nonrel_g2", "standard")


def cow_phase(mass, v1, dz, ell, g, mode="exact", dps=None):
    """Gravitational phase difference for the rectangular neutron interferometer.

    Natural units; ``v1`` is the lower-path speed (0 < v1 < 1), ``dz`` the
    height difference, ``ell`` the horizontal leg length, ``g`` the
    acceleration.  Modes, from exact to most approximated:

    * ``exact``       m l gamma1 (v1 - v2 / g00) with g00 = (1 + dz g)^2 and
                      v2 from energy conservation
    * ``weak_field``  m l v1 gamma1 (1 - sqrt(1 - 2 dz g / v1^2))
    * ``nonrel_g2``   m l v1 (x + x^2/2), x = dz g / v1^2
    * ``standard``    m dz l g / v1

    ``dps`` switches the evaluation to mpmath with that many digits (the
    consecutive differences between modes underflow double precision for
    laboratory parameters).
    """
    if mode not in COW_MODES:
        raise QulineError(f"unknown cow mode {mode!r}")
    if dps is None:
        return float(cow_phases(mass, v1, dz, ell, g, (mode,))[mode])
    _check_cow_inputs(mass, v1, dz, ell, g)
    # mpmath would carry a non-finite input into an inf or nan phase
    for name, value in zip(("mass", "v1", "dz", "ell", "g"), (mass, v1, dz, ell, g)):
        reject_where(not np.isfinite(value), DomainError, f"{name} must be finite",
                     **{name: value})
    if dz == 0.0:
        return 0.0
    import mpmath as mp     # only here, so that no other path loads mpmath
    with mp.workdps(dps):
        return _cow_formulas(mp, *map(mp.mpf, (mass, v1, dz, ell, g)), (mode,))[mode]


def cow_phases(mass, v1, dz, ell, g, modes=COW_MODES):
    """:func:`cow_phase` of each of ``modes`` on numpy scalars or arrays as given.

    A term of the scalar inputs is evaluated once; each phase depends on all
    five inputs, so it has their broadcast shape.  Returns {mode: array};
    rows with dz = 0 are exactly 0.  A phase that is undefined or not finite
    on some row raises, naming that row's inputs; so does a dz = 0 row whose
    formulas are not finite, as a NaN or infinite input leaves them.
    """
    mass, v1, dz, ell, g = (np.asarray(a, dtype=float) for a in (mass, v1, dz, ell, g))
    _check_cow_inputs(mass, v1, dz, ell, g)
    # an overflowing term ends in a non-finite phase, refused below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # at dz = 0, phase - phase is +0.0 where the phase is finite and nan
        # where a non-finite input made it so
        phases = {mode: np.where(dz == 0.0, phase - phase, phase)
                  for mode, phase in _cow_formulas(np, mass, v1, dz, ell, g, modes).items()}
    for mode, phase in phases.items():
        reject_where(np.logical_not(np.isfinite(phase)), DomainError,
                     f"{mode} phase is not finite in double precision",
                     mass=mass, v1=v1, dz=dz, ell=ell, g=g)
    return phases


def _check_cow_inputs(mass, v1, dz, ell, g):
    reject_where(np.logical_not(mass > 0.0), DomainError, "mass must be positive", mass=mass)
    reject_where(np.logical_not((0.0 < v1) & (v1 < 1.0)), DomainError,
                 "v1 must lie in (0, 1) in natural units", v1=v1)
    reject_where((dz < 0) | (ell <= 0) | (g <= 0), DomainError,
                 "dz must be >= 0 and ell, g positive", dz=dz, ell=ell, g=g)


def _cow_formulas(xp, mass, v1, dz, ell, g, modes):
    """The closed forms of ``modes`` over numpy arrays or mpmath scalars (``xp``)."""
    x = dz * g / (v1 * v1)
    gamma1 = 1.0 / xp.sqrt(1.0 - v1 * v1)
    phases = {}
    if "exact" in modes:
        # m l gamma1 (v1 - v2/g00) = m l gamma1 h / (g00 v1 + v2) with
        # h = g00 - 1 = dz g (2 + dz g); avoids differencing nearly equal speeds
        h = dz * g * (2.0 + dz * g)
        v2 = rindler_speed_at_height(v1, dz, g, xp)
        phases["exact"] = mass * ell * gamma1 * h / ((1.0 + h) * v1 + v2)
    if "weak_field" in modes:
        reject_where(2.0 * x >= 1.0, ComplexVelocity,
                     "particle cannot reach the upper path height", v1=v1, dz=dz, g=g)
        # 1 - sqrt(1 - 2x) = 2x / (1 + sqrt(1 - 2x)), cancellation free
        phases["weak_field"] = (mass * ell * v1 * gamma1 * 2.0 * x
                                / (1.0 + xp.sqrt(1.0 - 2.0 * x)))
    if "nonrel_g2" in modes:
        phases["nonrel_g2"] = mass * ell * v1 * (x + 0.5 * x * x)
    if "standard" in modes:
        phases["standard"] = mass * dz * ell * g / v1
    return phases

