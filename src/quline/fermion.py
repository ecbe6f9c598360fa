"""Spin-qubit transport along timelike worldlines.

Covariant form: the spinor obeys

    dpsi/dtau = i [ (1/2) u^mu omega_{mu IJ} + u_I a_J
                    - (e/2m) B^rest_IJ ] L^{IJ} psi

with B^rest = h F h the doubly projected (rest-frame) magnetic part of the
field, h^I_J = delta^I_J - u^I u_J.  The first two terms are the spin-half
Fermi-Walker derivative, the third is magnetic precession.

Rest-frame form: with psi~ = M(u)^-1 psi (M the spin-half boost of u) the
same evolution reads

    dpsi~/dtau = i gamma^2/(2(gamma+1)) beta_i dbeta_j/dtau eps_ijk pauli_k psi~
               + i u^mu [ 1/2 omega_{mu ij} + gamma omega_{mu 0j} beta_i
                          + gamma^2/(gamma+1) omega_{mu il} beta^l beta_j ] L^{ij} psi~

(Thomas precession plus the rotated gravitational terms; beta_i are the
Euclidean velocity components in the tetrad frame).  The two forms have
independent traceless 2x2 generators, each integrated by the Gauss-node
Magnus kernel :func:`quline.worldline.propagate` (closed-form SL(2,C) steps),
and agree to integration tolerance.

Norm drift under the velocity inner product I_u is reported, never silently
renormalized away.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import HilbertSpaceMismatch, QulineError
from .geometry import Event
from .spin_algebra import (ETA, PAULI, SIGMA_BAR, check_norm, generator_contraction,
                           spin_half_boost_matrix, velocity_inner_product_matrix)
from .worldline import TransportResult, _exp2, propagate

_LABEL = "velocity label must be future-pointing with u.u = 1"


@dataclass(frozen=True)
class FermionState:
    """A spinor psi_A attached to its Hilbert-space label (event, 4-velocity)."""

    psi: np.ndarray
    event: Event
    velocity: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex).reshape(2)
        u = np.asarray(self.velocity, dtype=float).reshape(4)
        check_norm(u, 1, _LABEL)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "velocity", u)

    def metric(self):
        return velocity_inner_product_matrix(self.velocity)

    def norm_squared(self):
        return float(np.real(self.psi.conj() @ self.metric() @ self.psi))

    def normalized(self):
        n = np.sqrt(self.norm_squared())
        if n == 0.0:
            raise QulineError("cannot normalize the zero state")
        return FermionState(self.psi / n, self.event, self.velocity)

    def same_space(self, other):
        return (self.event.close_to(other.event)
                and np.abs(self.velocity - other.velocity).max() <= 1e-9)


@dataclass(frozen=True)
class RestFrameState:
    """The spinor components in the comoving orthonormal basis (delta inner product)."""

    psi_tilde: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "psi_tilde",
                           np.asarray(self.psi_tilde, dtype=complex).reshape(2))

    def norm_squared(self):
        return float(np.real(self.psi_tilde.conj() @ self.psi_tilde))


def inner_product(a: FermionState, b: FermionState) -> complex:
    """<a|b> = u_I sigmabar^I conj(a) b; states must share their Hilbert space."""
    if not a.same_space(b):
        raise HilbertSpaceMismatch("states live at different (event, velocity) labels")
    return complex(a.psi.conj() @ a.metric() @ b.psi)


def to_rest_frame(state: FermionState) -> RestFrameState:
    m = spin_half_boost_matrix(state.velocity[1:] / state.velocity[0])
    return RestFrameState(np.linalg.solve(m, state.psi))


def from_rest_frame(rf: RestFrameState, event: Event, velocity) -> FermionState:
    velocity = np.asarray(velocity, dtype=float).reshape(4)
    m = spin_half_boost_matrix(velocity[1:] / velocity[0])
    return FermionState(m @ rf.psi_tilde, event, velocity)


def _outer(a, b):
    """a_I b_J over any leading axes."""
    return a[..., :, None] * b[..., None, :]


def _rest_frame_magnetic(u_tet, f_tet):
    """B^rest_IJ = h_I^K h_J^L F_KL with h^I_J = delta - u^I u_J."""
    h = np.eye(4) - _outer(u_tet @ ETA, u_tet)   # h_I^K, row I, column K
    return h @ f_tet @ np.swapaxes(h, -1, -2)


def _covariant_generator(em, charge_to_mass, x, u, a, xdot, pulled):
    """2x2 generator of the covariant transport; (n, 2, 2) for (n, 4) kinematics."""
    lowered = ETA @ pulled      # xdot^nu omega_{nu IJ}
    coeffs = 0.5 * lowered + _outer(u @ ETA, a @ ETA)
    if em is not None and charge_to_mass != 0.0:
        coeffs = coeffs - 0.5 * charge_to_mass * _rest_frame_magnetic(u, em.tensor(x))
    return 1j * generator_contraction(coeffs)


def transport(state: FermionState, worldline, em=None, charge_to_mass=0.0,
              tol=1e-12, n_samples=201):
    """Integrate the covariant transport from the start of ``worldline``.

    The state's label must match the worldline start; the returned samples
    carry updated (event, velocity) labels along the curve.
    """
    t0, t1 = worldline.param_span
    if not state.event.close_to(worldline.start_event, 1e-8):
        raise HilbertSpaceMismatch("state is not attached to the worldline start event")
    if np.abs(state.velocity - worldline.velocity(t0)).max() > 1e-8:
        raise HilbertSpaceMismatch("state velocity label differs from worldline velocity")
    chart_id = worldline.model.chart_id
    generator = partial(_covariant_generator, em, charge_to_mass)
    params = np.linspace(t0, t1, n_samples)
    maps = propagate(worldline, generator, params, tol)
    psis = maps @ state.psi
    positions, velocities = worldline.trajectory(params)
    worldline.model.check_domain(positions)
    check_norm(velocities, 1, _LABEL)
    metrics = np.einsum("ni,iab->nab", velocities @ ETA, SIGMA_BAR)
    norms = np.einsum("na,nab,nb->n", psis.conj(), metrics, psis).real
    drift = float(np.abs(norms - state.norm_squared()).max())
    return TransportResult(params, maps, {"norm_drift": drift},
                           lambda i: FermionState(psis[i], Event(positions[i], chart_id),
                                                  velocities[i]))


def _wigner_generator(u, du, omega_pull):
    """Thomas precession plus the rotated gravitational terms, as a 2x2 generator.

    ``du`` is the rate (or increment) of the tetrad velocity components and
    ``omega_pull`` the lowered connection contracted with the coordinate
    velocity over the same rate (or increment).  Leading axes broadcast.
    """
    gamma = u[..., 0, None]
    beta = u[..., 1:] / gamma
    dbeta = (du[..., 1:] * u[..., :1] - u[..., 1:] * du[..., :1]) / u[..., :1] ** 2
    thomas_vec = np.cross(beta, dbeta)
    gamma = gamma[..., None]
    gen = 1j * gamma * gamma / (2.0 * (gamma + 1.0)) * np.einsum(
        "...k,kab->...ab", thomas_vec, PAULI[1:])
    w = np.zeros(np.shape(omega_pull))
    w[..., 1:, 1:] = (0.5 * omega_pull[..., 1:, 1:]
                      + gamma * _outer(beta, omega_pull[..., 0, 1:])
                      + gamma * gamma / (gamma + 1.0)
                      * _outer((omega_pull[..., 1:, 1:] @ beta[..., None])[..., 0], beta))
    return gen + 1j * generator_contraction(w)


def _rest_frame_generator(x, u, a, xdot, pulled):
    """2x2 generator of the rest-frame transport; (n, 2, 2) for (n, 4) kinematics."""
    udot = a - (pulled @ u[..., None])[..., 0]
    return _wigner_generator(u, udot, ETA @ pulled)


def transport_rest_frame(rf: RestFrameState, worldline, tol=1e-12, n_samples=201):
    """Integrate the rest-frame (Wigner) form of the transport equation.

    Independent of :func:`transport`; the two agree through the boost map
    to integration tolerance.  Manifestly norm preserving under the delta
    inner product.
    """
    if worldline.kind != "timelike":
        raise QulineError("rest-frame transport needs a timelike worldline")
    params = worldline.sample_params(n_samples)
    maps = propagate(worldline, _rest_frame_generator, params, tol)
    psis = maps @ rf.psi_tilde
    drift = float(np.abs(np.sum(np.abs(psis) ** 2, axis=1) - rf.norm_squared()).max())
    return TransportResult(params, maps, {"norm_drift": drift},
                           lambda i: RestFrameState(psis[i]))


def wigner_rotation_increment(u, du, omega_pull):
    """2x2 unitary for one step of the rest-frame evolution.

    ``u``: 4-velocity (tetrad components); ``du``: its increment over the
    step; ``omega_pull``: u^mu omega_{mu IJ} dtau, a lowered antisymmetric
    (4,4) increment.  Composing these over a worldline reproduces
    :func:`transport_rest_frame` to second order in the step.
    """
    gen = _wigner_generator(np.asarray(u, dtype=float).reshape(1, 4),
                            np.asarray(du, dtype=float).reshape(1, 4),
                            np.asarray(omega_pull, dtype=float).reshape(1, 4, 4))
    return _exp2(np.moveaxis(gen, 0, -1))[..., 0]
