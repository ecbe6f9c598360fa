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

:class:`FermionState` is the spin realization of the one qubit state
:class:`quline.worldline.LocalizedState`; :func:`transport` hands the Magnus
maps of its covariant generator to the shared :func:`quline.worldline.carry`.

Norm drift under the velocity inner product I_u is reported, never silently
renormalized away.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import QulineError
from .geometry import Event
from .spin_algebra import (ETA, ETA_ROWS, SIGMA_BAR, generator_contraction,
                           spin_half_boost_matrix, velocity_inner_product_matrix)
from .worldline import LocalizedState, TransportResult, carry, propagate

__all__ = ["FermionState", "RestFrameState", "to_rest_frame", "from_rest_frame", "transport",
           "transport_rest_frame"]


class FermionState(LocalizedState):
    """A spinor psi_A on its Hilbert-space label (event, 4-velocity), with the
    velocity inner product I_u = u_I sigmabar^I."""

    dim, label_norm = 2, 1
    label_message = "velocity label must be future-pointing with u.u = 1"
    psi = property(lambda self: self.amplitude)
    velocity = property(lambda self: self.label)

    def metric(self):
        return velocity_inner_product_matrix(self.label)

    @staticmethod
    def metrics(labels):
        return np.einsum("ni,iab->nab", labels @ ETA, SIGMA_BAR)


@dataclass(frozen=True)
class RestFrameState:
    """The spinor components in the comoving orthonormal basis (delta inner product)."""

    psi_tilde: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "psi_tilde",
                           np.asarray(self.psi_tilde, dtype=complex).reshape(2))

    def norm_squared(self):
        return float(np.real(self.psi_tilde.conj() @ self.psi_tilde))


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
    lowered = ETA_ROWS * pulled     # xdot^nu omega_{nu IJ}
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
    generator = partial(_covariant_generator, em, charge_to_mass)
    return carry(state, worldline, lambda params: propagate(worldline, generator, params, tol),
                 n_samples)


def _wigner_generator(u, du, omega_pull):
    """Thomas precession plus the rotated gravitational terms, as a 2x2 generator.

    ``du`` is the rate (or increment) of the tetrad velocity components and
    ``omega_pull`` the lowered connection contracted with the coordinate
    velocity over the same rate (or increment).  Leading axes broadcast.  The
    Thomas term's (beta x dbeta).pauli is built entry by entry from the columns
    of beta x dbeta, its zeros made +0 as in a sum over the Pauli matrices.
    """
    gamma = u[..., :1]
    beta = u[..., 1:] / gamma
    dbeta = (du[..., 1:] * gamma - u[..., 1:] * du[..., :1]) / gamma ** 2
    b1, b2, b3, d1, d2, d3 = (v[..., i] for v in (beta, dbeta) for i in range(3))
    t1, t2, t3 = b2 * d3 - b3 * d2, b3 * d1 - b1 * d3, b1 * d2 - b2 * d1
    zero = np.zeros_like(t1)
    pauli = (np.stack([t3, zero, t1, -t2, t1, t2, -t3, zero], axis=-1) + 0.0).view(complex)
    gamma = gamma[..., None]
    gen = 1j * gamma * gamma / (2.0 * (gamma + 1.0)) * pauli.reshape(t1.shape + (2, 2))
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

