"""Photon polarization: gauge-quotiented parallel transport and Jones extraction.

The physical state is the equivalence class psi^I ~ psi^I + upsilon u^I of
complex polarization vectors orthogonal to the null velocity u^I.  Transport
is parallel transport along the null geodesic; the arbitrary gauge term is
fixed for reporting by the canonical representative with psi^0 = 0.

:class:`PhotonState` is the polarization realization of the one qubit state
:class:`quline.worldline.LocalizedState`; :func:`transport` hands the parallel
propagator to the shared :func:`quline.worldline.carry` and adds the
canonical gauge and the transversality audit.

An adaptation rotation R(u) takes u to the standard form (1,0,0,1); its
middle rows form the diad f^A_I whose contraction with psi^I is the
gauge-invariant Jones vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdaptationSingular, QulineError
from .geometry import parallel_propagator
from .spin_algebra import ETA, axis_rotation
from .worldline import LocalizedState, carry, line_integral

__all__ = [
    "PhotonState", "AdaptationRotation", "adaptation_rotation", "adapt", "jones_to_state",
    "transport", "canonical_gauge", "wigner_rotation", "jones_rotation", "helicity_content",
    "apply_jones",
]

SINGULAR_TOL = 1e-8
_METRIC = -ETA      # the gauge-class inner product -eta_IJ


class PhotonState(LocalizedState):
    """Polarization vector psi^I (tetrad components) on (event, null wavevector),
    with the gauge-class inner product -eta_IJ conj(psi)^I psi^J (transversality
    assumed)."""

    dim, label_norm = 4, 0
    label_message = "wavevector must be future null"
    pol = property(lambda self: self.amplitude)
    wavevector = property(lambda self: self.label)

    def metric(self):
        return _METRIC

    @staticmethod
    def metrics(labels):
        return np.broadcast_to(_METRIC, (len(labels), 4, 4))

    def transversality(self):
        """|u_I psi^I|; zero for a valid polarization."""
        return abs(complex((ETA @ self.wavevector) @ self.pol))

    def canonical(self):
        """Representative with psi^0 = 0 (subtracts a multiple of u)."""
        return PhotonState(canonical_gauge(self.pol, self.wavevector), self.event,
                           self.wavevector)

    def gauge_shift(self, upsilon):
        return PhotonState(self.pol + upsilon * self.wavevector.astype(complex),
                           self.event, self.wavevector)


@dataclass(frozen=True)
class AdaptationRotation:
    """Spatial rotation R^I_J with R u = (u^0, 0, 0, |u|), plus the diad.

    ``diad`` rows are f^A_I (A = 1, 2); ``diad_inv`` columns are f^I_A.
    """

    rotation: np.ndarray
    diad: np.ndarray
    diad_inv: np.ndarray


def adaptation_rotation(u):
    """Rotation adapting the tetrad z-axis to the photon direction.

    Undefined (for topological reasons) when the direction is antiparallel
    to the z-axis; raises :class:`AdaptationSingular` there.
    """
    u = np.asarray(u, dtype=float).reshape(4)
    space = u[1:]
    norm = np.linalg.norm(space)
    if norm == 0.0:
        raise QulineError("velocity has no spatial part")
    uhat = space / norm
    cos_t = uhat[2]
    axis = np.array([uhat[1], -uhat[0], 0.0])   # uhat x zhat
    sin_t = np.linalg.norm(axis)
    if sin_t < SINGULAR_TOL and not cos_t > 0.0:
        raise AdaptationSingular("photon direction antiparallel to the tetrad z-axis")
    rot = np.eye(4) if sin_t == 0.0 else axis_rotation(axis / sin_t, cos_t, sin_t)
    return AdaptationRotation(rot, rot[1:3, :].copy(), rot[1:3, :].T.copy())


def adapt(state: PhotonState):
    """(AdaptationRotation, Jones vector) for the state's wavevector.

    The Jones vector f^A_I psi^I is identical for every representative of
    the gauge class.
    """
    ar = adaptation_rotation(state.wavevector)
    jones = ar.diad @ state.pol
    return ar, jones


def jones_to_state(jones, wavevector, event):
    """Rebuild the canonical transverse polarization vector from a Jones vector."""
    ar = adaptation_rotation(wavevector)
    pol = ar.diad_inv @ np.asarray(jones, dtype=complex).reshape(2)
    return PhotonState(pol, event, wavevector)


def transport(state: PhotonState, worldline, tol=1e-12, n_samples=201):
    """Parallel transport of the gauge class along a null geodesic.

    Samples are reported in the canonical gauge (psi^0 = 0); orthogonality
    u.psi and the class norm are audited along the way.
    """
    if worldline.kind != "null":
        raise QulineError("photon transport needs a null worldline")

    def canonical(pols, wavevectors):
        trans = np.abs(np.sum((wavevectors @ ETA) * pols, axis=1)) / max(1.0, state.label[0])
        return canonical_gauge(pols, wavevectors), {"transversality_drift": float(trans.max())}
    return carry(state, worldline, lambda params: parallel_propagator(worldline, params, tol),
                 n_samples, canonical)


def canonical_gauge(pols, wavevectors):
    """(1 - k e_0^T / k^0) psi: the representative with psi^0 = 0 of the class of
    each polarization row of ``pols`` at the wavevector row of ``wavevectors``
    (any leading axes, broadcast)."""
    return pols - (pols[..., :1] / wavevectors[..., :1]) * wavevectors


def _wigner_rate(x, u, a, xdot, pulled):
    """dPhi/dlam at each row of the kinematics: the turn of the adapted diad,
    -(u x udot)_z / (|u| (|u| + u_z)) with udot = a - pulled u, less
    f_1 . pulled . f_2 for the diad rows f_A of each row's adaptation."""
    diads = np.array([adaptation_rotation(row).diad for row in u])
    udot = a - (pulled @ u[:, :, None])[:, :, 0]
    space = np.linalg.norm(u[:, 1:], axis=1)
    turn = u[:, 1] * udot[:, 2] - u[:, 2] * udot[:, 1]
    return (-turn / (space * (space + u[:, 3]))
            - np.einsum("ni,nij,nj->n", diads[:, 0], pulled, diads[:, 1]))


def wigner_rotation(worldline, tol=1e-12):
    """Accumulated Wigner angle Phi(lambda) along a null geodesic.

    The Jones vector of any transported state evolves as
    jones(lam) = exp(i Phi(lam) sigma_y) jones(0) in the adapted bases, with
    the closed-form rate f_1 . D f_2 / D lam of :func:`_wigner_rate`; it is
    u^mu omega_{mu 1 2} wherever the tetrad is already adapted, and it does
    not use the parallel propagator, so it checks photon transport.  Returns
    the angle's ``line_integral`` to ``tol`` at 201 evenly spaced parameters.
    """
    if worldline.kind != "null":
        raise QulineError("the photon Wigner rotation needs a null worldline")
    params = worldline.sample_params()
    return params, line_integral(worldline, _wigner_rate, params, tol)


def jones_rotation(angle):
    """exp(i angle sigma_y) acting on Jones components."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, s], [-s, c]], dtype=complex)


def helicity_content(jones):
    """|<sigma_y eigenvector | jones>|^2 for the +1 circular eigenvector."""
    jones = np.asarray(jones, dtype=complex).reshape(2)
    plus = np.array([1.0, 1j]) / np.sqrt(2.0)
    return abs(plus.conj() @ jones) ** 2


def apply_jones(state: PhotonState, matrix):
    """Apply a 2x2 optical element in the adapted basis (same wavevector)."""
    _, jones = adapt(state)
    new_jones = np.asarray(matrix, dtype=complex).reshape(2, 2) @ jones
    return jones_to_state(new_jones, state.wavevector, state.event)
