"""Photon polarization: gauge-quotiented parallel transport and Jones extraction.

The physical state is the equivalence class psi^I ~ psi^I + upsilon u^I of
complex polarization vectors orthogonal to the null velocity u^I.  Transport
is parallel transport along the null geodesic; the arbitrary gauge term is
fixed for reporting by the canonical representative with psi^0 = 0.

An adaptation rotation R(u) takes u to the standard form (1,0,0,1); its
middle rows form the diad f^A_I whose contraction with psi^I is the
gauge-invariant Jones vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdaptationSingular, HilbertSpaceMismatch, QulineError
from .geometry import Event, check_finite, parallel_propagator
from .spin_algebra import ETA, minkowski_dot
from .worldline import LazyStates, line_integral

SINGULAR_TOL = 1e-8


@dataclass(frozen=True)
class PhotonState:
    """Polarization vector psi^I (tetrad components) on (event, null wavevector)."""

    pol: np.ndarray
    event: Event
    wavevector: np.ndarray

    def __post_init__(self):
        pol = np.asarray(self.pol, dtype=complex).reshape(4)
        k = np.asarray(self.wavevector, dtype=float).reshape(4)
        _check_wavevectors(k)
        object.__setattr__(self, "pol", pol)
        object.__setattr__(self, "wavevector", k)

    def transversality(self):
        """|u_I psi^I|; zero for a valid polarization."""
        return abs(complex((ETA @ self.wavevector) @ self.pol))

    def norm_squared(self):
        """Gauge-class norm -eta_IJ conj(psi)^I psi^J (transversality assumed)."""
        return float(np.real(-(self.pol.conj() @ ETA @ self.pol)))

    def normalized(self):
        n = np.sqrt(self.norm_squared())
        if n == 0.0:
            raise QulineError("cannot normalize the zero polarization")
        return PhotonState(self.pol / n, self.event, self.wavevector)

    def canonical(self):
        """Representative with psi^0 = 0 (subtracts a multiple of u)."""
        shift = self.pol[0] / self.wavevector[0]
        return PhotonState(self.pol - shift * self.wavevector.astype(complex),
                           self.event, self.wavevector)

    def gauge_shift(self, upsilon):
        return PhotonState(self.pol + upsilon * self.wavevector.astype(complex),
                           self.event, self.wavevector)

    def same_space(self, other):
        if not self.event.close_to(other.event):
            return False
        scale = max(self.wavevector[0], other.wavevector[0])
        return np.abs(self.wavevector - other.wavevector).max() <= 1e-9 * scale


def _check_wavevectors(k):
    """Raise unless the wavevector ``k``, or each row of a stack of them, is
    future null; the message gives k.k of the first that is not."""
    k = np.asarray(k).T
    k2 = minkowski_dot(k, k)
    bad = (np.abs(k2) > 1e-9 * (1.0 + np.sum(k * k, axis=0))) | (k[0] <= 0.0)
    if np.any(bad):
        raise QulineError(f"wavevector must be future null "
                          f"(k.k = {np.ravel(k2)[np.argmax(bad)]})")


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
    if sin_t < SINGULAR_TOL:
        if cos_t > 0.0:
            rot = np.eye(4)
            return AdaptationRotation(rot, rot[1:3, :].copy(), rot[1:3, :].T.copy())
        raise AdaptationSingular("photon direction antiparallel to the tetrad z-axis")
    axis = axis / sin_t
    kx = np.array([[0.0, -axis[2], axis[1]],
                   [axis[2], 0.0, -axis[0]],
                   [-axis[1], axis[0], 0.0]])
    r3 = (cos_t * np.eye(3) + sin_t * kx + (1.0 - cos_t) * np.outer(axis, axis))
    rot = np.eye(4)
    rot[1:, 1:] = r3
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


def photon_inner_product(a: PhotonState, b: PhotonState) -> complex:
    """-eta_IJ conj(a)^I b^J; requires equal wavevectors (same Hilbert space)."""
    if not a.same_space(b):
        raise HilbertSpaceMismatch("photon states have different (event, wavevector) labels")
    return complex(-(a.pol.conj() @ ETA @ b.pol))


class PhotonTransportResult:
    """Transported polarizations plus the audits, as arrays over ``params``.

    ``propagators[i]`` maps the initial polarization vector to the raw
    (uncanonicalized) one at ``params[i]``; ``pols[i]`` is the canonical one,
    on ``positions[i]`` of chart ``chart_id`` with ``wavevectors[i]``;
    ``states[i]`` builds its :class:`PhotonState` when it is read.
    """

    def __init__(self, params, propagators, pols, positions, wavevectors, chart_id,
                 audits):
        self.params = params
        self.propagators = propagators
        self.pols = pols
        self.positions = positions
        self.wavevectors = wavevectors
        self.chart_id = chart_id
        self.audits = audits
        self.states = LazyStates(self._state, len(params))

    def _state(self, i):
        return PhotonState(self.pols[i], Event(self.positions[i], self.chart_id),
                           self.wavevectors[i])

    @property
    def final(self):
        return self.states[-1]

    @property
    def norm_drift(self):
        return self.audits["norm_drift"]


def transport(state: PhotonState, worldline, tol=1e-12, n_samples=201):
    """Parallel transport of the gauge class along a null geodesic.

    Samples are reported in the canonical gauge (psi^0 = 0); orthogonality
    u.psi and the class norm are audited along the way.
    """
    if worldline.kind != "null":
        raise QulineError("photon transport needs a null worldline")
    t0, t1 = worldline.param_span
    if not state.event.close_to(worldline.start_event, 1e-8):
        raise HilbertSpaceMismatch("state is not attached to the worldline start event")
    scale = max(1.0, state.wavevector[0])
    if np.abs(state.wavevector - worldline.velocity(t0)).max() > 1e-8 * scale:
        raise HilbertSpaceMismatch("state wavevector differs from worldline velocity")

    params = np.linspace(t0, t1, n_samples)
    maps = parallel_propagator(worldline, params, tol)
    pols = maps @ state.pol
    positions, wavevectors = worldline.trajectory(params)
    check_finite(positions)
    _check_wavevectors(wavevectors)
    trans = np.abs(np.sum((wavevectors @ ETA) * pols, axis=1)) / scale
    norms = -np.einsum("ni,ij,nj->n", pols.conj(), ETA, pols).real
    canonical = pols - (pols[:, 0] / wavevectors[:, 0])[:, None] * wavevectors
    return PhotonTransportResult(
        params, maps, canonical, positions, wavevectors, worldline.model.chart_id,
        {"norm_drift": float(np.abs(norms - state.norm_squared()).max()),
         "transversality_drift": float(trans.max())})


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


def adapted_angle_rate(worldline, lam):
    """u^mu omega_{mu 1 2}; the Wigner rate when the tetrad is adapted."""
    model = worldline.model
    omega = model.connection(worldline.position(lam))
    omega_low = np.einsum("ik,nkj->nij", ETA, omega)
    return float(np.einsum("n,n->", worldline.coordinate_velocity(lam),
                           omega_low[:, 1, 2]))


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


def redirect(state: PhotonState, new_wavevector):
    """Mirror-style element: carry the Jones vector onto a new ray direction.

    The polarization content is expressed in the adapted basis of the old
    ray and rebuilt on the new ray's adapted basis at the same event.
    """
    _, jones = adapt(state)
    return jones_to_state(jones, np.asarray(new_wavevector, dtype=float), state.event)
