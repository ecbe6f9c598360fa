"""Covariant observables and projective measurements for spin and polarization.

Spin: a Stern-Gerlach device with spatial orientation m and 4-velocity v,
acting on a qubit with 4-velocity u, measures along the normalized rest-frame
magnetic field

    B^I = M^I (v.u) - v^I (M.u),        n^I = B^I / |B|,

and the corresponding operator is S = -2i u_I n_J L^{IJ}, Hermitian with
respect to the velocity inner product I_u, with projectors (1 +/- S)/2.

Polarization: outcomes of an optical polarizer P^I (complex, spacelike unit,
P.u = 0) have probability |conj(P)_I psi^I|^2, gauge and Lorentz invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSetup, HilbertSpaceMismatch, QulineError
from .fermion import FermionState
from .photon import PhotonState, adaptation_rotation
from .spin_algebra import (ETA, SIGMA_BAR, check_norm, generator_contraction, minkowski_dot,
                           product_bound, same_label)


@dataclass(frozen=True)
class SternGerlachSetup:
    """Apparatus orientation m (spacelike unit, m.v = 0), apparatus velocity v,
    particle velocity u; all tetrad components."""

    orientation: np.ndarray
    apparatus_velocity: np.ndarray
    particle_velocity: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.orientation, dtype=float).reshape(4)
        v = np.asarray(self.apparatus_velocity, dtype=float).reshape(4)
        u = np.asarray(self.particle_velocity, dtype=float).reshape(4)
        check_norm(v, 1, "apparatus velocity must be future timelike unit")
        check_norm(u, 1, "particle velocity must be future timelike unit")
        check_norm(m, -1, "orientation must be a unit spacelike vector")
        if not abs(minkowski_dot(m, v)) <= product_bound(np.sqrt((m @ m) * (v @ v))):
            raise QulineError("orientation must be orthogonal to the apparatus velocity")
        object.__setattr__(self, "orientation", m)
        object.__setattr__(self, "apparatus_velocity", v)
        object.__setattr__(self, "particle_velocity", u)


@dataclass(frozen=True)
class SpinObservable:
    """Operator -2i u_I N_J L^{IJ} + (u.N) 1 with its defining data."""

    direction: np.ndarray        # N^I
    operator: np.ndarray         # 2x2, acts on spinor components
    context_velocity: np.ndarray # u^I labelling the Hilbert space


@dataclass(frozen=True)
class SpinProjectorPair:
    plus: np.ndarray
    minus: np.ndarray
    axis: np.ndarray


def stern_gerlach_axis(setup: SternGerlachSetup):
    """Normalized rest-frame magnetic-field direction n^I; n.u = 0, n.n = -1."""
    m = setup.orientation
    v = setup.apparatus_velocity
    u = setup.particle_velocity
    b = m * minkowski_dot(v, u) - v * minkowski_dot(m, u)
    b2 = -minkowski_dot(b, b)
    if b2 < 1e-24:
        raise DegenerateSetup("rest-frame magnetic field vanishes for this setup")
    return b / np.sqrt(b2)


def hermitian_operator(direction, u):
    """Eq-form operator for real coefficients N_I: -2i u_I N_J L^{IJ} + (u.N) 1."""
    direction = np.asarray(direction, dtype=float).reshape(4)
    u = np.asarray(u, dtype=float).reshape(4)
    op = -2j * generator_contraction(np.outer(ETA @ u, ETA @ direction))
    return op + minkowski_dot(u, direction) * np.eye(2)


def spin_operator(setup: SternGerlachSetup):
    """(SpinObservable, SpinProjectorPair) for a Stern-Gerlach measurement."""
    n = stern_gerlach_axis(setup)
    u = setup.particle_velocity
    op = hermitian_operator(n, u)
    eye = np.eye(2)
    proj = SpinProjectorPair(0.5 * (eye + op), 0.5 * (eye - op), n)
    return SpinObservable(n, op, u), proj


def expectation(state: FermionState, obs: SpinObservable) -> float:
    """<psi| A |psi> = conj(psi) N_I sigmabar^I psi for normalized states."""
    if not same_label(state.velocity, obs.context_velocity):
        raise HilbertSpaceMismatch("observable built for a different 4-velocity")
    n_low = ETA @ obs.direction
    mat = np.einsum("i,iab->ab", n_low, SIGMA_BAR)
    val = complex(state.psi.conj() @ mat @ state.psi) / state.norm_squared()
    return float(val.real)


def measure_spin(state: FermionState, setup: SternGerlachSetup, rng=None):
    """Projective Stern-Gerlach measurement with Lueders update.

    Returns (outcome, post_state, probabilities) with outcome in {+1, -1};
    ``rng`` is a seed or numpy Generator (deterministic given the seed).
    """
    if not same_label(state.velocity, setup.particle_velocity):
        raise HilbertSpaceMismatch("setup particle velocity differs from the state label")
    rng = np.random.default_rng(rng)
    _, proj = spin_operator(setup)
    metric = state.metric()
    total = state.norm_squared()
    probs = {}
    for label, p in ((+1, proj.plus), (-1, proj.minus)):
        phi = p @ state.psi
        probs[label] = float(np.real(phi.conj() @ metric @ phi)) / total
    outcome = +1 if rng.random() < probs[+1] else -1
    post = (proj.plus if outcome == +1 else proj.minus) @ state.psi
    post_state = FermionState(post, state.event, state.velocity).normalized()
    return outcome, post_state, probs


def photon_hermitian(a, b, beta, wavevector):
    """General polarization observable a f1 f^1 + beta f1 f^2 + conj(beta) f2 f^1 + b f2 f^2.

    ``a``, ``b`` real, ``beta`` complex; the diad is the adapted one for
    ``wavevector``.  Satisfies eta-Hermiticity and maps the gauge direction
    to zero.
    """
    ar = adaptation_rotation(wavevector)
    f_cols = ar.diad_inv             # f^I_A, columns
    f_rows = ar.diad                 # f^A_I, rows
    coeff = np.array([[a, beta], [np.conj(beta), b]], dtype=complex)
    return np.einsum("ia,ab,bj->ij", f_cols, coeff, f_rows)


@dataclass(frozen=True)
class PolarizerVector:
    """Complex polarizer direction P^I with P.u = 0 and -eta conj(P) P = 1."""

    vector: np.ndarray
    wavevector: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.vector, dtype=complex).reshape(4)
        u = np.asarray(self.wavevector, dtype=float).reshape(4)
        if not abs((ETA @ u) @ p) <= product_bound(np.linalg.norm(p) * np.linalg.norm(u)):
            raise QulineError("polarizer vector must be orthogonal to the wavevector")
        n = -np.real(p.conj() @ ETA @ p)
        if abs(n - 1.0) > 1e-9:
            raise QulineError("polarizer vector must be unit normalized")
        object.__setattr__(self, "vector", p)
        object.__setattr__(self, "wavevector", u)


def linear_polarizer(angle, wavevector):
    """Linear polarizer at ``angle`` from the adapted horizontal axis."""
    ar = adaptation_rotation(wavevector)
    jones = np.array([np.cos(angle), np.sin(angle)], dtype=complex)
    return PolarizerVector(ar.diad_inv @ jones, wavevector)


def circular_polarizer(handedness, wavevector):
    """Circular polarizer (f1 +/- i f2)/sqrt(2); handedness +1 or -1."""
    if handedness not in (+1, -1):
        raise QulineError("handedness must be +1 or -1")
    ar = adaptation_rotation(wavevector)
    jones = np.array([1.0, 1j * handedness]) / np.sqrt(2.0)
    return PolarizerVector(ar.diad_inv @ jones, wavevector)


def polarizer_probability(state: PhotonState, polarizer: PolarizerVector) -> float:
    """p = |conj(P)_I psi^I|^2 for a normalized state; gauge invariant."""
    if not same_label(state.wavevector, polarizer.wavevector):
        raise HilbertSpaceMismatch("polarizer built for a different wavevector")
    amp = complex(polarizer.vector.conj() @ ETA @ state.pol)
    return float(abs(amp) ** 2 / state.norm_squared())


def measure_polarization(state: PhotonState, polarizer: PolarizerVector, rng=None):
    """Transmission measurement: (transmitted, post_state, p).

    On transmission the post state is the polarizer direction itself (up to
    gauge); on absorption it is None.
    """
    rng = np.random.default_rng(rng)
    p = polarizer_probability(state, polarizer)
    transmitted = bool(rng.random() < p)
    post = (PhotonState(polarizer.vector, state.event, state.wavevector)
            if transmitted else None)
    return transmitted, post, p
