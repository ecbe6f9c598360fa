"""Covariant observables and projective measurements for spin and polarization.

Spin: a Stern-Gerlach device with spatial orientation m and 4-velocity v holds
the field F_IJ = eps_IJKL v^K m^L, purely magnetic about the axis m in its
rest frame.  A qubit with 4-velocity u feels B^rest = h F h, h = 1 - u u, the
term that precesses a charged spin in :func:`quline.fermion.transport`, and
the device measures S = B^rest_IJ L^{IJ} / |B| = -2i u_I n_J L^{IJ} along the
unit dual n^I = eps^{IJKL} u_J B^rest_KL / (2 |B|).  S is Hermitian for the
velocity inner product, I_u S = n_I sigmabar^I, with projectors (1 +/- S)/2.

Polarization: outcomes of an optical polarizer P^I (complex, spacelike unit,
P.u = 0) have probability |conj(P)_I psi^I|^2, gauge and Lorentz invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateSetup, HilbertSpaceMismatch, QulineError
from .fermion import FermionState, _rest_frame_magnetic
from .photon import PhotonState, adaptation_rotation
from .spin_algebra import (EPS4_LOWER, EPS4_UPPER, ETA, check_norm, generator_contraction,
                           minkowski_dot, product_bound, same_label)

__all__ = [
    "SternGerlachSetup", "SpinObservable", "SpinProjectorPair", "spin_operator", "expectation",
    "measure_spin", "PolarizerVector", "linear_polarizer", "circular_polarizer",
    "polarizer_probability", "measure_polarization",
]


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

    @cached_property
    def projectors(self):
        """The :class:`SpinProjectorPair` of :func:`spin_operator`, built on
        first use and kept read-only: one build serves a measurement and its
        axis, and a caller that changes one in place cannot change the next."""
        pair = spin_operator(self)[1]
        for a in (pair.plus, pair.minus, pair.axis):
            a.flags.writeable = False
        return pair


@dataclass(frozen=True)
class SpinObservable:
    """Operator B^rest_IJ L^{IJ} / |B| = -2i u_I N_J L^{IJ} with its axis N^I."""

    direction: np.ndarray        # N^I
    operator: np.ndarray         # 2x2, acts on spinor components
    context_velocity: np.ndarray # u^I labelling the Hilbert space


@dataclass(frozen=True)
class SpinProjectorPair:
    plus: np.ndarray
    minus: np.ndarray
    axis: np.ndarray


def spin_operator(setup: SternGerlachSetup):
    """(SpinObservable, SpinProjectorPair) for a Stern-Gerlach measurement: the
    device field at the particle, by the transport's own rest-frame formula."""
    u = setup.particle_velocity
    field = np.einsum("ijkl,k,l->ij", EPS4_LOWER, setup.apparatus_velocity, setup.orientation)
    b_rest = _rest_frame_magnetic(u, field)
    dual = 0.5 * np.einsum("ijkl,j,kl->i", EPS4_UPPER, ETA @ u, b_rest)
    b2 = -minkowski_dot(dual, dual)
    if b2 < 1e-24:
        raise DegenerateSetup("rest-frame magnetic field vanishes for this setup")
    strength = np.sqrt(b2)
    n, op = dual / strength, generator_contraction(b_rest) / strength
    eye = np.eye(2)
    return SpinObservable(n, op, u), SpinProjectorPair(0.5 * (eye + op), 0.5 * (eye - op), n)


def expectation(state: FermionState, obs: SpinObservable) -> float:
    """<psi| A |psi> = conj(psi) I_u A psi for normalized states."""
    if not same_label(state.velocity, obs.context_velocity):
        raise HilbertSpaceMismatch("observable built for a different 4-velocity")
    val = complex(state.psi.conj() @ state.metric @ obs.operator @ state.psi)
    return float(val.real) / state.norm_squared()


def measure_spin(state: FermionState, setup: SternGerlachSetup, rng=None):
    """Projective Stern-Gerlach measurement with Lueders update.

    Returns (outcome, post_state, probabilities) with outcome in {+1, -1};
    ``rng`` is a seed or numpy Generator (deterministic given the seed).
    """
    if not same_label(state.velocity, setup.particle_velocity):
        raise HilbertSpaceMismatch("setup particle velocity differs from the state label")
    rng = np.random.default_rng(rng)
    proj = setup.projectors
    metric = state.metric
    total = state.norm_squared()
    probs = {}
    for label, p in ((+1, proj.plus), (-1, proj.minus)):
        phi = p @ state.psi
        probs[label] = float(np.real(phi.conj() @ metric @ phi)) / total
    outcome = +1 if rng.random() < probs[+1] else -1
    post = (proj.plus if outcome == +1 else proj.minus) @ state.psi
    post_state = FermionState(post, state.event, state.velocity).normalized()
    return outcome, post_state, probs


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
