"""Fixtures and oracles that only the tests need: random local Lorentz
transformations with their spin-half images, the spin-half rotation, and one
step of the rest-frame (Wigner) evolution."""

from collections import namedtuple

import numpy as np

from quline import fermion as fm
from quline import worldline as wld
from quline.spin_algebra import PAULI, axis_rotation, spin1_boost, spin_half_boost_matrix

# a proper orthochronous Lorentz matrix and its spin-half image, psi -> half @ psi
LocalLorentz = namedtuple("LocalLorentz", "matrix half")


def spin_half_rotation(axis, angle):
    """exp(-i angle axis.pauli / 2), the spin-half image of the rotation by
    ``angle`` about ``axis``."""
    axis = np.asarray(axis, dtype=float)
    n_sigma = np.einsum("i,iab->ab", axis / np.linalg.norm(axis), PAULI[1:])
    return np.cos(angle / 2.0) * np.eye(2) - 1j * np.sin(angle / 2.0) * n_sigma


def random_local_lorentz(rng):
    """Random proper orthochronous element (boost x rotation) with spin-half image."""
    rng = np.random.default_rng(rng)
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    beta = rng.uniform(0.0, 0.7) * direction
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return LocalLorentz(spin1_boost(beta) @ axis_rotation(axis, np.cos(angle), np.sin(angle)),
                        spin_half_boost_matrix(beta) @ spin_half_rotation(axis, angle))


def wigner_rotation_increment(u, du, omega_pull):
    """The 2x2 unitary of one step of the rest-frame evolution: the exponential
    of ``fermion``'s rest-frame generator for the 4-velocity ``u``, its
    increment ``du`` over the step and the lowered connection increment
    ``omega_pull`` = u^mu omega_{mu IJ} dtau.  Composed over a worldline, the
    steps reproduce ``fermion.transport_rest_frame`` to second order."""
    gen = fm._wigner_generator(np.asarray(u, dtype=float).reshape(1, 4),
                               np.asarray(du, dtype=float).reshape(1, 4),
                               np.asarray(omega_pull, dtype=float).reshape(1, 4, 4))
    return wld._exp2(np.moveaxis(gen, 0, -1))[..., 0]
