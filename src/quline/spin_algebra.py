"""SL(2,C) kernel: sigma matrices, Lorentz generators, boosts, epsilon symbols.

Index conventions (locked once, used everywhere):

* Tetrad indices I,J,K = 0..3 are raised/lowered with eta = diag(1,-1,-1,-1).
* sigma^I has index structure sigma^I_{AA'} (unprimed row, primed column)
  and matrix content (1, +pauli^i).
* sigmabar^I has index structure sigmabar^{I A'A} (primed row, unprimed
  column) and matrix content (1, -pauli^i).
* Operators on spinors carry A_A^B (row A, column B); spinors psi_A are
  column vectors.
* Levi-Civita: eps_{0123} = +1, so the fully raised symbol has
  eps^{0123} = -1.  The 2-index symbol has eps^{12} = +1 and indices are
  raised with the FIRST index: psi^A = eps^{AB} psi_B.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import DomainError, QulineError

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

PAULI = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

SIGMA = PAULI.copy()                                   # sigma^I_{AA'}
SIGMA_BAR = np.array([PAULI[0], -PAULI[1], -PAULI[2], -PAULI[3]])  # sigmabar^{IA'A}

# eps^{AB} with eps^{12}=+1; eps_{AB} fixed by eps_{AB} eps^{BC} = delta_A^C
EPS2_UPPER = np.array([[0.0, 1.0], [-1.0, 0.0]])
EPS2_LOWER = np.array([[0.0, -1.0], [1.0, 0.0]])


def _levi_civita4():
    e = np.zeros((4, 4, 4, 4))
    for p in permutations(range(4)):
        s, q = 1, list(p)
        for i in range(4):
            for j in range(i + 1, 4):
                if q[i] > q[j]:
                    s = -s
        e[p] = s
    return e


EPS4_LOWER = _levi_civita4()      # eps_{IJKL}, eps_{0123} = +1
EPS4_UPPER = -EPS4_LOWER          # eps^{IJKL} = -eps_{IJKL} for Lorentz signature


def _generators():
    # L^{IJ}_A^B = (i/4)(sigma^I sigmabar^J - sigma^J sigmabar^I)
    out = np.zeros((4, 4, 2, 2), dtype=complex)
    for i in range(4):
        for j in range(4):
            out[i, j] = 0.25j * (SIGMA[i] @ SIGMA_BAR[j] - SIGMA[j] @ SIGMA_BAR[i])
    return out


GENERATORS = _generators()        # GENERATORS[I, J] = L^{IJ}_A^B


def minkowski_dot(a, b):
    """eta_IJ a^I b^J for tetrad-component vectors."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]


def generator_contraction(coeffs):
    """Sum_{I,J} coeffs_{IJ} L^{IJ} for (..., 4, 4) coefficients with lower indices."""
    return np.einsum("...ij,ijab->...ab", np.asarray(coeffs), GENERATORS)


# the coefficients of Lambda^I_J (below) on each product conj(S)_ba S_cd
_IMAGE_BASIS = 0.5 * np.einsum("ibc,kda,kj->bacdij", SIGMA_BAR, SIGMA, ETA).reshape(16, 16)


def lorentz_image(s):
    """The Lorentz matrix Lambda^I_J = 1/2 tr(S^dag sigmabar^I S sigma^K) eta_KJ
    that the SL(2,C) matrix S covers, so that S^dag sigmabar^I S =
    Lambda^I_J sigmabar^J; (n, 4, 4) for an (n, 2, 2) stack."""
    s = np.asarray(s, dtype=complex)
    pairs = s.conj().reshape(-1, 4, 1) * s.reshape(-1, 1, 4)
    return (pairs.reshape(-1, 16) @ _IMAGE_BASIS).real.reshape(s.shape[:-2] + (4, 4))


@dataclass(frozen=True)
class LocalLorentz:
    """Proper orthochronous Lorentz matrix Lambda^I_J, optionally with its
    spin-half image acting on spinors as psi -> half @ psi."""

    matrix: np.ndarray
    half: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float).reshape(4, 4)
        object.__setattr__(self, "matrix", m)
        resid = np.abs(m.T @ ETA @ m - ETA).max()
        if resid > 1e-9:
            raise QulineError(f"matrix is not a Lorentz transformation (residual {resid:.2e})")
        if np.linalg.det(m) < 0 or m[0, 0] < 1.0 - 1e-12:
            raise QulineError("only proper orthochronous Lorentz transformations are supported")

    def inverse(self):
        inv = ETA @ self.matrix.T @ ETA
        half = None if self.half is None else np.linalg.inv(self.half)
        return LocalLorentz(inv, half)


@dataclass(frozen=True)
class SpinHalfBoost:
    """Pure boost in the left-handed spin-half representation.

    ``matrix`` acts on spinor components; ``beta``/``gamma`` describe the
    boost velocity in the tetrad frame.
    """

    matrix: np.ndarray
    beta: np.ndarray
    gamma: float


def spin1_boost(beta):
    """Symmetric boost Lambda^I_J mapping (1,0,0,0) to gamma(1, beta)."""
    beta = np.asarray(beta, dtype=float)
    b2 = float(beta @ beta)
    if b2 >= 1.0:
        raise DomainError("boost velocity must satisfy |beta| < 1")
    g = 1.0 / np.sqrt(1.0 - b2)
    lam = np.eye(4)
    lam[0, 0] = g
    lam[0, 1:] = g * beta
    lam[1:, 0] = g * beta
    lam[1:, 1:] += np.outer(beta, beta) * (g * g / (g + 1.0))
    return lam


def spin_half_boost_matrix(beta):
    """Left-handed spin-half image of the pure boost with velocity beta.

    M = sqrt((gamma+1)/2) 1 - sqrt((gamma-1)/2) bhat.pauli, so that
    M^dag sigmabar^I M = Lambda^I_J sigmabar^J with Lambda = spin1_boost(beta).
    """
    beta = np.asarray(beta, dtype=float)
    b2 = float(beta @ beta)
    if b2 >= 1.0:
        raise DomainError("boost velocity must satisfy |beta| < 1")
    g = 1.0 / np.sqrt(1.0 - b2)
    m = np.sqrt((g + 1.0) / 2.0) * np.eye(2, dtype=complex)
    if b2 > 0.0:
        m = m - np.sqrt((g - 1.0) / (2.0 * b2)) * np.einsum("i,iab->ab", beta, PAULI[1:])
    return m


def boost_pair_from_velocity(u):
    """Spin-half and spin-1 boosts taking the rest frame to 4-velocity u.

    ``u`` must be a future-pointing unit timelike vector in tetrad components.
    """
    u = np.asarray(u, dtype=float).reshape(4)
    norm = minkowski_dot(u, u)
    if abs(norm - 1.0) > 1e-9 or u[0] <= 0:
        raise QulineError(f"u must be future-pointing with u.u = 1 (got u.u = {norm})")
    beta = u[1:] / u[0]
    gamma = u[0]
    half = SpinHalfBoost(spin_half_boost_matrix(beta), beta, gamma)
    one = LocalLorentz(spin1_boost(beta), half.matrix)
    return half, one


def spin1_rotation(axis, angle):
    """Spatial rotation by ``angle`` about ``axis`` as a 4x4 Lorentz matrix."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    kx = np.array([[0.0, -axis[2], axis[1]],
                   [axis[2], 0.0, -axis[0]],
                   [-axis[1], axis[0], 0.0]])
    out = np.eye(4)
    out[1:, 1:] = (np.cos(angle) * np.eye(3) + np.sin(angle) * kx
                   + (1.0 - np.cos(angle)) * np.outer(axis, axis))
    return out


def spin_half_rotation(axis, angle):
    """Spin-half image exp(-i angle axis.pauli / 2) of :func:`spin1_rotation`."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    n_sigma = np.einsum("i,iab->ab", axis, PAULI[1:])
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
    matrix = spin1_boost(beta) @ spin1_rotation(axis, angle)
    half = spin_half_boost_matrix(beta) @ spin_half_rotation(axis, angle)
    return LocalLorentz(matrix, half)


def velocity_inner_product_matrix(u):
    """I_u^{A'A} = u_I sigmabar^{IA'A}; equals u^0 1 + u^i pauli_i.

    Positive definite for future timelike u; reduces to the identity in the
    rest frame.  Also equals (M M^dag)^{-1} for M = spin-half boost of u.
    """
    u = np.asarray(u, dtype=float).reshape(4)
    u_lower = ETA @ u
    return np.einsum("i,iab->ab", u_lower, SIGMA_BAR)


def bloch_vector(psi):
    """Null future-pointing 4-vector b^I = sigmabar^{IA'A} conj(psi)_{A'} psi_A.

    Note the spatial part is minus the Pauli expectation <psi|pauli|psi>: the
    map lands on the future light cone, it is not the rest-frame spin axis.
    """
    c = np.asarray(psi, dtype=complex).reshape(2)
    return np.real(np.einsum("iab,a,b->i", SIGMA_BAR, c.conj(), c))


def epsilon_raise(psi_lower):
    """psi^A = eps^{AB} psi_B (raise with the first index)."""
    return EPS2_UPPER @ np.asarray(psi_lower, dtype=complex).reshape(2)


def epsilon_lower(psi_upper):
    """psi_A = eps_{AB} psi^B; inverse of :func:`epsilon_raise`."""
    return EPS2_LOWER @ np.asarray(psi_upper, dtype=complex).reshape(2)


def sigma_identity_check():
    """Entrywise residuals of the algebraic identities the transport and
    measurement derivations rely on.  All residuals are exact zeros up to
    rounding; any growth signals a broken index convention.

    Returns a dict of max-abs residuals keyed by identity name.
    """
    res_triple = 0.0   # sigmabar sigma sigmabar expansion
    res_sl = 0.0       # sigmabar^K L^{IJ} expansion
    res_comm = 0.0     # sigmabar^K L^{IJ} - L^{IJ dag} sigmabar^K
    sb_lower = np.einsum("ij,jab->iab", ETA, SIGMA_BAR)
    for a in range(4):
        for m in range(4):
            for b in range(4):
                lhs = SIGMA_BAR[a] @ SIGMA[m] @ SIGMA_BAR[b]
                rhs = (ETA[a, m] * SIGMA_BAR[b] - ETA[a, b] * SIGMA_BAR[m]
                       + ETA[b, m] * SIGMA_BAR[a]
                       + 1j * np.einsum("g,gab->ab", EPS4_UPPER[a, m, b], sb_lower))
                res_triple = max(res_triple, np.abs(lhs - rhs).max())
    for k in range(4):
        for i in range(4):
            for j in range(4):
                lhs = SIGMA_BAR[k] @ GENERATORS[i, j]
                cross = np.einsum("l,lab->ab", EPS4_UPPER[k, i, j] @ ETA, SIGMA_BAR)
                rhs = 0.5j * (ETA[k, i] * SIGMA_BAR[j] - ETA[k, j] * SIGMA_BAR[i]
                              + 1j * cross)
                res_sl = max(res_sl, np.abs(lhs - rhs).max())
                lhs_c = (SIGMA_BAR[k] @ GENERATORS[i, j]
                         - GENERATORS[i, j].conj().T @ SIGMA_BAR[k])
                rhs_c = 1j * (ETA[k, i] * SIGMA_BAR[j] - ETA[k, j] * SIGMA_BAR[i])
                res_comm = max(res_comm, np.abs(lhs_c - rhs_c).max())
    res_alg = 0.0      # so(1,3) structure constants
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    lhs = (GENERATORS[i, j] @ GENERATORS[k, l]
                           - GENERATORS[k, l] @ GENERATORS[i, j])
                    rhs = 1j * (ETA[j, k] * GENERATORS[i, l] - ETA[i, k] * GENERATORS[j, l]
                                - ETA[j, l] * GENERATORS[i, k] + ETA[i, l] * GENERATORS[j, k])
                    res_alg = max(res_alg, np.abs(lhs - rhs).max())
    return {
        "sigmabar_sigma_sigmabar": res_triple,
        "sigmabar_generator": res_sl,
        "generator_commutator": res_comm,
        "so13_brackets": res_alg,
    }
