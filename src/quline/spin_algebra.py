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

Every Hilbert-space label v (a unit timelike 4-velocity, a null wavevector, a
unit spacelike orientation) is judged by :func:`check_norm`.  With E the
Euclidean square sum_I (v^I)^2, v.v rounds by O(eps E), which grows as gamma^2
near c, and a wavevector's scale is not physical: so |v.v - n| <= 1e-9 + 64 eps E
for a unit label, |v.v| <= (1e-9 + 64 eps) E for a null one, and E must be a
finite normal float (|v| from about 1e-154 to 1e154).  v.v and E are one
elementwise formula of the squares s_I, v.v = ((s0 - s1) - s2) - s3 and
E = ((s0 + s1) + s2) + s3, evaluated on Python floats for one label and on
numpy columns for an (n, 4) stack: the two agree bit for bit, and no verdict
goes through BLAS.  Products of two vectors meet :func:`product_bound`.  Two
velocity or wavevector labels name one Hilbert space when :func:`same_label`
says so: equal to 1e-9 of the larger time component, which is the absolute
1e-9 for a velocity at rest.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .errors import DomainError, QulineError

__all__ = [
    "ETA", "PAULI", "SIGMA_BAR", "EPS4_LOWER", "EPS4_UPPER", "ETA_ROWS",
    "minkowski_dot", "generator_contraction", "lorentz_image", "product_bound", "check_norm",
    "same_label", "check_lorentz", "spin1_boost", "spin_half_boost_matrix", "axis_rotation",
    "velocity_inner_product_matrix", "sigma_identity_check",
]

ETA = np.diag([1.0, -1.0, -1.0, -1.0])
_ROUNDING = 64.0 * float(np.finfo(float).eps)   # the rounding allowed a.b is _ROUNDING |a| |b|
_TINY = float(np.finfo(float).tiny)
_SYMBOLS = {1: "u", 0: "k", -1: "m"}    # a label of each norm, as check_norm's messages name it

PAULI = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

SIGMA = PAULI.copy()                                   # sigma^I_{AA'}
SIGMA_BAR = np.array([PAULI[0], -PAULI[1], -PAULI[2], -PAULI[3]])  # sigmabar^{IA'A}


# eps_{IJKL}, eps_{0123} = +1: the determinant of each permutation matrix
_PERMUTATIONS = np.array(list(permutations(range(4))))
EPS4_LOWER = np.zeros((4, 4, 4, 4))
EPS4_LOWER[tuple(_PERMUTATIONS.T)] = np.linalg.det(np.eye(4)[_PERMUTATIONS])
EPS4_UPPER = -EPS4_LOWER          # eps^{IJKL} = -eps_{IJKL} for Lorentz signature

# GENERATORS[I, J] = L^{IJ}_A^B = (i/4)(sigma^I sigmabar^J - sigma^J sigmabar^I)
_PRODUCTS = SIGMA[:, None] @ SIGMA_BAR[None, :]
GENERATORS = 0.25j * (_PRODUCTS - np.swapaxes(_PRODUCTS, 0, 1))


def minkowski_dot(a, b):
    """eta_IJ a^I b^J for tetrad-component vectors."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]


# the real and imaginary parts of each entry of L^{IJ}, all 0 or +-1/2, as row 4I + J
# of 8 columns (entry [a, b] at 4a + 2b, imaginary part next)
_GENERATOR_PARTS = np.stack([GENERATORS.real, GENERATORS.imag], axis=-1).reshape(16, 8)
ETA_ROWS = np.diag(ETA)[:, None]    # eta_II as a column: ETA_ROWS * m lowers m's first index


def generator_contraction(coeffs):
    """Sum_{I,J} coeffs_{IJ} L^{IJ} for (..., 4, 4) real coefficients with lower
    indices.  Each entry is one real sum over the 16 coefficients in their
    order, so it has the bits of the complex einsum over L: every product is
    exact, and the zero terms add nothing."""
    c = np.asarray(coeffs, dtype=float)
    parts = np.einsum("...k,kc->...c", c.reshape(c.shape[:-2] + (16,)), _GENERATOR_PARTS)
    return parts.view(complex).reshape(c.shape[:-2] + (2, 2))


# the coefficients of Lambda^I_J (below) on each product conj(S)_ba S_cd
_IMAGE_BASIS = 0.5 * np.einsum("ibc,kda,kj->bacdij", SIGMA_BAR, SIGMA, ETA).reshape(16, 16)


def lorentz_image(s):
    """The Lorentz matrix Lambda^I_J = 1/2 tr(S^dag sigmabar^I S sigma^K) eta_KJ
    that the SL(2,C) matrix S covers, so that S^dag sigmabar^I S =
    Lambda^I_J sigmabar^J; (n, 4, 4) for an (n, 2, 2) stack."""
    s = np.asarray(s, dtype=complex)
    pairs = s.conj().reshape(-1, 4, 1) * s.reshape(-1, 1, 4)
    return (pairs.reshape(-1, 16) @ _IMAGE_BASIS).real.reshape(s.shape[:-2] + (4, 4))


def product_bound(e):
    """1e-9 + 64 eps e: the bound on |a.b - target| for a, b whose Euclidean
    norms multiply to e, since a.b rounds by O(eps e)."""
    return 1e-9 + _ROUNDING * e


def _label_verdict(s0, s1, s2, s3, norm):
    """(v.v, whether v.v meets ``norm`` within the module's bound) from the
    squares s_I = (v^I)^2 of one label, four Python floats, or of each row of a
    stack, four numpy columns: one elementwise formula, so both give the same
    bits."""
    vv, e = ((s0 - s1) - s2) - s3, ((s0 + s1) + s2) + s3
    bound = product_bound(1.0) * e if norm == 0 else product_bound(e)
    return vv, (abs(vv - norm) <= bound) & (_TINY <= e) & (e < np.inf)


def check_norm(v, norm, what):
    """Raise QulineError, ``what`` followed by the value that fails, unless the
    4-vector ``v``, or each row of an (n, 4) stack, has v.v = ``norm`` (1, 0 or
    -1) within the module's bound and, for ``norm`` >= 0, v^0 > 0.  nan fails, and
    so does a Euclidean square that overflows or underflows the normal floats.
    One label is judged in Python floats; a stack, or a label that fails, by
    the same formula on numpy columns, which words the message."""
    rows = np.asarray(v, dtype=float)
    if rows.shape == (4,):
        v0, v1, v2, v3 = rows.tolist()
        _, ok = _label_verdict(v0 * v0, v1 * v1, v2 * v2, v3 * v3, norm)
        if ok and (norm < 0 or v0 > 0.0):
            return
    rows = rows.reshape(-1, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        vv, ok = _label_verdict(*(rows * rows).T, norm)
    s = _SYMBOLS[norm]
    if not ok.all():
        raise QulineError(f"{what} ({s}.{s} = {float(vv[np.argmin(ok)])})")
    if norm >= 0 and not (rows[:, 0] > 0.0).all():
        raise QulineError(f"{what} (not future-pointing: {s}^0 = {float(rows[:, 0].min())})")


def same_label(a, b):
    """True when the velocity or wavevector labels ``a`` and ``b`` name one
    Hilbert space: |a - b| <= 1e-9 max(a^0, b^0) in every component (nan in
    either label fails)."""
    a, b = a.tolist(), b.tolist()
    tol = 1e-9 * max(a[0], b[0])
    return all(abs(x - y) <= tol for x, y in zip(a, b))


def check_lorentz(m):
    """Raise QulineError unless the (4, 4) matrix ``m``, or every matrix of an
    (..., 4, 4) stack, is a finite proper orthochronous Lorentz matrix."""
    resid = np.abs(np.swapaxes(m, -1, -2) @ ETA @ m - ETA)   # column products
    e = np.sum(m * m, axis=(-2, -1), keepdims=True)          # >= |column i| |column j|
    if not (np.all(resid <= product_bound(e)) and np.all(e < np.inf)):     # nan fails
        raise QulineError("matrix is not a Lorentz transformation "
                          f"(residual {resid.max(initial=0.0):.2e})")
    if np.any(np.linalg.det(m) < 0) or np.any(m[..., 0, 0] < 1.0 - 1e-12):
        raise QulineError("only proper orthochronous Lorentz transformations are supported")


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


def axis_rotation(axis, cos, sin):
    """The 4x4 spatial rotation cos 1 + sin K + (1 - cos) n n^T (Rodrigues)
    about the unit ``axis`` n, K the cross-product matrix of n."""
    kx = np.array([[0.0, -axis[2], axis[1]],
                   [axis[2], 0.0, -axis[0]],
                   [-axis[1], axis[0], 0.0]])
    out = np.eye(4)
    out[1:, 1:] = cos * np.eye(3) + sin * kx + (1.0 - cos) * np.outer(axis, axis)
    return out


def velocity_inner_product_matrix(u):
    """I_u^{A'A} = u_I sigmabar^{IA'A}; equals u^0 1 + u^i pauli_i.

    Positive definite for future timelike u; reduces to the identity in the
    rest frame.  Also equals (M M^dag)^{-1} for M = spin-half boost of u.
    """
    u = np.asarray(u, dtype=float).reshape(4)
    u_lower = ETA @ u
    return np.einsum("i,iab->ab", u_lower, SIGMA_BAR)


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
