"""Teleportation of a spin qubit through curved spacetime.

The input qubit, Alice's half and Bob's half of the resource are the three
slots of one :class:`quline.worldline.MultiQubitState`, each at the final
label of a transported orthonormal basis pair (:class:`BasisPairField`).
Alice's Bell measurement is a Lueders projection on slots 0 and 1, and Bob's
correction an operator on slot 2; his qubit and the target are
:class:`quline.fermion.FermionState`, the one-slot states on his label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QulineError
from .fermion import FermionState, transport as fermion_transport
from .worldline import MultiQubitState, Slot

__all__ = ["BELL_OUTCOMES", "BasisPairField", "make_basis_pair_field", "TeleportResult",
           "teleport"]

BELL_OUTCOMES = ("phi+", "phi-", "psi+", "psi-")

# Bob's correction in his basis for each outcome
_CORRECTIONS = {
    "phi+": np.eye(2, dtype=complex),
    "phi-": np.array([[1, 0], [0, -1]], dtype=complex),          # sigma_z
    "psi+": np.array([[0, 1], [1, 0]], dtype=complex),           # sigma_x
    "psi-": np.array([[0, 1], [-1, 0]], dtype=complex),          # i sigma_y
}
# each outcome's Bell state, as coefficients in the bases of slots 0 and 1
_BELL = np.array([_CORRECTIONS[name] for name in BELL_OUTCOMES]) / np.sqrt(2.0)


@dataclass(frozen=True)
class BasisPairField:
    """Orthonormal spinor pair transported along one trajectory.

    ``initial`` and ``final`` are (phi, psi) tuples of FermionState; both are
    checked orthonormal under the local inner product once, when the field
    is built.  Its fields cannot be reassigned, but the states' spinor
    arrays are not copied or locked, so the check holds only for a field
    whose states nobody changes in place.
    """

    initial: tuple
    final: tuple
    worldline: object

    def __post_init__(self):
        if self.orthonormality_residual("initial") > 1e-9:
            raise QulineError("basis pair is not orthonormal at the start")
        if self.orthonormality_residual("final") > 1e-9:
            raise QulineError("basis pair degenerated during transport")

    def orthonormality_residual(self, which="final"):
        phi, psi = getattr(self, which)
        return max(abs(phi.inner(phi) - 1.0), abs(psi.inner(psi) - 1.0), abs(phi.inner(psi)))


def make_basis_pair_field(pair, worldline, tol=1e-12):
    """Transport an orthonormal basis pair along a trajectory, read at its ends."""
    phi0, psi0 = pair
    res_phi = fermion_transport(phi0, worldline, tol=tol, n_samples=2)
    psi_final = FermionState(res_phi.propagators[-1] @ psi0.psi, res_phi.final.event,
                             res_phi.final.velocity)
    return BasisPairField((phi0, psi0), (res_phi.final, psi_final), worldline)


@dataclass
class TeleportResult:
    outcome: str
    probabilities: dict
    bob_state: FermionState
    target_state: FermionState
    fidelity: float


def teleport(alpha, beta, basis_fields, rng=None, forced_outcome=None,
             correct_in_transported_basis=True):
    """Teleport the coefficient pair (alpha, beta) through curved spacetime.

    ``basis_fields`` are the three transported basis pairs (input qubit,
    Alice's half, Bob's half) defining the canonical maximally entangled
    resource and the shared bases.  They are trusted to be orthonormal, as a
    :class:`BasisPairField` is checked when built, and are not checked again:
    a pair whose spinor arrays were changed in place afterwards is not
    caught here.  The three-slot state sits at the fields' final labels;
    Alice's Bell measurement is a projection on slots 0 and 1, and Bob
    applies the outcome's correction to slot 2 in his transported basis (or,
    as a negative control, in his untransported initial basis).
    """
    if not abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= 1e-9:
        raise QulineError("input coefficients must satisfy |alpha|^2 + |beta|^2 = 1")
    if forced_outcome is not None and forced_outcome not in BELL_OUTCOMES:
        raise QulineError(f"forced_outcome must be one of {', '.join(BELL_OUTCOMES)} "
                          f"(got {forced_outcome!r})")
    slots = tuple(Slot(FermionState, f.final[0].event, f.final[0].velocity)
                  for f in basis_fields)
    e1, e2, e3 = (np.transpose([s.psi for s in f.final]) for f in basis_fields)
    # the input qubit on slot 0; the resource, phi+ in the bases of slots 1 and 2
    state = MultiQubitState(np.multiply.outer(e1 @ [alpha, beta], e2 @ _BELL[0] @ e3.T),
                            slots)
    bells = e1 @ _BELL @ e2.T
    bras = np.einsum("kab,ap,bq->kpq", bells.conj(), slots[0].metric, slots[1].metric)
    probs, branches = {}, {}
    for name, bell, bra in zip(BELL_OUTCOMES, bells, bras):
        probs[name], post = state.project(np.outer(bell, bra), 0, 1)
        branches[name] = bra, post
    outcome = forced_outcome
    if outcome is None:
        weights = np.array(list(probs.values()))
        pick = np.random.default_rng(rng).choice(len(BELL_OUTCOMES), p=weights / weights.sum())
        outcome = BELL_OUTCOMES[pick]

    which = "final" if correct_in_transported_basis else "initial"
    basis = np.transpose([s.psi for s in getattr(basis_fields[2], which)])
    bra, post = branches[outcome]
    corrected = post.apply(basis @ _CORRECTIONS[outcome] @ np.linalg.inv(basis), 2)
    # Bob's qubit is what the Bell state on slots 0 and 1 leaves on slot 2, a
    # state on that slot, whose metric is formed already
    bob = FermionState._of(bra.ravel() @ corrected.amplitude.reshape(4, 2), slots[2:]).normalized()
    target = FermionState._of(e3 @ [alpha, beta], slots[2:]).normalized()
    return TeleportResult(outcome, probs, bob, target, abs(target.inner(bob)) ** 2)
