"""Multi-qubit states: one amplitude tensor over the localized qubits of its slots.

Each tensor axis is a slot, named by its :class:`quline.worldline.LocalizedState`
realization (:class:`FermionState` or :class:`PhotonState`), event and label,
and holds that realization's amplitude index.  Indices of different slots
belong to different spaces and are never contracted with each other.  The
inner product is the product of the slots' own inner products.  A slot is
carried along a worldline by the end map of its realization's transport;
operators and Lueders projections act on any set of slots.  Teleportation is
built on these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import HilbertSpaceMismatch, QulineError
from .fermion import FermionState, transport as fermion_transport
from .geometry import Event
from .photon import PhotonState, canonical_gauge, transport as photon_transport
from .spin_algebra import same_label


@dataclass(frozen=True)
class Slot:
    """The Hilbert space of one tensor axis: a LocalizedState realization, an
    event and a label, checked as that realization checks its states' labels.
    ``metric`` is formed once per slot and kept."""

    realization: type
    event: Event
    label: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "label", self.realization.checked_label(self.label))

    @cached_property
    def metric(self):
        return self.realization.metrics(self.label[None])[0]

    def same_space(self, other):
        return (self.realization is other.realization and self.event.close_to(other.event)
                and same_label(self.label, other.label))


@dataclass(frozen=True)
class MultiQubitState:
    """An amplitude tensor with one axis per slot, of that slot's ``dim``.

    A non-finite amplitude or a shape that does not match the slots is
    refused.  The product inner-product matrix is formed once per state.
    An amplitude whose squared norm passes the floats has norm_squared inf,
    without a warning, and is normalized and projected over its largest
    |entry|.
    """

    amplitude: np.ndarray
    slots: tuple

    def __post_init__(self):
        amplitude = np.asarray(self.amplitude, dtype=complex)
        slots = tuple(self.slots)
        dims = tuple(slot.realization.dim for slot in slots)
        if amplitude.shape != dims:
            raise QulineError(f"amplitude shape {amplitude.shape} does not match the slots' "
                              f"dims {dims}")
        if not np.isfinite(amplitude).all():
            raise QulineError("amplitude is not finite")
        object.__setattr__(self, "amplitude", amplitude)
        object.__setattr__(self, "slots", slots)

    @cached_property
    def _metric(self):
        """The Kronecker product of the slots' metrics, a (D, D) matrix."""
        n = len(self.slots)
        factors = [x for i, slot in enumerate(self.slots) for x in (slot.metric, [i, n + i])]
        return np.einsum(*factors, list(range(2 * n))).reshape(self.amplitude.size, -1)

    def _inner(self, a, b):
        return complex(a.ravel().conj() @ self._metric @ b.ravel())

    def inner(self, other):
        """<self|other>; the slots must name the same spaces."""
        if len(self.slots) != len(other.slots) or not all(
                map(Slot.same_space, self.slots, other.slots)):
            raise HilbertSpaceMismatch("states live in different Hilbert spaces")
        return self._inner(self.amplitude, other.amplitude)

    def norm_squared(self):
        return self._square(self.amplitude)

    def _square(self, a):
        with np.errstate(over="ignore"):
            return self._inner(a, a).real

    def normalized(self):
        amplitude, square = self.amplitude, self.norm_squared()
        if square == math.inf:      # squares past the floats: normalize it rescaled
            amplitude = amplitude / np.abs(amplitude).max()
            square = self._square(amplitude)
        n = np.sqrt(square)
        if n == 0.0:
            raise QulineError("cannot normalize the zero state")
        return MultiQubitState(amplitude / n, self.slots)

    def _acted(self, operator, slots):
        """The amplitude with ``operator``, a (D, D) matrix on the product of the
        spaces of ``slots`` (D the product of their dims), applied to their axes."""
        order = [*slots, *(i for i in range(len(self.slots)) if i not in slots)]
        moved = self.amplitude.transpose(order)
        size = math.prod(moved.shape[:len(slots)])
        operator = np.asarray(operator, dtype=complex)
        if operator.shape != (size, size):
            raise QulineError(f"operator shape {operator.shape} is not ({size}, {size}) "
                              f"for slots {slots}")
        acted = np.dot(operator, moved.reshape(size, -1)).reshape(moved.shape)
        return acted.transpose([order.index(i) for i in range(len(order))])

    def apply(self, operator, *slots):
        """This state with ``operator`` applied to the given slots."""
        return MultiQubitState(self._acted(operator, slots), self.slots)

    def project(self, projector, *slots):
        """Lueders update by ``projector`` on the given slots: (probability,
        normalized state).  A non-finite probability and a zero-probability
        branch are refused."""
        projected = self._acted(projector, slots)
        kept, total = self._square(projected), self.norm_squared()
        if total == math.inf:       # squares past the floats: the same ratio rescaled
            big = np.abs(self.amplitude).max()
            projected = projected / big
            kept, total = self._square(projected), self._square(self.amplitude / big)
        prob = kept / total if total > 0.0 else math.nan
        if not math.isfinite(prob):
            raise QulineError(f"projection probability is not finite ({prob})")
        if prob < 1e-15:
            raise QulineError("projection onto a zero-probability branch")
        return prob, MultiQubitState(projected / np.sqrt(kept), self.slots)

    def carry(self, slot, worldline, tol=1e-12):
        """This state with slot ``slot`` carried along ``worldline``, whose start
        must be its label, by the end map of its realization's transport: one
        solve read at the span ends.  A photon slot's map reports the canonical
        gauge psi^0 = 0."""
        old = self.slots[slot]
        start = old.realization(np.eye(old.realization.dim)[0], old.event, old.label)
        if old.realization is PhotonState:
            res = photon_transport(start, worldline, tol, n_samples=2)
            end_map = canonical_gauge(res.propagators[-1].T, res.final.label).T
        else:
            res = fermion_transport(start, worldline, tol=tol, n_samples=2)
            end_map = res.propagators[-1]
        slots = list(self.slots)
        slots[slot] = Slot(old.realization, res.final.event, res.final.label)
        return MultiQubitState(self._acted(end_map, (slot,)), slots)


# --- teleportation ---------------------------------------------------------

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
    # Bob's qubit is what the Bell state on slots 0 and 1 leaves on slot 2
    bob = MultiQubitState(bra.ravel() @ corrected.amplitude.reshape(4, 2), slots[2:]).normalized()
    target = MultiQubitState(e3 @ [alpha, beta], slots[2:]).normalized()
    fidelity = abs(target.inner(bob)) ** 2
    bob_label = slots[2].event, slots[2].label
    return TeleportResult(outcome, probs, FermionState(bob.amplitude, *bob_label),
                          FermionState(target.amplitude, *bob_label), fidelity)
