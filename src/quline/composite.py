"""Multi-qubit states over products of per-qubit Hilbert spaces.

Coefficients carry one index per qubit; indices of different slots belong
to different spaces and are never contracted with each other.  The inner
product is the product of the single-qubit ones (velocity inner product for
fermion slots, -eta for photon slots).  Local evolution applies a
single-qubit transport to one tensor slot; evolutions of different slots
commute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HilbertSpaceMismatch, QulineError
from .fermion import FermionState, transport as fermion_transport
from .geometry import Event
from .photon import PhotonState, transport as photon_transport
from .spin_algebra import ETA, minkowski_dot, velocity_inner_product_matrix


@dataclass(frozen=True)
class SlotLabel:
    """Hilbert-space label of one tensor slot: realization, event, 4-velocity."""

    kind: str                # "fermion" | "photon"
    event: Event
    velocity: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.velocity, dtype=float).reshape(4)
        if self.kind not in ("fermion", "photon"):
            raise QulineError(f"unknown slot kind {self.kind!r}")
        object.__setattr__(self, "velocity", v)

    def metric(self):
        if self.kind == "fermion":
            return velocity_inner_product_matrix(self.velocity)
        return -ETA.astype(complex)

    def dim(self):
        return 2 if self.kind == "fermion" else 4

    def matches(self, other):
        return (self.kind == other.kind and self.event.close_to(other.event)
                and np.abs(self.velocity - other.velocity).max()
                <= 1e-9 * (1.0 + abs(self.velocity[0])))


@dataclass(frozen=True)
class BipartiteState:
    """Two-qubit coefficients with one index per slot (2 or 4 dimensional)."""

    coeffs: np.ndarray
    labels: tuple

    def __post_init__(self):
        a, b = self.labels
        c = np.asarray(self.coeffs, dtype=complex).reshape(a.dim(), b.dim())
        object.__setattr__(self, "coeffs", c)
        for label in self.labels:
            if label.kind == "photon":
                k = label.velocity
                if abs(minkowski_dot(k, k)) > 1e-9 * (1.0 + k @ k):
                    raise QulineError("photon slot label must be null")

    def transversality(self):
        """Max |u_I psi^{...I...}| over photon slots (0 for fermion slots)."""
        worst = 0.0
        for axis, label in enumerate(self.labels):
            if label.kind == "photon":
                u_low = ETA @ label.velocity
                res = np.tensordot(u_low, self.coeffs, axes=([0], [axis]))
                worst = max(worst, np.abs(res).max())
        return worst

    def norm_squared(self):
        return float(np.real(bipartite_inner_product(self, self, check=False)))

    def normalized(self):
        n = np.sqrt(self.norm_squared())
        if n == 0.0:
            raise QulineError("cannot normalize the zero state")
        return BipartiteState(self.coeffs / n, self.labels)


def bipartite_inner_product(a: BipartiteState, b: BipartiteState, check=True) -> complex:
    """Product inner product; slots must carry matching labels."""
    if check:
        for la, lb in zip(a.labels, b.labels):
            if not la.matches(lb):
                raise HilbertSpaceMismatch("bipartite states live in different spaces")
    g1 = a.labels[0].metric()
    g2 = a.labels[1].metric()
    return complex(np.einsum("pq,pa,qb,ab->", a.coeffs.conj(), g1, g2, b.coeffs))


def _slot_propagator(label: SlotLabel, worldline, tol):
    """Linear map of one qubit's transport along ``worldline`` plus end label."""
    if label.kind == "fermion":
        res = fermion_transport(FermionState([1.0, 0.0], label.event, label.velocity),
                                worldline, tol=tol)
        end = res.final
        return res.propagators[-1], SlotLabel("fermion", end.event, end.velocity)
    # the first basis leg is not transverse; on transverse states the map
    # acts as parallel transport, reported in the canonical gauge psi^0 = 0
    res = photon_transport(PhotonState([1.0, 0.0, 0.0, 0.0], label.event, label.velocity),
                           worldline, tol)
    k = res.final.wavevector
    canonical = np.eye(4) - np.outer(k, [1.0, 0.0, 0.0, 0.0]) / k[0]
    return canonical @ res.propagators[-1], SlotLabel("photon", res.final.event, k)


def evolve_local(state: BipartiteState, slot, worldline=None, operator=None,
                 tol=1e-12) -> BipartiteState:
    """Evolve one tensor slot: transport along a worldline and/or a local operator.

    The slot's current label must sit at the worldline start; the other
    slot is untouched.  ``operator`` (matrix on the slot) is applied after
    the transport.
    """
    if slot not in (0, 1):
        raise QulineError("slot must be 0 or 1")
    label = state.labels[slot]
    coeffs = state.coeffs
    new_label = label
    if worldline is not None:
        if not label.event.close_to(worldline.start_event, 1e-8):
            raise HilbertSpaceMismatch("slot label is not at the worldline start")
        u_mat, new_label = _slot_propagator(label, worldline, tol)
        coeffs = np.tensordot(u_mat, coeffs, axes=([1], [slot]))
        if slot == 1:
            coeffs = coeffs.T
    if operator is not None:
        op = np.asarray(operator, dtype=complex)
        coeffs = np.tensordot(op, coeffs, axes=([1], [slot]))
        if slot == 1:
            coeffs = coeffs.T
    labels = list(state.labels)
    labels[slot] = new_label
    return BipartiteState(coeffs, tuple(labels))


def project_slot(state: BipartiteState, slot, projector):
    """Lueders update on one slot: (probability, updated normalized state).

    The other slot's label and marginal are untouched; a zero-probability
    branch is flagged with :class:`QulineError`.
    """
    if slot not in (0, 1):
        raise QulineError("slot must be 0 or 1")
    p_mat = np.asarray(projector, dtype=complex)
    coeffs = np.tensordot(p_mat, state.coeffs, axes=([1], [slot]))
    if slot == 1:
        coeffs = coeffs.T
    projected = BipartiteState(coeffs, state.labels)
    total = state.norm_squared()
    prob = projected.norm_squared() / total
    if prob < 1e-15:
        raise QulineError("projection onto a zero-probability branch")
    return prob, projected.normalized()


# --- teleportation ---------------------------------------------------------

BELL_OUTCOMES = ("phi+", "phi-", "psi+", "psi-")

_CORRECTIONS = {
    "phi+": np.eye(2, dtype=complex),
    "phi-": np.array([[1, 0], [0, -1]], dtype=complex),          # sigma_z
    "psi+": np.array([[0, 1], [1, 0]], dtype=complex),           # sigma_x
    "psi-": np.array([[0, 1], [-1, 0]], dtype=complex),          # i sigma_y
}


@dataclass
class BasisPairField:
    """Orthonormal spinor pair transported along one trajectory.

    ``initial`` and ``final`` are (phi, psi) tuples of FermionState;
    orthonormality under the local inner product is validated.
    """

    initial: tuple
    final: tuple
    worldline: object

    def orthonormality_residual(self, which="final"):
        phi, psi = getattr(self, which)
        from .fermion import inner_product as ip
        return max(abs(ip(phi, phi) - 1.0), abs(ip(psi, psi) - 1.0), abs(ip(phi, psi)))


def make_basis_pair_field(pair, worldline, tol=1e-12):
    """Transport an orthonormal basis pair along a trajectory."""
    phi0, psi0 = pair
    res_phi = fermion_transport(phi0, worldline, tol=tol)
    psi_final = FermionState(res_phi.propagators[-1] @ psi0.psi, res_phi.final.event,
                             res_phi.final.velocity)
    field = BasisPairField((phi0, psi0), (res_phi.final, psi_final), worldline)
    if field.orthonormality_residual("initial") > 1e-9:
        raise QulineError("basis pair is not orthonormal at the start")
    if field.orthonormality_residual("final") > 1e-9:
        raise QulineError("basis pair degenerated during transport")
    return field


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
    resource and the shared bases.  Alice's Bell measurement is simulated
    by projecting the tripartite coefficient tensor; Bob applies the
    outcome's correction in his transported basis (or, as a negative
    control, in his untransported initial basis).
    """
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-9:
        raise QulineError("input coefficients must satisfy |alpha|^2 + |beta|^2 = 1")
    rng = np.random.default_rng(rng)
    f1, f2, f3 = basis_fields
    for f in (f1, f2, f3):
        if f.orthonormality_residual("final") > 1e-9:
            raise QulineError("degenerate basis field")
    phi1, psi1 = (s.psi for s in f1.final)
    phi2, psi2 = (s.psi for s in f2.final)
    phi3, psi3 = (s.psi for s in f3.final)
    u1 = f1.final[0].velocity
    u2 = f2.final[0].velocity
    bob_label = (f3.final[0].event, f3.final[0].velocity)

    # tripartite coefficients: (alpha phi1 + beta psi1) x (phi2 phi3 + psi2 psi3)/sqrt(2)
    ups = np.einsum("a,b,c->abc",
                    alpha * phi1 + beta * psi1, phi2, phi3) / np.sqrt(2.0)
    ups += np.einsum("a,b,c->abc",
                     alpha * phi1 + beta * psi1, psi2, psi3) / np.sqrt(2.0)

    bell = {
        "phi+": np.einsum("a,b->ab", phi1, phi2) / np.sqrt(2)
        + np.einsum("a,b->ab", psi1, psi2) / np.sqrt(2),
        "phi-": np.einsum("a,b->ab", phi1, phi2) / np.sqrt(2)
        - np.einsum("a,b->ab", psi1, psi2) / np.sqrt(2),
        "psi+": np.einsum("a,b->ab", phi1, psi2) / np.sqrt(2)
        + np.einsum("a,b->ab", psi1, phi2) / np.sqrt(2),
        "psi-": np.einsum("a,b->ab", phi1, psi2) / np.sqrt(2)
        - np.einsum("a,b->ab", psi1, phi2) / np.sqrt(2),
    }
    g1 = velocity_inner_product_matrix(u1)
    g2 = velocity_inner_product_matrix(u2)
    probs, residuals = {}, {}
    for name, bstate in bell.items():
        # Bob's (unnormalized) conditional state: <Bell|Upsilon> on slots 1, 2
        amp = np.einsum("ab,ap,bq,pqc->c", bstate.conj(), g1, g2, ups)
        residuals[name] = amp
        probs[name] = float(np.real(
            amp.conj() @ velocity_inner_product_matrix(f3.final[0].velocity) @ amp))
    outcome = forced_outcome
    if outcome is None:
        names = list(BELL_OUTCOMES)
        weights = np.array([probs[n] for n in names])
        outcome = names[rng.choice(len(names), p=weights / weights.sum())]

    basis_states = f3.final if correct_in_transported_basis else f3.initial
    phi_b = basis_states[0].psi
    psi_b = basis_states[1].psi
    basis_mat = np.column_stack([phi_b, psi_b])
    # express Bob's spinor in the correction basis, apply U, rebuild
    comps = np.linalg.solve(basis_mat, residuals[outcome])
    corrected = basis_mat @ (_CORRECTIONS[outcome] @ comps)
    bob = FermionState(corrected, *bob_label).normalized()
    target = FermionState(alpha * phi3 + beta * psi3, *bob_label).normalized()
    from .fermion import inner_product as ip
    fidelity = abs(ip(target, bob)) ** 2
    return TeleportResult(outcome, probs, bob, target, fidelity)
