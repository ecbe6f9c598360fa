"""Every site that takes a Hilbert-space label (a unit timelike 4-velocity, a
null wavevector, a unit spacelike orientation) gives it the same verdict,
from near-rest to near-luminal labels and across wavevector scales; and every
site that asks whether two labels name one Hilbert space gives one answer."""

import ast
from pathlib import Path

import numpy as np
import pytest

from quline import fermion as fm
from quline import measurement as ms
from quline import photon as ph
from quline import scenario as sc
from quline import spin_algebra as sa
from quline import worldline as wld
from quline.errors import HilbertSpaceMismatch, QulineError
from quline.geometry import make_builtin_model

FLAT = make_builtin_model("minkowski", [])
EVENT = FLAT.event(0.0, 0.0, 0.0, 0.0)
REST = np.array([1.0, 0.0, 0.0, 0.0])
RAY = np.array([1.0, 0.0, 0.0, 1.0])


def middle_row_worldline(label, kind):
    """A flat straight worldline whose velocity is ``label`` at its middle
    sample only, a row that only the transports' label checks read."""
    base = REST if kind == "timelike" else RAY
    return wld.AnalyticWorldline(FLAT, (0.0, 1.0), lambda lam: lam * base,
                                 lambda lam: label if lam == 0.5 else base,
                                 lambda lam: np.zeros(4), kind=kind)


SITES = {
    "timelike": {
        "FermionState": lambda u: fm.FermionState([1.0, 0.0], EVENT, u),
        "fermion.transport": lambda u: fm.transport(
            fm.FermionState([1.0, 0.0], EVENT, REST), middle_row_worldline(u, "timelike")),
        "integrate_timelike": lambda u: wld.integrate_timelike(FLAT, None, np.zeros(4), u),
        "SternGerlachSetup.apparatus": lambda v: ms.SternGerlachSetup([0, 1, 0, 0], v, REST),
        "SternGerlachSetup.particle": lambda u: ms.SternGerlachSetup([0, 1, 0, 0], REST, u),
        "MultiQubitState": lambda u: wld.MultiQubitState(np.eye(2), (
            wld.Slot(fm.FermionState, EVENT, u), wld.Slot(fm.FermionState, EVENT, REST))),
    },
    "null": {
        "PhotonState": lambda k: ph.PhotonState([0, 1, 0, 0], EVENT, k),
        "photon.transport": lambda k: ph.transport(
            ph.PhotonState([0, 1, 0, 0], EVENT, RAY), middle_row_worldline(k, "null")),
        "MultiQubitState": lambda k: wld.MultiQubitState(
            np.eye(4), (wld.Slot(ph.PhotonState, EVENT, k), wld.Slot(ph.PhotonState, EVENT, RAY))),
        "integrate_null_geodesic": lambda k: wld.integrate_null_geodesic(FLAT, np.zeros(4), k),
        "build_worldline": lambda k: sc.build_worldline(FLAT, "ray", {
            "type": "null_geodesic", "start": np.zeros(4), "wavevector": k, "span": 1.0,
            "tolerance": 1e-11}),
    },
    # an orientation m with the apparatus velocity v it must be orthogonal to
    "spacelike": {
        "SternGerlachSetup.orientation": lambda m, v: ms.SternGerlachSetup(m, v, REST),
    },
}

BETAS = (0.0, 0.6, 0.999999999, 1 - 1e-10)
NOT_FINITE = {"nan": np.array([np.nan, 0.0, 0.0, 0.0]),
              "overflow": np.array([1e200, 0.0, 0.0, 1e200])}
NULL = np.array([1.0, 0.6, 0.0, 0.8])
LABELS = [   # (id, kind, site arguments, accepted)
    *[(f"u_beta={b}", "timelike", (sa.spin1_boost([0, 0, b])[:, 0],), True) for b in BETAS],
    *[(f"1.01u_beta={b}", "timelike", (1.01 * sa.spin1_boost([0, 0, b])[:, 0],), False)
      for b in BETAS],
    *[(f"{name}_u", "timelike", (v,), False) for name, v in NOT_FINITE.items()],
    *[(f"m_beta={b}", "spacelike", (sa.spin1_boost([0, 0, b])[:, 3],
                                    sa.spin1_boost([0, 0, b])[:, 0]), True) for b in BETAS],
    *[(f"1.01m_beta={b}", "spacelike", (1.01 * sa.spin1_boost([0, 0, b])[:, 3],
                                        sa.spin1_boost([0, 0, b])[:, 0]), False) for b in BETAS],
    *[(f"{name}_m", "spacelike", (v, REST), False) for name, v in NOT_FINITE.items()],
    ("tiny_timelike_k", "null", (np.array([1e-6, 0.0, 0.0, 0.0]),), False),
    ("tiny_timelike_k_moving", "null", (np.array([1e-7, 0.0, 0.0, 5e-8]),), False),
    *[(f"k_scale={s}", "null", (s * NULL,), True) for s in (1e-6, 1.0, 1e6)],
    # k.k = -1.6e-4 is within (1e-9 + 64 eps) E at E = 2e6, and does not drift
    ("k_off_null_scale=1e3", "null", (np.array([1000.0, 600.0, 0.0, 800.0000001]),), True),
    # every square underflows to 0, which must not read as k.k = 0
    *[(f"underflowing_{name}", "null", (v,), False) for name, v in (
        ("timelike_k", np.array([1e-170, 0.0, 0.0, 0.0])),
        ("null_k", np.array([1e-170, 0.0, 0.0, 1e-170])))],
    ("past_pointing_k", "null", (-NULL,), False),
    *[(f"{name}_k", "null", (v,), False) for name, v in NOT_FINITE.items()],
]


def accepts(site, args):
    try:
        site(*args)
    except QulineError:
        return False
    return True


@pytest.mark.parametrize("kind, args, accepted", [row[1:] for row in LABELS],
                         ids=[row[0] for row in LABELS])
def test_every_site_gives_a_label_one_verdict(kind, args, accepted):
    verdicts = {name: accepts(site, args) for name, site in SITES[kind].items()}
    assert verdicts == dict.fromkeys(verdicts, accepted)


def test_messages_name_the_value_found():
    with pytest.raises(QulineError, match=r"^u0 must be normalized timelike \(u.u = 4.0\)$"):
        sa.check_norm([2.0, 0, 0, 0], 1, "u0 must be normalized timelike")
    with pytest.raises(QulineError,
                       match=r"^k0 must be null \(not future-pointing: k\^0 = -1.0\)$"):
        sa.check_norm([[1.0, 0, 0, 1], [-1.0, 0, 0, -1]], 0, "k0 must be null")
    with pytest.raises(QulineError, match=r"^m must be unit \(m.m = -4.0\)$"):
        sa.check_norm([0, 2.0, 0, 0], -1, "m must be unit")


PSI = np.array([1.0, 0.0])
ORIENTATION = np.array([0.0, 1.0, 0.0, 0.0])
POLARIZATION = np.array([0.0, 0.0, 1.0, 0.0])    # transverse to every k of the x-z plane


def straight_line(label, kind):
    """A flat straight worldline from EVENT with the constant velocity ``label``."""
    return wld.AnalyticWorldline(FLAT, (0.0, 1.0), lambda lam: lam * label,
                                 lambda lam: label, lambda lam: np.zeros(4), kind=kind)


def fermion(u):
    return fm.FermionState(PSI, EVENT, u)


def photon(k):
    return ph.PhotonState(POLARIZATION, EVENT, k)


def unless_mismatched(call):
    """A site that raises HilbertSpaceMismatch on different labels, as a verdict."""
    def site(a, b):
        try:
            call(a, b)
        except HilbertSpaceMismatch:
            return False
        return True
    return site


# each site is asked whether a state labelled a and an object labelled b share a space
MATCH_SITES = {
    "timelike": {
        "FermionState.same_space": lambda a, b: fermion(a).same_space(fermion(b)),
        "Slot.same_space": lambda a, b: wld.Slot(fm.FermionState, EVENT, a).same_space(
            wld.Slot(fm.FermionState, EVENT, b)),
        "expectation": unless_mismatched(lambda a, b: ms.expectation(
            fermion(a), ms.spin_operator(ms.SternGerlachSetup(ORIENTATION, REST, b))[0])),
        "measure_spin": unless_mismatched(lambda a, b: ms.measure_spin(
            fermion(a), ms.SternGerlachSetup(ORIENTATION, REST, b), rng=0)),
        "fermion.transport": unless_mismatched(lambda a, b: fm.transport(
            fermion(a), straight_line(b, "timelike"), n_samples=3)),
    },
    "null": {
        "PhotonState.same_space": lambda a, b: photon(a).same_space(photon(b)),
        "Slot.same_space": lambda a, b: wld.Slot(ph.PhotonState, EVENT, a).same_space(
            wld.Slot(ph.PhotonState, EVENT, b)),
        "polarizer_probability": unless_mismatched(lambda a, b: ms.polarizer_probability(
            photon(a), ms.PolarizerVector(POLARIZATION, b))),
        "photon.transport": unless_mismatched(lambda a, b: ph.transport(
            photon(a), straight_line(b, "null"), n_samples=3)),
    },
}

FAST = sa.spin1_boost([0.0, 0.0, np.sqrt(1.0 - 1e-8)])[:, 0]       # gamma = 1e4
FAST_TURNED = np.array([FAST[0], FAST[3] * np.sin(1e-10), 0.0, FAST[3] * np.cos(1e-10)])
PAIRS = [   # (id, kind, a, b, one space)
    ("equal_u", "timelike", sa.spin1_boost([0.6, 0.0, 0.0])[:, 0],
     sa.spin1_boost([0.6, 0.0, 0.0])[:, 0], True),
    ("equal_k", "null", NULL, NULL.copy(), True),
    ("k=1e-12ray_vs_2e-12ray", "null", 1e-12 * RAY, 2e-12 * RAY, False),
    ("rest_vs_boost_1.5e-9", "timelike", REST, np.array([1.0, 1.5e-9, 0.0, 0.0]), False),
    ("gamma=1e4_vs_1e-6_away", "timelike", FAST, FAST_TURNED, True),
    ("k0=1e6_vs_5e-3_away", "null", 1e6 * RAY, 1e6 * RAY + [0.0, 5e-3, 0.0, 0.0], False),
]


@pytest.mark.parametrize("swap", [False, True], ids=["ab", "ba"])
@pytest.mark.parametrize("kind, a, b, same", [row[1:] for row in PAIRS],
                         ids=[row[0] for row in PAIRS])
def test_every_site_gives_a_label_pair_one_match(kind, a, b, same, swap):
    """The same-space verdict is 1e-9 of the larger time component, at every
    site and in either order."""
    if swap:
        a, b = b, a
    verdicts = {name: site(a, b) for name, site in MATCH_SITES[kind].items()}
    assert verdicts == dict.fromkeys(verdicts, same)
    assert sa.same_label(a, b) == same


LABEL_NAMES = {"label", "velocity", "wavevector", "context_velocity", "particle_velocity"}


def is_label(node):
    """``x.velocity`` (or another label attribute) or a ``x.velocity(...)`` call."""
    if isinstance(node, ast.Call):
        node = node.func
        return isinstance(node, ast.Attribute) and node.attr == "velocity"
    return isinstance(node, ast.Attribute) and node.attr in LABEL_NAMES


def label_differences(src):
    """["module:line"] of every label-minus-label expression outside spin_algebra."""
    return [f"{path.name}:{node.lineno}"
            for path in sorted(src.glob("*.py")) if path.name != "spin_algebra.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and is_label(node.left) and is_label(node.right)]


def test_labels_are_compared_only_by_same_label():
    """Whether two labels name one space is decided by spin_algebra.same_label
    alone: no other module subtracts one label from another."""
    assert label_differences(Path(sa.__file__).parent) == []
