"""Declarative scenario files: parsing, validation, execution.

Scenarios are YAML with explicit unit suffixes on dimensional values
("2 cm", "2200 m/s", "30 deg"); bare numbers are natural units.  Blocks:

* ``model``       spacetime family and parameters
* ``worldlines``  named trajectories (static / timelike / null_geodesic /
                  circular)
* ``qubits``      named states (fermion spinors, photon Jones vectors) tied
                  to a worldline launch point
* ``schedule``    ordered operations: transport, optic, measure_spin,
                  measure_polarization, recombine
* ``cow``         neutron-interferometer parameter set (all closed forms)
* ``sweep``       one scalar parameter swept over a range
* ``output``      csv / json file names

Execution is deterministic: a seed fixes every sampled outcome, and reports
are byte-identical for identical (scenario, seed, version).
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .errors import (QulineError, ScenarioError, ScenarioParseError,
                     ScenarioReferenceError)
from .fermion import FermionState, transport as fermion_transport
from .geometry import make_builtin_model
from .interferometry import (COW_MODES, arm_phase, cow_phases, displacement_phase,
                             phase_difference, recombine, transport_phase)
from .measurement import (SternGerlachSetup, circular_polarizer,
                          linear_polarizer, measure_polarization, measure_spin,
                          stern_gerlach_axis)
from .photon import apply_jones, jones_to_state
from .photon import transport as photon_transport
from .spin_algebra import minkowski_dot, spin1_boost
from .units import from_natural, parse_quantity
from .worldline import (circular_worldline, integrate_null_geodesic,
                        integrate_timelike, static_worldline)

SCHEMA_VERSION = 1
CORE_TOLERANCES = {
    "norm_drift": 1e-9,
    "transversality_drift": 1e-9,
}

# blocks whose value must be a mapping of keys
MAPPING_BLOCKS = ("model", "worldlines", "qubits", "interferometer", "cow", "sweep",
                  "output")
# the top-level blocks; an empty block counts as absent
BLOCKS = ("version", "seed", "schedule") + MAPPING_BLOCKS
# blocks whose every entry must be a mapping
ENTRY_BLOCKS = ("worldlines", "qubits")
# schedule operations
OPS = ("transport", "measure_spin", "optic", "measure_polarization")

# advisory validity thresholds (documented heuristics, not hard errors)
COMPTON_CURVATURE_RATIO = 1e-3   # warn when compton / curvature scale exceeds this
ACCELERATION_RATIO = 1e-3        # warn when acceleration x compton exceeds this


def _number(raw, dimension=None, block=""):
    """A scalar in natural units; ``dimension`` is the one accepted, or a tuple
    of those accepted, besides a bare number (None accepts any)."""
    try:
        value, dim = parse_quantity(raw)
    except ValueError as exc:
        raise ScenarioParseError(str(exc), block=block) from None
    dims = (dimension,) if isinstance(dimension, str) else dimension
    if dims is not None and dim not in (*dims, "natural"):
        raise ScenarioParseError(
            f"expected a {' or '.join(dims)} quantity, got {raw!r}", block=block)
    return value


def _vector(raw, n, dimension=None, block=""):
    if not isinstance(raw, (list, tuple)) or len(raw) != n:
        raise ScenarioParseError(f"expected a list of {n} entries", block=block)
    return np.array([_number(v, dimension, block) for v in raw])


def _span(raw, block=""):
    """Parameter spans: time and length coincide in natural units."""
    return _number(raw, ("time", "length"), block)


def _tolerance(spec, block):
    """A solver tolerance: a bare number, 1e-12 when not given."""
    return _number(spec.get("tolerance", 1e-12), "natural", block)


def _whole(raw, least, what, block):
    """A whole number >= ``least``."""
    if isinstance(raw, bool) or not isinstance(raw, (int, np.integer)) or raw < least:
        raise ScenarioParseError(f"{what} must be a whole number >= {least}, got {raw!r}",
                                 block=block)
    return int(raw)


def _polarizer(op, block):
    """The polarizer of a ``measure_polarization`` op, as a function of the
    photon wavevector."""
    spec = op.get("polarizer", {})
    _require(spec, dict, f"{block}.polarizer")
    kind = spec.get("type", "linear")
    if kind == "linear":
        return partial(linear_polarizer, _number(spec.get("angle", 0.0), "angle", block))
    if kind == "circular":
        handedness = spec.get("handedness", +1)
        if handedness not in (+1, -1):
            raise ScenarioParseError(f"handedness must be +1 or -1, got {handedness!r}",
                                     block=block)
        return partial(circular_polarizer, handedness)
    raise ScenarioParseError(f"unknown polarizer type {kind!r}", block=block)


def _require(value, kind, block):
    if not isinstance(value, kind):
        what = "a mapping" if kind is dict else "a list"
        raise ScenarioParseError(f"must be {what}, got {value!r}", block=block)


def load_scenario(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario file: {exc}")
    try:
        data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        # libyaml words its errors differently; the message is the pure-Python
        # parser's, whichever parser found the fault
        try:
            yaml.load(text, Loader=yaml.SafeLoader)
        except yaml.YAMLError as python_exc:
            exc = python_exc
        mark, problem = getattr(exc, "problem_mark", None), getattr(exc, "problem", None)
        detail = (f"line {mark.line + 1}, column {mark.column + 1}: {problem}"
                  if mark is not None and problem else " ".join(str(exc).split()))
        raise ScenarioParseError(f"not valid YAML: {detail}") from None
    if not isinstance(data, dict):
        raise ScenarioParseError("scenario must be a mapping of blocks")
    data = {key: value for key, value in data.items() if value is not None}
    for key in data:
        if key not in BLOCKS:
            raise ScenarioParseError(f"unknown block {key!r} (known: {', '.join(BLOCKS)})")
    for block in MAPPING_BLOCKS:
        _require(data.get(block, {}), dict, block)
    for block in ENTRY_BLOCKS:
        for name, entry in data.get(block, {}).items():
            _require(entry, dict, f"{block}.{name}")
    _require(data.get("schedule", []), list, "schedule")
    for idx, op in enumerate(data.get("schedule", [])):
        _require(op, dict, f"schedule[{idx}]")
    version = data.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ScenarioParseError(f"unsupported schema version {version}")
    return data


def build_model(data):
    block = data.get("model", {"family": "minkowski"})
    family = block.get("family")
    params = block.get("params", {})
    _require(params, dict, "model.params")
    if family == "minkowski":
        return make_builtin_model("minkowski", [])
    if family == "rindler":
        if "g" not in params:
            raise ScenarioParseError("rindler needs params.g", block="model")
        return make_builtin_model("rindler", [_number(params["g"], "acceleration",
                                                      "model")])
    if family == "schwarzschild":
        if "mass" not in params:
            raise ScenarioParseError("schwarzschild needs params.mass", block="model")
        # geometric mass: a length in natural units
        return make_builtin_model("schwarzschild", [_number(params["mass"], "length",
                                                            "model")])
    if family == "tabulated":
        from .geometry import TabulatedModel
        if "axes" not in params or "tetrads" not in params:
            raise ScenarioParseError("tabulated needs params.axes and params.tetrads",
                                     block="model")
        try:
            return TabulatedModel(params["axes"], np.asarray(params["tetrads"],
                                                             dtype=float))
        except (QulineError, TypeError, ValueError) as exc:
            raise ScenarioParseError(f"tabulated params: {exc}", block="model") from None
    raise ScenarioParseError(f"unknown model family {family!r}", block="model")


def build_worldline(model, name, spec):
    block = f"worldlines.{name}"
    kind = spec.get("type")
    if kind == "static":
        pos = _vector(spec.get("position", [0, 0, 0]), 3, None, block)
        span = _span(spec.get("span", 1.0), block)
        return static_worldline(model, pos, span)
    if kind == "circular":
        return circular_worldline(
            model,
            radius=_number(spec.get("radius", 1.0), "length", block),
            beta=_number(spec.get("beta", 0.5), "velocity", block),
            revolutions=_number(spec.get("revolutions", 1.0), None, block))
    if kind == "timelike":
        start = _vector(spec.get("start", [0, 0, 0, 0]), 4, None, block)
        beta = _vector(spec.get("beta", [0, 0, 0]), 3, "velocity", block)
        b2 = beta @ beta
        if b2 >= 1.0:
            raise ScenarioError("beta must be subluminal", block=block)
        g = 1.0 / np.sqrt(1.0 - b2)
        u0 = g * np.array([1.0, *beta])
        span = _span(spec.get("span", 1.0), block)
        q2m = _number(spec.get("charge_to_mass", 0.0), None, block)
        tol = _tolerance(spec, block)
        return integrate_timelike(model, None, start, u0, charge_to_mass=q2m,
                                  span=span, tol=tol)
    if kind == "null_geodesic":
        start = _vector(spec.get("start", [0, 0, 0, 0]), 4, None, block)
        k0 = _vector(spec.get("wavevector", [1, 0, 0, 1]), 4, None, block)
        if abs(minkowski_dot(k0, k0)) > 1e-9 * (1 + k0 @ k0):
            raise ScenarioError("wavevector must be null", block=block)
        span = _span(spec.get("span", 1.0), block)
        tol = _tolerance(spec, block)
        return integrate_null_geodesic(model, start, k0, span=span, tol=tol)
    raise ScenarioParseError(f"unknown worldline type {kind!r}", block=block)


def build_qubit(model, worldlines, name, spec):
    block = f"qubits.{name}"
    kind = spec.get("kind")
    wl_name = spec.get("worldline")
    if wl_name not in worldlines:
        raise ScenarioReferenceError(f"undefined worldline {wl_name!r}", block=block)
    wl = worldlines[wl_name]
    if kind == "fermion":
        comps = _vector(spec.get("state", [1, 0, 0, 0]), 4, None, block)
        psi = np.array([comps[0] + 1j * comps[1], comps[2] + 1j * comps[3]])
        state = FermionState(psi, wl.start_event, wl.velocity(wl.param_span[0]))
        state = state.normalized()
        mass = _number(spec.get("mass", 1.0), "mass", block)
        q2m = _number(spec.get("charge_to_mass", 0.0), None, block)
        return {"kind": kind, "state": state, "mass": mass,
                "charge_to_mass": q2m, "worldline": wl_name}
    if kind == "photon":
        comps = _vector(spec.get("jones", [1, 0, 0, 0]), 4, None, block)
        jones = np.array([comps[0] + 1j * comps[1], comps[2] + 1j * comps[3]])
        jones = jones / np.linalg.norm(jones)
        k = wl.velocity(wl.param_span[0])
        state = jones_to_state(jones, k, wl.start_event)
        return {"kind": kind, "state": state, "worldline": wl_name}
    raise ScenarioParseError(f"unknown qubit kind {kind!r}", block=block)


def _state_payload(state):
    if isinstance(state, FermionState):
        return {
            "components": [float(v) for pair in zip(state.psi.real, state.psi.imag)
                           for v in pair],
            "event": [float(c) for c in state.event.coords],
            "velocity": [float(v) for v in state.velocity],
        }
    return {
        "polarization": [float(v) for pair in zip(state.pol.real, state.pol.imag)
                         for v in pair],
        "event": [float(c) for c in state.event.coords],
        "wavevector": [float(v) for v in state.wavevector],
    }


class ScenarioRun:
    """One parsed scenario plus its execution machinery."""

    def __init__(self, data, seed=0):
        self.data = data
        self.seed = _whole(data.get("seed", seed), 0, "seed", "seed")
        self.model = build_model(data)
        self.worldlines = {}
        for name, spec in (data.get("worldlines") or {}).items():
            self.worldlines[name] = build_worldline(self.model, name, spec)
        self.qubits = {}
        for name, spec in (data.get("qubits") or {}).items():
            self.qubits[name] = build_qubit(self.model, self.worldlines, name, spec)
        self.audit = {"norm_drift": 0.0, "transversality_drift": 0.0}

    # -- validation --------------------------------------------------------
    def diagnostics(self):
        """Check the schedule's operation names, references, tolerances and
        polarizers and the ``interferometer`` block; return
        :meth:`validity_warnings`."""
        for idx, op in enumerate(self.data.get("schedule") or []):
            block = f"schedule[{idx}]"
            if op.get("op") not in OPS:
                raise ScenarioParseError(f"unknown operation {op.get('op')!r}", block=block)
            if op["op"] == "measure_polarization":
                _polarizer(op, block)
            q = op.get("qubit")
            if q is not None and q not in self.qubits:
                raise ScenarioReferenceError(f"undefined qubit {q!r}", block=block)
            w = op.get("worldline")
            if w is not None and w not in self.worldlines:
                raise ScenarioReferenceError(f"undefined worldline {w!r}", block=block)
            _tolerance(op, block)
        self._interferometer()
        return self.validity_warnings()

    def validity_warnings(self):
        """Domain-of-applicability advisories (wavepacket vs curvature scale,
        moderate acceleration); purely informational.  A ``cow`` block is
        evaluated here too, so its domain errors surface in ``validate``."""
        notes = []
        curvature_scale = None
        if self.model.name == "rindler":
            curvature_scale = 1.0 / self.model.g
        elif self.model.name == "schwarzschild":
            curvature_scale = self.model.mass
        for name, q in self.qubits.items():
            if q["kind"] != "fermion":
                continue
            compton = 1.0 / q["mass"]
            if curvature_scale is not None:
                if compton / curvature_scale > COMPTON_CURVATURE_RATIO:
                    notes.append(
                        f"qubit {name!r}: Compton wavelength within "
                        f"{COMPTON_CURVATURE_RATIO:g} of the curvature scale; "
                        "the localized-qubit description degrades there")
            wl = self.worldlines[q["worldline"]]
            a = wl.acceleration(wl.param_span[0])
            a_mag = float(np.sqrt(max(0.0, -minkowski_dot(a, a))))
            if a_mag * compton > ACCELERATION_RATIO:
                notes.append(
                    f"qubit {name!r}: proper acceleration is large on the "
                    "Compton scale; pair creation and spin-flip emission are "
                    "not modelled")
        if self.data.get("cow"):
            cow_columns(self.data["cow"])
        return notes

    # -- execution ---------------------------------------------------------
    def execute(self):
        rows = []
        rng = np.random.default_rng(self.seed)
        for idx, op in enumerate(self.data.get("schedule") or []):
            rows.append(self._run_op(idx, op, rng))
        results = {"schedule": rows}
        if self.data.get("cow"):
            results["cow"] = cow_row(self.data["cow"])
        mz_result = self._run_interferometer()
        if mz_result:
            results["interferometer"] = mz_result
        return results

    def _run_op(self, idx, op, rng):
        block = f"schedule[{idx}]"
        name = op.get("op")
        qname = op.get("qubit")
        if qname not in self.qubits:
            raise ScenarioReferenceError(f"undefined qubit {qname!r}", block=block)
        qubit = self.qubits[qname]
        row = {"step": idx, "op": name, "qubit": qname}
        if name == "transport":
            wname = op.get("worldline", qubit["worldline"])
            if wname not in self.worldlines:
                raise ScenarioReferenceError(f"undefined worldline {wname!r}",
                                             block=block)
            wl = self.worldlines[wname]
            tol = _tolerance(op, block)
            if qubit["kind"] == "fermion":
                res = fermion_transport(qubit["state"], wl,
                                        charge_to_mass=qubit["charge_to_mass"],
                                        tol=tol)
                self.audit["norm_drift"] = max(self.audit["norm_drift"],
                                               res.norm_drift)
            else:
                res = photon_transport(qubit["state"], wl, tol=tol)
                self.audit["norm_drift"] = max(self.audit["norm_drift"],
                                               res.norm_drift)
                self.audit["transversality_drift"] = max(
                    self.audit["transversality_drift"],
                    res.audits["transversality_drift"])
            qubit["state"] = res.final
            row["state"] = _state_payload(res.final)
            row["norm_drift"] = float(res.norm_drift)
        elif name == "measure_spin":
            if qubit["kind"] != "fermion":
                raise ScenarioError("measure_spin needs a fermion qubit", block=block)
            m_dir = _vector(op.get("orientation", [0, 0, 1]), 3, None, block)
            m_dir = m_dir / np.linalg.norm(m_dir)
            beta = _vector(op.get("apparatus_beta", [0, 0, 0]), 3, "velocity", block)
            m = spin1_boost(beta) @ np.array([0.0, *m_dir])   # DomainError if |beta| >= 1
            gam = 1.0 / np.sqrt(1.0 - beta @ beta)
            v = gam * np.array([1.0, *beta])
            setup = SternGerlachSetup(m, v, qubit["state"].velocity)
            outcome, post, probs = measure_spin(qubit["state"], setup, rng)
            qubit["state"] = post
            row.update({
                "outcome": int(outcome),
                "p_plus": float(probs[+1]),
                "p_minus": float(probs[-1]),
                "axis": [float(x) for x in stern_gerlach_axis(setup)],
                "state": _state_payload(post),
            })
        elif name == "optic":
            if qubit["kind"] != "photon":
                raise ScenarioError("optic ops act on photon qubits", block=block)
            element = op.get("element")
            if element == "rotator":
                ang = _number(op.get("angle", 0.0), "angle", block)
                mat = np.array([[np.cos(ang), -np.sin(ang)],
                                [np.sin(ang), np.cos(ang)]], dtype=complex)
            elif element == "waveplate":
                ret = _number(op.get("retardance", 0.0), "angle", block)
                mat = np.diag([1.0, np.exp(1j * ret)])
            elif element == "jones":
                flat = _vector(op.get("matrix"), 8, None, block)
                mat = flat[0::2].reshape(2, 2) + 1j * flat[1::2].reshape(2, 2)
            else:
                raise ScenarioParseError(f"unknown optic element {element!r}",
                                         block=block)
            qubit["state"] = apply_jones(qubit["state"], mat)
            row["state"] = _state_payload(qubit["state"])
        elif name == "measure_polarization":
            if qubit["kind"] != "photon":
                raise ScenarioError("measure_polarization needs a photon qubit",
                                    block=block)
            pol = _polarizer(op, block)(qubit["state"].wavevector)
            transmitted, post, p = measure_polarization(qubit["state"], pol, rng)
            if transmitted:
                qubit["state"] = post
            row.update({"transmitted": bool(transmitted), "probability": float(p)})
        else:
            raise ScenarioParseError(f"unknown operation {name!r}", block=block)
        return row

    def _interferometer(self):
        """The ``interferometer`` block parsed and resolved: (kind, the two arm
        phase ledgers, region_tol, the port amplitudes, the qubit entry or
        None, the transport tolerance); None without the block.  Nothing is
        transported."""
        spec = self.data.get("interferometer")
        if not spec:
            return None
        block = "interferometer"
        kind = spec.get("kind", "fermion")
        if kind not in ("fermion", "photon"):
            raise ScenarioParseError(f"unknown interferometer kind {kind!r}", block=block)
        mass = _number(spec.get("mass", 1.0), "mass", block) if kind == "fermion" else None
        arms = []
        for key in ("arm1", "arm2"):
            arm_spec = spec.get(key)
            if not isinstance(arm_spec, dict) or "worldline" not in arm_spec:
                raise ScenarioParseError(f"{key} needs a worldline reference",
                                         block=block)
            wname = arm_spec["worldline"]
            if wname not in self.worldlines:
                raise ScenarioReferenceError(f"undefined worldline {wname!r}",
                                             block=block)
            wl = self.worldlines[wname]
            end = arm_spec.get("end")
            end = None if end is None else _span(end, block)
            arms.append(arm_phase(wl, kind=kind, mass=mass, end_param=end,
                                  arm_id=key))
        region_tol = _number(spec.get("region_tol", 1e-6), "natural", block)
        amps = spec.get("amplitudes")
        if amps is not None:
            flat = _vector(amps, 4, None, block)
            amplitudes = flat[0] + 1j * flat[1], flat[2] + 1j * flat[3]
        else:
            amplitudes = (1j / np.sqrt(2.0),) * 2
        qname = spec.get("qubit")
        qubit = None
        if qname is not None:
            if qname not in self.qubits:
                raise ScenarioReferenceError(f"undefined qubit {qname!r}", block=block)
            qubit = self.qubits[qname]
            if qubit["kind"] != kind:
                raise ScenarioError("interferometer kind differs from the qubit",
                                    block=block)
        return kind, arms, region_tol, amplitudes, qubit, _tolerance(spec, block)

    def _run_interferometer(self):
        """Generic two-arm block: internal, displacement, transport and total
        phase differences plus the detector-port probability."""
        parsed = self._interferometer()
        if parsed is None:
            return None
        block = "interferometer"
        kind, arms, region_tol, (amp_a, amp_b), qubit, tol = parsed
        a1, a2 = arms
        dtheta = phase_difference(a1, a2, match_tol=region_tol)
        dtheta_int = a2.theta_int - a1.theta_int
        dtheta_dis = displacement_phase(0.5 * (a1.k_lower + a2.k_lower),
                                        a1.event.coords, a2.event.coords)
        row = {
            "theta_int_1": float(a1.theta_int),
            "theta_int_2": float(a2.theta_int),
            "delta_theta_int": float(dtheta_int),
            "delta_theta_dis": float(dtheta_dis),
            "delta_theta": float(dtheta),
        }
        if qubit is not None:
            # the splitter is not modelled dynamically: both components start
            # as the same state, each attached to its own arm's launch label
            finals = []
            for a in arms:
                wl = a.worldline
                t0 = wl.param_span[0]
                if kind == "fermion":
                    launch = FermionState(qubit["state"].psi, wl.event(t0),
                                          wl.velocity(t0))
                    finals.append(fermion_transport(
                        launch, wl, charge_to_mass=qubit["charge_to_mass"],
                        tol=tol).final)
                else:
                    from .photon import PhotonState
                    launch = PhotonState(qubit["state"].pol, wl.event(t0),
                                         wl.velocity(t0))
                    finals.append(photon_transport(launch, wl, tol=tol).final)
            s1, s2 = finals
            if not s1.event.close_to(s2.event, region_tol):
                raise ScenarioError("arm endpoints leave the recombination region",
                                    block=block)
            # identify the two endpoint Hilbert spaces across the small region
            if kind == "fermion":
                s2 = FermionState(s2.psi, s1.event, s1.velocity)
            else:
                from .photon import PhotonState
                s2 = PhotonState(s2.pol, s1.event, s1.wavevector)
            dtheta_trans = transport_phase(s1, s2)
            # the transported states already carry their relative transport
            # phase; recombination adds only the wavepacket phase difference
            _, prob = recombine(s1.normalized(), s2.normalized(), amp_a, amp_b,
                                dtheta)
            row["delta_theta_trans"] = float(dtheta_trans)
            row["delta_theta_tot"] = float(dtheta + dtheta_trans)
            row["probability"] = float(prob)
        return row

    def run(self):
        warnings = self.diagnostics()
        results = self.execute()
        violations = [k for k, limit in CORE_TOLERANCES.items()
                      if self.audit.get(k, 0.0) > limit]
        report = {
            "metadata": {
                "version": __version__,
                "schema": SCHEMA_VERSION,
                "seed": self.seed,
                "tolerances": CORE_TOLERANCES,
                "units": "natural (c = hbar = 1, metre base length)",
                "finite_difference": {
                    "scheme": "4th-order central",
                    "step": self.model.fd_step,
                },
            },
            "results": results,
            "invariant_audit": {
                **{k: float(v) for k, v in self.audit.items()},
                "violations": violations,
            },
            "warnings": warnings,
        }
        return report, violations


COW_DIMENSIONS = {"mass": "mass", "v1": "velocity", "dz": "length",
                  "ell": "length", "g": "acceleration"}


def cow_columns(cow, field="dz", values=None):
    """Report columns of a ``cow`` block, one entry per value of ``field``
    (default: its own value); the four modes are evaluated once over the column."""
    params = {key: _number(cow.get(key), dim, "cow") for key, dim in COW_DIMENSIONS.items()}
    if values is not None:
        params[field] = values
    params = dict(zip(params, np.broadcast_arrays(*np.atleast_1d(*params.values()))))
    phases = cow_phases(**params)
    columns = {"dz_m": from_natural(params["dz"], "length"),
               **{"delta_theta_" + mode: phases[mode] for mode in COW_MODES},
               "fringe_probability": 0.5 * (1.0 + np.cos(phases["exact"]))}
    return {name: column.tolist() for name, column in columns.items()}


def _rows(columns):
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def cow_row(cow):
    """The single report row of a ``cow`` block."""
    return _rows(cow_columns(cow))[0]


def sweep_rows(data):
    """Evaluate the sweep block: one result row per parameter value."""
    sw = data.get("sweep")
    if not isinstance(sw, dict) or not sw:
        raise ScenarioParseError("scenario has no sweep block", block="sweep")
    target = sw.get("parameter", "")
    if not isinstance(target, str) or not target.startswith("cow."):
        raise ScenarioParseError(
            f"only cow.* parameters are sweepable, got {target!r}", block="sweep")
    field = target.split(".", 1)[1]
    if field not in COW_DIMENSIONS:
        raise ScenarioReferenceError(f"unknown sweep parameter {target!r}",
                                     block="sweep")
    if "cow" not in data:
        raise ScenarioReferenceError("sweep refers to a missing cow block",
                                     block="sweep")
    start = _number(sw.get("start"), COW_DIMENSIONS[field], "sweep")
    stop = _number(sw.get("stop", sw.get("start")), COW_DIMENSIONS[field], "sweep")
    steps = _whole(sw.get("steps", 1), 1, "steps", "sweep")
    values = np.linspace(start, stop, steps) if steps > 1 else np.array([start])
    return _rows({"parameter": [target] * len(values), "value": values.tolist(),
                  **cow_columns(data["cow"], field, values)})


def write_csv(path, rows):
    if not rows:
        return
    keys = list(dict.fromkeys(k for row in rows for k in row))
    with open(path, "w") as fh:
        fh.write(",".join(keys) + "\n")
        for row in rows:
            fields = (row.get(k, "") for k in keys)
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in fields) + "\n")


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
