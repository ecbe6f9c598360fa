"""Declarative scenario files: one schema table, one parse, then execution.

Scenarios are YAML with explicit unit suffixes on dimensional values
("2 cm", "2200 m/s", "30 deg"); bare numbers are natural units.  The table
``SCENARIO`` lists the blocks (model, worldlines, qubits, schedule,
interferometer, cow, sweep, output) and the keys each accepts, with each
key's parser and default; any other key is a parse error.
:class:`ScenarioRun` parses and resolves a whole scenario when it is built,
so ``validate`` (build, then :meth:`ScenarioRun.diagnostics`) checks exactly
what ``run`` (build, then :meth:`ScenarioRun.execute`) uses.

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
from .errors import (AdaptationSingular, DomainError, QulineError, ScenarioError,
                     ScenarioParseError, ScenarioReferenceError, ToleranceError,
                     WavevectorMismatch)
from .fermion import FermionState, transport as fermion_transport
from .geometry import TabulatedModel, make_builtin_model
from .interferometry import (COW_MODES, arm_phase, cow_phases, displacement_phase,
                             phase_difference, recombine, transport_phase)
from .measurement import (SternGerlachSetup, circular_polarizer, linear_polarizer,
                          measure_polarization, measure_spin)
from .photon import apply_jones, jones_to_state
from .photon import transport as photon_transport
from .spin_algebra import check_norm, minkowski_dot, spin1_boost
from .units import from_natural, parse_quantity
from .worldline import (circular_worldline, integrate_null_geodesic,
                        integrate_timelike, static_worldline)

SCHEMA_VERSION = 1
CORE_TOLERANCES = {
    "norm_drift": 1e-9,
    "transversality_drift": 1e-9,
}

# advisory validity thresholds (documented heuristics, not hard errors)
COMPTON_CURVATURE_RATIO = 1e-3   # warn when compton / curvature scale exceeds this
ACCELERATION_RATIO = 1e-3        # warn when acceleration x compton exceeds this

# the worldlines each kind of qubit (or interferometer arm) travels
WORLDLINE_KIND = {"fermion": "timelike", "photon": "null"}


# -- parsers: each maps (raw value, block name) to the value ------------------

def _number(dimension=None, positive=False):
    """A finite scalar in natural units; ``dimension`` is the one accepted, or
    a tuple of those accepted, besides a bare number (None accepts any).  A
    ``positive`` one out of range is a domain error."""
    dims = (dimension,) if isinstance(dimension, str) else dimension

    def parse(raw, block):
        try:
            value, dim = parse_quantity(raw)
        except (ValueError, OverflowError) as exc:
            raise ScenarioParseError(str(exc), block=block) from None
        if dims is not None and dim not in (*dims, "natural"):
            what = " or ".join(dims)
            raise ScenarioParseError(f"expected {'an' if what[0] in 'aeiou' else 'a'} {what}"
                                     f" quantity, got {raw!r}", block=block)
        if not np.isfinite(value):
            raise ScenarioParseError(f"expected a finite quantity, got {raw!r}", block=block)
        if positive and value <= 0.0:
            raise DomainError(f"[{block}] must be positive, got {raw!r}")
        return value
    return parse


def _vector(n, dimension=None, nonzero=False):
    """A list of ``n`` numbers, as an array; a ``nonzero`` one has a finite,
    nonzero norm."""
    number = _number(dimension)

    def parse(raw, block):
        if not isinstance(raw, (list, tuple)) or len(raw) != n:
            raise ScenarioParseError(f"expected a list of {n} entries", block=block)
        vector = np.array([number(v, block) for v in raw])
        with np.errstate(over="ignore"):
            if nonzero and not 0.0 < np.linalg.norm(vector) < np.inf:
                raise ScenarioParseError("needs a finite, nonzero norm", block=block)
        return vector
    return parse


def _whole(least, most=None):
    """A whole number >= ``least`` and, if ``most`` is given, <= ``most``."""
    def parse(raw, block):
        if (isinstance(raw, bool) or not isinstance(raw, (int, np.integer)) or raw < least
                or (most is not None and raw > most)):
            bounds = f">= {least}" if most is None else f"from {least} to {most}"
            raise ScenarioParseError(f"must be a whole number {bounds}, got {raw!r}",
                                     block=block)
        return int(raw)
    return parse


def _text(raw, block):
    """A name: a nonempty string."""
    if not isinstance(raw, str) or not raw:
        raise ScenarioParseError(f"expected a name, got {raw!r}", block=block)
    return raw


def _file_name(raw, block):
    """A name for a file in the output directory: no directory part."""
    name = _text(raw, block)
    if Path(name).name != name or name == "..":
        raise ScenarioParseError(f"expected a file name without a directory, got {raw!r}",
                                 block=block)
    return name


def _as_is(raw, block):
    return raw


_span = _number(("time", "length"), positive=True)  # time and length coincide in natural units
_bare = _number("natural")
_angle = _number("angle")
_seed = _whole(0)
_mass = _number("mass", positive=True)
_spinor = _vector(4, nonzero=True)    # two complex numbers as (re, im, re, im)
# one floor for every tolerance: the trajectory stepper, as scipy's DOP853,
# raises an rtol below 100 eps to 100 eps with a warning, or fails to step
# (transports alone would take down to worldline.TOLERANCE_FLOOR, 10 eps)
SMALLEST_TOLERANCE = float(100 * np.finfo(float).eps)


def _tolerance(raw, block):
    """A solver tolerance: a bare number no smaller than SMALLEST_TOLERANCE."""
    value = _bare(raw, block)
    if not value >= SMALLEST_TOLERANCE:
        raise DomainError(f"[{block}] must be at least {SMALLEST_TOLERANCE:.3g}, got {raw!r}")
    return value


def _complex_pair(c):
    """Two complex numbers from four reals (re, im, re, im)."""
    return np.array([c[0] + 1j * c[1], c[2] + 1j * c[3]])


def _one_of(*allowed):
    def parse(raw, block):
        if raw not in allowed:
            raise ScenarioParseError(
                f"must be {' or '.join(map(str, allowed))}, got {raw!r}", block=block)
        return raw
    return parse


def _require(value, kind, block):
    if not isinstance(value, kind):
        what = "a mapping" if kind is dict else "a list"
        raise ScenarioParseError(f"must be {what}, got {value!r}", block=block)


# -- the schema table ----------------------------------------------------------
# A form maps each key to (parser, default).  The parser is one of the
# functions above, a nested form (a sub-mapping), or one of the classes
# below.  A REQUIRED key must be given; a key whose default is None may be
# left out or null, and is then None.

REQUIRED = object()


class Choice(dict):
    """{value: form}: the key's value picks the further keys the mapping accepts."""


class Entries(dict):
    """A form read by every entry of a mapping of named entries."""


class Items(dict):
    """A form read by every entry of a list."""


POLARIZER = {"type": (Choice(linear={"angle": (_angle, 0.0)},
                             circular={"handedness": (_one_of(+1, -1), +1)}), "linear")}

MODEL = {"family": (Choice(
    minkowski={"params": ({}, {})},
    rindler={"params": ({"g": (_number("acceleration"), REQUIRED)}, {})},
    # geometric mass: a length in natural units
    schwarzschild={"params": ({"mass": (_number("length"), REQUIRED)}, {})},
    tabulated={"params": ({"axes": (_as_is, REQUIRED), "tetrads": (_as_is, REQUIRED)}, {})},
), REQUIRED)}

WORLDLINE = Entries(type=(Choice(
    static={"position": (_vector(3), [0, 0, 0]), "span": (_span, 1.0)},
    circular={"radius": (_number("length"), 1.0), "beta": (_number("velocity"), 0.5),
              "revolutions": (_number(positive=True), 1.0)},
    timelike={"start": (_vector(4), [0, 0, 0, 0]),
              "beta": (_vector(3, "velocity"), [0, 0, 0]), "span": (_span, 1.0),
              "tolerance": (_tolerance, 1e-12)},
    null_geodesic={"start": (_vector(4), [0, 0, 0, 0]),
                   "wavevector": (_vector(4), [1, 0, 0, 1]), "span": (_span, 1.0),
                   "tolerance": (_tolerance, 1e-12)},
), REQUIRED))

QUBIT = Entries(kind=(Choice(
    fermion={"state": (_spinor, [1, 0, 0, 0]), "mass": (_mass, 1.0)},
    photon={"jones": (_spinor, [1, 0, 0, 0])},
), REQUIRED), worldline=(_text, REQUIRED))

OP = Items(op=(Choice(
    transport={"worldline": (_text, None), "tolerance": (_tolerance, 1e-12)},
    measure_spin={"orientation": (_vector(3, nonzero=True), [0, 0, 1]),
                  "apparatus_beta": (_vector(3, "velocity"), [0, 0, 0])},
    optic={"element": (Choice(rotator={"angle": (_angle, 0.0)},
                              waveplate={"retardance": (_angle, 0.0)},
                              jones={"matrix": (_vector(8), REQUIRED)}), REQUIRED)},
    measure_polarization={"polarizer": (POLARIZER, {})},
), REQUIRED), qubit=(_text, REQUIRED))

ARM = {"worldline": (_text, REQUIRED), "end": (_number(("time", "length")), None)}
INTERFEROMETER = {
    "kind": (Choice(fermion={"mass": (_mass, 1.0)}, photon={}), "fermion"),
    "arm1": (ARM, REQUIRED), "arm2": (ARM, REQUIRED), "region_tol": (_bare, 1e-6),
    "amplitudes": (_spinor, None), "qubit": (_text, None),
    "tolerance": (_tolerance, None)}

COW_DIMENSIONS = {"mass": "mass", "v1": "velocity", "dz": "length",
                  "ell": "length", "g": "acceleration"}
COW = {key: (_number(dim), REQUIRED) for key, dim in COW_DIMENSIONS.items()}
# rows of one sweep: each costs about 0.5 kB in memory and 0.5 kB of CSV and
# JSON, so the largest sweep stays near half a gigabyte of rows
MAX_SWEEP_STEPS = 10**6
# start and stop are read in the dimension of the swept parameter
SWEEP = {"parameter": (_text, REQUIRED), "start": (_as_is, REQUIRED),
         "stop": (_as_is, None), "steps": (_whole(1, MAX_SWEEP_STEPS), 1)}

SCENARIO = {
    "version": (_one_of(SCHEMA_VERSION), SCHEMA_VERSION), "seed": (_seed, None),
    "model": (MODEL, {"family": "minkowski"}), "worldlines": (WORLDLINE, {}),
    "qubits": (QUBIT, {}), "schedule": (OP, []), "interferometer": (INTERFEROMETER, None),
    "cow": (COW, None), "sweep": (SWEEP, None),
    "output": ({"json": (_file_name, None), "csv": (_file_name, None)}, {}),
}


def _select(spec, form, block):
    """``form`` with the form that the value of each Choice key picks."""
    merged = dict(form)
    for key, (parse, default) in form.items():
        if isinstance(parse, Choice):
            value = spec.get(key, default)
            if value is REQUIRED:
                raise ScenarioParseError(f"missing key {key!r}", block=block)
            if not isinstance(value, str) or value not in parse:
                raise ScenarioParseError(
                    f"unknown {key} {value!r} (known: {', '.join(parse)})", block=block)
            merged.update(_select(spec, parse[value], block))
    return merged


def _parse(spec, form, block):
    """The mapping ``spec`` read by ``form``: {key: value} over every key the
    form accepts, defaults included."""
    _require(spec, dict, block)
    form = _select(spec, form, block)
    for key in spec:
        if key not in form:
            raise ScenarioParseError(f"unknown key {key!r} (known: {', '.join(form)})",
                                     block=block)
    values = {}
    for key, (parse, default) in form.items():
        raw = spec.get(key, default)
        where = f"{block}.{key}" if block else key
        if raw is REQUIRED:
            raise ScenarioParseError(f"missing key {key!r}", block=block)
        if isinstance(parse, Choice) or (raw is None and default is None):
            values[key] = raw
        elif isinstance(parse, Entries):
            _require(raw, dict, where)
            values[key] = {name: _parse(entry, parse, f"{where}.{name}")
                           for name, entry in raw.items()}
        elif isinstance(parse, Items):
            _require(raw, list, where)
            values[key] = [_parse(entry, parse, f"{where}[{idx}]")
                           for idx, entry in enumerate(raw)]
        elif isinstance(parse, dict):
            values[key] = _parse(raw, parse, where)
        else:
            values[key] = parse(raw, where)
    return values


def _lookup(entries, name, what, block):
    if name not in entries:
        raise ScenarioReferenceError(f"undefined {what} {name!r}", block=block)
    return entries[name]


def load_scenario(path):
    """The blocks of a scenario file, unparsed; an empty block counts as absent."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
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
    return {key: value for key, value in data.items() if value is not None}


def build_model(model):
    """The spacetime of a parsed ``model`` block."""
    family, params = model["family"], model["params"]
    if family == "tabulated":
        try:
            return TabulatedModel(params["axes"], np.asarray(params["tetrads"], dtype=float))
        except (QulineError, TypeError, ValueError) as exc:
            raise ScenarioParseError(f"tabulated params: {exc}", block="model") from None
    return make_builtin_model(family, list(params.values()))


def build_worldline(model, name, w):
    """The worldline of a parsed ``worldlines`` entry."""
    block = f"worldlines.{name}"
    if w["type"] == "static":
        try:
            return static_worldline(model, w["position"], w["span"])
        except DomainError:
            raise
        except QulineError as exc:      # a tetrad that is not static and time-aligned
            raise ScenarioError(str(exc), block=block) from None
    if w["type"] == "circular":
        if model.name != "minkowski":
            raise ScenarioError("a circular worldline needs the minkowski model", block=block)
        return circular_worldline(model, radius=w["radius"], beta=w["beta"],
                                  revolutions=w["revolutions"])
    if w["type"] == "timelike":
        if sum(b * b for b in w["beta"].tolist()) >= 1.0:   # Python floats overflow unwarned
            raise ScenarioError("beta must be subluminal", block=block)
        integrate = partial(integrate_timelike, model, None, w["start"],
                            spin1_boost(w["beta"])[:, 0])
    else:
        try:
            check_norm(w["wavevector"], 0, "wavevector must be null and future-pointing")
        except QulineError as exc:
            raise ScenarioError(str(exc), block=block) from None
        integrate = partial(integrate_null_geodesic, model, w["start"], w["wavevector"])
    try:
        return integrate(span=w["span"], tol=w["tolerance"])
    except ToleranceError as exc:       # the drift of a label, or a step size underflow
        raise ToleranceError(f"[{block}] {exc}", exc.achieved, exc.requested) from None


def _jones_matrix(op):
    """The 2x2 matrix of an ``optic`` op's element."""
    if op["element"] == "rotator":
        c, s = np.cos(op["angle"]), np.sin(op["angle"])
        return np.array([[c, -s], [s, c]], dtype=complex)
    if op["element"] == "waveplate":
        return np.diag([1.0, np.exp(1j * op["retardance"])])
    flat = op["matrix"]
    return flat[0::2].reshape(2, 2) + 1j * flat[1::2].reshape(2, 2)


def _carry(qubit, state, wl, tol, n_samples=201):
    """Transport ``state`` along ``wl`` as ``qubit``'s kind is transported."""
    if qubit["kind"] == "fermion":
        return fermion_transport(state, wl, tol=tol, n_samples=n_samples)
    return photon_transport(state, wl, tol=tol, n_samples=n_samples)


def _state_payload(state):
    fermion, amp = isinstance(state, FermionState), state.amplitude
    return {"components" if fermion else "polarization":
            [float(v) for pair in zip(amp.real, amp.imag) for v in pair],
            "event": [float(c) for c in state.event.coords],
            "velocity" if fermion else "wavevector": [float(v) for v in state.label]}


class ScenarioRun:
    """One scenario, parsed and resolved when built: every key, reference,
    kind and parameter is checked, the interferometer's arm phases and the
    ``cow`` row are evaluated, and each schedule op becomes a callable, which
    :meth:`execute` only runs, from the initial states each time.  Each
    transport must start where the schedule has left its qubit: at the end of
    its previous transport, or else at its initial label."""

    def __init__(self, data, seed=None):
        blocks = _parse(data, SCENARIO, "")
        if seed is None:        # a seed given here wins over the file's, which wins over 0
            seed = 0 if blocks["seed"] is None else blocks["seed"]
        self.seed = _seed(seed, "seed")
        self.model = build_model(blocks["model"])
        self.worldlines = {name: build_worldline(self.model, name, spec)
                           for name, spec in blocks["worldlines"].items()}
        self.qubits = {name: self._qubit(name, spec)
                       for name, spec in blocks["qubits"].items()}
        labels = {name: (q["state"].event, q["state"].label) for name, q in self.qubits.items()}
        self.ops = [self._op(idx, op, labels) for idx, op in enumerate(blocks["schedule"])]
        self.interferometer = (None if blocks["interferometer"] is None
                               else self._interferometer(blocks["interferometer"]))
        self.cow = None if blocks["cow"] is None else cow_row(blocks["cow"])
        self.output = blocks["output"]

    # -- parsing and resolution ----------------------------------------------
    def _worldline(self, name, kind, block):
        """The worldline ``name``, which must suit a ``kind`` qubit or arm."""
        wl = _lookup(self.worldlines, name, "worldline", block)
        if wl.kind != WORLDLINE_KIND[kind]:
            raise ScenarioError(f"a {kind} needs a {WORLDLINE_KIND[kind]} worldline", block=block)
        return wl

    def _qubit(self, name, q):
        wl = self._worldline(q["worldline"], q["kind"], f"qubits.{name}")
        start, u0 = wl.label_at(wl.param_span[0])
        if q["kind"] == "fermion":
            state = FermionState(_complex_pair(q["state"]), start, u0)
            return {**q, "state": state.normalized()}
        jones = _complex_pair(q["jones"])
        try:
            state = jones_to_state(jones / np.linalg.norm(jones), u0, start)
        except AdaptationSingular as exc:
            raise AdaptationSingular(f"[qubits.{name}] {exc}") from None
        return {**q, "state": state}

    def _op(self, idx, op, labels):
        """Schedule entry ``idx`` resolved: the head of its report row, and a callable
        of the random generator that performs the op and returns the rest of it.
        ``labels`` maps each qubit to its (event, label); a transport moves it."""
        block = f"schedule[{idx}]"
        name, qubit = op["op"], _lookup(self.qubits, op["qubit"], "qubit", block)
        head = {"step": idx, "op": name, "qubit": op["qubit"]}
        if name == "transport":
            wl = self._worldline(op["worldline"] or qubit["worldline"], qubit["kind"], block)
            if not wl.starts_at(*labels[op["qubit"]]):
                raise ScenarioError("the worldline does not start at the qubit's label",
                                    block=block)
            labels[op["qubit"]] = wl.label_at(wl.param_span[1])
            return head, partial(self._transport, op["qubit"], wl, op["tolerance"])
        needs = "fermion" if name == "measure_spin" else "photon"
        if qubit["kind"] != needs:
            raise ScenarioError(f"{name} needs a {needs} qubit", block=block)
        if name == "measure_spin":
            boost = spin1_boost(op["apparatus_beta"])   # DomainError if |beta| >= 1
            m = boost @ np.array([0.0, *op["orientation"] / np.linalg.norm(op["orientation"])])
            return head, partial(self._measure_spin, op["qubit"], m, boost[:, 0])
        if name == "optic":
            return head, partial(self._optic, op["qubit"], _jones_matrix(op), block)
        pol = op["polarizer"]
        polarizer = (partial(linear_polarizer, pol["angle"]) if pol["type"] == "linear"
                     else partial(circular_polarizer, pol["handedness"]))
        return head, partial(self._measure_polarization, op["qubit"], polarizer)

    def _interferometer(self, mz):
        """The ``interferometer`` block resolved, its arm phases evaluated: a
        callable that returns the report row, transporting the qubit, if there
        is one, along both arms."""
        block = "interferometer"
        kind = mz["kind"]
        arms = [arm_phase(self._worldline(mz[key]["worldline"], kind, block), kind=kind,
                          mass=mz.get("mass"), end_param=mz[key]["end"], arm_id=key)
                for key in ("arm1", "arm2")]
        a1, a2 = arms
        try:
            dtheta = phase_difference(a1, a2)
        except WavevectorMismatch as exc:
            raise ScenarioError(str(exc), block=block) from None
        dtheta_dis = displacement_phase(0.5 * (a1.k_lower + a2.k_lower),
                                        a1.event.coords, a2.event.coords)
        row = {"theta_int_1": float(a1.theta_int), "theta_int_2": float(a2.theta_int),
               "delta_theta_int": float(a2.theta_int - a1.theta_int),
               "delta_theta_dis": float(dtheta_dis), "delta_theta": float(dtheta)}
        if mz["qubit"] is None:
            for key in ("amplitudes", "tolerance"):
                if mz[key] is not None:
                    raise ScenarioParseError(f"{key} needs a qubit", block=f"{block}.{key}")
            return lambda: row
        qubit = _lookup(self.qubits, mz["qubit"], "qubit", block)
        if qubit["kind"] != kind:
            raise ScenarioError("interferometer kind differs from the qubit", block=block)
        # the transports end where the arm worldlines end, so the phases must too
        for key, a in zip(("arm1", "arm2"), arms):
            if a.end_param != a.worldline.param_span[1]:
                raise ScenarioError("end must be the worldline's end when the "
                                    "interferometer carries a qubit", block=f"{block}.{key}")
        if not a1.event.close_to(a2.event, mz["region_tol"]):
            raise ScenarioError("arm endpoints leave the recombination region", block=block)
        a, b = ((1j / np.sqrt(2.0),) * 2 if mz["amplitudes"] is None
                else _complex_pair(mz["amplitudes"]))
        if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-9:
            raise ScenarioParseError("amplitudes must satisfy |a|^2 + |b|^2 = 1", block=block)
        tol = 1e-12 if mz["tolerance"] is None else mz["tolerance"]
        return partial(self._recombine, row, dtheta, arms, mz["qubit"], (a, b), tol)

    # -- validation --------------------------------------------------------
    def diagnostics(self):
        """Domain-of-applicability advisories (wavepacket vs curvature scale,
        moderate acceleration); purely informational.  Everything else was
        checked when the run was built."""
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
            if curvature_scale and compton / curvature_scale > COMPTON_CURVATURE_RATIO:
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
        return notes

    # -- execution ---------------------------------------------------------
    def execute(self):
        self.states = {name: q["state"] for name, q in self.qubits.items()}
        self.audit = dict.fromkeys(CORE_TOLERANCES, 0.0)
        rng = np.random.default_rng(self.seed)
        schedule = []
        for head, perform in self.ops:
            self._present(head["qubit"], f"schedule[{head['step']}]")
            schedule.append({**head, **perform(rng)})
        results = {"schedule": schedule}
        if self.cow is not None:
            results["cow"] = self.cow
        if self.interferometer is not None:
            results["interferometer"] = self.interferometer()
        return results

    def _present(self, name, block):
        """Refuse an op on a photon that a polarizer has absorbed."""
        if self.states[name] is None:
            raise DomainError(f"[{block}] qubit {name!r} was absorbed by a polarizer")

    def _audit(self, key, drift):
        # np.maximum keeps a NaN drift, which then counts as a violation
        self.audit[key] = np.maximum(self.audit[key], drift)

    def _transport(self, name, wl, tol, rng):
        res = _carry(self.qubits[name], self.states[name], wl, tol)
        for key, drift in res.audits.items():
            self._audit(key, drift)
        self.states[name] = res.final
        return {"state": _state_payload(res.final), "norm_drift": float(res.norm_drift)}

    def _measure_spin(self, name, m, v, rng):
        setup = SternGerlachSetup(m, v, self.states[name].velocity)
        outcome, post, probs = measure_spin(self.states[name], setup, rng)
        self.states[name] = post
        return {"outcome": int(outcome), "p_plus": float(probs[+1]), "p_minus": float(probs[-1]),
                "axis": [float(x) for x in setup.projectors.axis],
                "state": _state_payload(post)}

    def _optic(self, name, matrix, block, rng):
        state = self.states[name] = apply_jones(self.states[name], matrix)
        norm = state.norm_squared()
        if not 0.0 < norm < np.inf:
            raise DomainError(f"[{block}] the optic leaves no photon (norm squared {abs(norm)})")
        return {"state": _state_payload(state)}

    def _measure_polarization(self, name, polarizer, rng):
        state = self.states[name]
        transmitted, post, p = measure_polarization(state, polarizer(state.wavevector), rng)
        self.states[name] = post        # None once absorbed
        return {"transmitted": bool(transmitted), "probability": float(p)}

    def _recombine(self, row, dtheta, arms, name, amplitudes, tol):
        """The interferometer row completed by the transport and total phase
        differences and the detector-port probability."""
        self._present(name, "interferometer")
        state = self.states[name]
        # the splitter is not modelled dynamically: both components start
        # as the same state, each attached to its own arm's launch label;
        # only the end states are kept, so each arm is read at its ends
        finals = []
        for a in arms:
            launch = type(state)(state.amplitude, *a.worldline.label_at(a.worldline.param_span[0]))
            finals.append(_carry(self.qubits[name], launch, a.worldline, tol, n_samples=2).final)
        s1, s2 = finals
        # identify the two endpoint Hilbert spaces across the small region
        s2 = type(s2)(s2.amplitude, s1.event, s1.label)
        dtheta_trans = transport_phase(s1, s2)
        # the transported states already carry their relative transport
        # phase; recombination adds only the wavepacket phase difference
        amp_a, amp_b = amplitudes
        _, prob = recombine(s1.normalized(), s2.normalized(), amp_a, amp_b, dtheta)
        return {**row, "delta_theta_trans": float(dtheta_trans),
                "delta_theta_tot": float(dtheta + dtheta_trans), "probability": float(prob)}

    def run(self):
        warnings = self.diagnostics()
        results = self.execute()
        violations = [k for k, limit in CORE_TOLERANCES.items()
                      if not self.audit[k] <= limit]
        report = {
            "metadata": {
                "version": __version__, "schema": SCHEMA_VERSION, "seed": self.seed,
                "tolerances": CORE_TOLERANCES,
                "units": "natural (c = hbar = 1, metre base length)",
                "finite_difference": {"scheme": "4th-order central",
                                      "step": self.model.fd_step},
            },
            "results": results,
            "invariant_audit": {**{k: float(v) for k, v in self.audit.items()},
                                "violations": violations},
            "warnings": warnings,
        }
        return report, violations


def cow_columns(cow, field="dz", values=None):
    """Report columns of a parsed ``cow`` block, with ``field`` swept over
    ``values`` if given: a list per column that depends on the swept field,
    one value per column that does not (``dz_m`` unless dz is swept).  The
    four modes are evaluated once, on the scalars and the array unbroadcast."""
    params = dict(cow)
    if values is not None:
        params[field] = values
    phases = cow_phases(**params)
    columns = {"dz_m": from_natural(params["dz"], "length"),
               **{"delta_theta_" + mode: phases[mode] for mode in COW_MODES},
               "fringe_probability": 0.5 * (1.0 + np.cos(phases["exact"]))}
    return {name: np.asarray(column).tolist() for name, column in columns.items()}


def _rows(columns):
    """Row dicts keyed in column order, one per entry of the equal-length list
    columns; the row template holds each single-valued column once."""
    lists = {name: column for name, column in columns.items() if type(column) is list}
    # copies of a pre-sized template never resize, and filling a column at a
    # time builds no tuple per row
    template = {name: None if name in lists else column for name, column in columns.items()}
    rows = [template.copy() for _ in next(iter(lists.values()), ())]
    for name, column in lists.items():
        for row, value in zip(rows, column):
            row[name] = value
    return rows


def cow_row(cow):
    """The single report row of a parsed ``cow`` block: with nothing swept,
    each of its columns is one value."""
    return cow_columns(cow)


def sweep_rows(data):
    """Evaluate the sweep block: one result row per parameter value."""
    blocks = _parse(data, SCENARIO, "")
    sw = blocks["sweep"]
    if sw is None:
        raise ScenarioParseError("scenario has no sweep block", block="sweep")
    target = sw["parameter"]
    if not target.startswith("cow."):
        raise ScenarioParseError(
            f"only cow.* parameters are sweepable, got {target!r}", block="sweep")
    field = target.split(".", 1)[1]
    if field not in COW_DIMENSIONS:
        raise ScenarioReferenceError(f"unknown sweep parameter {target!r}", block="sweep")
    if blocks["cow"] is None:
        raise ScenarioReferenceError("sweep refers to a missing cow block", block="sweep")
    number = _number(COW_DIMENSIONS[field])
    start = number(sw["start"], "sweep.start")
    stop = start if sw["stop"] is None else number(sw["stop"], "sweep.stop")
    values = np.linspace(start, stop, sw["steps"]) if sw["steps"] > 1 else np.array([start])
    return _rows({"parameter": target, "value": values.tolist(),
                  **cow_columns(blocks["cow"], field, values)})


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
