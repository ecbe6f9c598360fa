"""Span and count recorder for the traced benchmark run.

The recorder sits entirely outside the library.  ``Tracer.install`` replaces
quline's public functions and methods with timing wrappers in every module
namespace where callers look them up (``quline.fermion.transport`` and its
alias ``quline.scenario.fermion_transport`` alike), and ``uninstall`` puts
the originals back, so an untraced pass runs the unmodified code.

Each wrapper records one span ``(span_id, parent_id, name_id, case_id,
start_ns, end_ns)``.  A span name is ``<layer>.<function>``; the layer is the
quline module.  Besides spans the recorder keeps solver counts read from the
results ``solve_ivp`` returns (``nfev`` and accepted steps), attributed to
the innermost open span, which is the library function that asked for the
solve.

Dense-output kinematics are counted at the ``OdeSolution.__call__``
boundary, for solutions produced while a ``worldline.*`` span was open: one
call per evaluation of an integrated worldline's trajectory, nested calls
included (``coordinate_velocity`` evaluates position and velocity
separately and counts twice).  Closed-form worldlines (static, flat
circular) have no dense output and count zero.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

perf_ns = time.perf_counter_ns

# Module-level functions, wrapped under every alias in quline's namespaces.
FUNCTIONS = [
    ("quline.geometry", "connection_finite_difference"),
    ("quline.worldline", "integrate_timelike"),
    ("quline.worldline", "integrate_null_geodesic"),
    ("quline.fermion", "transport"),
    ("quline.fermion", "transport_rest_frame"),
    ("quline.photon", "transport"),
    ("quline.composite", "make_basis_pair_field"),
    ("quline.composite", "teleport"),
    ("quline.measurement", "measure_spin"),
    ("quline.measurement", "measure_polarization"),
    ("quline.interferometry", "cow_phase"),
    ("quline.interferometry", "arm_phase"),
    ("quline.units", "parse_quantity"),
    ("quline.scenario", "load_scenario"),
    ("quline.scenario", "sweep_rows"),
    ("quline.scenario", "cow_row"),
    ("quline.scenario", "write_json"),
    ("quline.scenario", "write_csv"),
    ("quline.cli", "main"),
]

# (module, class, method) wrapped on the class; span name given explicitly.
METHODS = [
    ("quline.worldline", "Worldline", "norm_audit", "worldline.norm_audit"),
    ("quline.scenario", "ScenarioRun", "__init__", "scenario.build"),
    ("quline.scenario", "ScenarioRun", "execute", "scenario.execute"),
]

# Spans whose solves are spin or polarization transports.
TRANSPORT_OWNERS = ("fermion.transport", "fermion.transport_rest_frame",
                    "photon.transport")

LAYERS = ("geometry", "worldline", "fermion", "photon", "solver", "composite",
          "measurement", "interferometry", "units", "scenario", "cli")


class Tracer:
    """In-memory span store plus the patches that feed it.

    Span ids come from one counter shared by all threads; each thread keeps
    its own stack of open spans.  A span opened on a thread with an empty
    stack (the sweep's pool workers) takes the main thread's innermost open
    span as its parent, which is the ``sweep_rows`` call waiting on it.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._next_id = itertools.count(1).__next__
        self._main_ident = threading.main_thread().ident
        self._main_stack = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self.case = -1
        self.reset()
        self._rhs_ids = {self.name_id(o + ".rhs") for o in TRANSPORT_OWNERS}
        self._basis_id = self.name_id("composite.make_basis_pair_field")
        self._kin_id = self.name_id("worldline.kinematics")

    def reset(self):
        """Drop recorded spans and counts; patches stay as they are.

        Spans go into a flat int64 array, six numbers per span, rather than
        a list of tuples: a growing heap of tuples makes the garbage
        collector rescan them and inflates the tracing overhead severalfold.
        ``array.extend`` from a tuple runs in C without releasing the
        interpreter lock, so pool threads never interleave inside a record.
        """
        self.records = array("q")
        self.counts = Counter()
        self.maxima = defaultdict(float)

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- span recording ----------------------------------------------------
    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1][0]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1][0]
        return 0

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``after(result)`` runs once the span has closed, to read solver
        statistics or audits off the returned object.
        """
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = tracer._next_id()
            stack.append((sid, nid))
            t0 = perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_ns()
                stack.pop()
                tracer.records.extend((sid, parent, nid, tracer.case, t0, t1))
            if after is not None:
                after(result)
            return result

        return traced

    def count(self, key, value=1):
        with self._lock:
            self.counts[key] += value

    def record_max(self, key, value):
        with self._lock:
            self.maxima[key] = max(self.maxima[key], float(value))

    # -- patches -----------------------------------------------------------
    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper, extra_namespaces=()):
        """Replace ``original`` under every name bound to it in quline."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "quline" or n.startswith("quline.")]
        for module in [*namespaces, *extra_namespaces]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self):
        """Wrap the public surface; all quline modules must be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import scipy.integrate
        from scipy.integrate import OdeSolution

        from quline import geometry

        after = {
            "fermion.transport": self._after_fermion,
            "fermion.transport_rest_frame": self._after_fermion,
            "photon.transport": self._after_photon,
            "scenario.sweep_rows": lambda rows: self.count("scenario.rows", len(rows)),
        }
        for module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            name = module_name.split(".")[-1] + "." + attr
            self._patch_everywhere(original, self.wrap(name, original, after.get(name)))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._patch(cls, attr, self.wrap(name, vars(cls)[attr]))
        for cls in vars(geometry).values():
            if (isinstance(cls, type) and issubclass(cls, geometry.SpacetimeModel)
                    and "connection" in vars(cls)):
                self._patch(cls, "connection",
                            self.wrap("geometry.connection", vars(cls)["connection"]))
        original_solve = scipy.integrate.solve_ivp
        self._patch_everywhere(original_solve, self._solve_ivp_wrapper(original_solve),
                               extra_namespaces=(scipy.integrate,))
        self._patch(OdeSolution, "__call__", self._dense_output_wrapper(OdeSolution.__call__))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _after_fermion(self, result):
        self.record_max("fermion.norm_drift", result.norm_drift)

    def _after_photon(self, result):
        self.record_max("photon.transversality_drift",
                        result.audits["transversality_drift"])

    def _solve_ivp_wrapper(self, original):
        tracer = self
        solve_span = self.wrap("solver.solve_ivp", original)

        @functools.wraps(original)
        def solve_ivp(fun, t_span, y0, *args, **kwargs):
            stack = tracer._stack()
            owner = tracer.names[stack[-1][1]] if stack else "none"
            in_basis_field = any(nid == tracer._basis_id for _, nid in stack)
            sol = solve_span(tracer.wrap(owner + ".rhs", fun), t_span, y0,
                             *args, **kwargs)
            tracer.count(owner + ":solves")
            tracer.count(owner + ":nfev", int(sol.nfev))
            tracer.count(owner + ":steps", len(sol.t) - 1)
            if in_basis_field:
                tracer.count("composite.basis_field_solves")
            if owner.startswith("worldline.") and sol.sol is not None:
                sol.sol.quline_bench_trajectory = True
            return sol

        return solve_ivp

    def _dense_output_wrapper(self, original):
        tracer = self
        kinematics = self.wrap("worldline.kinematics", original)

        @functools.wraps(original)
        def call(sol, t):
            if getattr(sol, "quline_bench_trajectory", False):
                return kinematics(sol, t)
            return original(sol, t)

        return call

    # -- analysis ----------------------------------------------------------
    def spans(self):
        """Recorded spans as an (n, 6) int64 array, columns as in ``COLUMNS``."""
        return np.frombuffer(self.records, dtype=np.int64).reshape(-1, 6)

    def summarize(self):
        """Totals of one pass: calls, inclusive and self time per span name.

        Self time is a span's duration minus the union of its children's
        intervals; the union matters where pool threads run children of one
        span side by side.  Kinematics calls made directly inside a
        transport RHS span are counted here from the parent links.
        """
        rec = self.spans()
        sid, parent, nid, _, t0, t1 = rec.T
        dur = t1 - t0
        n_names = len(self.names)
        calls = np.bincount(nid, minlength=n_names)
        total = np.bincount(nid, weights=dur, minlength=n_names)
        covered = _children_cover(sid, parent, t0, t1)
        self_time = np.bincount(nid, weights=dur - covered, minlength=n_names)
        order = np.argsort(sid)
        pos = np.searchsorted(sid[order], parent).clip(0, max(len(sid) - 1, 0))
        parent_nid = np.where(sid[order][pos] == parent, nid[order][pos], -1)
        in_rhs = (nid == self._kin_id) & np.isin(parent_nid, list(self._rhs_ids))
        counts = dict(self.counts)
        counts["worldline.kinematics_in_rhs"] = int(in_rhs.sum())
        used = np.flatnonzero(calls)
        return {
            "calls": {self.names[k]: int(calls[k]) for k in used},
            "total_ns": {self.names[k]: float(total[k]) for k in used},
            "self_ns": {self.names[k]: float(self_time[k]) for k in used},
            "counts": counts,
            "maxima": dict(self.maxima),
            "spans": len(rec),
        }

    def write(self, path, rec):
        """Write spans ``rec`` (as from ``spans()``) to a compressed ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names),
                            **{c: rec[:, i] for i, c in enumerate(COLUMNS)})


COLUMNS = ("span_id", "parent_id", "name_id", "case_id", "start_ns", "end_ns")


def _children_cover(sid, parent, t0, t1):
    """Per span, the length of the union of its children's intervals.

    Children are sorted by (parent, start); each group is lifted by its own
    offset so that one running maximum of end times serves every group.
    """
    covered = np.zeros(len(sid))
    if not len(sid):
        return covered
    order = np.lexsort((t0, parent))
    groups, grp = np.unique(parent[order], return_inverse=True)
    base = t0.min()
    lift = grp * (int(t1.max() - base) + 1)
    start = t0[order] - base + lift
    end = t1[order] - base + lift
    reach = np.concatenate([[np.iinfo(np.int64).min], np.maximum.accumulate(end)[:-1]])
    gain = np.maximum(0, end - np.maximum(start, reach))
    per_parent = np.bincount(grp, weights=gain, minlength=len(groups))
    order_sid = np.argsort(sid)
    pos = np.searchsorted(sid[order_sid], groups).clip(0, len(sid) - 1)
    hit = sid[order_sid][pos] == groups
    covered[order_sid[pos[hit]]] = per_parent[hit]
    return covered


def merge_summaries(summaries):
    """Sum the totals of several passes."""
    out = {"calls": Counter(), "total_ns": Counter(), "self_ns": Counter(),
           "counts": Counter(), "maxima": defaultdict(float), "spans": 0}
    for s in summaries:
        for key in ("calls", "total_ns", "self_ns", "counts"):
            out[key].update(s[key])
        for key, value in s["maxima"].items():
            out["maxima"][key] = max(out["maxima"][key], value)
        out["spans"] += s["spans"]
    return out


def layer_metrics(summary, n_cases, budgets):
    """Per-layer metrics, per traced case unless the name says otherwise.

    ``budgets`` maps the audited drift names to their tolerance, so drift
    headroom reads as achieved / budget.
    """
    calls, total, self_ns, counts = (summary["calls"], summary["total_ns"],
                                     summary["self_ns"], summary["counts"])
    maxima = summary["maxima"]

    def per_case(value):
        return value / n_cases

    def ms(*names):
        return per_case(sum(total.get(n, 0) for n in names)) / 1e6

    def n_calls(*names):
        return per_case(sum(calls.get(n, 0) for n in names))

    def ratio(num, den):
        return num / den if den else 0.0

    def solver(owner, what):
        return counts.get(f"{owner}:{what}", 0)

    wl_owners = ("worldline.integrate_timelike", "worldline.integrate_null_geodesic")
    fermion_owners = ("fermion.transport", "fermion.transport_rest_frame")
    transport_rhs = sum(calls.get(o + ".rhs", 0) for o in TRANSPORT_OWNERS)
    layer_self = Counter()
    for name, value in self_ns.items():
        layer_self[name.split(".", 1)[0]] += value

    m = {
        "geometry.connection_calls": n_calls("geometry.connection"),
        "geometry.connection_ms": ms("geometry.connection"),
        "geometry.fd_connection_calls": n_calls("geometry.connection_finite_difference"),
        "worldline.integrate_calls": n_calls(*wl_owners),
        "worldline.integrate_ms": ms(*wl_owners),
        "worldline.nfev": per_case(sum(solver(o, "nfev") for o in wl_owners)),
        "worldline.kinematics_calls": n_calls("worldline.kinematics"),
        "worldline.kinematics_ms": ms("worldline.kinematics"),
        "worldline.kinematics_per_rhs": ratio(
            counts.get("worldline.kinematics_in_rhs", 0), transport_rhs),
        "fermion.transport_calls": n_calls("fermion.transport"),
        "fermion.transport_ms": ms("fermion.transport"),
        "fermion.nfev": per_case(solver("fermion.transport", "nfev")),
        "fermion.rest_transport_ms": ms("fermion.transport_rest_frame"),
        "fermion.rest_nfev": per_case(solver("fermion.transport_rest_frame", "nfev")),
        "fermion.rhs_per_step": ratio(
            sum(solver(o, "nfev") for o in fermion_owners),
            sum(solver(o, "steps") for o in fermion_owners)),
        "fermion.norm_drift_headroom":
            maxima.get("fermion.norm_drift", 0.0) / budgets["norm_drift"],
        "photon.transport_calls": n_calls("photon.transport"),
        "photon.transport_ms": ms("photon.transport"),
        "photon.nfev": per_case(solver("photon.transport", "nfev")),
        "photon.transversality_headroom":
            maxima.get("photon.transversality_drift", 0.0)
            / budgets["transversality_drift"],
        "solver.solves": n_calls("solver.solve_ivp"),
        "composite.basis_field_ms": ms("composite.make_basis_pair_field"),
        "composite.solves_per_basis_field": ratio(
            counts.get("composite.basis_field_solves", 0),
            calls.get("composite.make_basis_pair_field", 0)),
        "composite.teleport_ms": ms("composite.teleport"),
        "measurement.calls": n_calls("measurement.measure_spin",
                                     "measurement.measure_polarization"),
        "measurement.ms": ms("measurement.measure_spin",
                             "measurement.measure_polarization"),
        "interferometry.cow_phase_calls": n_calls("interferometry.cow_phase"),
        "interferometry.cow_phase_ms": ms("interferometry.cow_phase"),
        "interferometry.arm_phase_ms": ms("interferometry.arm_phase"),
        "units.parse_calls": n_calls("units.parse_quantity"),
        "units.parse_ms": ms("units.parse_quantity"),
        "units.parse_calls_per_row": ratio(calls.get("units.parse_quantity", 0),
                                           counts.get("scenario.rows", 0)),
        "scenario.load_ms": ms("scenario.load_scenario"),
        "scenario.build_ms": ms("scenario.build"),
        "scenario.execute_ms": ms("scenario.execute"),
        "scenario.write_ms": ms("scenario.write_json", "scenario.write_csv"),
        "scenario.sweep_ms": ms("scenario.sweep_rows"),
        "scenario.cow_row_busy_ms": ms("scenario.cow_row"),
        "cli.main_ms": ms("cli.main"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = per_case(layer_self.get(layer, 0)) / 1e6
    m["trace.spans_per_case"] = per_case(summary["spans"])
    return m
