"""The three benchmark workloads: seeded inputs, the timed case, its checks.

Each workload builds a fixed pool of cases from the seed at set-up, with the
references its checks need, and the closed loop cycles through the pool.
Inputs that set a case's cost (revolutions, rows, spans, tolerances) are
fixed per workload; the seed varies the physics inside them (radii,
directions, states, sweep ranges), drawn stratified where the cost depends
on them, so that runs with different seeds measure the same amount of work.

A case returns what it computed; ``check`` turns that into a list of
``(name, achieved_error, tolerance)``.  A case fails when it raises or when
any achieved error exceeds its tolerance.  With ``corrupt=True`` every
reference is shifted on purpose, so that every case must fail.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import zlib
from pathlib import Path

import numpy as np
import yaml

from quline import (cli, composite, fermion, geometry, interferometry, photon,
                    scenario, spin_algebra, units, worldline)

M = 1.0                 # Schwarzschild mass; radii are in units of M
TOL = 1e-12             # solver tolerance of every worldline and transport
BUDGETS = scenario.CORE_TOLERANCES

GEODETIC_TOL = 1e-10    # final rest-frame spinor against the closed form
COV_REST_TOL = 1e-8     # covariant against rest-frame transport, same orbit
ETHETA_TOL = 1e-12      # e_theta component of the transported polarization
COW_REL_TOL = 1e-13     # sweep rows against cow_phase(..., dps=60)
FIDELITY_TOL = 1e-9     # teleportation fidelity against 1

# Size of the reference shift under ``corrupt``: far above every tolerance.
CORRUPTION = 1e-3


def _rng(seed, name):
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _stratified(rng, lo, hi, n):
    """One uniform draw in each of n equal strata of [lo, hi], shuffled."""
    return rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n)


def _unit_spinor(rng):
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return z / np.linalg.norm(z)


def _drift_checks(prefix, audits):
    return [(f"{prefix}_{key}", float(audits[key]), BUDGETS[key]) for key in audits]


class Workload:
    """Common surface: ``setup`` builds ``pool``; ``run`` is the timed case."""

    name = ""
    why = ""
    input_size = ""
    case_mix = ""
    tail_percentile = 90

    def __init__(self, root, seed, workdir, corrupt=False):
        self.root = Path(root)
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.corrupt = corrupt
        self.rng = _rng(self.seed, self.name)
        self.pool = []

    def describe(self):
        return {"why": self.why, "input_size": self.input_size,
                "case_mix": self.case_mix, "pool_size": len(self.pool),
                "tail_percentile": self.tail_percentile}

    def setup(self):
        """Generate the pool and its references, then run one warm-up case."""
        raise NotImplementedError

    def run(self, case):
        raise NotImplementedError

    def check(self, case, out):
        raise NotImplementedError


class OrbitTransport(Workload):
    """Long transports along Schwarzschild geodesics, limited by RHS cost."""

    name = "orbit_transport"
    why = ("long transports whose cost is RHS evaluations: geometry, worldline "
           "kinematics and the fermion/photon generators do nearly all the work")
    input_size = ("one revolution of a circular geodesic, r in [8, 20] M, or one "
                  "equatorial null ray of affine length 2 r0; solver tol 1e-12")
    case_mix = ("round robin of covariant fermion.transport, "
                "fermion.transport_rest_frame on the same orbit, photon.transport")
    tail_percentile = 90
    strata = 4

    def setup(self):
        rng = self.rng
        radii = _stratified(rng, 8.0, 20.0, self.strata)
        ray_r0 = _stratified(rng, 12.0, 20.0, self.strata)
        ray_b = _stratified(rng, 6.0, 12.0, self.strata)
        for i in range(self.strata):
            r = float(radii[i])
            orbit = {"r": r, "sign": float(rng.choice([-1.0, 1.0])),
                     "phi0": float(rng.uniform(0.0, 2 * np.pi)),
                     "psi_tilde": _unit_spinor(rng), "pair": i}
            # In the static tetrad the rest-frame spinor turns about e_theta by
            # alpha = 2 pi sqrt(1 - 3M/r) per revolution: the frame's own
            # 2 pi less the geodetic angle 2 pi (1 - sqrt(1 - 3M/r)).
            alpha = orbit["sign"] * 2 * np.pi * np.sqrt(1.0 - 3.0 * M / r)
            if self.corrupt:
                alpha += CORRUPTION
            turn = (np.cos(alpha / 2) * np.eye(2)
                    - 1j * np.sin(alpha / 2) * spin_algebra.PAULI[2])
            orbit["expected"] = turn @ orbit["psi_tilde"]
            self.pool.append({"kind": "covariant", **orbit})
            self.pool.append({"kind": "rest_frame", **orbit})
            chi = float(rng.uniform(np.pi / 6, np.pi / 3))
            self.pool.append({
                "kind": "photon", "r0": float(ray_r0[i]), "b": float(ray_b[i]),
                "sign": float(rng.choice([-1.0, 1.0])),
                "phi0": float(rng.uniform(0.0, 2 * np.pi)),
                "chi": chi, "delta": float(rng.uniform(0.0, 2 * np.pi)),
                "expected_theta": np.cos(chi) + (CORRUPTION if self.corrupt else 0.0),
            })
        self._pair_final = {}
        self.check(self.pool[0], self.run(self.pool[0]))

    @staticmethod
    def _ray(case):
        model = geometry.make_builtin_model("schwarzschild", [M])
        r0 = case["r0"]
        x0 = np.array([0.0, r0, np.pi / 2, case["phi0"]])
        # a static observer sees impact parameter b at sin(angle) = b sqrt(f) / r0
        s = case["b"] * np.sqrt(1.0 - 2.0 * M / r0) / r0
        k0 = np.array([1.0, -np.sqrt(1.0 - s * s), 0.0, case["sign"] * s])
        return worldline.integrate_null_geodesic(model, x0, k0, span=2.0 * r0, tol=TOL)

    def run(self, case):
        if case["kind"] == "photon":
            wl = self._ray(case)
            k = wl.velocity(0.0)
            in_plane = np.array([0.0, k[3], 0.0, -k[1]]) / np.hypot(k[1], k[3])
            pol = (np.cos(case["chi"]) * np.array([0.0, 0.0, 1.0, 0.0])
                   + np.exp(1j * case["delta"]) * np.sin(case["chi"]) * in_plane)
            return photon.transport(photon.PhotonState(pol, wl.start_event, k), wl,
                                    tol=TOL)
        wl = circular_orbit(case["r"], case["sign"], case["phi0"])
        if case["kind"] == "covariant":
            state = fermion.from_rest_frame(fermion.RestFrameState(case["psi_tilde"]),
                                            wl.start_event, wl.velocity(0.0))
            return fermion.transport(state, wl, tol=TOL)
        return fermion.transport_rest_frame(fermion.RestFrameState(case["psi_tilde"]),
                                            wl, tol=TOL)

    def check(self, case, out):
        if case["kind"] == "photon":
            theta = out.final.canonical().pol[2]
            return [("etheta_invariance", float(abs(theta - case["expected_theta"])),
                     ETHETA_TOL)] + _drift_checks("photon", out.audits)
        if case["kind"] == "covariant":
            final = fermion.to_rest_frame(out.final).psi_tilde
            self._pair_final[case["pair"]] = final
        else:
            final = out.final.psi_tilde
        checks = [("geodetic_closed_form",
                   float(np.abs(final - case["expected"]).max()), GEODETIC_TOL),
                  ("fermion_norm_drift", float(out.norm_drift), BUDGETS["norm_drift"])]
        if case["kind"] == "rest_frame" and case["pair"] in self._pair_final:
            other = self._pair_final[case["pair"]]
            checks.append(("covariant_vs_rest_frame",
                           float(np.abs(final - other).max()), COV_REST_TOL))
        return checks


def circular_orbit(r, sign=1.0, phi0=0.0, span=None):
    """Circular Schwarzschild geodesic at radius r in the equatorial plane.

    ``sign`` picks the direction of motion; ``span`` defaults to the proper
    time of one revolution, 2 pi r^(3/2) sqrt(1 - 3M/r) / sqrt(M).
    """
    model = geometry.make_builtin_model("schwarzschild", [M])
    x0 = np.array([0.0, r, np.pi / 2, phi0])
    u_coord = np.array([1.0, 0.0, 0.0, sign * np.sqrt(M / r**3)])
    u_coord = u_coord / np.sqrt(u_coord @ model.metric(x0) @ u_coord)
    u0 = model.inverse_tetrad(x0) @ u_coord
    if span is None:
        span = 2 * np.pi * r**1.5 / np.sqrt(M) * np.sqrt(1.0 - 3.0 * M / r)
    return worldline.integrate_timelike(model, None, x0, u0, span=span, tol=TOL)


class CowSweep(Workload):
    """2000-row COW sweeps: units parsing, cow_phase and the sweep pool."""

    name = "cow_sweep"
    why = ("no transport at all: units parsing, interferometry.cow_phase and the "
           "sweep thread pool; the control that transport changes must not move")
    input_size = "2000 rows per sweep of the bundled cow scenario, 4 COW modes per row"
    case_mix = "round robin of sweeps over cow.dz, cow.ell and cow.v1 with seeded ranges"
    tail_percentile = 90
    rows = 2000
    sampled_rows = 8
    # natural-unit ranges (metres, v/c) inside which all four modes are defined
    ranges = {
        "dz": ((0.001, 0.005), (0.03, 0.10)),
        "ell": ((0.02, 0.05), (0.20, 0.50)),
        "v1": ((1000.0 / units.C_SI, 1500.0 / units.C_SI),
               (3000.0 / units.C_SI, 5000.0 / units.C_SI)),
    }

    def setup(self):
        rng = self.rng
        base = scenario.load_scenario(self.root / "scenarios" / "cow.scenario")
        params = {key: units.parse_quantity(base["cow"][key])[0]
                  for key in ("mass", "v1", "dz", "ell", "g")}
        fields = ["dz", "ell", "v1"] * 2
        for field in rng.permutation(fields):
            (lo0, hi0), (lo1, hi1) = self.ranges[field]
            start, stop = float(rng.uniform(lo0, hi0)), float(rng.uniform(lo1, hi1))
            data = copy.deepcopy(base)
            data["sweep"] = {"parameter": f"cow.{field}", "start": start,
                             "stop": stop, "steps": self.rows}
            values = np.linspace(start, stop, self.rows)
            picks = np.concatenate([[0, self.rows - 1], rng.choice(
                np.arange(1, self.rows - 1), self.sampled_rows - 2, replace=False)])
            refs = {}
            for idx in picks:
                p = dict(params, **{field: float(values[idx])})
                refs[int(idx)] = {
                    mode: float(interferometry.cow_phase(mode=mode, dps=60, **p))
                    * (1.0 + (CORRUPTION if self.corrupt else 0.0))
                    for mode in interferometry.COW_MODES}
            self.pool.append({"field": str(field), "data": data, "values": values,
                              "refs": refs})
        self.check(self.pool[0], self.run(self.pool[0]))

    def run(self, case):
        return scenario.sweep_rows(case["data"])

    def check(self, case, rows):
        checks = [("row_count", float(len(rows) != self.rows), 0.0)]
        value_err = worst = 0.0
        for idx, refs in case["refs"].items():
            row = rows[idx]
            value_err = max(value_err, abs(row["value"] - case["values"][idx]))
            for mode, ref in refs.items():
                worst = max(worst, abs(row["delta_theta_" + mode] - ref) / abs(ref))
        checks.append(("sweep_value", value_err, 0.0))
        checks.append(("cow_vs_dps60", worst, COW_REL_TOL))
        return checks


class ScenarioProtocols(Workload):
    """Short mixed protocols: CLI scenario runs and curved-space teleportation."""

    name = "scenario_protocols"
    why = ("many short transports where per-call overhead dominates: state "
           "sampling, worldline norm audits, per-basis-vector solves")
    input_size = ("worldline spans 3, 2 and 0.5, a 1-3 m ray; teleport legs "
                  "of proper time 6, 12 and 10 M; 4 Bell outcomes per teleport")
    case_mix = ("round robin: CLI run of displaced_arms, polarimetry, "
                "stern_gerlach (rindler static), tabulated transport; teleport")
    tail_percentile = 95
    variants = 2

    def setup(self):
        rng = self.rng
        self.out_dir = self.workdir / "reports"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        makers = [("displaced_arms", displaced_arms), ("polarimetry", polarimetry),
                  ("stern_gerlach", stern_gerlach), ("tabulated", tabulated)]
        for v in range(self.variants):
            for kind, make in makers:
                label = f"{kind}_{v}"
                path = self.workdir / f"{label}.scenario"
                path.write_text(yaml.safe_dump(make(rng, label)))
                self.pool.append({"kind": kind, "path": str(path),
                                  "json": self.out_dir / f"{label}.json",
                                  "seed": int(rng.integers(0, 2**31 - 1))})
            self.pool.append(teleport_case(rng))
        # The reference report of each (scenario, seed) is its warm-up run.
        for case in self.pool:
            if case["kind"] == "teleport":
                continue
            if self.run(case) != cli.EXIT_OK:
                raise RuntimeError(f"warm-up run of {case['path']} failed")
            case["reference"] = case["json"].read_bytes() + (
                b" " if self.corrupt else b"")
        teleport = next(c for c in self.pool if c["kind"] == "teleport")
        self.check(teleport, self.run(teleport))

    def run(self, case):
        if case["kind"] == "teleport":
            return run_teleport(case)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["--out-dir", str(self.out_dir), "--seed", str(case["seed"]),
                             "run", case["path"]])

    def check(self, case, out):
        if case["kind"] == "teleport":
            expected = 1.0 - (CORRUPTION if self.corrupt else 0.0)
            return [("teleport_fidelity",
                     max(abs(f - expected) for f in out), FIDELITY_TOL)]
        checks = [("exit_code", float(out != cli.EXIT_OK), 0.0)]
        data = case["json"].read_bytes()
        report = json.loads(data)
        audit = report["invariant_audit"]
        checks.append(("audit_violations", float(len(audit["violations"])), 0.0))
        checks.append(("byte_identical", float(data != case["reference"]), 0.0))
        checks += _drift_checks("report", {k: audit[k] for k in BUDGETS})
        return checks


def _random_state4(rng):
    return [float(x) for x in rng.standard_normal(4)]


def displaced_arms(rng, label):
    beta = float(rng.uniform(0.3, 0.7))
    offset = float(rng.uniform(0.1, 0.3))
    mass = float(rng.uniform(1.0, 3.0))
    return {
        "version": 1,
        "model": {"family": "minkowski"},
        "worldlines": {
            "lower": {"type": "timelike", "start": [0, 0, 0, 0],
                      "beta": [beta, 0, 0], "span": 3.0},
            "upper": {"type": "timelike", "start": [0, offset, 0, 0],
                      "beta": [beta, 0, 0], "span": 3.0},
        },
        "qubits": {"q0": {"kind": "fermion", "state": _random_state4(rng),
                          "worldline": "lower", "mass": mass}},
        "interferometer": {"kind": "fermion", "mass": mass,
                           "arm1": {"worldline": "upper"},
                           "arm2": {"worldline": "lower"},
                           "qubit": "q0", "region_tol": 1.0},
        "output": {"csv": f"{label}.csv", "json": f"{label}.json"},
    }


def polarimetry(rng, label):
    n = rng.standard_normal(3)
    n = n / np.linalg.norm(n)
    n[2] = abs(n[2])        # keep clear of the adaptation singularity at -z
    return {
        "version": 1,
        "model": {"family": "minkowski"},
        "worldlines": {"beam": {"type": "null_geodesic",
                                "start": ["0 m", "0 m", "0 m", "0 m"],
                                "wavevector": [1.0, *map(float, n)],
                                "span": f"{rng.uniform(1.0, 3.0):.4f} m"}},
        "qubits": {"p0": {"kind": "photon", "jones": _random_state4(rng),
                          "worldline": "beam"}},
        "schedule": [
            {"op": "transport", "qubit": "p0", "worldline": "beam"},
            {"op": "optic", "qubit": "p0", "element": "rotator",
             "angle": f"{rng.uniform(0.0, 90.0):.3f} deg"},
            {"op": "measure_polarization", "qubit": "p0",
             "polarizer": {"type": "linear", "angle": f"{rng.uniform(0.0, 180.0):.3f} deg"}},
        ],
        "output": {"csv": f"{label}.csv", "json": f"{label}.json"},
    }


def _unit3(rng):
    v = rng.standard_normal(3)
    return [float(x) for x in v / np.linalg.norm(v)]


def stern_gerlach(rng, label):
    beta = rng.standard_normal(3)
    beta = beta / np.linalg.norm(beta) * rng.uniform(0.0, 0.4)
    return {
        "version": 1,
        "model": {"family": "rindler", "params": {"g": float(rng.uniform(0.1, 0.5))}},
        "worldlines": {"lab": {"type": "static",
                               "position": [0.0, 0.0, float(rng.uniform(0.0, 1.0))],
                               "span": 2.0}},
        "qubits": {"q0": {"kind": "fermion", "state": _random_state4(rng),
                          "worldline": "lab", "mass": 1000.0}},
        "schedule": [
            {"op": "transport", "qubit": "q0", "worldline": "lab"},
            {"op": "measure_spin", "qubit": "q0", "orientation": _unit3(rng),
             "apparatus_beta": [float(b) for b in beta]},
            {"op": "measure_spin", "qubit": "q0", "orientation": _unit3(rng)},
        ],
        "output": {"csv": f"{label}.csv", "json": f"{label}.json"},
    }


def tabulated(rng, label):
    g = float(rng.uniform(0.2, 0.4))
    zs = [float(z) for z in np.linspace(-0.5, 2.0, 6)]
    tetrads = [[[[np.diag([1.0 / (1.0 + z * g), 1.0, 1.0, 1.0]).tolist()
                  for z in zs]]]]
    return {
        "version": 1,
        "model": {"family": "tabulated",
                  "params": {"axes": [[0.0], [0.0], [0.0], zs], "tetrads": tetrads}},
        "worldlines": {"rest": {"type": "static",
                                "position": [0.0, 0.0, float(rng.uniform(0.3, 1.2))],
                                "span": 0.5}},
        "qubits": {"q0": {"kind": "fermion", "state": _random_state4(rng),
                          "worldline": "rest", "mass": 1000.0}},
        "schedule": [{"op": "transport", "qubit": "q0", "worldline": "rest"}],
        "output": {"json": f"{label}.json"},
    }


def teleport_case(rng):
    return {
        "kind": "teleport",
        "static": (float(rng.uniform(7.0, 9.0)), float(rng.uniform(0.0, 2 * np.pi))),
        "orbits": [(float(rng.uniform(9.0, 12.0)), 12.0),
                   (float(rng.uniform(12.0, 16.0)), 10.0)],
        "bases": [(_unit_spinor(rng), _unit_spinor(rng)) for _ in range(3)],
        "input": _unit_spinor(rng),
    }


def _orthonormal_pair(wl, a, b):
    """Gram-Schmidt under the velocity inner product at the leg's start."""
    g = spin_algebra.velocity_inner_product_matrix(wl.velocity(0.0))
    a = a / np.sqrt(np.real(a.conj() @ g @ a))
    b = b - (a.conj() @ g @ b) * a
    b = b / np.sqrt(np.real(b.conj() @ g @ b))
    u0 = wl.velocity(0.0)
    return (fermion.FermionState(a, wl.start_event, u0),
            fermion.FermionState(b, wl.start_event, u0))


def run_teleport(case):
    """Three Schwarzschild legs, three basis fields, all four Bell outcomes."""
    model = geometry.make_builtin_model("schwarzschild", [M])
    r_static, phi = case["static"]
    legs = [worldline.static_worldline(model, [r_static, np.pi / 2, phi], span=6.0)]
    legs += [circular_orbit(r, span=span) for r, span in case["orbits"]]
    fields = [composite.make_basis_pair_field(_orthonormal_pair(wl, a, b), wl, tol=TOL)
              for wl, (a, b) in zip(legs, case["bases"])]
    alpha, beta = case["input"]
    return [composite.teleport(alpha, beta, fields, forced_outcome=o).fidelity
            for o in composite.BELL_OUTCOMES]


WORKLOADS = {w.name: w for w in (OrbitTransport, CowSweep, ScenarioProtocols)}
