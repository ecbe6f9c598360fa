import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from quline import cli, worldline
from quline import scenario as sc
from quline.errors import (DomainError, ScenarioError, ScenarioParseError,
                           ScenarioReferenceError)
from quline.interferometry import COW_MODES, cow_phase
from quline.spin_algebra import spin_half_boost_matrix
from quline.units import C_SI, HBAR_SI, parse_quantity

from oracles import spin_half_rotation

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "data"


def run_cli(args):
    return cli.main([str(a) for a in args])


def run_edited(tmp_path, scenario, edit):
    """The report of a successful run of ``scenario`` with ``edit`` applied."""
    data = sc.load_scenario(SCENARIOS / scenario)
    edit(data)
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / "edited.scenario"
    path.write_text(yaml.safe_dump(data))
    out = tmp_path / "out"
    assert run_cli(["--out-dir", out, "run", path]) == cli.EXIT_OK
    return json.loads((out / data["output"]["json"]).read_text())


def _interferometer(**change):
    """An edit that adds a two-arm block over flat_noop's rest line, with ``change``."""
    block = {"kind": "fermion", "mass": 2.0, "arm1": {"worldline": "rest_line"},
             "arm2": {"worldline": "rest_line"}, "region_tol": 1.0}
    return lambda d: d.update(interferometer={**block, **change})


def _worldline(**spec):
    """An edit that adds worldline ``line`` to flat_noop."""
    return lambda d: d["worldlines"].update(line=spec)


def _photon(**change):
    """An edit that adds photon qubit ``p0`` on a new null worldline to flat_noop."""
    def edit(d):
        d["worldlines"]["ray"] = {"type": "null_geodesic"}
        d["qubits"]["p0"] = {"kind": "photon", "worldline": "ray", **change}
    return edit


COW_BLOCK = {"mass": "1.67492749804e-27 kg", "v1": "2200 m/s", "dz": "2 cm",
             "ell": "10 cm", "g": "9.8 m/s^2"}
# the error each case of the malformed-input table raises, if not a parse error
EXPECTED_ERRORS = {"interferometer_arm": ScenarioReferenceError,
                   "optic_on_fermion": ScenarioError, "photon_on_timelike": ScenarioError,
                   "circular_on_curved_model": ScenarioError,
                   "qubit_arm_end_short": ScenarioError,
                   "interferometer_kind_not_qubit_kind": ScenarioError,
                   "arm_ends_apart": ScenarioError, "superluminal_beta": ScenarioError,
                   "spacelike_wavevector": ScenarioError,
                   "past_pointing_wavevector": ScenarioError,
                   "overflowing_wavevector": ScenarioError,
                   "tiny_timelike_wavevector": ScenarioError,
                   "static_on_time_space_tetrad": ScenarioError,
                   "transport_twice_on_a_static_line": ScenarioError,
                   "transport_from_elsewhere": ScenarioError,
                   "photon_onto_another_ray": ScenarioError}


def _tabulated(entry, value):
    """An edit that puts flat_noop on a three-node tabulated model along z
    whose node tetrads are the identity with ``entry`` set to ``value``."""
    e = np.eye(4)
    e[entry] = value
    params = {"axes": [[0.0], [0.0], [0.0], [-1.0, 0.0, 1.0]], "tetrads": [[[[e.tolist()] * 3]]]}
    return lambda d: d.update(model={"family": "tabulated", "params": params})


class TestValidate:
    def test_bundled_files_valid(self):
        for name in ("cow.scenario", "flat_noop.scenario", "polarimetry.scenario"):
            assert run_cli(["validate", SCENARIOS / name]) == cli.EXIT_OK

    def test_malformed_yaml(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text("model: [unclosed\n")
        assert run_cli(["validate", bad]) == cli.EXIT_PARSE
        assert capsys.readouterr().err == (
            "parse error: not valid YAML: line 2, column 1: "
            "expected ',' or ']', but got '<stream end>'\n")

    def test_parsers_give_equal_scenarios(self, tmp_path, capsys, monkeypatch):
        # libyaml when present, the pure-Python parser otherwise: equal dicts,
        # and the same one-line message for invalid YAML
        paths = sorted(SCENARIOS.glob("*.scenario"))
        assert len(paths) == 5
        loaded = [sc.load_scenario(p) for p in paths]
        assert loaded == [yaml.load(p.read_text(), Loader=yaml.SafeLoader) for p in paths]
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert [sc.load_scenario(p) for p in paths] == loaded
        bad = tmp_path / "bad.scenario"
        bad.write_text("model: [unclosed\n")
        assert run_cli(["validate", bad]) == cli.EXIT_PARSE
        assert capsys.readouterr().err == (
            "parse error: not valid YAML: line 2, column 1: "
            "expected ',' or ']', but got '<stream end>'\n")

    def test_undefined_worldline_reference(self, tmp_path):
        f = tmp_path / "ref.scenario"
        f.write_text(
            "version: 1\n"
            "model: {family: minkowski}\n"
            "worldlines:\n"
            "  a: {type: static, position: [0, 0, 0], span: 1.0}\n"
            "qubits:\n"
            "  q0: {kind: fermion, worldline: a, mass: 1.0}\n"
            "schedule:\n"
            "  - {op: transport, qubit: q0, worldline: ghost}\n")
        assert run_cli(["validate", f]) == cli.EXIT_REFERENCE

    def test_compton_scale_advisory(self, tmp_path, capsys):
        f = tmp_path / "compton.scenario"
        # curvature scale 1/g comparable to the Compton wavelength 1/m
        f.write_text(
            "version: 1\n"
            "model: {family: rindler, params: {g: 0.5}}\n"
            "worldlines:\n"
            "  a: {type: static, position: [0, 0, 0], span: 1.0}\n"
            "qubits:\n"
            "  q0: {kind: fermion, worldline: a, mass: 1.0}\n")
        assert run_cli(["validate", f]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "advisory" in out and "Compton" in out

    @pytest.mark.parametrize("key, value", [
        ("dz", "-1 cm"), ("v1", "299792458 m/s"), ("v1", "4e8 m/s"), ("dz", "300 km")])
    def test_cow_domain_checked_like_run(self, tmp_path, capsys, key, value):
        data = sc.load_scenario(SCENARIOS / "cow.scenario")
        data["cow"][key] = value
        path = tmp_path / "bad.scenario"
        path.write_text(yaml.safe_dump(data))
        for command in ("validate", "run"):
            assert run_cli(["--out-dir", tmp_path, command, path]) == cli.EXIT_DOMAIN
            err = capsys.readouterr().err
            assert err.startswith("domain error:") and err.count("\n") == 1

    @pytest.mark.parametrize("block", ["model", "worldlines", "qubits", "output", "cow"])
    @pytest.mark.parametrize("command", ["run", "validate", "sweep"])
    def test_block_that_is_not_a_mapping(self, tmp_path, capsys, block, command):
        data = sc.load_scenario(SCENARIOS / "cow.scenario")
        data[block] = 5
        path = tmp_path / "bad.scenario"
        path.write_text(yaml.safe_dump(data))
        assert run_cli(["--out-dir", tmp_path, command, path]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err == f"parse error: [{block}] must be a mapping, got 5\n"
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("case, edit", [
        ("worldline_entry", lambda d: d["worldlines"].update(rest_line=5)),
        ("qubit_entry", lambda d: d["qubits"].update(q0=5)),
        ("schedule_entry", lambda d: d.update(schedule=[5])),
        ("schedule_not_a_list", lambda d: d.update(schedule=5)),
        ("span", lambda d: d["worldlines"]["rest_line"].update(span="abc")),
        ("worldline_tolerance", lambda d: d["worldlines"].update(
            line={"type": "timelike", "span": 1.0, "tolerance": "fast"})),
        ("op_tolerance", lambda d: d["schedule"][0].update(tolerance="fast")),
        ("unknown_block", lambda d: d.update(modle=d.pop("model"))),
        ("seed", lambda d: d.update(seed="abc")),
        ("model_params", lambda d: d.update(model={"family": "rindler", "params": 5})),
        ("tabulated_params", lambda d: d.update(
            model={"family": "tabulated", "params": {"axes": 5, "tetrads": [1]}})),
        ("unknown_op", lambda d: d["schedule"].append({"op": "bogus", "qubit": "q0"})),
        ("interferometer_arm", _interferometer(arm1={"worldline": "nope"})),
        ("interferometer_mass", _interferometer(mass="3 furlong")),
        ("interferometer_region_tol", _interferometer(region_tol="abc")),
        ("interferometer_kind", _interferometer(kind="neutron")),
        ("unknown_worldline_key", lambda d: d["worldlines"]["rest_line"].update(spna="1 s")),
        ("unknown_model_key", lambda d: d["model"].update(params={"g": 1.0})),
        ("unknown_qubit_key", lambda d: d["qubits"]["q0"].update(jones=[1, 0, 0, 0])),
        ("unknown_op_key", lambda d: d["schedule"][0].update(orientation=[0, 0, 1])),
        ("unknown_interferometer_key", _interferometer(qbit="q0")),
        ("unknown_arm_key", _interferometer(arm2={"worldline": "rest_line", "edn": 1})),
        ("unknown_cow_key", lambda d: d.update(cow={**COW_BLOCK, "dzz": "1 cm"})),
        ("unknown_sweep_key", lambda d: d.update(sweep={"parameter": "cow.dz", "start": 0,
                                                         "stpes": 3})),
        ("unknown_output_key", lambda d: d["output"].update(jsn="x.json")),
        ("op_without_qubit", lambda d: d["schedule"][0].pop("qubit")),
        ("optic_on_fermion", lambda d: d["schedule"].append(
            {"op": "optic", "qubit": "q0", "element": "rotator"})),
        ("photon_on_timelike", lambda d: d["qubits"].update(
            p0={"kind": "photon", "worldline": "rest_line"})),
        ("zero_state", lambda d: d["qubits"]["q0"].update(state=[0, 0, 0, 0])),
        ("zero_jones", _photon(jones=[0, 0, 0, 0])),
        ("zero_orientation", lambda d: d["schedule"].append(
            {"op": "measure_spin", "qubit": "q0", "orientation": [0, 0, 0]})),
        ("output_json", lambda d: d["output"].update(json=5)),
        ("output_csv", lambda d: d["output"].update(csv=5)),
        ("output_json_directory", lambda d: d["output"].update(json="nosuchdir/x.json")),
        ("output_csv_directory", lambda d: d["output"].update(csv="../x.csv")),
        ("output_parent", lambda d: d["output"].update(json="..")),
        ("circular_on_curved_model", lambda d: (
            d.update(model={"family": "rindler", "params": {"g": 0.1}}),
            d["worldlines"].update(line={"type": "circular"}))),
        ("unnormalized_amplitudes", _interferometer(qubit="q0", amplitudes=[1, 0, 1, 0])),
        ("amplitudes_without_qubit", _interferometer(amplitudes=[1, 0, 1, 0])),
        ("tolerance_without_qubit", _interferometer(tolerance=0.5)),
        ("infinite_span", lambda d: d["worldlines"]["rest_line"].update(span="1e999 s")),
        ("worldline_charge_to_mass", _worldline(type="timelike", charge_to_mass=7.5)),
        ("qubit_charge_to_mass", lambda d: d["qubits"]["q0"].update(charge_to_mass=7.5)),
        ("qubit_arm_end_short", _interferometer(
            qubit="q0", arm1={"worldline": "rest_line", "end": "5e-7 s"})),
        ("interferometer_kind_not_qubit_kind", lambda d: (
            _photon()(d), _interferometer(qubit="p0")(d))),
        ("arm_ends_apart", lambda d: (
            _worldline(type="static", position=[1, 0, 0], span="1e-6 s")(d),
            _interferometer(qubit="q0", arm2={"worldline": "line"}, region_tol=1e-6)(d))),
        ("superluminal_beta", _worldline(type="timelike", beta=[0.6, 0.8, 0])),
        ("spacelike_wavevector", _worldline(type="null_geodesic", wavevector=[1, 0, 0, 2])),
        ("past_pointing_wavevector", _worldline(type="null_geodesic",
                                                wavevector=[-1, 0, 0, 1])),
        ("overflowing_wavevector", _worldline(type="null_geodesic",
                                              wavevector=[1e200, 0, 0, 1e200])),
        ("tiny_timelike_wavevector", _worldline(type="null_geodesic",
                                                wavevector=[1.0e-6, 0, 0, 0])),
        ("singular_tabulated_tetrad", _tabulated(3, 0.0)),
        ("non_finite_tabulated_tetrad", _tabulated((2, 1), np.inf)),
        ("static_on_time_space_tetrad", _tabulated((0, 1), 0.1)),
        ("span_in_kg", lambda d: d["worldlines"]["rest_line"].update(span="2 kg")),
        ("file_not_utf8", lambda d: yaml.safe_dump(d).encode() + b"# \xff\n"),
        ("top_level_list", lambda d: yaml.safe_dump([d]).encode()),
        # a transport must start where the schedule has left its qubit
        ("transport_twice_on_a_static_line", lambda d: d["schedule"].append(
            {"op": "transport", "qubit": "q0", "worldline": "rest_line"})),
        ("transport_from_elsewhere", lambda d: (
            _worldline(type="static", position=[1, 0, 0], span="1e-6 s")(d),
            d["schedule"][0].update(worldline="line"))),
        ("photon_onto_another_ray", lambda d: (
            _photon()(d), d["worldlines"].update(
                ray2={"type": "null_geodesic", "wavevector": [1, 1, 0, 0]}),
            d["schedule"].append({"op": "transport", "qubit": "p0", "worldline": "ray2"}))),
    ])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_malformed_entry_or_value(self, tmp_path, capsys, case, edit, command):
        error = EXPECTED_ERRORS.get(case, ScenarioParseError)
        self.assert_rejected(tmp_path, capsys, "flat_noop.scenario", edit, command, error)

    @pytest.mark.parametrize("case, edit", [
        ("rindler_g", lambda d: d.update(model={"family": "rindler", "params": {"g": 0}})),
        ("schwarzschild_mass", lambda d: d.update(
            model={"family": "schwarzschild", "params": {"mass": -1}})),
        ("circular_beta", _worldline(type="circular", beta=1.5)),
        ("circular_radius_zero", _worldline(type="circular", radius=0)),
        ("circular_radius_negative", _worldline(type="circular", radius=-1)),
        ("circular_no_revolutions", _worldline(type="circular", revolutions=0)),
        ("circular_revolutions_negative", _worldline(type="circular", revolutions=-1.0)),
        ("static_span", lambda d: d["worldlines"]["rest_line"].update(span=0)),
        ("static_span_negative", lambda d: d["worldlines"]["rest_line"].update(span=-1.0)),
        ("timelike_span", _worldline(type="timelike", span=0)),
        ("null_span", _worldline(type="null_geodesic", span=-1)),
        ("interferometer_end", _interferometer(arm1={"worldline": "rest_line", "end": "1 s"})),
        ("interferometer_mass", _interferometer(mass=0)),
        ("qubit_mass", lambda d: d["qubits"]["q0"].update(mass=0)),
        ("op_tolerance", lambda d: d["schedule"][0].update(tolerance=0)),
        ("worldline_tolerance", _worldline(type="timelike", tolerance=-1e-9)),
        ("worldline_tolerance_below_floor", _worldline(type="timelike", tolerance=1e-14)),
        ("null_tolerance_below_floor", _worldline(type="null_geodesic", tolerance=2e-14)),
        ("op_tolerance_below_floor", lambda d: d["schedule"][0].update(tolerance=1e-300)),
        ("interferometer_tolerance_below_floor", _interferometer(tolerance=1e-14)),
        ("photon_along_minus_z", lambda d: (
            d["worldlines"].update(ray={"type": "null_geodesic", "wavevector": [1, 0, 0, -1]}),
            d["qubits"].update(p0={"kind": "photon", "worldline": "ray"}))),
    ])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_out_of_range_value(self, tmp_path, capsys, case, edit, command):
        self.assert_rejected(tmp_path, capsys, "flat_noop.scenario", edit, command,
                             DomainError)

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_tolerance_floor_is_checked_before_scipy(self, tmp_path, capsys, command):
        # below 100 eps scipy warns and raises rtol, or cannot step at all; the
        # parse rejects such a value in one line and no warning, and the
        # floor itself runs without one
        for tolerance, code in ((1e-14, cli.EXIT_DOMAIN), (1e-300, cli.EXIT_DOMAIN),
                                (sc.SMALLEST_TOLERANCE, cli.EXIT_OK)):
            data = sc.load_scenario(SCENARIOS / "flat_noop.scenario")
            data["worldlines"]["line"] = {"type": "timelike", "tolerance": tolerance}
            data["schedule"][0]["tolerance"] = tolerance
            path = tmp_path / "tol.scenario"
            path.write_text(yaml.safe_dump(data))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run_cli(["--out-dir", tmp_path, command, path]) == code
            assert caught == []
            err = capsys.readouterr().err
            if code == cli.EXIT_OK:
                assert err == ""
            else:
                assert err.startswith("domain error: [worldlines.line.tolerance]")
                assert err.count("\n") == 1

    @pytest.mark.parametrize("polarizer", [5, {"type": "circular", "handedness": "abc"}])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_malformed_polarizer(self, tmp_path, capsys, polarizer, command):
        def edit(data):
            for op in data["schedule"]:
                if op["op"] == "measure_polarization":
                    op["polarizer"] = polarizer
        self.assert_rejected(tmp_path, capsys, "polarimetry.scenario", edit, command)

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_singular_interpolated_tetrad(self, tmp_path, capsys, command):
        # nodes diag(1, 1, 1, 1) and diag(1, 1, 1, -1) along z are regular;
        # between them e^3_3 passes 0, at the observer's z = 0.5
        def edit(data):
            flip = np.diag([1.0, 1.0, 1.0, -1.0])
            data["model"] = {"family": "tabulated", "params": {
                "axes": [[0.0], [0.0], [0.0], [0.0, 1.0]],
                "tetrads": [[[[np.eye(4).tolist(), flip.tolist()]]]]}}
            data["worldlines"]["rest_line"]["position"] = [0.0, 0.0, 0.5]
        self.assert_rejected(tmp_path, capsys, "flat_noop.scenario", edit, command,
                             DomainError)

    @pytest.mark.parametrize("qubit", ["q0", None])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_mismatched_arm_wavevectors(self, tmp_path, capsys, qubit, command):
        # arms at beta 0.6 and 0.5 recombine with different wavevectors: the
        # block cannot be built, however far region_tol lets their endpoints lie
        def edit(data):
            data["worldlines"]["upper"]["beta"] = [0.6, 0, 0]
            data["interferometer"].update(region_tol=1.0, qubit=qubit)
        self.assert_rejected(tmp_path, capsys, "displaced_arms.scenario", edit, command,
                             ScenarioError)

    @staticmethod
    def assert_rejected(tmp_path, capsys, scenario, edit, command,
                        error=ScenarioParseError):
        # an edit that returns bytes gives the whole file in place of the edited scenario
        data = sc.load_scenario(SCENARIOS / scenario)
        text = edit(data)
        path = tmp_path / "bad.scenario"
        path.write_bytes(text if isinstance(text, bytes) else yaml.safe_dump(data).encode())
        with pytest.raises(error):
            sc.ScenarioRun(sc.load_scenario(path)).diagnostics()
        code, prefix = {ScenarioParseError: (cli.EXIT_PARSE, "parse error:"),
                        ScenarioError: (cli.EXIT_PARSE, "scenario error:"),
                        ScenarioReferenceError: (cli.EXIT_REFERENCE, "reference error:"),
                        DomainError: (cli.EXIT_DOMAIN, "domain error:")}[error]
        with warnings.catch_warnings(record=True) as caught:   # they would add stderr lines
            warnings.simplefilter("always")
            assert run_cli(["--out-dir", tmp_path, command, path]) == code
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1
        assert not list(tmp_path.glob("*.json"))

    def test_empty_block_counts_as_absent(self, tmp_path):
        path = tmp_path / "empty.scenario"
        path.write_text((SCENARIOS / "flat_noop.scenario").read_text()
                        + "interferometer:\noutput:\n")
        assert run_cli(["--out-dir", tmp_path, "run", path]) == cli.EXIT_OK
        assert (tmp_path / "empty.json").is_file()


def schema_lines(form, name, when=""):
    """``name [choices]: keys`` for ``form`` (* marks a required key, - no
    keys), then the lines of the forms its Choice values and sub-mappings add."""
    keys = [key + ("*" if default is sc.REQUIRED else "") for key, (_, default) in form.items()]
    lines = [f"{name}{when}: {', '.join(keys) or '-'}"]
    for key, (parse, _) in form.items():
        if isinstance(parse, sc.Choice):
            for value, sub in parse.items():
                lines += schema_lines(sub, name, f"{when} [{key}: {value}]")
        elif isinstance(parse, dict):
            child = {sc.Entries: f"{key}.NAME", sc.Items: f"{key}[i]"}.get(type(parse), key)
            lines += schema_lines(parse, child if form is sc.SCENARIO else f"{name}.{child}",
                                  when)
    return lines


class TestSchema:
    def test_readme_lists_every_key(self):
        lines = schema_lines(sc.SCENARIO, "scenario")
        assert "\n".join(lines) in (ROOT / "README.md").read_text()

    def test_each_block_is_evaluated_once_per_run(self, tmp_path, monkeypatch):
        calls = {"arm_phase": 0, "cow_columns": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(sc, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(sc, name, counted)
        for name in ("displaced_arms", "cow"):
            assert run_cli(["--out-dir", tmp_path, "run",
                            SCENARIOS / f"{name}.scenario"]) == cli.EXIT_OK
        assert calls == {"arm_phase": 2, "cow_columns": 1}

    @pytest.mark.parametrize("block, key", [("cow", "dzz"), ("sweep", "stpes"),
                                            ("output", "cvs")])
    @pytest.mark.parametrize("command", ["run", "validate", "sweep"])
    def test_unknown_key_in_cow_sweep_or_output(self, tmp_path, capsys, block, key, command):
        data = sc.load_scenario(SCENARIOS / "cow.scenario")
        data[block][key] = "1 cm"
        path = tmp_path / "bad.scenario"
        path.write_text(yaml.safe_dump(data))
        assert run_cli(["--out-dir", tmp_path, command, path]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: [{block}] unknown key {key!r}")
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("*.json")) and not list(tmp_path.glob("*.csv"))

    def test_nan_drift_is_a_violation(self, tmp_path, capsys, monkeypatch):
        real = sc.fermion_transport

        def nan_drift(*args, **kwargs):
            result = real(*args, **kwargs)
            result.audits["norm_drift"] = float("nan")
            return result
        monkeypatch.setattr(sc, "fermion_transport", nan_drift)
        assert run_cli(["--out-dir", tmp_path, "run",
                        SCENARIOS / "flat_noop.scenario"]) == cli.EXIT_TOLERANCE
        assert capsys.readouterr().err == "tolerance violations: norm_drift\n"
        audit = json.loads((tmp_path / "flat_noop.json").read_text())["invariant_audit"]
        assert math.isnan(audit["norm_drift"]) and audit["violations"] == ["norm_drift"]


class TestRun:
    def test_superluminal_apparatus_is_domain_error(self, tmp_path, capsys):
        data = sc.load_scenario(SCENARIOS / "flat_noop.scenario")
        data["schedule"].append({"op": "measure_spin", "qubit": "q0",
                                 "apparatus_beta": [2, 0, 0]})
        path = tmp_path / "fast.scenario"
        path.write_text(yaml.safe_dump(data))
        assert run_cli(["--out-dir", tmp_path, "run", path]) == cli.EXIT_DOMAIN
        assert capsys.readouterr().err == (
            "domain error: boost velocity must satisfy |beta| < 1\n")

    @pytest.mark.parametrize("beta, orientation", [
        (0.99999999, [0, 0, 1]), (0.99999999, [0.6, 0, 0.8]),
        (0.999999999, [1, 0, 0]), (0.999999999, [0, 0, 1])])
    def test_near_luminal_apparatus_measures(self, tmp_path, beta, orientation):
        report = run_edited(tmp_path, "flat_noop.scenario", lambda d: d["schedule"].append(
            {"op": "measure_spin", "qubit": "q0", "apparatus_beta": [0, 0, beta],
             "orientation": orientation}))
        row = report["results"]["schedule"][-1]
        assert row["p_plus"] + row["p_minus"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.999999999, 0.9999999999])
    def test_near_luminal_worldline_transports_and_measures(self, tmp_path, beta):
        # u.u rounds by O(gamma^2 eps) here, far above an absolute 1e-9
        def edit(d):
            d["worldlines"]["fast"] = {"type": "timelike", "beta": [0, 0, beta]}
            d["qubits"]["q0"]["worldline"] = "fast"
            d["schedule"] = [{"op": "transport", "qubit": "q0"},
                             {"op": "measure_spin", "qubit": "q0"}]
        row = run_edited(tmp_path, "flat_noop.scenario", edit)["results"]["schedule"][-1]
        assert abs(row["p_plus"] + row["p_minus"] - 1.0) <= 1e-6

    def test_flat_noop_state_unchanged(self, tmp_path):
        assert run_cli(["--out-dir", tmp_path, "run",
                        SCENARIOS / "flat_noop.scenario"]) == cli.EXIT_OK
        report = json.loads((tmp_path / "flat_noop.json").read_text())
        row = report["results"]["schedule"][0]
        comps = row["state"]["components"]
        assert np.abs(np.array(comps) - [0.6, 0.0, 0.0, 0.8]).max() < 1e-12
        assert report["invariant_audit"]["violations"] == []

    def test_cow_report_columns(self, tmp_path):
        assert run_cli(["--out-dir", tmp_path, "run",
                        SCENARIOS / "cow.scenario"]) == cli.EXIT_OK
        report = json.loads((tmp_path / "cow.json").read_text())
        row = report["results"]["cow"]
        for mode in ("exact", "weak_field", "nonrel_g2", "standard"):
            assert f"delta_theta_{mode}" in row
        m_nat = 1.67492749804e-27 * C_SI / HBAR_SI
        expected = cow_phase(m_nat, 2200.0 / C_SI, 0.02, 0.10, 9.8 / C_SI**2,
                             "standard")
        assert row["delta_theta_standard"] == pytest.approx(expected, rel=1e-12)
        csv_text = (tmp_path / "cow.csv").read_text().splitlines()
        assert "delta_theta_exact" in csv_text[0]

    def test_polarimetry_malus(self, tmp_path):
        assert run_cli(["--out-dir", tmp_path, "run",
                        SCENARIOS / "polarimetry.scenario"]) == cli.EXIT_OK
        report = json.loads((tmp_path / "polarimetry.json").read_text())
        meas = report["results"]["schedule"][-1]
        assert meas["probability"] == pytest.approx(np.cos(np.pi / 6) ** 2, abs=1e-12)

    def test_byte_identical_reports(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run_cli(["--seed", 3, "--out-dir", d, "run",
                            SCENARIOS / "polarimetry.scenario"]) == cli.EXIT_OK
        assert (d1 / "polarimetry.json").read_bytes() == (d2 / "polarimetry.json").read_bytes()
        assert (d1 / "polarimetry.csv").read_bytes() == (d2 / "polarimetry.csv").read_bytes()

    def test_jones_element_acts_as_the_rotator_it_writes_out(self, tmp_path):
        angle = parse_quantity("30 deg")[0]
        c, s = np.cos(angle), np.sin(angle)

        def as_jones(data):
            data["schedule"][1] = {"op": "optic", "qubit": "p0", "element": "jones",
                                   "matrix": [float(c), 0.0, float(-s), 0.0,
                                              float(s), 0.0, float(c), 0.0]}
        rotator = run_edited(tmp_path / "rotator", "polarimetry.scenario", lambda d: None)
        jones = run_edited(tmp_path / "jones", "polarimetry.scenario", as_jones)
        assert jones["results"] == rotator["results"]

    @pytest.mark.parametrize("measured", [True, False])
    def test_optic_that_annihilates_the_photon_exits_4(self, tmp_path, capsys, measured):
        """An optic that leaves no photon, or one whose squared norm passes the
        floats, ends in one line naming its schedule entry."""
        for matrix, norm in (([0] * 8, "0.0"), ([1.7e308, 0] * 4, "inf")):
            data = sc.load_scenario(SCENARIOS / "polarimetry.scenario")
            data["schedule"][1] = {"op": "optic", "qubit": "p0", "element": "jones",
                                   "matrix": matrix}
            if not measured:
                del data["schedule"][2]
            path = tmp_path / "dark.scenario"
            path.write_text(yaml.safe_dump(data))
            assert run_cli(["--out-dir", tmp_path, "run", path]) == cli.EXIT_DOMAIN
            assert capsys.readouterr().err == (
                f"domain error: [schedule[1]] the optic leaves no photon (norm squared {norm})\n")
            assert not list(tmp_path.glob("*.json"))

    def test_half_wave_plate_mirrors_the_polarization(self, tmp_path):
        # rotator 30 deg, then retardance pi: linear at -30 deg, so a linear
        # polarizer at +30 deg passes cos^2(60 deg)
        def edit(data):
            data["schedule"][2:] = [
                {"op": "optic", "qubit": "p0", "element": "waveplate", "retardance": "180 deg"},
                {"op": "measure_polarization", "qubit": "p0",
                 "polarizer": {"type": "linear", "angle": "30 deg"}}]
        meas = run_edited(tmp_path, "polarimetry.scenario", edit)["results"]["schedule"][-1]
        assert meas["probability"] == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("handedness, probability", [(1, 1.0), (-1, 0.0)])
    def test_quarter_wave_plate_and_circular_polarizer(self, tmp_path, handedness,
                                                      probability):
        # linear at 45 deg through retardance pi/2 is circular: one circular
        # polarizer passes all of it, the other none
        def edit(data):
            data["schedule"][1]["angle"] = "45 deg"
            data["schedule"][2:] = [
                {"op": "optic", "qubit": "p0", "element": "waveplate", "retardance": "90 deg"},
                {"op": "measure_polarization", "qubit": "p0",
                 "polarizer": {"type": "circular", "handedness": handedness}}]
        meas = run_edited(tmp_path, "polarimetry.scenario", edit)["results"]["schedule"][-1]
        assert meas["probability"] == pytest.approx(probability, abs=1e-12)
        assert meas["transmitted"] is (probability == 1.0)

    def test_polarizer_on_a_ray_near_plus_z(self, tmp_path):
        # 5e-9 rad off +z: the polarizer is built in the ray's adapted frame
        # and passes cos^2 30 deg of the rotated light
        def edit(data):
            data["worldlines"]["beam"]["wavevector"] = [1000000, 0.005, 0, 1000000]
        meas = run_edited(tmp_path, "polarimetry.scenario", edit)["results"]["schedule"][-1]
        assert meas["probability"] == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("seed", [None, 3, 4])
    def test_seed_option_wins_over_the_scenario_seed(self, tmp_path, seed):
        # polarimetry.scenario sets seed 7; --seed, when given, is the seed used
        args = [] if seed is None else ["--seed", seed]
        assert run_cli([*args, "--out-dir", tmp_path, "run",
                        SCENARIOS / "polarimetry.scenario"]) == cli.EXIT_OK
        report = json.loads((tmp_path / "polarimetry.json").read_text())
        assert report["metadata"]["seed"] == (7 if seed is None else seed)

    def test_scenario_without_a_seed_runs_at_seed_0(self):
        assert sc.ScenarioRun(sc.load_scenario(SCENARIOS / "flat_noop.scenario")).seed == 0

    # at seed 4 the first polarizer absorbs the photon, at seed 3 it transmits
    @pytest.mark.parametrize("interferometer", [False, True])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_an_absorbed_photon_is_not_used_again(self, tmp_path, capsys, seed,
                                                 interferometer):
        data = sc.load_scenario(SCENARIOS / "polarimetry.scenario")
        if interferometer:
            data["interferometer"] = {"kind": "photon", "arm1": {"worldline": "beam"},
                                      "arm2": {"worldline": "beam"}, "qubit": "p0"}
        else:
            data["schedule"].append(data["schedule"][-1])
        path = tmp_path / "twice.scenario"
        path.write_text(yaml.safe_dump(data))
        code = run_cli(["--seed", seed, "--out-dir", tmp_path, "run", path])
        if seed == 3:
            assert code == cli.EXIT_OK
            report = json.loads((tmp_path / "polarimetry.json").read_text())
            assert report["results"]["schedule"][2]["transmitted"] is True
            return
        assert code == cli.EXIT_DOMAIN
        where = "interferometer" if interferometer else "schedule[3]"
        assert capsys.readouterr().err == (
            f"domain error: [{where}] qubit 'p0' was absorbed by a polarizer\n")
        assert not list(tmp_path.glob("*.json"))

    def test_malformed_run_no_partial_output(self, tmp_path):
        bad = tmp_path / "bad.scenario"
        bad.write_text("worldlines: [1, 2\n")
        out = tmp_path / "out"
        assert run_cli(["--out-dir", out, "run", bad]) == cli.EXIT_PARSE
        assert not out.exists() or not list(out.iterdir())


class TestSweep:
    def test_cow_sweep_linear_in_dz(self, tmp_path):
        assert run_cli(["--out-dir", tmp_path, "sweep",
                        SCENARIOS / "cow.scenario"]) == cli.EXIT_OK
        lines = (tmp_path / "cow.csv").read_text().splitlines()
        header = lines[0].split(",")
        i_val = header.index("value")
        i_std = header.index("delta_theta_standard")
        vals, stds = [], []
        for line in lines[1:]:
            parts = line.split(",")
            vals.append(float(parts[i_val]))
            stds.append(float(parts[i_std]))
        vals, stds = np.array(vals), np.array(stds)
        assert len(vals) == 20
        assert np.all(np.diff(vals) > 0)  # monotone parameter column
        # standard mode is linear in dz
        ratio = stds / vals
        assert np.abs(ratio - ratio[0]).max() < 1e-9 * abs(ratio[0])

    def test_fringe_is_sinusoidal_in_ell(self, tmp_path):
        data = sc.load_scenario(SCENARIOS / "cow.scenario")
        data["sweep"] = {"parameter": "cow.ell", "start": "1 cm",
                         "stop": "50 cm", "steps": 40}
        rows = sc.sweep_rows(data)
        for row in rows:
            expect = 0.5 * (1 + math.cos(row["delta_theta_exact"]))
            assert row["fringe_probability"] == pytest.approx(expect, abs=1e-12)
        probs = [row["fringe_probability"] for row in rows]
        assert min(probs) < 0.1 and max(probs) > 0.9  # fringes actually swing

    def test_zero_step_range_single_row(self, tmp_path):
        data = sc.load_scenario(SCENARIOS / "cow.scenario")
        data["sweep"] = {"parameter": "cow.dz", "start": "1 cm", "steps": 1}
        rows = sc.sweep_rows(data)
        assert len(rows) == 1

    @pytest.mark.parametrize("sweep", [
        {"steps": 20}, {"steps": 1},
        # dz_m and parameter are single-valued: the row template holds them
        {"parameter": "cow.ell", "start": "1 cm", "stop": "3 cm", "steps": 3}],
        ids=["20", "1", "ell"])
    def test_rows_are_plain_independent_dicts(self, sweep):
        data = sc.load_scenario(SCENARIOS / "cow.scenario")
        data["sweep"].update(sweep)
        keys = ["parameter", "value", "dz_m", *("delta_theta_" + m for m in COW_MODES),
                "fringe_probability"]
        rows = sc.sweep_rows(data)
        assert len(rows) == sweep["steps"]
        assert all(type(row) is dict and list(row) == keys for row in rows)
        assert {row["parameter"] for row in rows} == {data["sweep"]["parameter"]}
        if data["sweep"]["parameter"] != "cow.dz":
            assert all(type(row["dz_m"]) is float and row["dz_m"] == 0.02 for row in rows)
        want = [dict(row) for row in rows]
        rows[0]["value"] = "edited"
        rows[0]["dz_m"] = "edited"
        rows[0]["parameter"] = "edited"
        rows[0]["extra"] = 1.0
        assert rows[1:] == want[1:]
        assert sc.sweep_rows(data) == want
        # the cow block's single row is built the same way
        cow = sc.ScenarioRun(data).cow
        assert type(cow) is dict and list(cow) == keys[2:]
        want = dict(cow)
        cow["dz_m"] = "edited"
        assert sc.ScenarioRun(data).cow == want

    def test_command_line_overrides_every_sweep_key(self, tmp_path):
        assert run_cli(["--out-dir", tmp_path, "sweep", SCENARIOS / "cow.scenario",
                        "--parameter", "cow.ell", "--start", "1 cm", "--stop", "3 cm",
                        "--steps", "3"]) == cli.EXIT_OK
        rows = json.loads((tmp_path / "cow.json").read_text())["rows"]
        assert [row["parameter"] for row in rows] == ["cow.ell"] * 3
        assert [row["value"] for row in rows] == np.linspace(0.01, 0.03, 3).tolist()
        data = sc.load_scenario(SCENARIOS / "cow.scenario")
        data["sweep"] = {"parameter": "cow.ell", "start": "1 cm", "stop": "3 cm", "steps": 3}
        assert rows == sc.sweep_rows(data)

    @pytest.mark.parametrize("edit, error", [
        (lambda d: d.pop("sweep"), ScenarioParseError),
        (lambda d: d["sweep"].update(parameter="model.g"), ScenarioParseError),
        (lambda d: d.pop("cow"), ScenarioReferenceError)],
        ids=["no_sweep_block", "not_a_cow_parameter", "no_cow_block"])
    def test_sweep_needs_a_cow_parameter_and_block(self, tmp_path, capsys, edit, error):
        data = sc.load_scenario(SCENARIOS / "cow.scenario")
        edit(data)
        with pytest.raises(error):
            sc.sweep_rows(data)
        path = tmp_path / "bad.scenario"
        path.write_text(yaml.safe_dump(data))
        code = cli.EXIT_PARSE if error is ScenarioParseError else cli.EXIT_REFERENCE
        assert run_cli(["--out-dir", tmp_path, "sweep", path]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))

    def test_unknown_parameter(self):
        data = sc.load_scenario(SCENARIOS / "cow.scenario")
        data["sweep"] = {"parameter": "cow.height", "start": "1 cm"}
        with pytest.raises(ScenarioReferenceError):
            sc.sweep_rows(data)

    @pytest.mark.parametrize("field, start, stop", [
        ("dz", "2 mm", "4 cm"), ("ell", "1 cm", "50 cm"),
        ("v1", "1000 m/s", "5000 m/s"), ("g", "1 m/s^2", "100 m/s^2"),
        ("mass", "1e-27 kg", "1e-26 kg")])
    def test_rows_match_scalar_cow_phase(self, field, start, stop):
        data = sc.load_scenario(SCENARIOS / "cow.scenario")
        data["sweep"] = {"parameter": f"cow.{field}", "start": start,
                         "stop": stop, "steps": 57}
        rows = sc.sweep_rows(data)
        base = {key: parse_quantity(data["cow"][key])[0]
                for key in ("mass", "v1", "dz", "ell", "g")}
        values = np.linspace(parse_quantity(start)[0], parse_quantity(stop)[0], 57)
        expected = []
        for v in values:
            params = dict(base, **{field: float(v)})
            row = {"parameter": f"cow.{field}", "value": float(v), "dz_m": params["dz"]}
            for mode in COW_MODES:
                row["delta_theta_" + mode] = float(cow_phase(mode=mode, **params))
            row["fringe_probability"] = float(
                0.5 * (1.0 + np.cos(row["delta_theta_exact"])))
            expected.append(row)
        assert rows == expected
        assert [list(row) for row in rows] == [list(row) for row in expected]

    def test_sweep_from_zero_height_starts_at_zero(self):
        data = sc.load_scenario(SCENARIOS / "cow.scenario")
        data["sweep"] = {"parameter": "cow.dz", "start": 0.0, "stop": "1 cm",
                         "steps": 5}
        first = sc.sweep_rows(data)[0]
        for mode in COW_MODES:
            value = first["delta_theta_" + mode]
            assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert first["fringe_probability"] == 1.0

    @pytest.mark.parametrize("key, value", [
        ("steps", "abc"), ("steps", 2.7), ("parameter", 5)])
    def test_malformed_sweep_field_is_parse_error(self, tmp_path, capsys, key, value):
        data = sc.load_scenario(SCENARIOS / "cow.scenario")
        data["sweep"][key] = value
        with pytest.raises(ScenarioParseError):
            sc.sweep_rows(data)
        path = tmp_path / "bad.scenario"
        path.write_text(yaml.safe_dump(data))
        assert run_cli(["--out-dir", tmp_path, "sweep", path]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and err.count("\n") == 1

    @pytest.mark.parametrize("steps", [lambda: sc.MAX_SWEEP_STEPS + 1, lambda: 10**20],
                             ids=["bound_plus_one", "1e20"])
    @pytest.mark.parametrize("given_by", ["option", "file"])
    def test_too_many_steps_exit_2(self, tmp_path, capsys, monkeypatch, steps, given_by):
        steps = steps()
        # rejected where steps is parsed: no sweep is evaluated
        monkeypatch.setattr(sc, "cow_columns", lambda *a: pytest.fail("sweep evaluated"))
        data = sc.load_scenario(SCENARIOS / "cow.scenario")
        data["sweep"]["steps"] = steps
        with pytest.raises(ScenarioParseError, match=r"^\[sweep\.steps\] "):
            sc.sweep_rows(data)
        if given_by == "option":
            args = [SCENARIOS / "cow.scenario", "--steps", steps]
        else:
            path = tmp_path / "many.scenario"
            path.write_text(yaml.safe_dump(data))
            args = [path]
        assert run_cli(["--out-dir", tmp_path, "sweep", *args]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err == (f"parse error: [sweep.steps] must be a whole number "
                       f"from 1 to {sc.MAX_SWEEP_STEPS}, got {steps}\n")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("option, value", [
        ("--start", "1 cm"), ("--stop", "2 cm"), ("--parameter", "cow.dz"), ("--steps", "3")])
    def test_override_of_a_sweep_that_is_not_a_mapping(self, tmp_path, capsys, option, value):
        data = sc.load_scenario(SCENARIOS / "cow.scenario")
        data["sweep"] = 5
        path = tmp_path / "bad.scenario"
        path.write_text(yaml.safe_dump(data))
        assert run_cli(["--out-dir", tmp_path, "sweep", path, option, value]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err == "parse error: [sweep] must be a mapping, got 5\n"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command, block, key, value", [
        ("sweep", "sweep", "stop", "-1 cm"),
        ("sweep", "cow", "v1", "3e8 m/s"),
        ("sweep", "cow", "g", "1e9 m/s^2"),
        ("run", "cow", "v1", "3e8 m/s"),
        ("run", "cow", "dz", "-1 cm"),
        ("run", "cow", "dz", "300 km"),
        ("run", "cow", "mass", "-1.674927e-27 kg"),
        ("run", "cow", "mass", "0 kg"),
        ("validate", "cow", "mass", "-1.674927e-27 kg"),
        ("sweep", "cow", "mass", "-1.674927e-27 kg")])
    def test_cow_domain_exit(self, tmp_path, capsys, command, block, key, value):
        data = sc.load_scenario(SCENARIOS / "cow.scenario")
        data[block][key] = value
        path = tmp_path / "bad.scenario"
        path.write_text(yaml.safe_dump(data))
        assert run_cli(["--out-dir", tmp_path, command, path]) == cli.EXIT_DOMAIN
        assert capsys.readouterr().err.startswith("domain error:")

    def test_sweep_through_a_nonpositive_mass_exits_4(self, tmp_path, capsys):
        assert run_cli(["--out-dir", tmp_path, "sweep", SCENARIOS / "cow.scenario",
                        "--parameter", "cow.mass", "--start", "-1 kg", "--stop", "1 kg",
                        "--steps", "3"]) == cli.EXIT_DOMAIN
        err = capsys.readouterr().err     # the first row, in natural units
        assert err.startswith("domain error: mass must be positive (mass=-2.84")
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))

    def test_interior_row_out_of_domain_exits_4(self, tmp_path, capsys):
        # thermal neutrons rise at most v1^2 / 2g ~ 247 km: rows 0-2 are
        # reachable, rows 3 and 4 are not, and the error names row 3
        data = sc.load_scenario(SCENARIOS / "cow.scenario")
        data["sweep"] = {"parameter": "cow.dz", "start": "1 cm", "stop": "400 km",
                         "steps": 5}
        path = tmp_path / "interior.scenario"
        path.write_text(yaml.safe_dump(data))
        assert run_cli(["--out-dir", tmp_path, "sweep", path]) == cli.EXIT_DOMAIN
        first_bad = np.linspace(0.01, 4e5, 5)[3]
        assert f"dz={float(first_bad)!r}" in capsys.readouterr().err

    def test_unreachable_height_of_an_unswept_dz_exits_4(self, tmp_path, capsys):
        # dz is one value here, so its rejection runs on 0-d inputs
        data = sc.load_scenario(SCENARIOS / "cow.scenario")
        data["cow"]["dz"] = "400 km"
        path = tmp_path / "high.scenario"
        path.write_text(yaml.safe_dump(data))
        out = tmp_path / "out"
        assert run_cli(["--out-dir", out, "sweep", path, "--parameter", "cow.ell",
                        "--start", "1 cm", "--stop", "3 cm", "--steps", "3"]) == cli.EXIT_DOMAIN
        cow = sc._parse(data, sc.SCENARIO, "")["cow"]
        assert capsys.readouterr().err == (
            f"domain error: no real speed at height (dz=400000.0, v1={cow['v1']!r}, "
            f"g={cow['g']!r})\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, cow, options, named", [
        ("run", {"ell": "1e305 m"}, [], "ell=1e+305"),
        ("validate", {"ell": "1e305 m"}, [], "ell=1e+305"),
        ("sweep", {}, ["--parameter", "cow.ell", "--start", "1e300", "--stop", "1e305",
                       "--steps", "2"], "ell=1e+300"),
        ("sweep", {}, ["--parameter", "cow.g", "--start", "1e300", "--stop", "1e301",
                       "--steps", "2"], "g=1e+300")],
        ids=["run", "validate", "sweep_ell", "sweep_g"])
    def test_overflowing_phase_exits_4_with_one_line(self, tmp_path, capsys, command, cow,
                                                      options, named):
        data = sc.load_scenario(SCENARIOS / "cow.scenario")
        data["cow"].update(cow)
        path = tmp_path / "huge.scenario"
        path.write_text(yaml.safe_dump(data))
        out = tmp_path / "out"
        assert run_cli(["--out-dir", out, command, path, *options]) == cli.EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("domain error:") and err.count("\n") == 1
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize("parameter, quantity", [
        ("cow.dz", "a length"), ("cow.g", "an acceleration")])
    def test_dimension_error_names_the_quantity(self, tmp_path, capsys, parameter, quantity):
        assert run_cli(["--out-dir", tmp_path, "sweep", SCENARIOS / "cow.scenario",
                        "--parameter", parameter, "--start", "1deg"]) == cli.EXIT_PARSE
        assert capsys.readouterr().err == (
            f"parse error: [sweep.start] expected {quantity} quantity, got '1deg'\n")

    @pytest.mark.parametrize("options", [["--start", "-1cm"], ["--start=-1cm"]],
                             ids=["space", "equals"])
    def test_negative_value_reaches_the_scenario_checks(self, tmp_path, capsys, options):
        # argparse alone reads the spaced "-1cm" as an option and exits 2
        assert run_cli(["--out-dir", tmp_path, "sweep", SCENARIOS / "cow.scenario",
                        "--parameter", "cow.dz", *options, "--stop", "1cm",
                        "--steps", "3"]) == cli.EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("domain error: dz must be >= 0") and err.count("\n") == 1
        assert "dz=-0.01" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["run"], ["--seed", "x", "run", "a.scenario"],
        ["sweep", "a.scenario", "--steps", "abc"], ["sweep", "a.scenario", "--start"],
        ["run", "a.scenario", "--unknown"]],
        ids=["no_command", "unknown_command", "no_scenario", "bad_seed", "bad_steps",
             "missing_value", "unknown_option"])
    def test_argument_error_is_one_line_and_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("quline") and ": error: " in err and err.count("\n") == 1

    def test_bundled_cow_outputs_unchanged(self, tmp_path):
        assert run_cli(["--out-dir", tmp_path / "run", "run",
                        SCENARIOS / "cow.scenario"]) == cli.EXIT_OK
        assert run_cli(["--out-dir", tmp_path / "sweep", "sweep",
                        SCENARIOS / "cow.scenario"]) == cli.EXIT_OK
        assert ((tmp_path / "run" / "cow.json").read_bytes()
                == (GOLDEN / "cow_run.json").read_bytes())
        assert ((tmp_path / "sweep" / "cow.csv").read_bytes()
                == (GOLDEN / "cow_sweep.csv").read_bytes())
        assert ((tmp_path / "sweep" / "cow.json").read_bytes()
                == (GOLDEN / "cow_sweep.json").read_bytes())


def deviations(got, want, where="report"):
    """Each place where two parsed reports differ, with the size of the
    difference where both sides are numbers."""
    if isinstance(got, dict) and isinstance(want, dict):
        return [d for key in sorted(set(got) | set(want))
                for d in deviations(got.get(key, "<missing>"), want.get(key, "<missing>"),
                                    f"{where}.{key}")]
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in deviations(g, w, f"{where}[{i}]")]
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (got, want))
    if numbers and not (got == want or (math.isnan(got) and math.isnan(want))):
        return [f"{where}: {got!r} != {want!r} (off by {abs(got - want):.3g})"]
    return [] if numbers or got == want else [f"{where}: {got!r} != {want!r}"]


def csv_cells(path):
    """The cells of a report CSV as {"row i, column": value}, numbers as floats."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = {}
    for i, row in enumerate(rows):
        for column, text in row.items():
            try:
                cells[f"row {i}, {column}"] = float(text)
            except ValueError:
                cells[f"row {i}, {column}"] = text
    return cells


@pytest.mark.parametrize("name", ["flat_noop", "polarimetry", "displaced_arms",
                                  "schwarzschild_orbit"])
def test_bundled_reports_match_golden(tmp_path, name):
    """``quline --seed 7 run`` reproduces the committed JSON and CSV reports
    byte for byte; a failure names every key that deviates, and by how much."""
    assert run_cli(["--out-dir", tmp_path, "--seed", 7, "run",
                    SCENARIOS / f"{name}.scenario"]) == cli.EXIT_OK
    for suffix in ("json", "csv"):
        got, want = tmp_path / f"{name}.{suffix}", GOLDEN / f"{name}_run.{suffix}"
        if suffix == "json":
            found = deviations(json.loads(got.read_text()), json.loads(want.read_text()))
        else:
            found = deviations(csv_cells(got), csv_cells(want), "csv")
        assert not found, "\n".join(found)
        assert got.read_bytes() == want.read_bytes()


def test_schwarzschild_golden_is_the_closed_form():
    """The curved golden holds physics, not only frozen bytes.  A spin carried
    once around the circular geodesic at r = 12 M turns about e_theta by
    2 pi sqrt(1 - 3M/r) in its rest frame, so p_plus along e_r is
    (1 + <sigma_x>)/2 of the turned rest-frame spinor; the ray's polarizer at
    30 deg passes cos^2 30 deg of the light that left along the diad's first leg."""
    report = json.loads((GOLDEN / "schwarzschild_orbit_run.json").read_text())
    _, spin, _, polarizer = report["results"]["schedule"]
    beta = 0.31622776601683794
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    psi = np.array([0.6, 0.8j])
    rest = np.linalg.solve(spin_half_boost_matrix([0.0, 0.0, beta]), psi)
    turned = spin_half_rotation([0.0, 1.0, 0.0], 2.0 * math.pi * math.sqrt(1.0 - 3.0 / 12.0)) @ (
        rest / np.linalg.norm(rest))
    p_plus = 0.5 * (1.0 + 2.0 * (turned[0].conjugate() * turned[1]).real)
    assert spin["state"]["velocity"] == pytest.approx([gamma, 0.0, 0.0, gamma * beta], abs=1e-12)
    assert abs(spin["p_plus"] - p_plus) <= 1e-11
    assert abs(polarizer["probability"] - math.cos(math.radians(30.0)) ** 2) <= 1e-12

def fast_orbit_scenario(tmp_path):
    """flat_noop with its qubit carried over 50 revolutions at beta = 0.9 and
    a transport tolerance of 2.3e-14, just above the scenario floor."""
    data = sc.load_scenario(SCENARIOS / "flat_noop.scenario")
    data["worldlines"]["orbit"] = {"type": "circular", "radius": 0.5, "beta": 0.9,
                                   "revolutions": 50}
    data["qubits"]["q0"]["worldline"] = "orbit"
    data["schedule"] = [{"op": "transport", "qubit": "q0", "tolerance": 2.3e-14}]
    path = tmp_path / "hard.scenario"
    path.write_text(yaml.safe_dump(data))
    return path


def schwarzschild_ray(scale):
    """A Schwarzschild ray from r = 15 with wavevector scale * (1, -0.6, 0, 0.8)
    and span 2/scale, transported and measured by a 30 deg polarizer."""
    return {"version": 1, "seed": 7,
            "model": {"family": "schwarzschild", "params": {"mass": "1 m"}},
            "worldlines": {"ray": {
                "type": "null_geodesic", "start": ["0 m", "15 m", math.pi / 2, 0],
                "wavevector": [scale, -0.6 * scale, 0, 0.8 * scale], "span": f"{2 / scale} m"}},
            "qubits": {"p0": {"kind": "photon", "jones": [1, 0, 0, 0], "worldline": "ray"}},
            "schedule": [{"op": "transport", "qubit": "p0", "worldline": "ray"},
                         {"op": "measure_polarization", "qubit": "p0",
                          "polarizer": {"type": "linear", "angle": "30 deg"}}],
            "output": {"json": "ray.json"}}


def test_scaled_schwarzschild_ray_runs_as_the_unit_ray(tmp_path):
    """A wavevector's scale is not physical: the ray written with k = (1000,
    -600, 0, 800) and span 0.002 m ends at the event of the k = (1, -0.6, 0,
    0.8), 2 m ray, with the same polarizer probability."""
    reports = []
    for scale in (1, 1000):
        path = tmp_path / f"ray{scale}.scenario"
        path.write_text(yaml.safe_dump(schwarzschild_ray(scale)))
        out = tmp_path / f"out{scale}"
        assert run_cli(["--out-dir", out, "run", path]) == cli.EXIT_OK
        reports.append(json.loads((out / "ray.json").read_text())["results"]["schedule"])
    (unit_transport, unit_measure), (scaled_transport, scaled_measure) = reports
    assert scaled_transport["state"]["wavevector"][0] == pytest.approx(1000.0 * unit_transport[
        "state"]["wavevector"][0], rel=1e-12)
    np.testing.assert_allclose(scaled_transport["state"]["event"],
                               unit_transport["state"]["event"], rtol=0.0, atol=1e-12)
    assert abs(scaled_measure["probability"] - unit_measure["probability"]) <= 1e-12


def test_long_transport_near_the_tolerance_floor_runs(tmp_path):
    """The kernel has no cap on a transport's nodes: 50 fast revolutions at a
    tolerance near the floor complete, within the norm-drift budget."""
    assert run_cli(["--out-dir", tmp_path, "run", fast_orbit_scenario(tmp_path)]) == cli.EXIT_OK
    report = json.loads((tmp_path / "flat_noop.json").read_text())
    step = report["results"]["schedule"][0]
    assert step["op"] == "transport"
    assert step["norm_drift"] <= sc.CORE_TOLERANCES["norm_drift"]


def test_unresolved_transport_exits_5(tmp_path, capsys, monkeypatch):
    """A transport that is still refining at the bisection cap is a tolerance
    failure: exit 5, one line on stderr, no report."""
    monkeypatch.setattr(worldline, "MAX_LEVELS", 0)
    path = fast_orbit_scenario(tmp_path)
    assert run_cli(["--out-dir", tmp_path, "run", path]) == cli.EXIT_TOLERANCE
    err = capsys.readouterr().err
    assert err == ("tolerance failure: transport not resolved to 2.3e-14 within "
                   "0 bisections\n")
    assert not list(tmp_path.glob("*.json"))


def test_drifted_orbit_labels_exit_5_naming_the_worldline(tmp_path, capsys):
    """schwarzschild_orbit's spin ops on an eccentric orbit, beta_phi = 0.3479
    (1.1 times circular), integrated at tolerance 1e-6 over one revolution
    (about 261 m): its labels end off u.u = 1 by more than the label rule
    allows, a tolerance failure in one line that names the worldline and the
    u.u, and no report."""
    data = sc.load_scenario(SCENARIOS / "schwarzschild_orbit.scenario")
    data["worldlines"]["orbit"].update(beta=[0, 0, 0.3479], span="261 m", tolerance=1e-6)
    data["schedule"] = data["schedule"][:2]
    path = tmp_path / "drift.scenario"
    path.write_text(yaml.safe_dump(data))
    assert run_cli(["--out-dir", tmp_path, "run", path]) == cli.EXIT_TOLERANCE
    err = capsys.readouterr().err
    match = re.fullmatch(r"tolerance failure: \[worldlines\.orbit\] timelike velocity label "
                         r"drifted during integration \(u\.u = (\S+)\)\n", err)
    assert match and abs(float(match[1]) - 1.0) > 1e-9
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("key, value, parameter", [
    ("span", "1e300 m", "1.672542926417114e+154"),
    ("start", ["0 m", "1e300 m", 1.5707963267948966, 0], "0.0")], ids=["span", "start"])
def test_overflowing_ray_rates_exit_4_naming_the_worldline(tmp_path, capsys, key, value,
                                                           parameter):
    """A ray whose span, or start r, is 1e300 m: the Schwarzschild rates
    square an r past the largest float, a domain error in one line that
    names the worldline and the parameter of the stage that overflowed."""
    data = sc.load_scenario(SCENARIOS / "schwarzschild_orbit.scenario")
    data["worldlines"]["ray"][key] = value
    path = tmp_path / "far.scenario"
    path.write_text(yaml.safe_dump(data))
    assert run_cli(["--seed", "7", "--out-dir", tmp_path, "run", path]) == cli.EXIT_DOMAIN
    assert capsys.readouterr().err == (
        "domain error: [worldlines.ray] schwarzschild: trajectory rates overflow at "
        f"parameter {parameter}\n")
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("scenario, name", [("schwarzschild_orbit.scenario", "orbit"),
                                            ("displaced_arms.scenario", "upper")])
def test_overflowing_beta_is_refused_without_a_warning(tmp_path, capsys, scenario, name):
    """A beta whose square passes the floats is superluminal: exit 2 in one
    line, and no RuntimeWarning on the way."""
    data = sc.load_scenario(SCENARIOS / scenario)
    data["worldlines"][name]["beta"] = [0, 0, 1e300]
    path = tmp_path / "overflow.scenario"
    path.write_text(yaml.safe_dump(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(["--out-dir", tmp_path, "run", path]) == cli.EXIT_PARSE
    assert capsys.readouterr().err == (
        f"scenario error: [worldlines.{name}] beta must be subluminal\n")


class TestInterferometerBlock:
    def test_displaced_fermion_arms_fringe(self, tmp_path):
        assert run_cli(["--out-dir", tmp_path, "run",
                        SCENARIOS / "displaced_arms.scenario"]) == cli.EXIT_OK
        report = json.loads((tmp_path / "displaced_arms.json").read_text())
        row = report["results"]["interferometer"]
        m, beta, d = 2.0, 0.5, 0.21
        gamma = 1 / np.sqrt(1 - beta**2)
        assert abs(row["delta_theta"]) == pytest.approx(m * gamma * beta * d,
                                                        rel=1e-12)
        assert row["delta_theta_int"] == pytest.approx(0.0, abs=1e-12)
        assert row["delta_theta_trans"] == pytest.approx(0.0, abs=1e-12)
        assert row["probability"] == pytest.approx(
            0.5 * (1 + np.cos(row["delta_theta_tot"])), abs=1e-12)
        header = (tmp_path / "displaced_arms.csv").read_text().splitlines()[0]
        for col in ("delta_theta_int", "delta_theta_dis", "delta_theta_trans",
                    "delta_theta_tot", "probability"):
            assert col in header

    def test_photon_arms_fringe(self, tmp_path):
        import yaml
        omega, d = 3.0, 0.4
        scenario = {
            "version": 1,
            "model": {"family": "minkowski"},
            "worldlines": {
                "a": {"type": "null_geodesic", "start": [0, 0, 0, d],
                      "wavevector": [omega, 0, 0, omega], "span": 2.0},
                "b": {"type": "null_geodesic", "start": [0, 0, 0, 0],
                      "wavevector": [omega, 0, 0, omega], "span": 2.0},
            },
            "qubits": {"p0": {"kind": "photon", "jones": [1, 0, 0, 0],
                              "worldline": "b"}},
            "interferometer": {"kind": "photon", "arm1": {"worldline": "a"},
                               "arm2": {"worldline": "b"}, "qubit": "p0",
                               "region_tol": 1.0},
            "output": {"json": "mz.json"},
        }
        f = tmp_path / "mz.scenario"
        f.write_text(yaml.safe_dump(scenario))
        assert run_cli(["--out-dir", tmp_path, "run", f]) == cli.EXIT_OK
        row = json.loads((tmp_path / "mz.json").read_text())["results"]["interferometer"]
        assert row["theta_int_1"] == 0.0 and row["theta_int_2"] == 0.0
        assert abs(row["delta_theta"]) == pytest.approx(omega * d, rel=1e-12)
        assert row["probability"] == pytest.approx(
            0.5 * (1 + np.cos(omega * d)), abs=1e-12)

    def test_without_a_qubit_only_the_phases_are_reported(self, tmp_path):
        full = run_edited(tmp_path / "full", "displaced_arms.scenario", lambda d: None)
        phases = run_edited(tmp_path / "phases", "displaced_arms.scenario",
                                    lambda d: d["interferometer"].pop("qubit"))
        row = phases["results"]["interferometer"]
        assert list(row) == ["delta_theta", "delta_theta_dis", "delta_theta_int",
                             "theta_int_1", "theta_int_2"]
        assert row == {key: full["results"]["interferometer"][key] for key in row}

    def test_qubit_arm_end_must_be_its_worldline_end(self, tmp_path):
        # flat_noop's rest line spans 1e-6 s
        edit = _interferometer(qubit="q0", arm1={"worldline": "rest_line", "end": "1e-6 s"})
        row = run_edited(tmp_path, "flat_noop.scenario", edit)["results"]["interferometer"]
        assert row["delta_theta_tot"] == pytest.approx(0.0, abs=1e-12)
        assert row["probability"] == pytest.approx(1.0, abs=1e-12)
        data = sc.load_scenario(SCENARIOS / "flat_noop.scenario")
        _interferometer(qubit="q0", arm2={"worldline": "rest_line", "end": "5e-7 s"})(data)
        with pytest.raises(ScenarioError, match=r"^\[interferometer\.arm2\] end must be"):
            sc.ScenarioRun(data)

    def test_undefined_arm_reference(self, tmp_path):
        import yaml
        scenario = {
            "version": 1,
            "model": {"family": "minkowski"},
            "worldlines": {"a": {"type": "static", "position": [0, 0, 0],
                                 "span": 1.0}},
            "interferometer": {"kind": "fermion", "mass": 1.0,
                               "arm1": {"worldline": "a"},
                               "arm2": {"worldline": "ghost"}},
        }
        f = tmp_path / "ghost.scenario"
        f.write_text(yaml.safe_dump(scenario))
        assert run_cli(["--out-dir", tmp_path, "run", f]) == cli.EXIT_REFERENCE


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.scenario")))
def test_run_is_repeatable(name):
    """Each ``run`` of one ScenarioRun starts from the initial states with fresh
    audits, so a second run reports what the first did, byte for byte."""
    scenario = sc.ScenarioRun(sc.load_scenario(SCENARIOS / f"{name}.scenario"), seed=7)
    first, second = (json.dumps(scenario.run(), sort_keys=True) for _ in range(2))
    assert second == first


def test_main_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    """Two ``main`` calls in one process, with different global flags and
    subcommands, print and write what two separate processes do: the second
    call sees neither the first one's seed nor its output directory."""
    calls = [["--seed", "3", "--out-dir", "first", "sweep", SCENARIOS / "cow.scenario",
              "--steps", "3"],
             ["--out-dir", "second", "run", SCENARIOS / "displaced_arms.scenario"]]
    (tmp_path / "in_process").mkdir()
    monkeypatch.chdir(tmp_path / "in_process")
    printed = []
    for args in calls:
        assert run_cli(args) == cli.EXIT_OK
        printed.append(capsys.readouterr().out)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    (tmp_path / "separate").mkdir()
    for args, out in zip(calls, printed):
        alone = subprocess.run([sys.executable, "-m", "quline.cli", *map(str, args)],
                               cwd=tmp_path / "separate", env=env, capture_output=True,
                               text=True, check=True)
        assert alone.stdout == out
    files = {tree: {p.relative_to(tmp_path / tree): p.read_bytes()
                    for p in (tmp_path / tree).rglob("*") if p.is_file()}
             for tree in ("in_process", "separate")}
    assert sorted(map(str, files["in_process"])) == [
        "first/cow.csv", "first/cow.json", "second/displaced_arms.csv",
        "second/displaced_arms.json"]
    assert files["in_process"] == files["separate"]


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert run_cli(["selftest"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out


class TestUnits:
    def test_round_trip(self):
        from quline.units import from_natural, to_natural
        vals = {"length": 0.02, "velocity": 2200.0, "acceleration": 9.8,
                "mass": 1.675e-27, "time": 3.7e-6, "energy": 2.1e-13}
        for dim, v in vals.items():
            back = from_natural(to_natural(v, dim), dim)
            assert back == pytest.approx(v, rel=1e-12)

    def test_parse_quantities(self):
        from quline.units import parse_quantity
        v, dim = parse_quantity("2 cm")
        assert dim == "length" and v == pytest.approx(0.02)
        v, dim = parse_quantity("2200 m/s")
        assert dim == "velocity" and v == pytest.approx(2200.0 / C_SI)
        v, dim = parse_quantity("90 deg")
        assert dim == "angle" and v == pytest.approx(np.pi / 2)
        v, dim = parse_quantity(0.5)
        assert dim == "natural" and v == 0.5
        with pytest.raises(ValueError):
            parse_quantity("3 furlongs")
