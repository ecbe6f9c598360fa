"""Generated edits of bundled scenarios: a key misspelled or dropped, or a
value swapped for a random scalar, string or list.  Whatever the edit,
``quline run`` and ``quline validate`` end with an exit code and never a
traceback, a failure prints one stderr line, and the two commands agree on
every input that fails to parse or resolve."""

import contextlib
import copy
import io
import string
import tempfile
from pathlib import Path

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from quline import cli
from quline import scenario as sc

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
BASES = {name: sc.load_scenario(SCENARIOS / f"{name}.scenario")
         for name in ("flat_noop", "polarimetry")}
# names the schema knows, so that swapped values also reach other forms
NAMES = ["fermion", "photon", "static", "circular", "timelike", "null_geodesic",
         "minkowski", "rindler", "transport", "measure_spin", "optic",
         "measure_polarization", "rotator", "jones", "linear", "q0", "p0", "beam",
         "rest_line", "1 s", "2 cm", "30 deg", "3 furlong"]
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                    st.sampled_from(NAMES),
                    st.text(string.ascii_lowercase, min_size=1, max_size=6))
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=5))


def key_paths(node, prefix=()):
    """The path of every mapping key and list entry under ``node``."""
    entries = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in entries:
        yield prefix + (key,)
        yield from key_paths(value, prefix + (key,))


@st.composite
def edited_scenarios(draw):
    scenario = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    *parents, key = draw(st.sampled_from(list(key_paths(scenario))))
    parent = scenario
    for step in parents:
        parent = parent[step]
    action = draw(st.sampled_from(["misspell", "drop", "swap"]))
    if action == "drop":
        del parent[key]
    elif action == "misspell" and isinstance(key, str):
        at = draw(st.integers(0, len(key)))
        typo = key[:at] + draw(st.sampled_from(string.ascii_lowercase)) + key[at:]
        parent[typo] = parent.pop(key)
    else:
        parent[key] = draw(VALUES)
    return scenario


def run_cli(command, path, out):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["--out-dir", str(out), command, str(path)])
    return code, err.getvalue()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(edited_scenarios())
def test_edited_scenarios_exit_cleanly(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edited.scenario"
        path.write_text(yaml.safe_dump(scenario))
        codes = {}
        for command in ("run", "validate"):
            out = Path(tmp) / command
            code, err = run_cli(command, path, out)
            assert isinstance(code, int)
            if code != cli.EXIT_OK:
                assert err.count("\n") == 1 and err.endswith("\n"), err
            if code in (cli.EXIT_PARSE, cli.EXIT_REFERENCE, cli.EXIT_DOMAIN):
                assert not out.exists() or not any(out.iterdir())
            codes[command] = code
        if codes["validate"] != cli.EXIT_OK:
            assert codes["run"] == codes["validate"]
        if codes["run"] in (cli.EXIT_PARSE, cli.EXIT_REFERENCE):
            assert codes["validate"] == codes["run"]
