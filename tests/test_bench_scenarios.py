"""The benchmark's workloads (``bench/workloads.py``) must keep working
against quline: the scenarios its ``scenario_protocols`` workload writes
must pass the strict scenario schema (one key the schema lacks would make
every case of that workload fail), and each of its calls into a quline
module must bind to that function's signature (a deleted keyword would
otherwise show only when the benchmark runs)."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest
import yaml

from quline import scenario as sc

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("maker", ["displaced_arms", "polarimetry", "stern_gerlach",
                                   "tabulated"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_workload_scenarios_pass_the_schema(seed, maker):
    rng = workloads._rng(seed, workloads.ScenarioProtocols.name)
    data = getattr(workloads, maker)(rng, f"{maker}_{seed}")
    # the workload writes each scenario as YAML, which the CLI loads back
    run = sc.ScenarioRun(yaml.safe_load(yaml.safe_dump(data)))
    assert isinstance(run.diagnostics(), list)


def quline_calls():
    """Every ``module.function(...)`` call in bench/workloads.py whose
    ``module`` is a name it imports from the quline package."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "quline"
               for alias in node.names}
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id in modules]


def test_workload_calls_bind_to_quline_signatures():
    calls = quline_calls()
    assert calls
    for call in calls:
        module, name = call.func.value.id, call.func.attr
        signature = inspect.signature(getattr(importlib.import_module(f"quline.{module}"), name))
        positional = [arg for arg in call.args if not isinstance(arg, ast.Starred)]
        keywords = {kw.arg: None for kw in call.keywords if kw.arg is not None}
        # a call that spreads *args or **kwargs can only be checked in part
        spread = len(positional) < len(call.args) or None in (kw.arg for kw in call.keywords)
        bind = signature.bind_partial if spread else signature.bind
        try:
            bind(*positional, **keywords)
        except TypeError as exc:
            pytest.fail(f"bench/workloads.py:{call.lineno}: {module}.{name}: {exc}")
