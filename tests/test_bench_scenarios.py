"""The scenarios that the benchmark's ``scenario_protocols`` workload writes
(``bench/workloads.py``) must pass the strict scenario schema: one key the
schema lacks would make every case of that workload fail."""

import importlib.util
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
