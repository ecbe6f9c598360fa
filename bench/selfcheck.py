"""Quick self-check of the benchmark at a tiny run length.

    python3 bench/selfcheck.py

For every workload it runs bench/run.py for one second with tracing off and
on, and once more with every reference deliberately shifted.  It confirms
that each run prints, as its last line, exactly the metrics BENCHMARK.json
names with their units; that the honest runs have no failed case; and that
under the shifted references every case is counted as failed.  Exits 0 when
all of that holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace, *extra):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return None, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, text = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if result is None:
                problems.append(f"{label}: run failed\n{text}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metrics or units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                problems.append(f"{label}: honest run reports failures: {result}")
            if trace == 0 and "failed_ratio" not in text:
                problems.append(f"{label}: failed_ratio line missing")
        result, text = run(workload, 0, "--corrupt-reference")
        if result is None:
            problems.append(f"{workload} corrupt: run failed\n{text}")
        elif result["correct"] or result["failed"] != result["attempted"]:
            problems.append(f"{workload} corrupt: wrong references passed: "
                            f"{result['failed']} of {result['attempted']} failed")
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print("PROBLEM", p)
    print("selfcheck", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
