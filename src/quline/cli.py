"""Batch command-line front end: run, validate, sweep, selftest.

Exit codes: 0 success, 2 parse error, 3 unresolved reference, 4 domain
error, 5 numerical-tolerance violation, 1 anything else.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from pathlib import Path

from .errors import (DomainError, QulineError, ScenarioError,
                     ScenarioParseError, ScenarioReferenceError,
                     ToleranceError)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_REFERENCE = 3
EXIT_DOMAIN = 4
EXIT_TOLERANCE = 5


def _out_dir(args):
    out = args.out_dir or os.environ.get("QULINE_OUT_DIR", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_run(args):
    from .scenario import ScenarioRun, load_scenario, write_csv, write_json

    run = ScenarioRun(load_scenario(args.scenario), seed=args.seed)
    report, violations = run.run()
    out = _out_dir(args)
    json_name = run.output["json"] or Path(args.scenario).stem + ".json"
    write_json(out / json_name, report)
    if run.output["csv"]:
        rows = list(report["results"].get("schedule", []))
        for key in ("cow", "interferometer"):
            if report["results"].get(key):
                rows = [report["results"][key]]
        flat = [{k: v for k, v in row.items() if not isinstance(v, (dict, list))}
                for row in rows]
        write_csv(out / run.output["csv"], flat)
    print(f"report written to {out / json_name}")
    if violations:
        print(f"tolerance violations: {', '.join(violations)}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_validate(args):
    """``run`` without the execution: the same parse and resolution."""
    from .scenario import ScenarioRun, load_scenario

    notes = ScenarioRun(load_scenario(args.scenario), seed=args.seed).diagnostics()
    print(f"{args.scenario}: ok")
    for note in notes:
        print(f"advisory: {note}")
    return EXIT_OK


def cmd_sweep(args):
    from .scenario import load_scenario, sweep_rows, write_csv, write_json

    data = load_scenario(args.scenario)
    overrides = {key: getattr(args, key) for key in ("parameter", "start", "stop", "steps")
                 if getattr(args, key) is not None}
    if overrides:
        sweep = data.setdefault("sweep", {})
        if not isinstance(sweep, dict):
            raise ScenarioParseError(f"must be a mapping, got {sweep!r}", block="sweep")
        sweep.update(overrides)
    rows = sweep_rows(data)   # parses every block, the output names included
    csv_name = data.get("output", {}).get("csv") or Path(args.scenario).stem + "_sweep.csv"
    out = _out_dir(args)
    write_csv(out / csv_name, rows)
    write_json(out / (Path(csv_name).stem + ".json"), {"rows": rows})
    print(f"sweep table written to {out / csv_name} ({len(rows)} rows)")
    return EXIT_OK


def cmd_selftest(args):
    import numpy as np

    from .geometry import connection_finite_difference, make_builtin_model
    from .spin_algebra import ETA, sigma_identity_check
    from .worldline import static_worldline
    from .fermion import FermionState, transport

    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
        failures += 0 if ok else 1

    report = sigma_identity_check()
    for k, v in report.items():
        check(f"algebra:{k}", v < 1e-13, f"residual {v:.2e}")

    rng = np.random.default_rng(0)
    for name, params, sampler in [
        ("rindler", [0.5], lambda: np.array([0, 0, 0, rng.uniform(-0.5, 2)])),
        ("schwarzschild", [1.0],
         lambda: np.array([0, rng.uniform(3, 30), rng.uniform(0.5, 2.6), rng.uniform(0, 6)])),
    ]:
        model = make_builtin_model(name, params)
        worst_onb = max(np.abs(model.tetrad(c := sampler()).T @ model.metric(c)
                               @ model.tetrad(c) - ETA).max() for _ in range(200))
        check(f"geometry:{name}:orthonormality", worst_onb < 1e-10,
              f"residual {worst_onb:.2e}")
        c = sampler()
        fd = np.abs(connection_finite_difference(model, c) - model.connection(c)).max()
        check(f"geometry:{name}:connection", fd < 1e-6, f"fd residual {fd:.2e}")

    model = make_builtin_model("rindler", [0.7])
    wl = static_worldline(model, [0, 0, 0.2], span=100.0)
    st = FermionState([0.6, 0.8j], wl.start_event, wl.velocity(0.0))
    res = transport(st, wl, tol=1e-12)
    check("transport:rindler-static-unitarity", res.norm_drift < 1e-9,
          f"drift {res.norm_drift:.2e}")
    return EXIT_OK if failures == 0 else EXIT_FAILURE


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one line on stderr and exit 2."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser():
    parser = _Parser(
        prog="quline",
        description="Transport and measurement of localized qubits in curved spacetimes")
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed for outcomes (default: the scenario's seed, else 0)")
    parser.add_argument("--out-dir", default=None,
                        help="output directory (default: QULINE_OUT_DIR or '.')")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario without executing")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=cmd_validate)

    p_sw = sub.add_parser("sweep", help="sweep one scalar scenario parameter")
    p_sw.add_argument("scenario")
    p_sw.add_argument("--parameter", default=None)
    p_sw.add_argument("--start", default=None)
    p_sw.add_argument("--stop", default=None)
    p_sw.add_argument("--steps", type=int, default=None)
    p_sw.set_defaults(func=cmd_sweep)

    p_st = sub.add_parser("selftest", help="run the built-in invariant suites")
    p_st.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a token such as '-1cm' for an option: attach it to the
    # option before it, '--start -1cm' as '--start=-1cm'
    for i in reversed(range(1, len(argv))):
        if re.fullmatch(r"--\w[\w-]*", argv[i - 1]) and re.match(r"-\.?\d", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioReferenceError as exc:
        print(f"reference error: {exc}", file=sys.stderr)
        return EXIT_REFERENCE
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except QulineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
