"""Paired in-process timing of two quline trees on one bench workload.

    python tools/paired.py --parent PATH [--change PATH] --workload orbit_transport \\
        --seed 5 --rounds 60 --out BENCH_paired.json
    python tools/paired.py --parent PATH --workload orbit_transport --seed 1 --hashes

Each tree is a checkout holding ``src/quline`` and ``bench/workloads.py``;
``--change`` defaults to this checkout.  Both trees' quline packages are
loaded into one process, and each tree's ``bench/workloads.py`` builds its
own pool from the same seed.  Each round runs every case of the pool on
both trees back to back, the parent first in even rounds and the change
first in odd ones, and checks every output with the workload's own
``check``.  Two trees timed in one process see the same host speed within
milliseconds, which resolves differences of a few per cent that
alternating benchmark processes on a shared host cannot.

The JSON written to ``--out`` holds, per case kind and for the whole pool,
each tree's median case time and the median and quartiles of the paired
ratios change / parent (one ratio per case and round; per round for the
pool), and how many rounds the change's pool was the faster.

With ``--hashes`` nothing is timed: each tree builds its pool (set-up and
warm-up) and runs one pass with its trajectory stepper and transport kernel
recorded, and the tool prints one sha256 per tree over every trajectory
(``ts``, ``ys`` and stage rows 0-12 of each ``_dop853`` solve), one over
every ``propagate`` output and one per case kind over the outputs of that
kind's cases (``setup`` for the calls set-up makes), one over every case
output that is a list of row dicts (a sweep's rows: the keys in order and
the ``repr`` of each value) and one per case kind over the bytes of the JSON
reports its cases write (``scenario_protocols``), with the number of each, so
that a change can name which transports and reports moved.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _quline_modules():
    return {k: v for k, v in sys.modules.items() if k == "quline" or k.startswith("quline.")}


class Tree:
    """One checkout's quline modules and workload, activated before each use
    so that imports made inside quline at call time resolve in that tree."""

    def __init__(self, root, tag):
        self.root = Path(root).resolve()
        self.src = str(self.root / "src")
        if not (self.root / "src" / "quline" / "__init__.py").is_file():
            raise SystemExit(f"paired: no quline sources under {self.src}")
        saved = _quline_modules()
        for name in saved:
            del sys.modules[name]
        sys.path.insert(0, self.src)
        try:
            importlib.import_module("quline")
            spec = importlib.util.spec_from_file_location(
                f"workloads_{tag}", self.root / "bench" / "workloads.py")
            self.workloads = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(self.workloads)
            self.modules = _quline_modules()
        finally:
            sys.path.remove(self.src)
            for name in _quline_modules():
                del sys.modules[name]
            sys.modules.update(saved)
        loaded = Path(self.modules["quline"].__file__).resolve().parent
        if loaded != self.root / "src" / "quline":
            raise SystemExit(f"paired: {tag} imported quline from {loaded}")

    def activate(self):
        for name in _quline_modules():
            del sys.modules[name]
        sys.modules.update(self.modules)
        sys.path.insert(0, self.src)

    def deactivate(self):
        sys.path.remove(self.src)
        self.modules = _quline_modules()        # keeps what quline imported on the way

    def call(self, fn, *args):
        self.activate()
        try:
            return fn(*args)
        finally:
            self.deactivate()


def failures(workload, case, out):
    """The checks of ``out`` that miss their tolerance, by name."""
    return [name for name, achieved, tol in workload.check(case, out) if not achieved <= tol]


def timed_case(tree, workload, case):
    tree.activate()
    try:
        t0 = time.perf_counter()
        out = workload.run(case)
        elapsed = time.perf_counter() - t0
        return elapsed, failures(workload, case, out)
    finally:
        tree.deactivate()


def quartiles(values):
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(q2), "q1": float(q1), "q3": float(q3)}


def summary(parent_s, change_s):
    """Medians of each side in ms and the quartiles of the paired ratios."""
    ratios = [c / p for p, c in zip(parent_s, change_s)]
    return {"samples": len(ratios),
            "parent_ms_median": 1e3 * statistics.median(parent_s),
            "change_ms_median": 1e3 * statistics.median(change_s),
            "ratio": quartiles(ratios)}


def paired(trees, workloads, rounds):
    pool = workloads[0].pool
    kinds = [case.get("kind", "case") for case in pool]
    times = [[[] for _ in pool] for _ in trees]     # [side][case] -> seconds per round
    failed = [0, 0]
    for r in range(rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        gc.collect()
        for i in range(len(pool)):
            for side in order:
                elapsed, bad = timed_case(trees[side], workloads[side], workloads[side].pool[i])
                times[side][i].append(elapsed)
                if bad:
                    failed[side] += 1
                    print(f"  round {r} case {i} ({kinds[i]}) on side {side} failed: {bad}")
    by_kind = {}
    for kind in dict.fromkeys(kinds):
        cases = [i for i, k in enumerate(kinds) if k == kind]
        by_kind[kind] = summary(*([t for i in cases for t in times[side][i]] for side in (0, 1)))
    rounds_s = [[sum(times[side][i][r] for i in range(len(pool))) for r in range(rounds)]
                for side in (0, 1)]
    pool_summary = summary(*rounds_s)
    pool_summary["change_wins"] = sum(c < p for p, c in zip(*rounds_s))
    return {"failed": {"parent": failed[0], "change": failed[1]},
            "kinds": by_kind, "pool": pool_summary}


def recorded_hashes(tree, workload):
    """sha256 of every trajectory solve, of every propagate output (all and
    per case kind), of every row table a case returns and, per case kind, of
    every JSON report a case writes while ``workload`` is set up and runs its
    pool once, with the counts."""
    worldline = tree.modules["quline.worldline"]
    solves, maps, tables = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    counts = {"solves": 0, "propagates": 0, "row_tables": 0, "reports": 0}
    reports, kinds = {}, {}
    kind = "setup"      # the kind whose propagate outputs are being recorded
    stepper, kernel = worldline._dop853, worldline.propagate

    def recorded_stepper(*args):
        ts, ys, K = stepper(*args)
        for a in (ts, ys, np.ascontiguousarray(K[:, :13])):
            solves.update(a.tobytes())
        counts["solves"] += 1
        return ts, ys, K

    def recorded_kernel(*args):
        out = kernel(*args)
        data = np.ascontiguousarray(out).tobytes()
        maps.update(data)
        kinds.setdefault(kind, hashlib.sha256()).update(data)
        counts["propagates"] += 1
        return out

    # every module that bound propagate at import time calls it by that name
    bound = [m for m in tree.modules.values() if getattr(m, "propagate", None) is kernel]
    worldline._dop853 = recorded_stepper
    for module in bound:
        module.propagate = recorded_kernel
    try:
        tree.call(workload.setup)
        for case in workload.pool:
            kind = case.get("kind", "case")
            out = tree.call(workload.run, case)
            bad = tree.call(failures, workload, case, out)
            if bad:
                raise SystemExit(f"paired: a {case.get('kind', 'case')} case failed: {bad}")
            if isinstance(out, list) and out and all(type(row) is dict for row in out):
                for row in out:
                    tables.update(repr(list(row.items())).encode())
                counts["row_tables"] += 1
            if "json" in case:
                reports.setdefault(case["kind"], hashlib.sha256()).update(
                    Path(case["json"]).read_bytes())
                counts["reports"] += 1
    finally:
        worldline._dop853 = stepper
        for module in bound:
            module.propagate = kernel
    return {"trajectories_sha256": solves.hexdigest(), "propagate_sha256": maps.hexdigest(),
            "propagate_by_kind_sha256": {k: h.hexdigest() for k, h in kinds.items()},
            "rows_sha256": tables.hexdigest(),
            "reports_sha256": {kind: h.hexdigest() for kind, h in reports.items()}, **counts}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", default=str(ROOT), help="checkout of the change (this one)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, default=30)
    p.add_argument("--out", help="where to write BENCH_paired.json")
    p.add_argument("--hashes", action="store_true",
                   help="print sha256 of every trajectory, propagate output (all and "
                        "per case kind), row table and, per case kind, report; "
                        "time nothing")
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be positive")
    if not args.hashes and not args.out:
        p.error("--out is needed unless --hashes is given")
    return args


def main(argv=None):
    args = parse_args(argv)
    trees = [Tree(args.parent, "parent"), Tree(args.change, "change")]
    with tempfile.TemporaryDirectory() as tmp:
        workloads = []
        for tree, side in zip(trees, ("parent", "change")):
            classes = tree.workloads.WORKLOADS
            if args.workload not in classes:
                raise SystemExit(f"paired: unknown workload {args.workload!r}; "
                                 f"choose from {', '.join(classes)}")
            workdir = Path(tmp) / side
            workdir.mkdir()
            workloads.append(classes[args.workload](tree.root, args.seed, workdir))
        if args.hashes:
            for tree, workload, side in zip(trees, workloads, ("parent", "change")):
                print(side, json.dumps(recorded_hashes(tree, workload)))
            return 0
        for tree, workload in zip(trees, workloads):
            tree.call(workload.setup)
        result = paired(trees, workloads, args.rounds)
    record = {"workload": args.workload, "seed": args.seed, "rounds": args.rounds,
              "pool_size": len(workloads[0].pool),
              "parent": str(trees[0].root), "change": str(trees[1].root), **result}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    pool = result["pool"]
    print(f"{args.workload} seed {args.seed}, {args.rounds} rounds: pool ratio "
          f"{pool['ratio']['median']:.4f} (q1 {pool['ratio']['q1']:.4f}, "
          f"q3 {pool['ratio']['q3']:.4f}), change faster in {pool['change_wins']} rounds")
    for kind, s in result["kinds"].items():
        print(f"  {kind:12s} {s['parent_ms_median']:8.3f} -> {s['change_ms_median']:8.3f} ms, "
              f"paired ratio {s['ratio']['median']:.4f}")
    return 1 if any(result["failed"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
