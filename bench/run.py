"""fracstab benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Run from the root of a source tree (``src/fracstab`` beside ``bench/``).
The run times the set-up in several fresh interpreters, runs whole rounds
of the workload's CLI items in one workload process for ``--seconds``,
checks every item's output against computations made apart from the
program, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
separate traced run (``--trace 1``).  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from workloads import WORKLOADS, make_workload, requested_steps

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
RUNS = os.path.join(ROOT, ".bench_runs")

# Set-up-only interpreters before and after the workload process, which is
# one more sample: the machine's speed drifts over tens of seconds, and
# samples spread over the whole run average more of that drift.
SETUP_BEFORE, SETUP_AFTER = 3, 2
CHILD_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0     # every child is stopped before the run exceeds this

# One thread for BLAS: the workload is one closed-loop client.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_s": "s",
                    "nodes_per_s": "1/s", "peak_rss_mb": "MB"}


def _child(argv: list, timeout: float) -> tuple:
    """Run a child to its end; returns (spawn time, stdout, stderr)."""
    env = dict(os.environ, **CHILD_ENV)
    t_spawn = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{argv[1:]} exited with {proc.returncode}")
    return t_spawn, proc.stdout, proc.stderr


def _import_cumulative_s(importtime_log: str, module: str) -> float:
    """Cumulative import time of ``module`` from a ``-X importtime`` log (0 if absent)."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) * 1e-6
    return 0.0


def measure_setup(args, run_dir: str, deadline: float, indices) -> list:
    """Set-up samples from set-up-only interpreters (``-X importtime`` when tracing)."""
    samples = []
    for k in indices:
        argv = [sys.executable] + (["-X", "importtime"] if args.trace else []) + [
            WORKER, "--setup-only", "--workload", args.workload, "--seed", str(args.seed),
            "--dir", os.path.join(run_dir, f"setup{k}")]
        t_spawn, out, err = _child(argv, min(CHILD_TIMEOUT_S, deadline - perf_counter()))
        timing = json.loads(out.strip().splitlines()[-1])
        timing["setup_s"] = timing["done"] - t_spawn
        timing["import_scipy_s"] = _import_cumulative_s(err, "scipy.integrate")
        samples.append(timing)
    return samples


def check_records(workload: str, seed: int, records: list) -> tuple:
    """(failed, first check failure or None) over every item record."""
    import numpy as np

    import checks

    configs, items = make_workload(workload, seed)
    references = {}
    failed, problem = 0, None
    for rec in records:
        if rec["rc"] not in (0, 1):
            failed += 1
            continue
        item = items[rec["index"]]
        config = configs[item["config"]]
        try:
            doc = json.loads(rec["stdout"])
            if item["command"] == "report":
                states = np.load(os.path.join(rec["out_dir"], "states.npy"))
                checks.check_report(doc, rec["rc"], config, dict(zip(rec["orders"], states)),
                                    long_horizon=workload == "long_horizon",
                                    monotone_tail=workload != "r0_sweep")
            elif item["command"] == "simulate":
                if item["config"] not in references:
                    references[item["config"]] = checks.Order1Reference(config)
                checks.check_simulate(doc, rec["rc"], config, rec["out_dir"],
                                      references[item["config"]])
            else:
                checks.check_lemma(doc, rec["rc"], config, item)
        except (checks.CheckFailed, ValueError, KeyError, TypeError, OSError) as exc:
            problem = problem or f"round {rec['round']} item {rec['index']} {rec['argv'][:3]}: {exc!r}"
    return failed, problem


def end_to_end(result: dict, setup: list, steps_per_round: int) -> dict:
    walls = [r["wall_s"] for r in result["rounds"]]
    wall = statistics.median(walls)
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "wall_s": wall,
        "item_p50_s": statistics.median(r["seconds"] for r in result["records"]),
        "nodes_per_s": steps_per_round / wall,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict, setup: list) -> dict:
    traced = [r for r in result["rounds"] if r["traced"]]
    plain = [r for r in result["rounds"] if not r["traced"]]
    layers = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in plain))
    layers["setup.import_s"] = statistics.median(s["import_s"] for s in setup)
    layers["setup.import_scipy_s"] = statistics.median(s["import_scipy_s"] for s in setup)
    layers["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setup)
    return layers


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name == "solver.us_per_step":
        return "us"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = perf_counter() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "fracstab", "cli.py")):
        print(f"no fracstab sources under {ROOT}/src; run from a source tree", file=sys.stderr)
        return 2

    # Page in numpy/scipy and byte-compile the sources once, as an
    # installed package would have them, before any set-up is timed.
    import compileall

    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(BENCH, quiet=1)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    run_dir = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        setup = measure_setup(args, run_dir, deadline, range(SETUP_BEFORE))
        t_spawn, out, _ = _child(
            [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", run_dir],
            deadline - perf_counter())
        line = json.loads(out.strip().splitlines()[-1])
        if not args.trace:
            setup.append(dict(line["setup"], setup_s=line["setup"]["done"] - t_spawn))
        with open(line["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        setup += measure_setup(args, run_dir, deadline,
                               range(SETUP_BEFORE, SETUP_BEFORE + SETUP_AFTER))
        if args.trace:
            with open(os.path.join(RUNS, f"spans-{args.workload}-seed{args.seed}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(result["spans"], fh)

        configs, items = make_workload(args.workload, args.seed)
        steps = sum(requested_steps(item, configs[item["config"]]) for item in items)

        failed, problem = check_records(args.workload, args.seed, result["records"])
        if problem:
            print(f"check failed: {problem}", file=sys.stderr)
        for rec in result["records"]:
            if rec["rc"] not in (0, 1):
                print(f"failed item {rec['argv'][:3]}: rc={rec['rc']} {rec['error'] or rec['stderr']}",
                      file=sys.stderr)
        metrics = per_layer(result, setup) if args.trace else end_to_end(result, setup, steps)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({
        "correct": problem is None,
        "attempted": len(result["records"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
