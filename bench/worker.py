"""The workload process: set-up, then whole rounds of CLI items.

Run by ``bench/run.py`` in a fresh interpreter.  Prints one JSON line:
the set-up timings (``done`` is the ``perf_counter`` reading when set-up
ended, comparable with the parent's clock) and, unless ``--setup-only``,
the path of the item records it wrote.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def setup(workload: str, seed: int, run_dir: str):
    """Import the CLI and write the workload's configs; the timed set-up."""
    t0 = perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fracstab.cli  # noqa: F401

    t1 = perf_counter()
    from workloads import make_workload, write_configs

    configs, items = make_workload(workload, seed)
    paths = write_configs(configs, os.path.join(run_dir, "configs"))
    t2 = perf_counter()
    timing = {"done": t2, "import_s": t1 - t0, "inputs_s": t2 - t1}
    return timing, items, paths


def run_rounds(items, paths, run_dir: str, seconds: float, trace: bool) -> dict:
    """Whole rounds until ``seconds`` of items have run.

    With ``trace`` the rounds alternate untraced and traced, ending on a
    traced one.  Trajectories that ``report`` solves return are saved
    for the output checks, outside the timed region.
    """
    import contextlib
    import gc
    import io
    import traceback

    import numpy as np

    import fracstab.cli as cli
    from workloads import item_argv

    captured = []
    solve = cli.solve_fde_abm

    def capture(*args, **kwargs):
        traj = solve(*args, **kwargs)
        captured.append(traj)
        return traj

    cli.solve_fde_abm = capture
    tracer = originals = None
    if trace:
        import tracing
        tracer = tracing.Tracer()

    records, rounds = [], []
    measured = 0.0
    while True:
        r = len(rounds)
        traced = trace and r % 2 == 1
        if traced:
            tracer.reset()
            originals = tracing.install(tracer)
        spans = []
        for i, item in enumerate(items):
            out_dir = os.path.join(run_dir, "out", f"r{r}", f"{i:02d}")
            os.makedirs(out_dir)
            argv = item_argv(item, paths[item["config"]], out_dir)
            captured.clear()
            gc.collect()
            if traced:
                tracer.item = i
            stdout, stderr = io.StringIO(), io.StringIO()
            error = None
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                t0 = perf_counter()
                try:
                    rc = cli.main(argv)
                except (Exception, SystemExit):  # a failed item; the run goes on
                    rc, error = None, traceback.format_exc()
                t1 = perf_counter()
            spans.append((t0, t1))
            record = {"round": r, "index": i, "traced": traced, "argv": argv, "rc": rc,
                      "error": error, "seconds": t1 - t0, "stdout": stdout.getvalue(),
                      "stderr": stderr.getvalue(), "out_dir": out_dir, "orders": None}
            if item["command"] == "report" and captured:
                record["orders"] = [t.order.alpha for t in captured]
                np.save(os.path.join(out_dir, "states.npy"), np.stack([t.states for t in captured]))
            records.append(record)
        if traced:
            tracing.uninstall(originals)
        wall = spans[-1][1] - spans[0][0]
        rounds.append({"traced": traced, "wall_s": wall,
                       "layers": tracer.summary() if traced else None})
        measured += wall
        if measured >= seconds and (not trace or traced):
            break
    result = {"records": records, "rounds": rounds}
    if trace:
        result["spans"] = tracer.dump()
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dir", required=True, help="run directory for configs and outputs")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    timing, items, paths = setup(args.workload, args.seed, args.dir)
    if args.setup_only:
        print(json.dumps(timing))
        return 0

    result = run_rounds(items, paths, args.dir, args.seconds, bool(args.trace))
    import resource
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["setup"] = timing
    path = os.path.join(args.dir, "worker.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    print(json.dumps({"setup": timing, "result": path}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
