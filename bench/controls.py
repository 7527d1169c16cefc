"""Negative controls: every output check must reject a perturbed output.

    python3 bench/controls.py

Runs a few CLI items in-process (about 5 s), confirms that each check
accepts the real output, then feeds it a perturbed copy and confirms that
the check raises.  Prints one line per control and exits 1 if any check
accepts its perturbed output or rejects the real one.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import re
import shutil
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import fracstab.cli as cli  # noqa: E402
from workloads import make_workload, write_configs  # noqa: E402


def run_item(argv: list) -> tuple:
    """(exit code, parsed stdout, trajectories the solves returned)."""
    captured = []
    solve = cli.solve_fde_abm

    def capture(*args, **kwargs):
        captured.append(solve(*args, **kwargs))
        return captured[-1]

    cli.solve_fde_abm = capture
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    finally:
        cli.solve_fde_abm = solve
    return rc, json.loads(out.getvalue()), {t.order.alpha: t.states for t in captured}


def rejects(check, *args, **kwargs) -> str:
    """The check's failure message, or "" if it accepts."""
    try:
        check(*args, **kwargs)
    except checks.CheckFailed as exc:
        return str(exc) or repr(exc)
    return ""


def main() -> int:
    work = os.path.join(ROOT, ".bench_runs", f"controls-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    configs, _ = make_workload("figures", 0)
    short = copy.deepcopy(configs["fig2"])
    short.update(orders=[0.5], t_end=1000.0, steps=2500)
    configs["fig2_short"] = short
    paths = write_configs(configs, work)
    results = []
    try:
        fig1, fig2 = configs["fig1"], configs["fig2"]

        rc, doc, trajs = run_item(["report", "--config", paths["fig2"]])
        scaled = dict(doc, target_equilibrium=[1.05 * x for x in doc["target_equilibrium"]])
        results.append(("report: endemic equilibrium scaled by 1.05",
                        not rejects(checks.check_report, doc, rc, fig2, trajs, False, True),
                        rejects(checks.check_report, scaled, rc, fig2, trajs, False, True)))
        reversed_states = trajs[0.5][::-1]
        results.append(("distance tail: trajectory reversed in time",
                        not rejects(checks.check_distance_tail, trajs[0.5], doc["target_equilibrium"]),
                        rejects(checks.check_distance_tail, reversed_states, doc["target_equilibrium"])))
        results.append(("Lyapunov bound: trajectory reversed in time",
                        not rejects(checks.check_lyapunov_bound, fig2, trajs[0.5], doc["target_equilibrium"]),
                        rejects(checks.check_lyapunov_bound, fig2, reversed_states,
                                doc["target_equilibrium"])))

        rc, doc, trajs = run_item(["report", "--config", paths["fig2_short"]])
        results.append(("long horizon: final distance at T = 1000, short of the long horizon",
                        not rejects(checks.check_report, doc, rc, short, trajs, False, True),
                        rejects(checks.check_report, doc, rc, short, trajs, True, True)))

        out_dir = os.path.join(work, "simulate_fig1")
        rc, doc, _ = run_item(["simulate", "--config", paths["fig1"], "--out", out_dir])
        ref = checks.Order1Reference(fig1)
        ok = not rejects(checks.check_simulate, doc, rc, fig1, out_dir, ref)

        header, cols = checks.read_csv_columns(os.path.join(out_dir, "trajectory_order_0.5.csv"))
        bad = copy.deepcopy(cols)
        column = bad["dcaputo_V_v0"]
        column[column.size // 2] += 1e-6 * np.abs(column).max()
        results.append(("CSV: dcaputo_V perturbed by 1e-6 of its range at one node",
                        ok and not rejects(checks.check_csv_columns, fig1, 0.5, header, cols),
                        rejects(checks.check_csv_columns, fig1, 0.5, header, bad)))

        header, cols = checks.read_csv_columns(os.path.join(out_dir, "trajectory_order_1.csv"))
        states = np.stack([cols[label] for label in ("S", "I", "C", "A")], axis=1)
        off = states.copy()
        off[:, 1] *= 1.05
        results.append(("order 1: I off by 5%",
                        ok and not rejects(checks.check_order1, states, ref),
                        rejects(checks.check_order1, off, ref)))

        svg = os.path.join(out_dir, "states.svg")
        with open(svg, encoding="utf-8") as fh:
            text = fh.read()
        missing = os.path.join(work, "missing_polyline.svg")
        with open(missing, "w", encoding="utf-8") as fh:
            fh.write(re.sub(r"<polyline [^>]*/>\n", "", text, count=1))
        results.append(("SVG: one polyline removed",
                        ok and not rejects(checks.check_svg, svg, ("S", "I", "C", "A"), 4),
                        rejects(checks.check_svg, missing, ("S", "I", "C", "A"), 4)))

        item = {"command": "verify-lemma", "order": 0.9}
        rc, doc, _ = run_item(["verify-lemma", "--config", paths["fig2"], "--coordinate", "S",
                               "--xbar", "144339.46", "--order", "0.9", "--g", "sqrt"])
        failed = dict(doc, max_violation=2.0 * doc["tolerance"], **{"pass": False})
        results.append(("verify-lemma: a failed certificate",
                        not rejects(checks.check_lemma, doc, rc, fig2, item),
                        rejects(checks.check_lemma, failed, 1, fig2, item)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_ok = True
    for name, accepts_real, rejects_bad in results:
        ok = bool(accepts_real and rejects_bad)
        all_ok = all_ok and ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: accepts the real output: {bool(accepts_real)}; "
              f"rejects the perturbed one: {rejects_bad or False}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
