"""Command-line front end: r0, simulate, verify-lemma, report; each prints JSON on stdout.

Exit codes: 0 all certificates pass, 1 a certificate fails or (report) the
threshold disagrees with the free equilibrium's spectrum, 2 a usage error
(missing or malformed option, --out outside simulate, unknown command), any
other package error (configuration, domain, grid, equilibrium or Newton
failure), an OS error on simulate's --out or a grid too large to allocate
(JSON error on stderr), 3 a solve that diverges or undershoots, with
{"error": "divergence" | "undershoot", "node": k, "order": a} on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .caputo import FractionalOrder, SampledSignal, UniformGrid
from .config import ExperimentConfig, load_config
from .csvio import write_csv
from .errors import ConfigError, DivergenceError, FracstabError
from .lyapunov import (
    GFunction,
    LyapunovFunctional,
    below_psi_floor,
    caputo_of_functional,
    decrescence_certificate,
    default_tolerance,
    identity_g,
    lemma_certificate,
)
from .solver import Trajectory, solve_fde_abm
from .svgplot import plot_panels

EXIT_PASS = 0
EXIT_CERT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3


_G_REGISTRY = {
    "identity": identity_g(),
    "sqrt": GFunction(np.sqrt, "sqrt"),
    "log1p": GFunction(np.log1p, "log1p"),
}


def _solve_orders(cfg: ExperimentConfig, model, orders, anchors) -> list[Trajectory]:
    """One ``solve_fde_abm``, looked up here, per order on the config's grid and initial state.

    No solve runs if some ``initial_state`` component is ``below_psi_floor`` where an
    anchor is positive (psi would refuse node 0): a ConfigError names its state label.
    A solve that undershoots raises an "undershoot" ``DivergenceError`` at the first
    node k where some x_ik < -1e-8 max(max_{j<=k} |x_ij|, 1).
    """
    x0 = np.asarray(cfg.initial_state)
    for anchor in anchors:
        bad = np.flatnonzero(below_psi_floor(x0) & (np.asarray(anchor) > 0))
        if bad.size:
            i = int(bad[0])
            label, x = model.state_labels[i], cfg.initial_state[i]
            raise ConfigError(f"initial_state {label} = {x!r} is below psi's floor "
                              f"where its anchor {float(anchor[i])!r} is positive")
    grid = UniformGrid(t0=0.0, h=cfg.t_end / cfg.steps, n_steps=cfg.steps)
    trajectories = []
    for order in orders:
        traj = solve_fde_abm(model, order, x0, grid)
        floor = -1e-8 * np.maximum(np.maximum.accumulate(np.abs(traj.states)), 1.0)
        below = np.flatnonzero((traj.states < floor).any(axis=1))
        if below.size:
            raise DivergenceError(int(below[0]), order.alpha, "undershoot")
        trajectories.append(traj)
    return trajectories


def cmd_r0(cfg: ExperimentConfig, args) -> int:
    print(json.dumps({"model": cfg.model, **cfg.spec.r0_document(cfg.params)}, indent=2))
    return EXIT_PASS


def cmd_simulate(cfg: ExperimentConfig, args) -> int:
    spec, p = cfg.spec, cfg.params
    model = spec.model(p)
    functionals = {k: spec.functional_at(p, spec.anchor(k, p)) for k in cfg.functionals}
    anchors = [fn.anchor for fn in functionals.values()]
    trajectories = _solve_orders(cfg, model, cfg.orders, anchors)
    times = trajectories[0].grid.times()
    header = ["t", *model.state_labels]
    header += [f"{name}_{kind}" for kind in functionals for name in ("V", "dcaputo_V")]
    tables = []
    for traj in trajectories:
        columns = [times, *traj.states.T]
        for fn in functionals.values():
            V = fn.values_along(traj.states)
            columns += [V, caputo_of_functional(V, traj).values]
        tables.append(columns)
    panels = [(label, [traj.component(i) for traj in trajectories])
              for i, label in enumerate(model.state_labels)]

    os.makedirs(args.out, exist_ok=True)
    written = []
    try:
        for traj, columns in zip(trajectories, tables):
            path = os.path.join(args.out, f"trajectory_order_{traj.order.alpha:g}.csv")
            written.append(path)  # before writing, so that a half-written file is removed too
            write_csv(path, header, columns)
        written.append(os.path.join(args.out, "states.svg"))
        plot_panels(written[-1], times, panels, [f"order={o.alpha:g}" for o in cfg.orders])
    except BaseException:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise
    print(json.dumps({"written": written}, indent=2))
    return EXIT_PASS


def cmd_verify_lemma(cfg: ExperimentConfig, args) -> int:
    if not 0.0 < args.xbar < math.inf:
        raise ConfigError(f"xbar must be finite and strictly positive, got {args.xbar!r}")
    order = FractionalOrder(args.order) if args.order is not None else cfg.orders[0]

    model = cfg.spec.model(cfg.params)
    if args.coordinate not in model.state_labels:
        raise ConfigError(f"unknown coordinate {args.coordinate!r}; "
                          f"choose from {model.state_labels}")
    idx = model.state_labels.index(args.coordinate)
    (traj,) = _solve_orders(cfg, model, [order], [np.eye(model.dimension)[idx] * args.xbar])
    signal = SampledSignal(traj.grid, traj.component(idx))
    cert = lemma_certificate(signal, _G_REGISTRY[args.g], args.xbar, order)
    print(json.dumps(cert, indent=2))
    return EXIT_PASS if cert["pass"] else EXIT_CERT_FAIL


def certify_order(functional: LyapunovFunctional, traj: Trajectory, target) -> dict:
    """``report``'s entry for one solved order, without its verdict.

    "decrescence" certifies the functional's L1 Caputo derivative along ``traj``
    non-positive up to ``default_tolerance`` of V.  With the distance at node k
    max_i |x_i(t_k) - target_i| / max(max_i |target_i|, 1), "final_relative_distance"
    is the last node's and "ball_entry_time_5pct" the time of the first node at a
    distance of at most 0.05 (None if there is none).  ``caputo_of_functional``,
    ``decrescence_certificate`` and ``default_tolerance`` are looked up here, on
    this module, so that a wrapper installed on any of them is the one that runs.
    """
    V = functional.values_along(traj.states)
    dV = caputo_of_functional(V, traj)
    cert = decrescence_certificate(dV, default_tolerance(traj.grid, traj.order, V))
    dists = np.abs(traj.states - target).max(axis=1) / max(float(np.abs(target).max()), 1.0)
    inside = np.flatnonzero(dists <= 0.05)
    return {
        "order": traj.order.alpha,
        "decrescence": cert,
        "final_relative_distance": float(dists[-1]),
        "ball_entry_time_5pct": float(traj.grid.times()[inside[0]]) if inside.size else None,
    }


def cmd_report(cfg: ExperimentConfig, args) -> int:
    spec, p = cfg.spec, cfg.params
    target = spec.predicted(p)
    functional = spec.functional_at(p, target)
    trajectories = _solve_orders(cfg, spec.model(p), cfg.orders, [functional.anchor])
    consistent = spec.spectral_consistent(p)
    regime = "endemic" if spec.threshold(p) > 1.0 else "disease-free"

    per_order = []
    for traj in trajectories:
        entry = certify_order(functional, traj, target)
        status = "certified" if entry["decrescence"]["pass"] else "uncertified"
        # "order" stays the first key and "verdict" the second
        per_order.append({"order": entry.pop("order"), "verdict": f"{regime}, {status}", **entry})

    doc = {
        "model": cfg.model,
        "r0": spec.r0(p),
        "regime": regime,
        "r0_spectral_consistent": consistent,
        "target_equilibrium": list(target),
        "per_order": per_order,
    }
    print(json.dumps(doc, indent=2))
    certified = consistent and all(e["decrescence"]["pass"] for e in per_order)
    return EXIT_PASS if certified else EXIT_CERT_FAIL


COMMANDS = {"r0": cmd_r0, "simulate": cmd_simulate, "verify-lemma": cmd_verify_lemma,
            "report": cmd_report}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, for ``main`` to print as JSON, instead of exiting with text."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="fracstab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        if name == "simulate":
            sp.add_argument("--out", required=True, help="directory for the CSVs and states.svg")
        if name == "verify-lemma":
            sp.add_argument("--coordinate", required=True, help="state label, e.g. S")
            sp.add_argument("--g", default="identity", choices=sorted(_G_REGISTRY),
                            help="shape function label")
            sp.add_argument("--xbar", type=float, required=True)
            sp.add_argument("--order", type=float, default=None)
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return COMMANDS[args.command](load_config(args.config), args)
    except DivergenceError as exc:
        print(json.dumps({"error": exc.kind, "node": exc.node, "order": exc.order}))
        return EXIT_DIVERGENCE
    except (FracstabError, OSError, MemoryError, argparse.ArgumentError) as exc:
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
