"""Command-line front end: r0, simulate, verify-lemma, report.

Exit codes: 0 all certificates pass, 1 a certificate fails,
2 any other package error (configuration, domain, grid, equilibrium or
Newton failure), an OS error on an output path or a grid too large to
allocate (the JSON error goes to stderr), 3 a solve that diverges or undershoots, with
{"error": "divergence" | "undershoot", "node": k, "order": a} on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .caputo import FractionalOrder, SampledSignal, UniformGrid
from .config import ExperimentConfig, load_config
from .csvio import write_csv
from .errors import ConfigError, DivergenceError, FracstabError
from .lyapunov import (
    Certificate,
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


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_r0(cfg: ExperimentConfig, args) -> int:
    _emit({"model": cfg.model, **cfg.spec.r0_document(cfg.params)}, args.out)
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
    if args.g not in _G_REGISTRY:
        raise ConfigError(f"unknown g label {args.g!r}; choose from {sorted(_G_REGISTRY)}")
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
    _emit(cert.to_json_dict(), args.out)
    return EXIT_PASS if cert.passed else EXIT_CERT_FAIL


@dataclass(frozen=True)
class OrderEvidence:
    """What one solved trajectory shows about its order: the decrescence
    certificate of the functional and the approach to the target equilibrium.

    ``distances[k]`` is max_i |x_i(t_k) - target_i| / max(max_i |target_i|, 1).
    """

    trajectory: Trajectory
    certificate: Certificate
    distances: np.ndarray

    @property
    def final_relative_distance(self) -> float:
        return float(self.distances[-1])

    @property
    def ball_entry_time(self) -> float | None:
        """Time of the first node at a distance of at most 0.05; None if there is none."""
        inside = np.flatnonzero(self.distances <= 0.05)
        return float(self.trajectory.grid.times()[inside[0]]) if inside.size else None

    def to_json_dict(self) -> dict:
        return {
            "order": self.trajectory.order.alpha,
            "decrescence": self.certificate.to_json_dict(),
            "final_relative_distance": self.final_relative_distance,
            "ball_entry_time_5pct": self.ball_entry_time,
        }


def certify_order(functional: LyapunovFunctional, traj: Trajectory, target) -> OrderEvidence:
    """The functional's L1 Caputo derivative along ``traj``, certified non-positive
    up to ``default_tolerance`` of V, and the distances to ``target``.

    ``caputo_of_functional`` and ``decrescence_certificate`` are looked up
    here, on this module, so that a wrapper installed on either is the one
    that runs.
    """
    V = functional.values_along(traj.states)
    dV = caputo_of_functional(V, traj)
    cert = decrescence_certificate(dV, default_tolerance(traj.grid, traj.order, V))
    dists = np.abs(traj.states - target).max(axis=1) / max(float(np.abs(target).max()), 1.0)
    return OrderEvidence(traj, cert, dists)


def cmd_report(cfg: ExperimentConfig, args) -> int:
    spec, p = cfg.spec, cfg.params
    target = spec.predicted(p)
    functional = spec.functional_at(p, target)
    trajectories = _solve_orders(cfg, spec.model(p), cfg.orders, [functional.anchor])
    consistent = spec.spectral_consistent(p)
    regime = "endemic" if spec.threshold(p) > 1.0 else "disease-free"

    per_order = []
    all_certified = True
    for order, traj in zip(cfg.orders, trajectories):
        evidence = certify_order(functional, traj, target)
        passed = evidence.certificate.passed
        if not consistent:
            verdict = f"{regime}, r0/spectral inconsistency"
        elif passed:
            verdict = f"{regime}, certified"
        else:
            verdict = f"{regime}, uncertified"
        all_certified = all_certified and consistent and passed
        # "order" stays the first key and "verdict" the second
        per_order.append({"order": order.alpha, "verdict": verdict, **evidence.to_json_dict()})

    doc = {
        "model": cfg.model,
        "r0": spec.r0(p),
        "regime": regime,
        "r0_spectral_consistent": consistent,
        "target_equilibrium": list(target),
        "per_order": per_order,
    }
    _emit(doc, args.out)
    return EXIT_PASS if all_certified else EXIT_CERT_FAIL


COMMANDS = {"r0": cmd_r0, "simulate": cmd_simulate, "verify-lemma": cmd_verify_lemma,
            "report": cmd_report}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fracstab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        if name == "simulate":
            sp.add_argument("--out", required=True, help="output directory")
        else:
            sp.add_argument("--out", default=None, help="optional JSON output path")
        if name == "verify-lemma":
            sp.add_argument("--coordinate", required=True, help="state label, e.g. S")
            sp.add_argument("--g", default="identity", help="shape function label")
            sp.add_argument("--xbar", type=float, required=True)
            sp.add_argument("--order", type=float, default=None)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](load_config(args.config), args)
    except DivergenceError as exc:
        print(json.dumps({"error": exc.kind, "node": exc.node, "order": exc.order}))
        return EXIT_DIVERGENCE
    except (FracstabError, OSError, MemoryError) as exc:
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
