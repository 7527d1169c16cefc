"""Command-line front end: r0, simulate, verify-lemma, report.

Exit codes: 0 all certificates pass, 1 a certificate fails,
2 any other package error (configuration, domain, grid, equilibrium or
Newton failure; the JSON error goes to stderr), 3 solver divergence.
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
    caputo_of_functional,
    decrescence_certificate,
    default_tolerance,
    identity_g,
    lemma_certificate,
)
from .solver import solve_fde_abm
from .svgplot import plot_panels

EXIT_PASS = 0
EXIT_CERT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3


def _g_registry() -> dict:
    return {
        "identity": identity_g,
        "sqrt": lambda: GFunction(math.sqrt, "sqrt"),
        "log1p": lambda: GFunction(math.log1p, "log1p"),
    }


def _model_of(cfg: ExperimentConfig):
    return cfg.spec.model(cfg.params)


def _grid_of(cfg: ExperimentConfig) -> UniformGrid:
    return UniformGrid(t0=0.0, h=cfg.t_end / cfg.steps, n_steps=cfg.steps)


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2)
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def cmd_r0(cfg: ExperimentConfig, out_path: str | None) -> int:
    _emit({"model": cfg.model, **cfg.spec.r0_document(cfg.params)}, out_path)
    return EXIT_PASS


def cmd_simulate(cfg: ExperimentConfig, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    model = _model_of(cfg)
    grid = _grid_of(cfg)
    times = grid.times()
    spec, p = cfg.spec, cfg.params
    written = []
    try:
        functionals = {k: spec.functional_at(p, spec.anchor(k, p)) for k in cfg.functionals}
        trajectories = {}
        for order in cfg.orders:
            traj = solve_fde_abm(model, order, np.asarray(cfg.initial_state), grid)
            trajectories[order.alpha] = traj
            header = ["t"] + list(model.state_labels)
            columns = [times] + [traj.component(i) for i in range(model.dimension)]
            for kind, fn in functionals.items():
                V = fn.values_along(traj.states)
                header += [f"V_{kind}", f"dcaputo_V_{kind}"]
                columns += [V, caputo_of_functional(V, traj).values]
            path = os.path.join(out_dir, f"trajectory_order_{order.alpha:g}.csv")
            written.append(path)  # before writing, so that a half-written file is removed too
            write_csv(path, header, columns)

        panels = [
            (label, [trajectories[o.alpha].component(i) for o in cfg.orders])
            for i, label in enumerate(model.state_labels)
        ]
        svg_path = os.path.join(out_dir, "states.svg")
        written.append(svg_path)
        plot_panels(svg_path, times, panels, [f"order={o.alpha:g}" for o in cfg.orders])
    except BaseException:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise
    print(json.dumps({"written": written}, indent=2))
    return EXIT_PASS


def cmd_verify_lemma(cfg, coordinate, g_label, xbar, order_value, out_path) -> int:
    registry = _g_registry()
    if g_label not in registry:
        raise ConfigError(f"unknown g label {g_label!r}; choose from {sorted(registry)}")
    g = registry[g_label]()
    if not 0.0 < xbar < math.inf:
        raise ConfigError(f"xbar must be finite and strictly positive, got {xbar!r}")
    order = FractionalOrder(order_value) if order_value is not None else cfg.orders[0]

    model = _model_of(cfg)
    if coordinate not in model.state_labels:
        raise ConfigError(
            f"unknown coordinate {coordinate!r}; choose from {model.state_labels}"
        )
    idx = model.state_labels.index(coordinate)
    grid = _grid_of(cfg)
    traj = solve_fde_abm(model, order, np.asarray(cfg.initial_state), grid)
    cert = lemma_certificate(SampledSignal(grid, traj.component(idx)), g, xbar, order)
    _emit(cert.to_json_dict(), out_path)
    return EXIT_PASS if cert.passed else EXIT_CERT_FAIL


def cmd_report(cfg: ExperimentConfig, out_path: str | None) -> int:
    model = _model_of(cfg)
    grid = _grid_of(cfg)
    spec, p = cfg.spec, cfg.params

    r0 = spec.r0(p)
    endemic_regime = spec.threshold(p) > 1.0
    target = spec.predicted(p)
    functional = spec.functional_at(p, target)
    consistent = spec.spectral_consistent(p)
    regime = "endemic" if endemic_regime else "disease-free"

    per_order = []
    all_certified = True
    for order in cfg.orders:
        traj = solve_fde_abm(model, order, np.asarray(cfg.initial_state), grid)
        V = functional.values_along(traj.states)
        dV = caputo_of_functional(V, traj)
        scale = float(np.abs(V).max())
        cert = decrescence_certificate(dV, default_tolerance(grid, order, max(scale, 1.0)))
        dists = np.abs(traj.states - target).max(axis=1) / max(float(np.abs(target).max()), 1.0)
        inside = np.flatnonzero(dists <= 0.05)
        entry_time = float(grid.times()[inside[0]]) if inside.size else None

        if not consistent:
            verdict = f"{regime}, r0/spectral inconsistency"
        elif cert.passed:
            verdict = f"{regime}, certified"
        else:
            verdict = f"{regime}, uncertified"
        all_certified = all_certified and consistent and cert.passed
        per_order.append({
            "order": order.alpha,
            "verdict": verdict,
            "decrescence": cert.to_json_dict(),
            "final_relative_distance": float(dists[-1]),
            "ball_entry_time_5pct": entry_time,
        })

    doc = {
        "model": cfg.model,
        "r0": r0,
        "regime": regime,
        "r0_spectral_consistent": consistent,
        "target_equilibrium": list(target),
        "per_order": per_order,
    }
    _emit(doc, out_path)
    return EXIT_PASS if all_certified else EXIT_CERT_FAIL


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fracstab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    for name in ("r0", "simulate", "verify-lemma", "report"):
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
        cfg = load_config(args.config)
        if args.command == "r0":
            return cmd_r0(cfg, args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        if args.command == "verify-lemma":
            return cmd_verify_lemma(cfg, args.coordinate, args.g, args.xbar, args.order, args.out)
        return cmd_report(cfg, args.out)
    except DivergenceError as exc:
        print(json.dumps({"error": "divergence", "node": exc.node, "order": exc.order}))
        return EXIT_DIVERGENCE
    except FracstabError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
