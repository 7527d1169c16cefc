"""Workload inputs: configs and CLI items, made from the workload seed.

Standard library only, because writing the inputs is part of the timed
set-up (``setup_s``) and must not pull in anything the program does not.

Every workload is a closed loop with one client: one round runs the items
below back to back in one process, each item being one ``fracstab`` CLI
command, and a run repeats whole rounds.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("figures", "r0_sweep", "long_horizon")

# Paper parameters (SICA with beta = 0.066 for fig1 and 0.866 for fig2;
# the TEIV demo set).  Written by the benchmark, not read from configs/,
# so that the workloads stay fixed when the shipped configs change.
SICA_PARAMS = {
    "lambda_": 10724.0,
    "mu": 1.0 / 69.54,
    "beta": 0.066,
    "rho": 0.1,
    "phi": 1.0,
    "alpha_t": 0.33,
    "omega": 0.09,
    "d": 1.0,
    "incidence": "standard",
}
SICA_INITIAL = [596597.568, 74574.696, 37287.348, 37287.348]
SICA_ORDERS = [0.5, 0.7, 0.9, 1.0]
FIG_BETAS = {"fig1": 0.066, "fig2": 0.866}

TEIV_PARAMS = {
    "lambda_": 5.0, "mu_T": 0.1, "mu_E": 0.2, "mu_I": 0.3, "mu_V": 2.0,
    "rho": 0.05, "gamma": 0.3, "k": 10.0, "beta": 0.01,
    "alpha1": 0.01, "alpha2": 0.01, "alpha3": 0.001,
}
TEIV_INITIAL = [40.0, 1.0, 1.0, 5.0]

# Shipped grids: SICA h = 0.4 (T = 2000, 5000 steps), TEIV T = 100, 800 steps.
SICA_H = 0.4
TEIV_GRID = {"orders": [0.8, 1.0], "t_end": 100.0, "steps": 800}

# fig2's endemic S, the point the lemma certificate is checked around.
LEMMA_XBAR = 144339.46
LEMMA_ORDER = 0.9
LEMMA_GS = ("identity", "sqrt", "log1p")

# r0_sweep: SICA at T = 400 on the shipped h, TEIV on its shipped grid.
# R0 is drawn on both sides of 1, away from the threshold itself, where
# the endemic point merges with the disease-free one.
SWEEP_SICA_T = 400.0
SWEEP_SICA_ITEMS = 12
SWEEP_TEIV_ITEMS = 4
SWEEP_R0_BELOW = (0.3, 0.9)
SWEEP_R0_ABOVE = (1.1, 3.0)

# long_horizon: four times the shipped horizon, one order per item.
LONG_T = 8000.0
LONG_ORDERS = (0.5, 0.7)


def sica_r0_per_beta(params: dict) -> float:
    """R0 / beta of the SICA model: xi1 xi2 / clearance (published form)."""
    mu, rho, phi = params["mu"], params["rho"], params["phi"]
    alpha_t, omega, d = params["alpha_t"], params["omega"], params["d"]
    x1 = alpha_t + mu + d
    x2 = omega + mu
    clearance = mu * (x2 * (rho + x1) + x1 * phi + rho * d) + rho * omega * d
    return x1 * x2 / clearance


def teiv_r0_per_beta(params: dict) -> float:
    """R0 / beta of the TEIV model."""
    p = params
    xi = p["rho"] + p["mu_E"] + p["gamma"]
    return (p["lambda_"] * p["k"] * p["gamma"]) / (
        p["mu_I"] * p["mu_V"] * (p["lambda_"] * p["alpha1"] + p["mu_T"]) * xi
    )


def _sica_config(beta: float, orders, t_end: float, functionals=()) -> dict:
    return {
        "model": "sica",
        "params": dict(SICA_PARAMS, beta=beta),
        "orders": list(orders),
        "initial_state": list(SICA_INITIAL),
        "t_end": t_end,
        "steps": int(round(t_end / SICA_H)),
        "functionals": list(functionals),
    }


def _teiv_config(beta: float, functionals=()) -> dict:
    return {
        "model": "teiv",
        "params": dict(TEIV_PARAMS, beta=beta),
        "initial_state": list(TEIV_INITIAL),
        "functionals": list(functionals),
        **TEIV_GRID,
    }


def _figures(rng: random.Random):
    configs = {
        "fig1": _sica_config(FIG_BETAS["fig1"], SICA_ORDERS, 2000.0, ["v0"]),
        "fig2": _sica_config(FIG_BETAS["fig2"], SICA_ORDERS, 2000.0, ["v1"]),
        "teiv_demo": _teiv_config(TEIV_PARAMS["beta"], ["teiv_at_anchor"]),
    }
    items = []
    for name in configs:
        items.append({"command": "simulate", "config": name})
        items.append({"command": "report", "config": name})
    for g in LEMMA_GS:
        items.append({"command": "verify-lemma", "config": "fig2", "g": g,
                      "coordinate": "S", "xbar": LEMMA_XBAR, "order": LEMMA_ORDER})
    rng.shuffle(items)
    return configs, items


def _draw_r0(rng: random.Random, index: int, count: int) -> float:
    lo, hi = SWEEP_R0_BELOW if index < count // 2 else SWEEP_R0_ABOVE
    return rng.uniform(lo, hi)


def _r0_sweep(rng: random.Random):
    configs = {}
    for i in range(SWEEP_SICA_ITEMS):
        r0 = _draw_r0(rng, i, SWEEP_SICA_ITEMS)
        configs[f"sica_{i:02d}"] = _sica_config(
            r0 / sica_r0_per_beta(SICA_PARAMS), SICA_ORDERS, SWEEP_SICA_T)
    for i in range(SWEEP_TEIV_ITEMS):
        r0 = _draw_r0(rng, i, SWEEP_TEIV_ITEMS)
        configs[f"teiv_{i:02d}"] = _teiv_config(r0 / teiv_r0_per_beta(TEIV_PARAMS))
    items = [{"command": "report", "config": name} for name in configs]
    rng.shuffle(items)
    return configs, items


def _long_horizon(rng: random.Random):
    configs = {}
    for fig, beta in FIG_BETAS.items():
        for order in LONG_ORDERS:
            configs[f"{fig}_order_{order:g}"] = _sica_config(beta, [order], LONG_T)
    items = [{"command": "report", "config": name} for name in configs]
    rng.shuffle(items)
    return configs, items


def make_workload(name: str, seed: int):
    """Return (configs, items) for a workload; the same seed gives the same inputs.

    ``configs`` maps a config name to its JSON document; each item names
    a CLI command and the config it runs on.
    """
    builders = {"figures": _figures, "r0_sweep": _r0_sweep, "long_horizon": _long_horizon}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return builders[name](random.Random(f"{name}:{seed}"))


def write_configs(configs: dict, directory: str) -> dict:
    """Write every config as JSON; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, doc in configs.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        paths[name] = path
    return paths


def item_argv(item: dict, config_path: str, out_dir: str) -> list:
    """The CLI argument list of one item; ``out_dir`` receives its outputs."""
    argv = [item["command"], "--config", config_path]
    if item["command"] == "simulate":
        argv += ["--out", out_dir]
    elif item["command"] == "verify-lemma":
        argv += ["--coordinate", item["coordinate"], "--g", item["g"],
                 "--xbar", repr(item["xbar"]), "--order", repr(item["order"])]
    return argv


def requested_steps(item: dict, config: dict) -> int:
    """Solver steps an item asks for: steps x orders (one order for verify-lemma)."""
    orders = 1 if item["command"] == "verify-lemma" else len(config["orders"])
    return config["steps"] * orders
