"""Seeded stress corpus for the command line.

Each case draws a config around fig2 (SICA) or teiv_demo (TEIV): every rate
scaled by 10^U(-2, 2), SICA read as mass action half the time, 1 to 3 orders
in [0.05, 1], t_end = 10^U(-3, 3.5), steps in {10, 50, 200}, and each initial
component 0 with probability 0.1, otherwise scaled by 10^U(-6, 3).  It runs a
random command on the config through ``cli.main``; a few cases get malformed
argv instead.  Whatever the exit code, every run must keep these:

* ``main`` returns 0-3 and raises nothing, a warning included;
* exit 2 prints a JSON ``error`` on stderr;
* exit 3 prints a JSON ``error``, ``node`` and ``order`` on stdout;
* a ``simulate`` that does not exit 0 leaves no ``--out``;
* ``report``'s regime is endemic exactly when the threshold that ``r0``
  prints exceeds 1.
"""

import contextlib
import copy
import io
import json
import os
import warnings

import numpy as np
import pytest

from fracstab.cli import main
from fracstab.models import MODELS
from oracles import shipped_config


def state_labels(doc: dict) -> tuple:
    """The state labels of a config's model, from its registry entry."""
    spec = MODELS[doc["model"]]
    return spec.model(spec.params(**doc["params"])).state_labels


BASES = [shipped_config("fig2"), shipped_config("teiv_demo")]
LABELS = {doc["model"]: state_labels(doc) for doc in BASES}
COMMANDS = ("r0", "simulate", "report", "verify-lemma")
G_LABELS = ("identity", "sqrt", "log1p")
MALFORMED = 0.05           # share of cases whose argv is malformed

# Without np.errstate, numpy warns in seeds 3, 4 and 7 of inf in the solver's
# history sums, and in seed 4 of a functional value that overflows.
SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
CASES_PER_SEED = 100


def draw_config(rng) -> dict:
    doc = copy.deepcopy(BASES[rng.integers(len(BASES))])
    params = doc["params"]
    for name, value in params.items():
        if name != "incidence":
            params[name] = value * 10.0 ** rng.uniform(-2.0, 2.0)
    if doc["model"] == "sica" and rng.random() < 0.5:
        # beta per head of the disease-free pool lambda / mu, so that the
        # threshold is the standard reading's and solves can complete
        params["incidence"] = "mass_action"
        params["beta"] *= params["mu"] / params["lambda_"]
    doc["orders"] = rng.uniform(0.05, 1.0, size=rng.integers(1, 4)).tolist()
    doc["t_end"] = 10.0 ** rng.uniform(-3.0, 3.5)
    doc["steps"] = int(rng.choice([10, 50, 200]))
    doc["initial_state"] = [0.0 if rng.random() < 0.1 else x * 10.0 ** rng.uniform(-6.0, 3.0)
                            for x in doc["initial_state"]]
    return doc


def draw_argv(rng, model: str, config: str, out_dir: str) -> list:
    command = COMMANDS[rng.integers(len(COMMANDS))]
    argv = [command, "--config", config]
    if command == "simulate":
        argv += ["--out", out_dir]
    if command == "verify-lemma":
        labels = LABELS[model]
        argv += ["--coordinate", labels[rng.integers(len(labels))],
                 "--xbar", repr(10.0 ** rng.uniform(-3.0, 6.0)),
                 "--g", G_LABELS[rng.integers(len(G_LABELS))]]
    if rng.random() < MALFORMED:
        malformed = rng.integers(3)
        if malformed == 0:
            argv[0] = "frobnicate"
        elif malformed == 1:
            del argv[1:3]  # no --config
        else:
            argv.append("--bogus")
    return argv


def run(argv):
    """(exit code, or the exception that escaped ``main``; stdout; stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            code = exc
    return code, out.getvalue(), err.getvalue()


def json_keys(text: str) -> set:
    """The keys of the JSON object ``text``; empty if it is not one."""
    try:
        doc = json.loads(text)
    except ValueError:
        return set()
    return set(doc) if isinstance(doc, dict) else set()


def broken_invariants(argv: list, out_dir: str) -> list:
    code, out, err = run(argv)
    if code not in (0, 1, 2, 3):
        return [f"main gave {code!r}, not an exit code 0-3"]
    problems = []
    if code == 2 and "error" not in json_keys(err):
        problems.append(f"exit 2 without a JSON error on stderr: {err!r}")
    if code == 3 and not {"error", "node", "order"} <= json_keys(out):
        problems.append(f"exit 3 without a JSON error, node and order on stdout: {out!r}")
    if argv[0] == "simulate" and code != 0 and os.path.exists(out_dir):
        problems.append(f"simulate exited {code} and left {out_dir}")
    if argv[0] == "report" and code in (0, 1):
        regime = json.loads(out)["regime"]
        r0_code, r0_out, _ = run(["r0", "--config", argv[2]])
        if r0_code != 0:
            problems.append(f"report exited {code}, but r0 on its config exited {r0_code!r}")
        else:
            doc = json.loads(r0_out)
            threshold = doc["threshold"]
            if (regime == "endemic") != (threshold > 1.0):
                problems.append(f"report's regime {regime!r} at threshold {threshold!r}")
    return problems


@pytest.mark.parametrize("seed", SEEDS)
def test_every_run_keeps_the_cli_contract(tmp_path, seed):
    rng = np.random.default_rng(seed)
    problems = []
    for case in range(CASES_PER_SEED):
        doc = draw_config(rng)
        config = tmp_path / f"case{case}.json"
        config.write_text(json.dumps(doc))
        out_dir = str(tmp_path / f"out{case}")
        argv = draw_argv(rng, doc["model"], str(config), out_dir)
        problems += [f"case {case}, {argv}: {p}" for p in broken_invariants(argv, out_dir)]
    assert not problems, "\n".join(problems[:10])
