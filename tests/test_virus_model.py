"""A third model, registered only for these tests: the basic virus model.

State (T, I, V): target cells, infected cells, free virus, with

    T' = lambda - d T - beta T V,  I' = beta T V - a I,  V' = k I - u V,

R0 = beta lambda k / (d a u), and Korobeinikov's log-Volterra functional
with weights (1, 1, a/k) (Vargas-De-Leon, Commun. Nonlinear Sci. Numer.
Simul. 24, 2015).  Its three components run through the config reader
and the r0, report and simulate commands with no change to the package:
the model owns its state count.
"""

import copy
import json
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np
import pytest

from fracstab import LyapunovFunctional, ModelDefinition, NoEndemicEquilibriumError
from fracstab.cli import main
from fracstab.models import MODELS, ModelSpec
from fracstab.newton import require_equilibrium

STATE_LABELS = ("T", "I", "V")


@dataclass(frozen=True)
class VirusParams:
    lambda_: float
    d: float
    beta: float
    a: float
    k: float
    u: float


def virus_field(p: VirusParams):
    def rhs(state) -> list:
        T, I, V = state
        inc = p.beta * T * V
        return [p.lambda_ - p.d * T - inc, inc - p.a * I, p.k * I - p.u * V]

    return rhs


def virus_r0(p: VirusParams) -> float:
    return p.beta * p.lambda_ * p.k / (p.d * p.a * p.u)


def virus_free(p: VirusParams) -> np.ndarray:
    return np.array([p.lambda_ / p.d, 0.0, 0.0])


def virus_endemic(p: VirusParams) -> np.ndarray:
    if virus_r0(p) <= 1.0:
        raise NoEndemicEquilibriumError(f"no endemic equilibrium: R0 {virus_r0(p):.4g} <= 1")
    T = p.a * p.u / (p.beta * p.k)
    I = (p.lambda_ - p.d * T) / p.a
    return np.array([T, I, p.k * I / p.u])


def virus_functional(p: VirusParams, anchor):
    anchor = require_equilibrium(virus_field(p), anchor, len(STATE_LABELS))
    return LyapunovFunctional((1.0, 1.0, p.a / p.k), anchor)


def virus_r0_document(p: VirusParams) -> dict:
    try:
        endemic = list(virus_endemic(p))
    except NoEndemicEquilibriumError:
        endemic = None
    return {"r0": virus_r0(p), "free": list(virus_free(p)), "endemic": endemic}


VIRUS = ModelSpec(
    params=VirusParams,
    functionals={"log_volterra": "predicted"},
    model=lambda p: ModelDefinition(len(STATE_LABELS), virus_field(p), "virus", STATE_LABELS),
    r0=virus_r0,
    threshold=virus_r0,
    free=virus_free,
    endemic=virus_endemic,
    functional_at=virus_functional,
    r0_document=virus_r0_document,
)

CONFIG = {
    "model": "virus",
    "params": {"lambda_": 10.0, "d": 0.1, "beta": 0.004, "a": 0.5, "k": 5.0, "u": 2.0},
    "orders": [0.8, 1.0],
    "initial_state": [80.0, 2.0, 5.0],
    "t_end": 100.0,
    "steps": 800,
    "functionals": ["log_volterra"],
}


@pytest.fixture
def virus(monkeypatch, tmp_path):
    """Registers the model and returns a writer of its config files."""
    monkeypatch.setitem(MODELS, "virus", VIRUS)

    def write(beta=0.004, **top):
        doc = copy.deepcopy(CONFIG)
        doc["params"]["beta"] = beta
        doc.update(top)
        path = tmp_path / f"virus_{beta:g}_{len(doc['initial_state'])}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def test_r0_prints_the_models_document(virus, capsys):
    assert main(["r0", "--config", virus()]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["model"] == "virus" and doc["r0"] == pytest.approx(2.0, rel=1e-14)
    np.testing.assert_allclose(doc["endemic"], [50.0, 10.0, 25.0], rtol=1e-14)


@pytest.mark.parametrize("beta,regime,r0", [(0.004, "endemic", 2.0), (0.001, "disease-free", 0.5)])
def test_report_certifies_on_both_sides_of_the_threshold(virus, capsys, beta, regime, r0):
    assert main(["report", "--config", virus(beta)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["r0"] == pytest.approx(r0, rel=1e-14)
    assert doc["regime"] == regime and doc["r0_spectral_consistent"] is True
    assert len(doc["target_equilibrium"]) == 3
    assert [e["verdict"] for e in doc["per_order"]] == [f"{regime}, certified"] * 2


def test_simulate_writes_a_csv_per_order_and_three_panels(virus, capsys, tmp_path):
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", virus(), "--out", str(out_dir)]) == 0
    assert sorted(os.listdir(out_dir)) == [
        "states.svg", "trajectory_order_0.8.csv", "trajectory_order_1.csv"]
    with open(out_dir / "trajectory_order_0.8.csv", encoding="utf-8") as fh:
        assert fh.readline().strip() == "t,T,I,V,V_log_volterra,dcaputo_V_log_volterra"
    table = np.loadtxt(out_dir / "trajectory_order_0.8.csv", delimiter=",", skiprows=1)
    assert table.shape == (801, 6) and (table[:, 1:4] > 0).all()
    ns = "{http://www.w3.org/2000/svg}"
    root = ET.parse(out_dir / "states.svg").getroot()
    frames = [el for el in root if el.tag == f"{ns}rect" and el.get("fill") == "none"]
    assert len(frames) == 3
    assert len(root.findall(f"{ns}polyline")) == 3 * 2


@pytest.mark.parametrize("initial_state", [[80.0, 2.0], [80.0, 2.0, 5.0, 1.0]])
def test_config_holds_the_initial_state_to_three_components(virus, capsys, initial_state):
    assert main(["r0", "--config", virus(initial_state=initial_state)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ConfigError", "message": "initial_state must have 3 components"}
