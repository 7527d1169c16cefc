import dataclasses
import json
import os
import re

import numpy as np
import pytest

from fracstab import ConfigError
from fracstab.cli import main
from fracstab.config import ExperimentConfig, config_from_dict
from fracstab.models import MODELS, sica, teiv
from oracles import baseline_params
from test_virus_model import CONFIG as VIRUS_CONFIG, VIRUS

SCHEMA = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "schema.json")

# one params value per registered model, with non-default optional fields
SAMPLE_PARAMS = {
    "sica": baseline_params(beta=0.866, incidence="mass_action"),
    "teiv": teiv.TeivParams(lambda_=5.0, mu_T=0.1, mu_E=0.2, mu_I=0.3, mu_V=2.0, rho=0.05,
                            gamma=0.3, k=10.0, beta=0.01, alpha1=0.01, alpha2=0.01,
                            alpha3=0.001),
}


def config_document(model: str, params: dict) -> dict:
    """A minimal config document around ``params``, through a JSON round trip."""
    return json.loads(json.dumps({
        "model": model, "params": params, "orders": [0.5],
        "initial_state": [1.0, 1.0, 1.0, 1.0], "t_end": 1.0, "steps": 10,
    }))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_params_codec_round_trip_and_strictness(name):
    p = SAMPLE_PARAMS[name]
    params = dataclasses.asdict(p)
    assert config_from_dict(config_document(name, params)).params == p
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict(config_document(name, dict(params, betta=0.1)))
    with pytest.raises(ConfigError, match="beta"):
        config_from_dict(config_document(name, {k: v for k, v in params.items() if k != "beta"}))


@pytest.mark.parametrize("extra", [-1, 1], ids=["one_too_few", "one_too_many"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_initial_state_count_is_the_models_own(name, extra, tmp_path, capsys):
    p = SAMPLE_PARAMS[name]
    count = len(MODELS[name].model(p).state_labels)
    doc = dict(config_document(name, dataclasses.asdict(p)), initial_state=[1.0] * (count + extra))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["r0", "--config", str(path)]) == 2
    message = f"initial_state must have {count} components"
    assert json.loads(capsys.readouterr().err) == {"error": "ConfigError", "message": message}


# every registered model, SICA at both incidences, and the test-registered virus model
R0_CASES = {
    "sica_standard": ("sica", baseline_params()),
    "sica_mass_action": ("sica", SAMPLE_PARAMS["sica"]),
    "teiv": ("teiv", SAMPLE_PARAMS["teiv"]),
    "virus": ("virus", VIRUS.params(**VIRUS_CONFIG["params"])),
}


@pytest.mark.parametrize("threshold", [0.5, 2.0])
@pytest.mark.parametrize("case", sorted(R0_CASES))
def test_r0_document_is_one_form_with_endemic_null_at_threshold_1_or_below(
        case, threshold, tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(MODELS, "virus", VIRUS)
    name, params = R0_CASES[case]
    spec = MODELS[name]
    # the threshold is proportional to beta in every model
    p = dataclasses.replace(params, beta=params.beta * threshold / spec.threshold(params))
    count = len(spec.model(p).state_labels)
    doc = dict(config_document(name, dataclasses.asdict(p)), initial_state=[1.0] * count)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["r0", "--config", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["model", "r0", "threshold", "free", "endemic"]
    assert out["threshold"] == pytest.approx(threshold, rel=1e-12)
    assert len(out["free"]) == count
    assert (out["endemic"] is None) == (out["threshold"] <= 1.0)
    assert out["endemic"] is None or (len(out["endemic"]) == count and min(out["endemic"]) > 0)


@pytest.mark.parametrize("threshold,regime", [
    (float(np.nextafter(1.0, 0.0)), "disease-free"),
    (1.0, "disease-free"),
    (float(np.nextafter(1.0, 2.0)), "endemic"),
], ids=["below_1", "at_1", "above_1"])
def test_regime_is_endemic_only_above_threshold_1(threshold, regime):
    spec = dataclasses.replace(MODELS["sica"], threshold=lambda p: threshold)
    assert spec.regime(baseline_params()) == regime


def test_schema_enums_match_registry():
    # the registry is the one list of models and kinds: the schema repeats neither
    with open(SCHEMA, encoding="utf-8") as fh:
        schema = json.load(fh)
    props = schema["properties"]
    assert "enum" not in props["model"]
    assert "enum" not in props["functionals"]["items"]
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(props) == names
    assert set(schema["required"]) == names - {"functionals"}
    # nor the params fields: it points to each model's params dataclass
    words = set(re.findall(r"\w+", props["params"]["description"]))
    for name, spec in MODELS.items():
        fields = {f.name for f in dataclasses.fields(spec.params)}
        assert not words & fields, (name, sorted(words & fields))



# The model fields take the state as Python floats and return a list of
# Python floats.  These re-typings evaluate the same expressions on numpy
# float64 scalars, the reference the float arithmetic must match bit for bit.
def sica_rhs_numpy(p, state):
    S, I, C, A = np.asarray(state, dtype=float)
    if p.incidence == "standard":
        inc = p.beta * S * I / (S + I + C + A)
    else:
        inc = p.beta * S * I
    return np.array([
        p.lambda_ - p.mu * S - inc,
        inc - (p.rho + p.phi + p.mu) * I + p.alpha_t * A + p.omega * C,
        p.phi * I - p.c_exit_rate * C,
        p.rho * I - p.a_exit_rate * A,
    ])


def teiv_rhs_numpy(p, state):
    T, E, I, V = np.asarray(state, dtype=float)
    fv = p.beta * T / (1.0 + p.alpha1 * T + p.alpha2 * V + p.alpha3 * T * V) * V
    return np.array([
        p.lambda_ - p.mu_T * T - fv + p.rho * E,
        fv - p.eclipse_exit_rate * E,
        p.gamma * E - p.mu_I * I,
        p.k * I - p.mu_V * V,
    ])


@pytest.mark.parametrize("field,reference,params,scale", [
    (sica.sica_field, sica_rhs_numpy, baseline_params(0.066, "standard"), 6e5),
    (sica.sica_field, sica_rhs_numpy, baseline_params(0.866, "mass_action"), 6e5),
    (teiv.teiv_field, teiv_rhs_numpy, SAMPLE_PARAMS["teiv"], 50.0),
], ids=["sica_standard", "sica_mass_action", "teiv"])
@pytest.mark.parametrize("container", [list, tuple])
def test_rhs_bit_identical_to_numpy_scalar_arithmetic(field, reference, params, scale, container):
    rhs = field(params)
    rng = np.random.default_rng(20)
    # a fifth of the components negative, as in a solver undershoot
    states = scale * rng.uniform(-0.25, 1.0, size=(200, 4))
    for state in states:
        out = rhs(container(state.tolist()))
        assert type(out) is list and len(out) == 4 and all(type(v) is float for v in out)
        assert np.array_equal(out, reference(params, state))


@pytest.mark.parametrize("name,params,r0", [
    ("sica", baseline_params(), 1.0 - 1e-7),
    ("sica", baseline_params(), 1.0 + 1e-7),
    ("teiv", SAMPLE_PARAMS["teiv"], 1.0 + 1e-7),
])
def test_spectral_consistent_without_a_spectral_test_within_1e_6_of_r0_1(
        monkeypatch, name, params, r0):
    # R0 is proportional to beta in both models
    spec = MODELS[name]
    p = dataclasses.replace(params, beta=params.beta * r0 / spec.r0(params))
    assert abs(spec.r0(p) - r0) < 1e-12

    def no_jacobian(*args):
        raise AssertionError("the spectral test ran")

    monkeypatch.setattr("fracstab.models.jacobian", no_jacobian)
    assert spec.spectral_consistent(p) is True


# SICA at both incidences and both baseline betas, TEIV on teiv_demo with and without alpha3
NEAR_THRESHOLD_CASES = {
    f"sica_{incidence}_{beta}": ("sica", baseline_params(beta=beta, incidence=incidence))
    for incidence in sica.INCIDENCE_VARIANTS for beta in (0.066, 0.866)
}
NEAR_THRESHOLD_CASES.update(
    teiv_demo=("teiv", SAMPLE_PARAMS["teiv"]),
    teiv_demo_alpha3_0=("teiv", dataclasses.replace(SAMPLE_PARAMS["teiv"], alpha3=0.0)),
)


@pytest.mark.parametrize("case", sorted(NEAR_THRESHOLD_CASES))
def test_endemic_point_is_a_positive_root_at_every_double_just_above_the_critical_beta(case):
    # the threshold is linear in beta; a few ULP above its critical value
    # Newton from SICA's positive seed steps to I, C, A ~ -1e-10
    name, base = NEAR_THRESHOLD_CASES[case]
    spec = MODELS[name]
    beta = base.beta / spec.threshold(base)
    checked = 0
    for _ in range(200):
        beta = float(np.nextafter(beta, np.inf))
        p = dataclasses.replace(base, beta=beta)
        if spec.threshold(p) <= 1.0:
            continue
        x = spec.endemic(p)
        residual = np.abs(spec.model(p).rhs(x.tolist())).max()
        assert (x > 0).all() and residual <= 1e-9 * max(np.abs(x).max(), 1.0), (beta, x)
        checked += 1
    assert checked >= 190
