import dataclasses
import json
import os

import pytest

from fracstab import ContractError
from fracstab.models import MODELS, sica, teiv

SCHEMA = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "schema.json")

# one params value per registered model, with non-default optional fields
SAMPLE_PARAMS = {
    "sica": sica.baseline_params(beta=0.866, incidence="mass_action"),
    "teiv": teiv.TeivParams(lambda_=5.0, mu_T=0.1, mu_E=0.2, mu_I=0.3, mu_V=2.0, rho=0.05,
                            gamma=0.3, k=10.0, beta=0.01, alpha1=0.01, alpha2=0.01,
                            alpha3=0.001),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_params_codec_round_trip_and_strictness(name):
    spec, p = MODELS[name], SAMPLE_PARAMS[name]
    doc = json.loads(json.dumps(dataclasses.asdict(p)))
    assert spec.params_from_json(doc) == p
    with pytest.raises(ContractError, match="unknown"):
        spec.params_from_json(dict(doc, betta=0.1))
    with pytest.raises(ContractError, match="beta"):
        spec.params_from_json({k: v for k, v in doc.items() if k != "beta"})


def test_schema_enums_match_registry():
    with open(SCHEMA, encoding="utf-8") as fh:
        props = json.load(fh)["properties"]
    assert props["model"]["enum"] == list(MODELS)
    kinds = [kind for spec in MODELS.values() for kind in spec.functionals]
    assert props["functionals"]["items"]["enum"] == kinds

