import dataclasses
import json

import numpy as np
import pytest

from fracstab import (
    ConfigError, ContractError, DomainError, NoEndemicEquilibriumError,
)
from fracstab.config import config_from_dict
from fracstab.models import MODELS, sica
from oracles import functional_value

# endemic equilibrium under standard incidence for the beta = 0.866 set,
# frozen from an independent root-finding oracle (scipy.optimize.fsolve,
# verified residual < 1e-8)
ENDEMIC_STANDARD = np.array(
    [144339.46441988, 37997.90077952, 364033.56297468, 2826.42517474]
)


def baseline(**kw):
    return sica.baseline_params(**kw)


# ---------------------------------------------------------------- parameters

def test_params_reject_non_positive_rates():
    with pytest.raises(ContractError):
        sica.SicaParams(lambda_=0.0, mu=1.0, beta=1.0, rho=1.0, phi=1.0,
                        alpha_t=1.0, omega=1.0, d=1.0)
    with pytest.raises(ContractError):
        sica.SicaParams(lambda_=1.0, mu=1.0, beta=-0.1, rho=1.0, phi=1.0,
                        alpha_t=1.0, omega=1.0, d=1.0)


def test_params_reject_unknown_incidence():
    with pytest.raises(ContractError):
        sica.SicaParams(lambda_=1.0, mu=1.0, beta=1.0, rho=1.0, phi=1.0,
                        alpha_t=1.0, omega=1.0, d=1.0, incidence="frequency")


def test_derived_rates():
    p = baseline()
    assert p.a_exit_rate == pytest.approx(0.33 + p.mu + 1.0)
    assert p.c_exit_rate == pytest.approx(0.09 + p.mu)
    x1, x2 = p.a_exit_rate, p.c_exit_rate
    expected = p.mu * (x2 * (p.rho + x1) + x1 * p.phi + p.rho * p.d) + p.rho * p.omega * p.d
    assert p.clearance_factor == pytest.approx(expected, rel=1e-15)


def config_document(params: dict) -> dict:
    """A minimal SICA config document around ``params``, through a JSON round trip."""
    return json.loads(json.dumps({
        "model": "sica", "params": params, "orders": [0.5],
        "initial_state": [1.0, 1.0, 1.0, 1.0], "t_end": 1.0, "steps": 10,
    }))


def test_params_json_round_trip():
    p = baseline(beta=0.866, incidence="mass_action")
    doc = config_document(dataclasses.asdict(p))
    assert doc["params"]["lambda_"] == 10724.0
    assert doc["params"]["incidence"] == "mass_action"
    assert config_from_dict(doc).params == p


def test_params_json_rejects_unknown_field():
    params = dataclasses.asdict(baseline())
    params["betta"] = params.pop("beta")
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict(config_document(params))
    with pytest.raises(ConfigError, match="beta"):
        config_from_dict(config_document({k: v for k, v in params.items() if k != "betta"}))


# ---------------------------------------------------------------- vector field

def test_rhs_vanishes_at_disease_free_point_both_incidences():
    for incidence in ("standard", "mass_action"):
        p = baseline(incidence=incidence)
        np.testing.assert_allclose(
            sica.sica_field(p)(sica.sica_disease_free(p)), 0.0, atol=1e-9
        )


def test_rhs_mass_action_hand_value():
    # transmission-only limit: vanishing recruitment and transfer rates
    eps = 1e-300
    p = sica.SicaParams(lambda_=eps, mu=1.0, beta=1.0, rho=eps, phi=eps,
                        alpha_t=eps, omega=eps, d=eps, incidence="mass_action")
    np.testing.assert_allclose(
        sica.sica_field(p)([1.0, 1.0, 0.0, 0.0]), [-2.0, 0.0, 0.0, 0.0], atol=1e-12
    )


def test_rhs_standard_incidence_divides_by_total():
    p = baseline()
    state = np.array([100.0, 50.0, 30.0, 20.0])
    mass = sica.sica_field(sica.baseline_params(incidence="mass_action"))(state)
    std = sica.sica_field(p)(state)
    # the two variants differ exactly by the 1/N factor in the transmission term
    inc_mass = p.beta * state[0] * state[1]
    inc_std = inc_mass / state.sum()
    assert (mass[0] - std[0]) == pytest.approx(inc_std - inc_mass, rel=1e-12)


def test_rhs_standard_incidence_zero_population_error():
    with pytest.raises(DomainError):
        sica.sica_field(baseline())([0.0, 0.0, 0.0, 0.0])


# ---------------------------------------------------------------- R0 and equilibria

def test_r0_baseline_matches_published_value():
    assert sica.sica_r0(baseline()) == pytest.approx(0.2900, abs=5e-4)


def test_r0_high_transmission_matches_published_value():
    assert sica.sica_r0(baseline(beta=0.866)) == pytest.approx(3.8049, abs=5e-3)


def test_r0_linear_in_beta():
    p = baseline()
    assert sica.sica_r0(baseline(beta=0.066 * 3.0)) == pytest.approx(
        3.0 * sica.sica_r0(p), rel=1e-14
    )


def test_disease_free_published_value():
    df = sica.sica_disease_free(baseline())
    assert df[0] == pytest.approx(7.4575e5, rel=1e-4)
    np.testing.assert_array_equal(df[1:], 0.0)


def test_disease_free_unit_parameters():
    p = sica.SicaParams(lambda_=1.0, mu=1.0, beta=1.0, rho=1.0, phi=1.0,
                        alpha_t=1.0, omega=1.0, d=1.0)
    np.testing.assert_array_equal(sica.sica_disease_free(p), [1.0, 0.0, 0.0, 0.0])


def test_no_endemic_equilibrium_below_threshold():
    with pytest.raises(NoEndemicEquilibriumError):
        sica.sica_endemic(baseline())  # threshold 0.29 under standard incidence


def test_endemic_standard_matches_frozen_oracle():
    eq = sica.sica_endemic(baseline(beta=0.866))
    np.testing.assert_allclose(eq, ENDEMIC_STANDARD, rtol=1e-6)


def test_endemic_structural_identities():
    p = baseline(beta=0.866)
    eq = sica.sica_endemic(p)
    assert eq[2] == pytest.approx(p.phi * eq[1] / p.c_exit_rate, rel=1e-12)
    assert eq[3] == pytest.approx(p.rho * eq[1] / p.a_exit_rate, rel=1e-12)
    scale = np.abs(eq).max()
    assert np.abs(sica.sica_field(p)(eq)).max() <= 1e-9 * scale


def test_endemic_mass_action_threshold_and_identity():
    # under mass action the persistence threshold carries the S0 factor, so
    # even the low-transmission set admits an endemic state
    p = baseline(incidence="mass_action")
    assert sica.endemic_threshold(p) > 1.0
    eq = sica.sica_endemic(p)
    q = p.clearance_factor / (p.a_exit_rate * p.c_exit_rate)
    assert eq[0] == pytest.approx(q / p.beta, rel=1e-9)
    assert np.abs(sica.sica_field(p)(eq)).max() <= 1e-9 * np.abs(eq).max()


# ---------------------------------------------------------------- functionals

def admissible_states(rng, anchor, count):
    factors = np.exp(rng.uniform(-2.0, 2.0, size=(count, 4)))
    return anchor * factors


def test_v1_zero_at_endemic_positive_elsewhere():
    p = baseline(beta=0.866)
    eq = sica.sica_endemic(p)
    v1 = sica.sica_v1(p, eq)
    assert functional_value(v1, eq) == pytest.approx(0.0, abs=1e-9)
    rng = np.random.default_rng(3)
    for state in admissible_states(rng, eq, 50):
        if not np.allclose(state, eq):
            assert functional_value(v1, state) > 0.0


def test_v1_orbital_derivative_nonpositive():
    p = baseline(beta=0.866)
    eq = sica.sica_endemic(p)
    v1 = sica.sica_v1(p, eq)
    model = sica.sica_model(p)
    rng = np.random.default_rng(17)
    states = admissible_states(rng, eq, 300)
    rates = [model.rhs(state) for state in states]
    assert (v1.rate_along(states, rates) <= 1e-9).all()


def test_v0_values():
    p = baseline()
    v0 = sica.sica_v0(p)
    s0 = p.lambda_ / p.mu
    assert functional_value(v0, [s0, 0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    assert functional_value(v0, [s0, 1.0, 0.0, 0.0]) == pytest.approx(1.0, rel=1e-12)


def test_v0_orbital_derivative_nonpositive_below_threshold():
    p = baseline()
    v0 = sica.sica_v0(p)
    model = sica.sica_model(p)
    s0 = p.lambda_ / p.mu
    rng = np.random.default_rng(23)
    states = []
    for _ in range(300):
        frac = rng.dirichlet(np.ones(4))
        total = rng.uniform(0.4, 1.2) * s0
        states.append(np.maximum(frac * total, 1e-6))
    rates = [model.rhs(state) for state in states]
    assert (v0.rate_along(states, rates) <= 1e-9).all()


# ---------------------------------------------------------------- spectral threshold

def random_params(rng):
    return sica.SicaParams(
        lambda_=rng.uniform(1e3, 2e4),
        mu=rng.uniform(0.005, 0.05),
        beta=rng.uniform(0.01, 2.0),
        rho=rng.uniform(0.01, 0.5),
        phi=rng.uniform(0.1, 2.0),
        alpha_t=rng.uniform(0.05, 1.0),
        omega=rng.uniform(0.01, 0.5),
        d=rng.uniform(0.1, 2.0),
    )


def test_r0_threshold_matches_linearized_stability():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 100:
        p = random_params(rng)
        if abs(sica.sica_r0(p) - 1.0) <= 1e-6:
            continue
        assert MODELS["sica"].spectral_consistent(p), p
        checked += 1


def test_mass_action_baseline_is_spectrally_inconsistent():
    # the transmission coefficient is calibrated for standard incidence;
    # read literally as mass action it destabilizes the disease-free point
    # even though the reported reproduction number is far below one
    p = baseline(incidence="mass_action")
    assert sica.sica_r0(p) < 1.0
    assert not MODELS["sica"].spectral_consistent(p)


def test_spectral_check_reads_the_rhs(monkeypatch):
    # R0 = 0.9, but a field whose transmission term is 1.2x the published
    # one has the free point unstable: a check that linearizes the model's
    # rhs must see the disagreement with the R0 formula
    p = baseline(beta=0.066 * 0.9 / sica.sica_r0(baseline()))
    assert sica.sica_r0(p) == pytest.approx(0.9)
    assert MODELS["sica"].spectral_consistent(p)
    field = sica.sica_field
    monkeypatch.setattr(sica, "sica_field",
                        lambda q: field(dataclasses.replace(q, beta=1.2 * q.beta)))
    assert not MODELS["sica"].spectral_consistent(p)
