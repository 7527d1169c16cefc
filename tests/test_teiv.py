import math

import numpy as np
import pytest

from fracstab import (
    ContractError,
    FractionalOrder,
    GFunction,
    UniformGrid,
    caputo_of_functional,
    decrescence_certificate,
    default_tolerance,
    solve_fde_abm,
)
from fracstab.models import MODELS, teiv
from oracles import functional_value, psi


def demo_params(**overrides):
    kw = dict(lambda_=5.0, mu_T=0.1, mu_E=0.2, mu_I=0.3, mu_V=2.0, rho=0.05,
              gamma=0.3, k=10.0, beta=0.01, alpha1=0.01, alpha2=0.01, alpha3=0.001)
    kw.update(overrides)
    return teiv.TeivParams(**kw)


def random_params(rng):
    return teiv.TeivParams(
        lambda_=rng.uniform(1.0, 10.0),
        mu_T=rng.uniform(0.05, 0.2),
        mu_E=rng.uniform(0.1, 0.5),
        mu_I=rng.uniform(0.1, 0.5),
        mu_V=rng.uniform(0.5, 3.0),
        rho=rng.uniform(0.01, 0.1),
        gamma=rng.uniform(0.1, 0.5),
        k=rng.uniform(1.0, 20.0),
        beta=rng.uniform(0.001, 0.02),
        alpha1=rng.uniform(0.0, 0.1),
        alpha2=rng.uniform(0.0, 0.1),
        alpha3=rng.uniform(0.0, 0.01),
    )


# ---------------------------------------------------------------- parameters

def test_params_reject_non_positive_rates():
    with pytest.raises(ContractError):
        demo_params(mu_V=0.0)
    with pytest.raises(ContractError):
        demo_params(k=-1.0)


def test_params_allow_zero_saturation():
    p = demo_params(alpha1=0.0, alpha2=0.0, alpha3=0.0)
    assert p.alpha1 == 0.0
    with pytest.raises(ContractError):
        demo_params(alpha2=-0.01)


# ---------------------------------------------------------------- incidence and field

def test_incidence_zero_at_zero_target_cells():
    assert teiv.teiv_incidence(demo_params())(0.0, 5.0) == 0.0


def test_incidence_mass_action_limit():
    p = demo_params(alpha1=0.0, alpha2=0.0, alpha3=0.0)
    assert teiv.teiv_incidence(p)(7.0, 3.0) == pytest.approx(p.beta * 7.0)


def test_incidence_saturated_hand_value():
    p = demo_params(beta=1.0, alpha1=1.0, alpha2=1.0, alpha3=1.0)
    assert teiv.teiv_incidence(p)(1.0, 1.0) == pytest.approx(0.25)


def test_rhs_at_zero_incidence_denominator_is_non_finite_without_raising():
    # 1 + 0.5 V = 0 at the undershoot V = -2: the field must carry inf or
    # nan to the solver's guard, not raise or warn
    p = demo_params(alpha1=0.0, alpha2=0.5, alpha3=0.0)
    out = teiv.teiv_field(p)(np.array([40.0, 1.0, 1.0, -2.0]))
    assert not np.isfinite(out[:2]).any()
    assert np.isfinite(out[2:]).all()


def test_rhs_hand_value_unit_parameters():
    p = teiv.TeivParams(lambda_=1.0, mu_T=1.0, mu_E=1.0, mu_I=1.0, mu_V=1.0,
                        rho=1.0, gamma=1.0, k=1.0, beta=1.0)
    np.testing.assert_allclose(
        teiv.teiv_field(p)([1.0, 1.0, 1.0, 1.0]), [0.0, -2.0, 0.0, 0.0], atol=1e-14
    )


def test_rhs_vanishes_at_infection_free_point():
    p = demo_params()
    np.testing.assert_allclose(
        teiv.teiv_field(p)(teiv.teiv_infection_free(p)), 0.0, atol=1e-12
    )


# ---------------------------------------------------------------- R0

def test_r0_all_ones_hand_value():
    p = teiv.TeivParams(lambda_=1.0, mu_T=1.0, mu_E=1.0, mu_I=1.0, mu_V=1.0,
                        rho=1.0, gamma=1.0, k=1.0, beta=1.0, alpha1=1.0)
    assert teiv.teiv_r0(p) == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_r0_linear_in_virion_production():
    p = demo_params()
    assert teiv.teiv_r0(demo_params(k=20.0)) == pytest.approx(
        2.0 * teiv.teiv_r0(p), rel=1e-14
    )


# ---------------------------------------------------------------- equilibria

def test_equilibria_always_starts_with_infection_free():
    p = demo_params()
    eqs = teiv.teiv_equilibria(p)
    np.testing.assert_allclose(eqs[0], [50.0, 0.0, 0.0, 0.0])


def test_equilibria_single_below_threshold():
    p = demo_params(beta=0.0001)
    assert teiv.teiv_r0(p) < 1.0
    assert len(teiv.teiv_equilibria(p)) == 1


def test_chronic_equilibrium_positive_with_small_residual():
    rng = np.random.default_rng(5)
    found = 0
    while found < 10:
        p = random_params(rng)
        if teiv.teiv_r0(p) <= 1.0:
            continue
        eqs = teiv.teiv_equilibria(p)
        assert len(eqs) == 2
        chronic = eqs[1]
        assert (chronic[1:] > 0).all()
        scale = np.abs(chronic).max()
        assert np.abs(teiv.teiv_field(p)(chronic)).max() <= 1e-9 * max(scale, 1.0)
        found += 1


# ---------------------------------------------------------------- Lyapunov functional

def test_lyapunov_zero_at_anchor_positive_nearby():
    p = demo_params()
    chronic = teiv.teiv_equilibria(p)[1]
    L = teiv.teiv_lyapunov(p, chronic)
    assert functional_value(L, chronic) == pytest.approx(0.0, abs=1e-10)
    rng = np.random.default_rng(9)
    for _ in range(20):
        state = chronic * np.exp(rng.uniform(-0.5, 0.5, size=4))
        if not np.allclose(state, chronic):
            assert functional_value(L, state) > 0.0


def test_lyapunov_rejects_non_equilibrium_anchor():
    p = demo_params()
    with pytest.raises(ContractError):
        teiv.teiv_lyapunov(p, [1.0, 1.0, 1.0, 1.0])


def test_lyapunov_at_infection_free_anchor_has_linear_parts():
    p = demo_params(beta=0.0001)
    ife = teiv.teiv_equilibria(p)[0]
    L = teiv.teiv_lyapunov(p, ife)
    assert functional_value(L, ife) == pytest.approx(0.0, abs=1e-12)
    # zero anchors on E, I, V degenerate those components to weighted
    # linear terms
    xi = p.eclipse_exit_rate
    state = np.array([ife[0], 2.0, 0.0, 0.0])
    assert functional_value(L, state) == pytest.approx(
        2.0 + 0.5 * (p.rho / (1.0 + p.alpha1 * ife[0])) * 4.0, rel=1e-9
    )
    state_i = np.array([ife[0], 0.0, 3.0, 0.0])
    assert functional_value(L, state_i) == pytest.approx(3.0 * xi / p.gamma, rel=1e-9)


def test_lyapunov_mass_action_limit_matches_log_closed_form():
    # with no saturation the T-part shape function is proportional to the
    # identity, so the anchored part collapses to the log-Volterra form
    p = demo_params(alpha1=0.0, alpha2=0.0, alpha3=0.0)
    chronic = teiv.teiv_equilibria(p)[1]
    L = teiv.teiv_lyapunov(p, chronic)
    tbar = chronic[0]
    for T in (0.5 * tbar, 0.9 * tbar, 2.0 * tbar):
        state = chronic.copy()
        state[0] = T
        expected_t_part = T - tbar - tbar * math.log(T / tbar)
        base = functional_value(L, chronic.copy())
        with_t = functional_value(L, state)
        cross = 0.5 * p.rho * (T - tbar) ** 2
        assert with_t - base == pytest.approx(expected_t_part + cross, rel=1e-8)


def test_t_part_psi_invariant_under_incidence_scaling():
    # psi depends on the shape function only through the ratio g(anchor)/g(s)
    p = demo_params()
    vbar = 12.5
    incidence = teiv.teiv_incidence(p)
    g1 = GFunction(lambda th: incidence(th, vbar), "incidence")
    g5 = GFunction(lambda th: 5.0 * incidence(th, vbar), "scaled")
    for x in (3.0, 20.0, 75.0):
        assert psi(g5, 30.0, x) == pytest.approx(psi(g1, 30.0, x), rel=1e-12)


def test_lyapunov_orbital_derivative_nonpositive_at_chronic():
    p = demo_params()
    chronic = teiv.teiv_equilibria(p)[1]
    L = teiv.teiv_lyapunov(p, chronic)
    model = teiv.teiv_model(p)
    rng = np.random.default_rng(31)
    states = [chronic * np.exp(rng.uniform(-1.0, 1.0, size=4)) for _ in range(200)]
    rates = [model.rhs(state) for state in states]
    assert (L.rate_along(states, rates) <= 1e-9).all()


def test_decrescence_along_trajectory_at_chronic_anchor():
    p = demo_params()
    chronic = teiv.teiv_equilibria(p)[1]
    L = teiv.teiv_lyapunov(p, chronic)
    model = teiv.teiv_model(p)
    grid = UniformGrid(0.0, 100.0 / 800, 800)
    x0 = chronic * np.array([1.3, 0.7, 1.2, 0.8])
    for alpha in (0.8, 1.0):
        order = FractionalOrder(alpha)
        traj = solve_fde_abm(model, order, x0, grid)
        V = L.values_along(traj.states)
        dV = caputo_of_functional(V, traj)
        scale = max(float(np.abs(V).max()), 1.0)
        cert = decrescence_certificate(dV, default_tolerance(grid, order, scale))
        assert cert.passed, (alpha, cert.max_violation, cert.tolerance)


# ---------------------------------------------------------------- spectral threshold

def test_r0_threshold_matches_linearized_stability():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 100:
        p = random_params(rng)
        if abs(teiv.teiv_r0(p) - 1.0) <= 1e-6:
            continue
        assert MODELS["teiv"].spectral_consistent(p), p
        checked += 1
