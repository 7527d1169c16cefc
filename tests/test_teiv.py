import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from fracstab import (
    ContractError,
    FractionalOrder,
    GFunction,
    NewtonError,
    NoEndemicEquilibriumError,
    UniformGrid,
    identity_g,
    psi_profile,
    solve_fde_abm,
)
from fracstab import newton
from fracstab.cli import certify_order
from fracstab.models import MODELS, teiv
from fracstab.newton import damped_newton
from oracles import functional_value, psi, teiv_chronic_decimal, teiv_chronic_seed_bisect


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
    out = teiv.teiv_field(p)([40.0, 1.0, 1.0, -2.0])
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
        teiv.teiv_field(p)(teiv.teiv_infection_free(p).tolist()), 0.0, atol=1e-12
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
    with pytest.raises(NoEndemicEquilibriumError, match="no chronic equilibrium"):
        teiv.teiv_chronic(p)


def test_chronic_equilibrium_positive_with_small_residual():
    # every third set has alpha3 = 0 (a linear stationarity equation) and
    # every third all alphas = 0 (mass action)
    rng = np.random.default_rng(5)
    found = 0
    while found < 210:
        p = random_params(rng)
        if found % 3 == 1:
            p = dataclasses.replace(p, alpha3=0.0)
        elif found % 3 == 2:
            p = dataclasses.replace(p, alpha1=0.0, alpha2=0.0, alpha3=0.0)
        if teiv.teiv_r0(p) <= 1.0:
            continue
        eqs = teiv.teiv_equilibria(p)
        assert len(eqs) == 2
        chronic = eqs[1]
        assert (chronic[1:] > 0).all()
        scale = np.abs(chronic).max()
        assert np.abs(teiv.teiv_field(p)(chronic.tolist())).max() <= 1e-9 * max(scale, 1.0)
        # the closed-form seed is a root to rounding, so it is as close to
        # the bisection seed as that seed's 1e-12 bracket allows
        seed, bisected = teiv._chronic_seed(p), teiv_chronic_seed_bisect(p)
        assert np.abs(teiv.teiv_field(p)(seed.tolist())).max() <= 1e-14 * scale, p
        assert np.abs(seed - bisected).max() <= 1e-11 * scale, p
        polished = damped_newton(teiv.teiv_field(p), bisected)
        assert np.abs(chronic - polished).max() <= 1e-14 * scale, p
        found += 1


def _ulps(x, reference) -> list:
    """Signed distance of each float of ``x`` from its Decimal reference, in
    units in the last place of the float."""
    return [float((Decimal(v) - r) / Decimal(float(np.spacing(v)))) for v, r in zip(x.tolist(), reference)]


def test_chronic_equilibrium_of_the_demo_within_two_ulp_of_60_digits():
    p = demo_params()
    reference = teiv_chronic_decimal(p)
    # the reference solves the whole stationarity system, not only the
    # equation in T that it bisects
    with localcontext() as ctx:
        ctx.prec = 60
        T, E, I, V = reference
        lambda_, mu_T, mu_E, mu_I, mu_V, rho, gamma, k, beta, a1, a2, a3 = (
            Decimal(getattr(p, f.name)) for f in dataclasses.fields(p))
        fv = beta * T * V / (1 + a1 * T + a2 * V + a3 * T * V)
        field = (lambda_ - mu_T * T - fv + rho * E, fv - (rho + mu_E + gamma) * E,
                 gamma * E - mu_I * I, k * I - mu_V * V)
        assert max(abs(r) for r in field) < Decimal("1e-50")
    assert max(map(abs, _ulps(teiv.teiv_chronic(p), reference))) <= 2.0


@pytest.mark.parametrize("alpha3", [0.001, 0.0])
def test_chronic_equilibrium_near_threshold_matches_60_digits(alpha3):
    # at R0 = 1 + 1e-9 the infected levels are ~1e-9 of T, so a seed read
    # off a bracket of width 1e-12 lambda/mu_T in T is off by up to 4e-4 in E
    base = demo_params(alpha3=alpha3)
    p = demo_params(alpha3=alpha3, beta=base.beta / teiv.teiv_r0(base) * (1.0 + 1e-9))
    assert teiv.teiv_r0(p) - 1.0 == pytest.approx(1e-9, rel=1e-6)
    E = Decimal(float(teiv.teiv_chronic(p)[1]))
    reference = teiv_chronic_decimal(p)[1]
    assert abs(E - reference) <= Decimal("1e-6") * reference


@pytest.mark.parametrize("alpha3", [0.001, 0.0])
@pytest.mark.parametrize("eps", [2.3e-16, 4e-16, 1e-15, 1e-13])
def test_chronic_equilibrium_an_ulp_above_threshold_is_positive(eps, alpha3):
    # with R0 - 1 at one ULP, Newton from the seed stops at a singular
    # Jacobian (eps = 2.3e-16) or steps to E = I = -5.2e-16 (eps = 4e-16);
    # the positive closed-form seed, which meets the residual rule, stands in
    base = demo_params(alpha3=alpha3)
    p = demo_params(alpha3=alpha3, beta=base.beta / teiv.teiv_r0(base) * (1.0 + eps))
    assert teiv.teiv_r0(p) > 1.0
    x = teiv.teiv_chronic(p)
    assert (x > 0).all()
    assert np.abs(teiv.teiv_field(p)(x.tolist())).max() <= 1e-9 * max(x.max(), 1.0)


def test_chronic_equilibrium_of_the_demo_is_newtons_point():
    p = demo_params()
    polished = damped_newton(teiv.teiv_field(p), teiv._chronic_seed(p))
    assert np.array_equal(teiv.teiv_chronic(p), polished)
    assert not np.array_equal(polished, teiv._chronic_seed(p))


def test_chronic_seed_fallback_keeps_the_residual_rule(monkeypatch):
    # an ULP above the threshold Newton from the seed stops at a singular
    # Jacobian (eps = 2.3e-16) or steps to E = I = -5.2e-16 (eps = 4e-16);
    # damped_newton returns the positive seed, which meets the residual rule
    base = demo_params()
    for eps in (2.3e-16, 4e-16):
        p = demo_params(beta=base.beta / teiv.teiv_r0(base) * (1.0 + eps))
        seed = teiv._chronic_seed(p)
        assert np.array_equal(damped_newton(teiv.teiv_field(p), seed), seed)
    # where Newton fails, a seed off by 1% is no equilibrium
    p = demo_params()
    seed = teiv._chronic_seed(p)
    monkeypatch.setattr(newton, "jacobian", lambda f, x: np.zeros((x.size, x.size)))
    assert np.array_equal(damped_newton(teiv.teiv_field(p), seed), seed)
    with pytest.raises(NewtonError, match="residual .* too large at the seed"):
        damped_newton(teiv.teiv_field(p), seed * 1.01)


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
    # a residual of about 1e-8 of scale fails the 1e-9 rule that an anchor
    # shares with damped_newton's roots
    near = teiv.teiv_equilibria(p)[-1] * (1.0 + 5e-8)
    assert 5e-9 < np.abs(teiv.teiv_field(p)(near.tolist())).max() / near.max() < 2e-8
    with pytest.raises(ContractError, match="not an equilibrium"):
        teiv.teiv_lyapunov(p, near)


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


def test_incidence_on_arrays_matches_per_float_calls():
    # the paper's g of the T-part evaluates the incidence on whole arrays of T
    rng = np.random.default_rng(19)
    for p in [demo_params()] + [random_params(rng) for _ in range(20)]:
        incidence = teiv.teiv_incidence(p)
        ts = np.logspace(-6.0, 6.0, 64) * rng.uniform(0.5, 2.0)
        vbar = rng.uniform(0.1, 100.0)
        per_float = np.array([incidence(t, vbar) for t in ts.tolist()])
        assert np.array_equal(incidence(ts, vbar), per_float), p


def test_t_part_psi_invariant_under_incidence_scaling():
    # psi depends on the shape function only through the ratio g(anchor)/g(s)
    p = demo_params()
    vbar = 12.5
    incidence = teiv.teiv_incidence(p)
    g1 = GFunction(lambda th: incidence(th, vbar), "incidence")
    g5 = GFunction(lambda th: 5.0 * incidence(th, vbar), "scaled")
    for x in (3.0, 20.0, 75.0):
        assert psi(g5, 30.0, x) == pytest.approx(psi(g1, 30.0, x), rel=1e-12)


def g_form_functional(p, anchor):
    """The paper's functional as written, as a map from a (n, 4) state array to
    its n values: the T-part psi_g with the incidence at the anchor's virus level
    as g, log parts on E, I, V, and the cross quadratic weighted
    rho(1 + alpha2 Vbar)/(1 + alpha1 Tbar + alpha2 Vbar + alpha3 Tbar Vbar)."""
    tbar, ebar, _, vbar = anchor
    incidence = teiv.teiv_incidence(p)
    g = GFunction(lambda s: incidence(s, vbar), "incidence")
    xi = p.eclipse_exit_rate
    weights = (1.0, 1.0, xi / p.gamma, p.mu_I * xi / (p.k * p.gamma))
    gs = (g, identity_g(), identity_g(), identity_g())
    cross_w = p.rho * (1.0 + p.alpha2 * vbar) / (
        1.0 + p.alpha1 * tbar + p.alpha2 * vbar + p.alpha3 * tbar * vbar)

    def values_along(X):
        total = np.zeros(X.shape[0])
        for i, (a, gi, x) in enumerate(zip(weights, gs, anchor)):
            total += a * psi_profile(gi, float(x), X[:, i])
        return total + 0.5 * cross_w * ((X[:, 0] - tbar) + (X[:, 1] - ebar)) ** 2

    return values_along


def test_lyapunov_is_the_g_form_as_a_weighted_log_volterra_sum():
    # psi_g(T) = w (T - Tbar - Tbar log(T/Tbar)), w = c0/(c0 + c1 Tbar), for the
    # incidence g(s) = beta s/(c0 + c1 s); the cross weight is rho w
    demo = demo_params()
    traj = solve_fde_abm(teiv.teiv_model(demo), FractionalOrder(0.8),
                         np.array([40.0, 1.0, 1.0, 5.0]), UniformGrid(0.0, 100.0 / 800, 800))
    X, T = traj.states, traj.component(0)
    rng = np.random.default_rng(47)
    params = [demo, demo_params(alpha1=0.0, alpha2=0.0, alpha3=0.0)]
    while len(params) < 21:
        p = random_params(rng)
        if teiv.teiv_r0(p) > 1.0:
            params.append(p)
    for p in params:
        incidence = teiv.teiv_incidence(p)
        for anchor in teiv.teiv_equilibria(p):
            tbar, _, _, vbar = anchor
            c0 = 1.0 + p.alpha2 * vbar
            w = c0 / (c0 + (p.alpha1 + p.alpha3 * vbar) * tbar)
            closed = w * (T - tbar - tbar * np.log(T / tbar))
            quad = psi_profile(GFunction(lambda s: incidence(s, vbar), "incidence"), tbar, T)
            assert np.abs(quad - closed).max() <= 1e-12 * np.abs(closed).max(), (p, anchor)

            V, V_g = teiv.teiv_lyapunov(p, anchor).values_along(X), g_form_functional(p, anchor)(X)
            assert np.abs(V - V_g).max() <= 1e-13 * np.abs(V_g).max(), (p, anchor)


def test_lyapunov_orbital_derivative_nonpositive_at_chronic():
    p = demo_params()
    chronic = teiv.teiv_equilibria(p)[1]
    L = teiv.teiv_lyapunov(p, chronic)
    model = teiv.teiv_model(p)
    rng = np.random.default_rng(31)
    states = [chronic * np.exp(rng.uniform(-1.0, 1.0, size=4)) for _ in range(200)]
    rates = [model.rhs(state.tolist()) for state in states]
    assert (L.rate_along(states, rates) <= 1e-9).all()


def test_decrescence_along_trajectory_at_chronic_anchor():
    p = demo_params()
    chronic = teiv.teiv_equilibria(p)[1]
    L = teiv.teiv_lyapunov(p, chronic)
    model = teiv.teiv_model(p)
    grid = UniformGrid(0.0, 100.0 / 800, 800)
    x0 = chronic * np.array([1.3, 0.7, 1.2, 0.8])
    for alpha in (0.8, 1.0):
        traj = solve_fde_abm(model, FractionalOrder(alpha), x0, grid)
        entry = certify_order(L, traj, chronic, "endemic")
        assert entry["verdict"] == "endemic, certified", (alpha, entry["decrescence"])


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
