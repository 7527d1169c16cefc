import math

import numpy as np
import pytest

from fracstab import (
    ContractError,
    DomainError,
    FractionalOrder,
    GFunction,
    LyapunovFunctional,
    ModelDefinition,
    SampledSignal,
    UniformGrid,
    caputo_of_functional,
    decrescence_certificate,
    default_tolerance,
    identity_g,
    l1_caputo,
    lemma_certificate,
    psi_profile,
)
from fracstab.lyapunov import psi_slope
from fracstab.models import sica, teiv
from oracles import functional_value, orbital_derivative, psi, solve_ode_rk4


def sqrt_g():
    return GFunction(np.sqrt, "sqrt")


# ---------------------------------------------------------------- g admissibility

def test_g_rejects_decreasing_function():
    with pytest.raises(DomainError):
        GFunction(lambda s: 1.0 / (1.0 + s), "reciprocal")


def test_g_rejects_sign_changing_function():
    with pytest.raises(DomainError):
        GFunction(lambda s: s - 1.0, "shifted")


def test_g_accepts_standard_shapes():
    identity_g()
    sqrt_g()
    GFunction(np.log1p, "log1p")


def test_g_rejects_a_scalar_only_function_at_construction():
    # g is called on whole arrays; math.sqrt takes one float
    with pytest.raises(TypeError):
        GFunction(math.sqrt, "sqrt")


# ---------------------------------------------------------------- psi values

def test_psi_zero_anchor_is_identity_map():
    assert psi(identity_g(), 0.0, 2.5) == 2.5
    assert psi(sqrt_g(), 0.0, 0.3) == 0.3


def test_psi_log_closed_form():
    g = identity_g()
    x, xbar = 3.0, 2.0
    assert psi(g, xbar, x) == pytest.approx(x - xbar - xbar * math.log(x / xbar), rel=1e-14)


def test_psi_vanishes_at_anchor_and_is_positive_elsewhere():
    for g in (identity_g(), sqrt_g()):
        assert psi(g, 1.7, 1.7) == pytest.approx(0.0, abs=1e-12)
        for x in (0.2, 0.9, 2.4, 31.0):
            assert psi(g, 1.7, x) > 0.0


def test_psi_sqrt_g_matches_hand_integral():
    # for g(s) = sqrt(s) the integral is elementary:
    # psi(x) = (sqrt(x) - sqrt(xbar))^2.  The closed log form belongs to the
    # identity_g() instance alone, not to the label "identity".
    xbar = 4.0
    xs = np.array([0.5, 2.0, 4.0, 9.0])
    for g in (sqrt_g(), GFunction(np.sqrt, "identity")):
        expected = (np.sqrt(xs) - math.sqrt(xbar)) ** 2
        for x, e in zip(xs, expected):
            assert psi(g, xbar, x) == pytest.approx(e, abs=1e-9)
        np.testing.assert_allclose(psi_profile(g, xbar, xs), expected, rtol=0, atol=1e-9)


def test_psi_invariant_under_g_scaling():
    g1 = identity_g()
    g3 = GFunction(lambda s: 3.0 * s, "scaled_identity")
    for x in (0.4, 1.0, 7.3):
        assert psi(g3, 2.0, x) == pytest.approx(psi(g1, 2.0, x), rel=1e-12)


def test_psi_domain_guard():
    with pytest.raises(DomainError):
        psi(identity_g(), 1.0, 0.0)
    with pytest.raises(DomainError):
        psi(identity_g(), 1.0, -0.5)


def test_psi_profile_matches_scalar_psi():
    rng = np.random.default_rng(42)
    xs = rng.uniform(0.1, 20.0, size=60)
    for g in (identity_g(), sqrt_g(), GFunction(np.log1p, "log1p")):
        prof = psi_profile(g, 3.0, xs)
        pointwise = np.array([psi(g, 3.0, x) for x in xs])
        np.testing.assert_allclose(prof, pointwise, atol=1e-9)


def test_psi_profile_and_slope_call_g_on_whole_arrays():
    calls = []

    def counting_sqrt(s):
        calls.append(np.shape(s))
        return np.sqrt(s)

    g = GFunction(counting_sqrt, "counting_sqrt")
    xs = np.random.default_rng(5).uniform(0.1, 20.0, size=1000)
    for fn in (psi_profile, psi_slope):
        calls.clear()
        fn(g, 3.0, xs)
        assert len(calls) <= 2, (fn.__name__, calls)


def test_psi_profile_rejects_non_positive_samples():
    with pytest.raises(DomainError, match=r"sample 1 is 0\.0"):
        psi_profile(identity_g(), 1.0, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(DomainError, match=r"sample 2 is -3\.0"):
        psi_profile(sqrt_g(), 1.0, np.array([1.0, 2.0, -3.0]))
    # the CLI stops a solve that undershoots first (exit 3); a signal that
    # reaches the lemma with such a sample is still refused through psi
    grid = UniformGrid(t0=0.0, h=0.4, n_steps=3)
    signal = SampledSignal(grid, np.array([7.0, 3.0, -15396.74, 2.0]))
    with pytest.raises(DomainError, match=r"sample 2 is -15396\.74"):
        lemma_certificate(signal, identity_g(), 1.0, FractionalOrder(0.5))


# ---------------------------------------------------------------- functional assembly

def test_component_validation():
    with pytest.raises(ContractError, match="weights must be positive"):
        LyapunovFunctional((1.0, 0.0), (1.0, 1.0))
    with pytest.raises(ContractError, match="anchor coordinates must be non-negative"):
        LyapunovFunctional((1.0, 1.0), (1.0, -1.0))
    with pytest.raises(ContractError, match="cross-quadratic weight must be non-negative"):
        LyapunovFunctional((1.0,), (0.0,), -1.0, (0,))
    with pytest.raises(ContractError, match="equal length"):
        LyapunovFunctional((1.0, 1.0), (0.0,))


def test_quadratic_part_hand_value():
    fn = LyapunovFunctional((1.0,), (1.0,), 4.0, (0,))
    # log part 3 - 1 - log 3, quadratic part 0.5 * 4 * (3 - 1)^2
    expected = 2.0 - math.log(3.0) + 0.5 * 4.0 * 4.0
    assert functional_value(fn, [3.0]) == pytest.approx(expected)
    assert fn.values_along([[3.0]])[0] == pytest.approx(expected)


def test_cross_quadratic_part_hand_value():
    fn = LyapunovFunctional((1.0, 1.0), (1.0, 2.0), 2.0, (0, 1))
    # log parts (3 - log 4) + (-1 + 2 log 2) = 2; deviation sum (4-1) + (1-2) = 2,
    # quadratic part 0.5 * 2 * 2^2 = 4
    assert functional_value(fn, [4.0, 1.0]) == pytest.approx(6.0)
    assert fn.values_along([[4.0, 1.0]])[0] == pytest.approx(6.0)


def test_values_along_matches_scalar_value():
    rng = np.random.default_rng(7)
    fn = LyapunovFunctional((1.0, 0.5, 2.0), (2.0, 1.0, 0.0), 1.2, (0, 2))
    states = rng.uniform(0.2, 5.0, size=(40, 3))
    along = fn.values_along(states)
    scalar = np.array([functional_value(fn, s) for s in states])
    np.testing.assert_allclose(along, scalar, atol=1e-9)


def test_log_volterra_zero_at_anchor():
    fn = LyapunovFunctional((1.0, 3.0, 0.5), (2.0, 0.0, 4.0))
    assert functional_value(fn, [2.0, 0.0, 4.0]) == pytest.approx(0.0, abs=1e-12)
    assert functional_value(fn, [2.5, 1.0, 3.0]) > 0.0


# ---------------------------------------------------------------- field derivative

def test_field_derivative_quadratic_chain_rule():
    model = ModelDefinition(1, lambda u: [-2.0 * v for v in u], "decay2", ("x",))
    fn = LyapunovFunctional((1.0,), (0.0,), 1.0, (0,))
    # V = x + x^2/2: d/dt x = -2x = -6 and d/dt x^2/2 = x * (-2x) = -18
    state = np.array([3.0])
    assert fn.rate_along([state], [model.rhs(state.tolist())])[0] == pytest.approx(-24.0)


def test_field_derivative_log_part_multiplier():
    model = ModelDefinition(1, lambda u: np.array([5.0]), "constant", ("x",))
    fn = LyapunovFunctional((1.0,), (2.0,))
    # multiplier is 1 - xbar/x
    state = np.array([4.0])
    assert fn.rate_along([state], [model.rhs(state.tolist())])[0] == pytest.approx((1.0 - 0.5) * 5.0)


def test_field_derivative_matches_finite_difference_of_value():
    model = ModelDefinition(
        2, lambda u: np.array([1.0 - u[0], u[0] - 2.0 * u[1]]), "affine", ("x", "y")
    )
    fn = LyapunovFunctional((1.0, 2.0), (1.0, 0.5), 0.7, (0, 1))
    grid = UniformGrid(0.0, 1e-4, 2)
    traj = solve_ode_rk4(model, [2.0, 1.0], grid)
    values = fn.values_along(traj.states)
    numeric = (values[1] - values[0]) / 1e-4
    state = np.array([2.0, 1.0])
    assert fn.rate_along([state], [model.rhs(state.tolist())])[0] == pytest.approx(numeric, rel=1e-3)


def chain_rule_case(name):
    """(functional, model, anchor): SICA V1 at the endemic point, or TEIV at the chronic one."""
    if name == "sica_v1":
        p = sica.baseline_params(beta=0.866)
        eq = sica.sica_endemic(p)
        return sica.sica_v1(p, eq), sica.sica_model(p), eq
    q = teiv.TeivParams(lambda_=5.0, mu_T=0.1, mu_E=0.2, mu_I=0.3, mu_V=2.0, rho=0.05,
                        gamma=0.3, k=10.0, beta=0.01, alpha1=0.01, alpha2=0.01, alpha3=0.001)
    chronic = teiv.teiv_equilibria(q)[1]
    return teiv.teiv_lyapunov(q, chronic), teiv.teiv_model(q), chronic


@pytest.mark.parametrize("name", ["sica_v1", "teiv"])
def test_rate_along_matches_pointwise_chain_rule(name):
    fn, model, anchor = chain_rule_case(name)
    rng = np.random.default_rng(29)
    states = anchor * np.exp(rng.uniform(-2.0, 2.0, size=(200, 4)))
    rates = np.array([model.rhs(x) for x in states.tolist()])
    expected = np.array([orbital_derivative(fn, model, x) for x in states])
    np.testing.assert_allclose(fn.rate_along(states, rates), expected, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------- certificates

def smooth_positive_signal(rng, grid):
    t = grid.times()
    base = rng.uniform(1.5, 4.0)
    vals = np.full_like(t, base)
    for _ in range(3):
        amp = rng.uniform(0.05, 0.3)
        freq = rng.uniform(0.3, 4.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        vals += amp * np.sin(freq * t + phase)
    return SampledSignal(grid, vals)


def test_lemma_certificate_passes_on_smooth_signals():
    rng = np.random.default_rng(11)
    grid = UniformGrid(0.0, 1e-2, 400)
    for alpha in (0.3, 0.6, 0.9):
        sig = smooth_positive_signal(rng, grid)
        cert = lemma_certificate(sig, identity_g(), 2.0, FractionalOrder(alpha))
        assert cert.passed, cert.max_violation
        assert cert.kind == "lemma_inequality"


def test_lemma_certificate_constant_signal_zero_violation():
    grid = UniformGrid(0.0, 0.01, 50)
    sig = SampledSignal(grid, np.full(51, 3.0))
    cert = lemma_certificate(sig, identity_g(), 1.5, FractionalOrder(0.5))
    assert cert.passed
    assert cert.max_violation == pytest.approx(0.0, abs=1e-12)


def test_lemma_certificate_domain_errors():
    grid = UniformGrid(0.0, 0.01, 10)
    good = SampledSignal(grid, np.linspace(1.0, 2.0, 11))
    for xbar in (0.0, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="finite and strictly positive"):
            lemma_certificate(good, identity_g(), xbar, FractionalOrder(0.5))
    bad = SampledSignal(grid, np.linspace(-0.5, 2.0, 11))
    with pytest.raises(DomainError):
        lemma_certificate(bad, identity_g(), 1.0, FractionalOrder(0.5))


def test_default_tolerance_formula():
    # scale max(max |values|, 1): the largest magnitude, here a negative
    # sample, or 1 when every sample is smaller
    grid = UniformGrid(0.0, 0.1, 10)
    tol = default_tolerance(grid, FractionalOrder(0.5), np.array([1.5, -2.0, 0.5]))
    assert tol == pytest.approx(10.0 * 0.1 ** 1.5 * 2.0)
    small = default_tolerance(grid, FractionalOrder(0.5), np.array([0.25, -0.5, 0.0]))
    assert small == pytest.approx(10.0 * 0.1 ** 1.5)


def test_decrescence_certificate_pass_and_fail():
    grid = UniformGrid(0.0, 0.1, 4)
    ok = SampledSignal(grid, np.array([-1.0, -2.0, -0.5, -0.1, -0.3]))
    cert = decrescence_certificate(ok, 1e-6)
    assert cert.passed and cert.violating_node is None

    spike = SampledSignal(grid, np.array([-1.0, -2.0, 0.5, -0.1, -0.3]))
    cert = decrescence_certificate(spike, 1e-6)
    assert not cert.passed
    assert cert.violating_node == 2
    assert cert.max_violation == pytest.approx(0.5)


def test_certificate_json_shape():
    grid = UniformGrid(0.0, 0.1, 4)
    sig = SampledSignal(grid, -np.ones(5))
    doc = decrescence_certificate(sig, 0.0).to_json_dict()
    assert doc["kind"] == "decrescence"
    assert doc["pass"] is True
    assert doc["grid"] == {"t0": 0.0, "h": 0.1, "n": 4}


def test_caputo_of_functional_matches_manual_composition():
    model = ModelDefinition(1, lambda u: [-v for v in u], "decay", ("x",))
    grid = UniformGrid(0.0, 0.01, 100)
    traj = solve_ode_rk4(model, [2.0], grid)
    fn = LyapunovFunctional((1.0,), (1.0,))
    via_helper = caputo_of_functional(fn.values_along(traj.states), traj)
    manual = l1_caputo(
        SampledSignal(grid, fn.values_along(traj.states)), FractionalOrder(1.0)
    )
    np.testing.assert_allclose(via_helper.values, manual.values, atol=1e-12)
