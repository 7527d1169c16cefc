import math

import numpy as np
import pytest

from fracstab import (
    ContractError,
    DivergenceError,
    FractionalOrder,
    ModelDefinition,
    UniformGrid,
    solve_fde_abm,
)
from fracstab.caputo import adams_tables
from oracles import solve_fde_gl, solve_ode_rk4

# one-step Mittag-Leffler fact, frozen from an independent special-function
# oracle: E_{1/2}(-1) = exp(1) * erfc(1)
ML_HALF_AT_MINUS_ONE = 0.42758357615580705


def test_frozen_oracle_self_consistency():
    assert ML_HALF_AT_MINUS_ONE == pytest.approx(math.exp(1.0) * math.erfc(1.0), rel=1e-15)


def decay_model():
    return ModelDefinition(
        dimension=1, rhs=lambda u: -u, name="scalar_decay", state_labels=("u",)
    )


def test_model_definition_validation():
    with pytest.raises(ContractError):
        ModelDefinition(dimension=0, rhs=lambda u: u, name="bad", state_labels=())
    with pytest.raises(ContractError):
        ModelDefinition(dimension=2, rhs=lambda u: u, name="bad", state_labels=("x",))


def test_initial_state_shape_checked():
    model = decay_model()
    grid = UniformGrid(0.0, 0.1, 10)
    with pytest.raises(ContractError):
        solve_fde_abm(model, FractionalOrder(0.5), [1.0, 2.0], grid)
    with pytest.raises(ContractError):
        solve_fde_abm(model, FractionalOrder(0.5), [float("nan")], grid)


def test_abm_scalar_decay_hits_mittag_leffler_value():
    # solution of the order-1/2 decay problem at t = 1 is E_{1/2}(-1)
    grid = UniformGrid(0.0, 1.0 / 1000, 1000)
    traj = solve_fde_abm(decay_model(), FractionalOrder(0.5), [1.0], grid)
    assert traj.component(0)[-1] == pytest.approx(ML_HALF_AT_MINUS_ONE, abs=2e-4)


def test_abm_classical_limit_matches_exponential():
    grid = UniformGrid(0.0, 0.01, 200)
    traj = solve_fde_abm(decay_model(), FractionalOrder(1.0), [1.0], grid)
    exact = np.exp(-grid.times())
    assert np.abs(traj.component(0) - exact).max() < 1e-5


def test_gl_scalar_decay_hits_mittag_leffler_value():
    grid = UniformGrid(0.0, 1.0 / 2000, 2000)
    traj = solve_fde_gl(decay_model(), FractionalOrder(0.5), [1.0], grid)
    assert traj.component(0)[-1] == pytest.approx(ML_HALF_AT_MINUS_ONE, abs=2e-3)


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
def test_abm_and_gl_agree_on_decay(alpha):
    grid = UniformGrid(0.0, 1.0 / 500, 500)
    abm = solve_fde_abm(decay_model(), FractionalOrder(alpha), [1.0], grid)
    gl = solve_fde_gl(decay_model(), FractionalOrder(alpha), [1.0], grid)
    assert abs(abm.component(0)[-1] - gl.component(0)[-1]) < 5e-3


def test_rk4_fourth_order_accuracy():
    grid = UniformGrid(0.0, 0.01, 100)
    traj = solve_ode_rk4(decay_model(), [1.0], grid)
    exact = np.exp(-grid.times())
    assert np.abs(traj.component(0) - exact).max() < 1e-9
    assert traj.order.is_classical


def direct_pece(model, order, x0, grid):
    """PECE with direct history sums over ``adams_tables``: the reference
    for the solver's block-FFT sums.  Returns the states and the first
    non-finite node, or None."""
    alpha, h, n = order.alpha, grid.h, grid.n_steps
    dp, d2q, start = adams_tables(order, n)
    ha = h ** alpha
    xs = np.empty((n + 1, len(x0)))
    fs = np.empty_like(xs)
    xs[0], fs[0] = x0, model.rhs(x0)
    for k in range(1, n + 1):
        b = dp[k - 1::-1]
        a = np.concatenate([[start[k - 1]], d2q[k - 2::-1] if k > 1 else []])
        pred = x0 + (ha / alpha) * (b @ fs[:k]) / math.gamma(alpha)
        if not np.isfinite(pred).all():
            return xs[:k], k
        xs[k] = x0 + (ha / math.gamma(alpha + 2.0)) * (a @ fs[:k] + model.rhs(pred))
        if not np.isfinite(xs[k]).all():
            return xs[:k], k
        fs[k] = model.rhs(xs[k])
    return xs, None


def brusselator():
    return ModelDefinition(
        2, lambda u: np.array([1.0 - 4.0 * u[0] + u[0] ** 2 * u[1], 3.0 * u[0] - u[0] ** 2 * u[1]]),
        "brusselator", ("x", "y"),
    )


@pytest.mark.parametrize("n", [40, 700, 1500])
@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9, 1.0])
def test_abm_fast_history_matches_direct_sums(n, alpha):
    # n = 40 stays inside the first near-field block; 700 and 1500 (no
    # powers of two) cross several dyadic far-field levels
    model, order = brusselator(), FractionalOrder(alpha)
    grid = UniformGrid(0.0, 0.05, n)
    x0 = np.array([1.2, 2.5])
    ref, node = direct_pece(model, order, x0, grid)
    assert node is None
    traj = solve_fde_abm(model, order, x0, grid)
    np.testing.assert_allclose(traj.states, ref, rtol=1e-12, atol=0.0)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_abm_divergence_node_matches_direct_sums_past_a_block():
    # slow growth that blows up after the first far-field transfer at node 64
    blow_up = ModelDefinition(1, lambda u: 0.02 * u ** 2, "quadratic_growth", ("u",))
    order, grid, x0 = FractionalOrder(0.8), UniformGrid(0.0, 0.5, 400), np.array([1.0])
    _, node = direct_pece(blow_up, order, x0, grid)
    assert node is not None and node > 64
    with pytest.raises(DivergenceError) as err:
        solve_fde_abm(blow_up, order, x0, grid)
    assert err.value.node == node


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_reports_node():
    blow_up = ModelDefinition(
        dimension=1, rhs=lambda u: u ** 3, name="cubic_growth", state_labels=("u",)
    )
    grid = UniformGrid(0.0, 1.0, 50)
    with pytest.raises(DivergenceError) as err:
        solve_fde_abm(blow_up, FractionalOrder(0.9), [10.0], grid)
    assert 1 <= err.value.node <= 50


@pytest.mark.parametrize("call,node", [(2 * 70 - 1, 70), (2 * 70, 71)],
                         ids=["corrector_guard", "predictor_guard"])
def test_nan_rhs_reports_its_node(call, node):
    # call 0 is f(x0); step k calls f(pred) (call 2k - 1), then f(x_k)
    # (call 2k), whose value the predictor of node k + 1 reads
    calls = []

    def rhs(u):
        calls.append(None)
        return np.full(2, np.nan) if len(calls) > call else -u

    model = ModelDefinition(2, rhs, "nan_from_a_node", ("x", "y"))
    with pytest.raises(DivergenceError) as err:
        solve_fde_abm(model, FractionalOrder(0.7), [1.0, 2.0], UniformGrid(0.0, 0.01, 200))
    assert err.value.node == node


def test_rhs_never_sees_a_non_finite_state():
    # f(x_70) is inf while x_70 is finite, so the history sums of node 71
    # are inf: the predictor guard must stop before the rhs is called on them
    seen = []

    def rhs(u):
        seen.append(u.copy())
        return np.full(2, np.inf) if len(seen) > 2 * 70 else -u

    model = ModelDefinition(2, rhs, "inf_from_a_node", ("x", "y"))
    with pytest.raises(DivergenceError) as err:
        solve_fde_abm(model, FractionalOrder(0.7), [1.0, 2.0], UniformGrid(0.0, 0.01, 200))
    assert err.value.node == 71
    assert len(seen) == 2 * 70 + 1
    assert all(np.isfinite(u).all() for u in seen)


def test_trajectory_component_access():
    model = ModelDefinition(
        dimension=2,
        rhs=lambda u: np.array([-u[0], -2.0 * u[1]]),
        name="diag",
        state_labels=("x", "y"),
    )
    grid = UniformGrid(0.0, 0.1, 10)
    traj = solve_ode_rk4(model, [1.0, 2.0], grid)
    assert traj.component(0).shape == (11,)
    assert traj.component(1)[0] == 2.0
    assert traj.model_name == "diag"
