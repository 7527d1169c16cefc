import math

import numpy as np
import pytest

from fracstab import (
    ContractError,
    DivergenceError,
    FractionalOrder,
    ModelDefinition,
    Trajectory,
    UniformGrid,
    abm_weights,
    gamma_fn,
    solve_fde_abm,
    solve_fde_gl,
    solve_ode_rk4,
    undershoot_report,
)

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


@pytest.mark.parametrize("alpha", [0.35, 0.8, 1.0])
def test_abm_weights_drive_the_solver(alpha):
    # a hand-written PECE loop over the documented weights reproduces the
    # solver, which slices the same tables in place
    A = np.array([[-1.0, 0.5], [0.3, -0.7]])
    model = ModelDefinition(2, lambda u: A @ u, "linear2", ("x", "y"))
    order, h, x0 = FractionalOrder(alpha), 0.1, np.array([1.0, -2.0])
    traj = solve_fde_abm(model, order, x0, UniformGrid(0.0, h, 5))
    xs, fs = [x0], [A @ x0]
    for k in range(1, 6):
        b, a = abm_weights(order, k, h)
        pred = x0 + b @ np.array(fs) / gamma_fn(alpha)
        xs.append(x0 + a[:-1] @ np.array(fs) + a[-1] * (A @ pred))
        fs.append(A @ xs[-1])
    np.testing.assert_allclose(np.array(xs), traj.states, rtol=1e-14, atol=0.0)


def test_abm_full_memory_window_equals_default():
    grid = UniformGrid(0.0, 0.02, 60)
    order = FractionalOrder(0.7)
    full = solve_fde_abm(decay_model(), order, [1.0], grid)
    windowed = solve_fde_abm(decay_model(), order, [1.0], grid, memory_window=60)
    np.testing.assert_array_equal(full.states, windowed.states)


def test_abm_short_memory_error_shrinks_with_window():
    # fixed-window truncation trades accuracy for cost: the deviation from
    # the full-memory solution must shrink monotonically as the window grows
    grid = UniformGrid(0.0, 0.01, 300)
    order = FractionalOrder(0.8)
    full = solve_fde_abm(decay_model(), order, [1.0], grid)
    gaps = []
    for window in (75, 150, 250):
        short = solve_fde_abm(decay_model(), order, [1.0], grid, memory_window=window)
        assert np.isfinite(short.states).all()
        gaps.append(np.abs(full.states - short.states).max())
    assert gaps[2] < gaps[1] < gaps[0]


def test_gl_memory_window_matches_full_when_covering():
    grid = UniformGrid(0.0, 0.02, 40)
    order = FractionalOrder(0.6)
    full = solve_fde_gl(decay_model(), order, [1.0], grid)
    windowed = solve_fde_gl(decay_model(), order, [1.0], grid, memory_window=40)
    np.testing.assert_array_equal(full.states, windowed.states)


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_reports_node():
    blow_up = ModelDefinition(
        dimension=1, rhs=lambda u: u ** 3, name="cubic_growth", state_labels=("u",)
    )
    grid = UniformGrid(0.0, 1.0, 50)
    with pytest.raises(DivergenceError) as err:
        solve_fde_abm(blow_up, FractionalOrder(0.9), [10.0], grid)
    assert 1 <= err.value.node <= 50


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


def test_undershoot_report_flags_negative_dips():
    grid = UniformGrid(0.0, 0.1, 3)
    states = np.array([[1.0, 1.0], [0.5, 1.0], [-0.1, 1.0], [0.2, 1.0]])
    traj = Trajectory(grid, states, FractionalOrder(0.5), "synthetic")
    assert undershoot_report(traj) == [(2, 0)]
    clean = Trajectory(grid, np.abs(states), FractionalOrder(0.5), "synthetic")
    assert undershoot_report(clean) == []
