import dataclasses
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
from fracstab.models import sica, teiv
from fracstab.solver import _BLOCK, _add_far_field
from oracles import (
    baseline_params,
    per_column_far_field,
    solve_fde_abm_stepwise,
    solve_fde_gl,
    solve_ode_rk4,
)

# one-step Mittag-Leffler fact, frozen from an independent special-function
# oracle: E_{1/2}(-1) = exp(1) * erfc(1)
ML_HALF_AT_MINUS_ONE = 0.42758357615580705


def test_frozen_oracle_self_consistency():
    assert ML_HALF_AT_MINUS_ONE == pytest.approx(math.exp(1.0) * math.erfc(1.0), rel=1e-15)


def decay_model():
    return ModelDefinition(
        dimension=1, rhs=lambda u: [-v for v in u], name="scalar_decay", state_labels=("u",)
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
    xs[0], fs[0] = x0, model.rhs(x0.tolist())
    for k in range(1, n + 1):
        b = dp[k - 1::-1]
        a = np.concatenate([[start[k - 1]], d2q[k - 2::-1] if k > 1 else []])
        pred = x0 + (ha / alpha) * (b @ fs[:k]) / math.gamma(alpha)
        if not np.isfinite(pred).all():
            return xs[:k], k
        xs[k] = x0 + (ha / math.gamma(alpha + 2.0)) * (a @ fs[:k] + model.rhs(pred.tolist()))
        if not np.isfinite(xs[k]).all():
            return xs[:k], k
        fs[k] = model.rhs(xs[k].tolist())
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
    blow_up = ModelDefinition(1, lambda u: [0.02 * v * v for v in u], "quadratic_growth", ("u",))
    order, grid, x0 = FractionalOrder(0.8), UniformGrid(0.0, 0.5, 400), np.array([1.0])
    _, node = direct_pece(blow_up, order, x0, grid)
    assert node is not None and node > 64
    with pytest.raises(DivergenceError) as err:
        solve_fde_abm(blow_up, order, x0, grid)
    # the ndarray step loop stops at the same node
    with pytest.raises(DivergenceError) as ref:
        solve_fde_abm_stepwise(blow_up, order, x0, grid)
    assert err.value.node == ref.value.node == node


def solve_or_node(model, x0, grid):
    """The states of an order-0.7 solve, or the node at which it diverged."""
    try:
        return solve_fde_abm(model, FractionalOrder(0.7), x0, grid).states
    except DivergenceError as exc:
        return exc.node


@pytest.mark.parametrize("model,x0,grid,diverges", [
    (sica.sica_model(baseline_params(0.866)),
     [596597.568, 74574.696, 37287.348, 37287.348], UniformGrid(0.0, 0.4, 700), False),
    (ModelDefinition(1, lambda u: [0.02 * v * v for v in u], "growth", ("u",)),
     [1.0], UniformGrid(0.0, 0.5, 400), True),
], ids=["sica", "diverging_past_a_block"])
def test_list_and_ndarray_rhs_give_the_same_solve(model, x0, grid, diverges):
    # The model fields return lists; an rhs that returns an ndarray, as the
    # re-typed models of bench/checks.py do, must give the same solve.
    as_array = dataclasses.replace(model, rhs=lambda u: np.array(model.rhs(u)))
    lists, arrays = solve_or_node(model, x0, grid), solve_or_node(as_array, x0, grid)
    if diverges:
        assert lists == arrays > _BLOCK
    else:
        assert lists.shape == (grid.n_nodes, model.dimension) and np.array_equal(lists, arrays)


FIG_INITIAL = [596597.568, 74574.696, 37287.348, 37287.348]
TEIV_DEMO = teiv.TeivParams(lambda_=5.0, mu_T=0.1, mu_E=0.2, mu_I=0.3, mu_V=2.0, rho=0.05,
                            gamma=0.3, k=10.0, beta=0.01, alpha1=0.01, alpha2=0.01,
                            alpha3=0.001)


@pytest.mark.parametrize("n", [777, 3000])
@pytest.mark.parametrize("model,x0,h", [
    (sica.sica_model(baseline_params(0.866)), FIG_INITIAL, 0.4),
    # beta = 1e-5 stays positive under mass action at h = 0.1
    (sica.sica_model(baseline_params(1e-5, "mass_action")), FIG_INITIAL, 0.1),
    (teiv.teiv_model(TEIV_DEMO), [40.0, 1.0, 1.0, 5.0], 0.125),
], ids=["sica_standard", "sica_mass_action", "teiv"])
def test_block_loop_bit_identical_to_stepwise_ndarray_loop(model, x0, h, n):
    # 777 and 3000 cross several far-field levels and end in a partial block
    grid = UniformGrid(0.0, h, n)
    for alpha in (0.5, 0.9, 1.0):
        order = FractionalOrder(alpha)
        ref = solve_fde_abm_stepwise(model, order, x0, grid).states
        assert np.array_equal(solve_fde_abm(model, order, x0, grid).states, ref)


@pytest.mark.parametrize("e,n_nodes", [(128, 1100), (512, 1100), (512, 701), (16384, 20001)],
                         ids=["full_128", "full_512", "last_partial_512", "last_partial_16384"])
def test_far_field_transfer_bit_identical_to_per_column_transfer(e, n_nodes):
    # e = 512 transfers r = 512 sources to [512, 1024): all of them with 1,100
    # nodes, and only the last 189 with 701, as at the end of a solve.
    # e = 16,384 is the last transfer of a 20,000-step solve: 3,617 targets,
    # where the length 2r is furthest above the r + T - 1 it needs.
    rng = np.random.default_rng(e + n_nodes)
    xs0, fs0 = rng.standard_normal((2, n_nodes, 4))
    kernels = rng.standard_normal((2, n_nodes - 1))
    ref_xs, ref_fs = xs0.copy(), fs0.copy()
    per_column_far_field(ref_xs, ref_fs, kernels, e)
    # the second transfer reads the kernel spectrum that the first one cached
    spectra = {}
    for transfer in range(2):
        xs, fs = xs0.copy(), fs0.copy()
        _add_far_field(xs, fs, kernels, e, spectra)
        if transfer == 0:
            (cached,) = spectra.values()
        assert (xs[e:min(2 * e, n_nodes)] != xs0[e:min(2 * e, n_nodes)]).all()
        assert np.array_equal(xs, ref_xs) and np.array_equal(fs, ref_fs)
    assert len(spectra) == 1 and next(iter(spectra.values())) is cached


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
def test_abm_test_equation_is_stable_exactly_below_the_gamma_bound(alpha):
    # On D^alpha y = -lam y the PECE step stays bounded while
    # lam h^alpha <= Gamma(alpha + 2), the inverse of the corrector's weight
    # on f(pred): decay just below the bound, growth past 1e30 just above.
    h, n = 0.01, 2000
    grid = UniformGrid(0.0, h, n)
    tails = []
    for factor in (0.98, 1.02):
        lam = factor * math.gamma(alpha + 2.0) / h ** alpha
        model = ModelDefinition(1, lambda u: [-lam * v for v in u], "stiff_decay", ("y",))
        traj = solve_fde_abm(model, FractionalOrder(alpha), [1.0], grid)
        tails.append(np.abs(traj.component(0)[-100:]).max())
    assert tails[0] <= 0.07
    assert tails[1] > 1e30


def test_divergence_reports_node():
    blow_up = ModelDefinition(
        dimension=1, rhs=lambda u: [v * v * v for v in u], name="cubic_growth", state_labels=("u",)
    )
    grid = UniformGrid(0.0, 1.0, 50)
    with pytest.raises(DivergenceError) as err:
        solve_fde_abm(blow_up, FractionalOrder(0.9), [10.0], grid)
    assert 1 <= err.value.node <= 50


@pytest.mark.parametrize("call,node", [
    (2 * 70 - 1, 70), (2 * 70, 71), (0, 1), (2 * 63, 64), (2 * 128 - 1, 128),
], ids=["corrector_guard", "predictor_guard", "rhs_at_x0", "first_node_after_a_transfer",
        "corrector_at_a_block_start"])
def test_nan_rhs_reports_its_node(call, node):
    # call 0 is f(x0); step k calls f(pred) (call 2k - 1), then f(x_k)
    # (call 2k), whose value the predictor of node k + 1 reads.  Nodes 64
    # and 128 start blocks: a far-field transfer and a fresh work matrix
    calls = []

    def rhs(u):
        calls.append(None)
        return np.full(2, np.nan) if len(calls) > call else [-v for v in u]

    model = ModelDefinition(2, rhs, "nan_from_a_node", ("x", "y"))
    with pytest.raises(DivergenceError) as err:
        solve_fde_abm(model, FractionalOrder(0.7), [1.0, 2.0], UniformGrid(0.0, 0.01, 200))
    assert err.value.node == node


def test_finite_state_whose_sum_overflows_is_no_divergence():
    # x0 sums to inf in floats, but every component is finite: the guard's
    # overflowing sum must fall back to testing each component
    model = ModelDefinition(2, lambda u: [0.0, 0.0], "zero_field", ("x", "y"))
    traj = solve_fde_abm(model, FractionalOrder(0.7), [1e308, 1e308], UniformGrid(0.0, 0.01, 200))
    assert np.array_equal(traj.states, np.full((201, 2), 1e308))


def test_rhs_never_sees_a_non_finite_state():
    # f(x_70) is inf while x_70 is finite, so the history sums of node 71
    # are inf: the predictor guard must stop before the rhs is called on them
    seen = []

    def rhs(u):
        seen.append(u.copy())
        return np.full(2, np.inf) if len(seen) > 2 * 70 else [-v for v in u]

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
