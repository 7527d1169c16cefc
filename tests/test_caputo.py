import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from fracstab import (
    DomainError,
    FractionalOrder,
    GridError,
    SampledSignal,
    UniformGrid,
    l1_caputo,
)
from fracstab import caputo
from fracstab.caputo import adams_tables
from oracles import gl_weights


def make_signal(fn, h, n, t0=0.0):
    grid = UniformGrid(t0=t0, h=h, n_steps=n)
    return SampledSignal(grid, fn(grid.times()))


# ---------------------------------------------------------------- types

def test_order_accepts_unit_interval():
    assert FractionalOrder(0.5).alpha == 0.5
    assert FractionalOrder(1).alpha == 1.0
    assert FractionalOrder(1.0).is_classical
    assert not FractionalOrder(0.9).is_classical


@pytest.mark.parametrize("bad", [0.0, -0.3, 1.0000001, float("nan"), float("inf")])
def test_order_rejects_out_of_range(bad):
    with pytest.raises(DomainError):
        FractionalOrder(bad)


def test_grid_properties():
    grid = UniformGrid(t0=1.0, h=0.25, n_steps=4)
    assert grid.n_nodes == 5
    np.testing.assert_allclose(grid.times(), [1.0, 1.25, 1.5, 1.75, 2.0])


@pytest.mark.parametrize("h,n", [(0.0, 5), (-1.0, 5), (0.1, 0)])
def test_grid_rejects_bad_parameters(h, n):
    with pytest.raises(GridError):
        UniformGrid(t0=0.0, h=h, n_steps=n)


def test_signal_length_must_match_grid():
    grid = UniformGrid(t0=0.0, h=0.1, n_steps=3)
    with pytest.raises(GridError):
        SampledSignal(grid, np.zeros(3))
    with pytest.raises(GridError):
        SampledSignal(grid, np.array([0.0, 1.0, np.nan, 2.0]))


def test_signal_names_its_first_non_finite_node():
    grid = UniformGrid(t0=0.0, h=0.1, n_steps=6)
    values = np.array([0.0, 1.0, 2.0, np.inf, np.nan, -np.inf, 3.0])
    with pytest.raises(GridError, match=r"^signal is not finite at node 3$"):
        SampledSignal(grid, values)


# ---------------------------------------------------------------- L1 operator

def test_l1_constant_signal_has_zero_derivative():
    sig = make_signal(lambda t: np.full_like(t, 3.7), h=0.01, n=50)
    out = l1_caputo(sig, FractionalOrder(0.4))
    np.testing.assert_allclose(out.values, 0.0, atol=1e-12)


def test_l1_exact_for_linear_signal():
    # the scheme interpolates piecewise linearly, so u(t) = t is resolved
    # exactly: derivative of order a is t^(1-a)/Gamma(2-a)
    alpha = 0.3
    sig = make_signal(lambda t: t, h=0.02, n=40)
    out = l1_caputo(sig, FractionalOrder(alpha))
    t = sig.grid.times()[1:]
    expected = t ** (1.0 - alpha) / math.gamma(2.0 - alpha)
    np.testing.assert_allclose(out.values[1:], expected, rtol=1e-12)


def test_l1_classical_limit_is_backward_difference():
    sig = make_signal(lambda t: t ** 3, h=0.1, n=10)
    out = l1_caputo(sig, FractionalOrder(1.0))
    np.testing.assert_allclose(out.values[1:], np.diff(sig.values) / 0.1, rtol=1e-12)


def test_l1_node0_copies_node1():
    sig = make_signal(np.sin, h=0.05, n=20)
    out = l1_caputo(sig, FractionalOrder(0.7))
    assert out.values[0] == out.values[1]


def test_l1_quadratic_signal_accuracy_improves_like_h():
    # Caputo derivative of t^2 at order a is 2 t^(2-a)/Gamma(3-a)
    alpha = 0.5
    errs = []
    for n in (100, 200, 400):
        sig = make_signal(lambda t: t ** 2, h=1.0 / n, n=n)
        out = l1_caputo(sig, FractionalOrder(alpha))
        t = sig.grid.times()[1:]
        exact = 2.0 * t ** (2.0 - alpha) / math.gamma(3.0 - alpha)
        errs.append(np.abs(out.values[1:] - exact).max())
    order = np.log2(errs[0] / errs[1])
    # theoretical rate 2 - alpha = 1.5, approached from below
    assert 1.4 < order < 1.55
    assert errs[2] < errs[1] < errs[0]


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_l1_matches_direct_sum_at_every_node(alpha):
    # the FFT product against the direct L1 sum, node by node, relative to
    # the sum of the absolute terms of that node's sum
    n, h = 3000, 0.01
    sig = make_signal(lambda t: np.exp(-t / 5.0) * (1.0 + 0.3 * np.sin(4.0 * t)), h=h, n=n)
    out = l1_caputo(sig, FractionalOrder(alpha))
    j = np.arange(n + 1, dtype=float)
    c = j[1:] ** (1.0 - alpha) - j[:-1] ** (1.0 - alpha)
    du = np.diff(sig.values)
    direct = np.array([c[:k][::-1] @ du[:k] for k in range(1, n + 1)])
    magnitude = np.array([np.abs(c[:k][::-1]) @ np.abs(du[:k]) for k in range(1, n + 1)])
    scale = h ** (-alpha) / math.gamma(2.0 - alpha)
    assert np.all(np.abs(out.values[1:] - scale * direct) <= 1e-12 * scale * magnitude)


# ---------------------------------------------------------------- GL weights

def test_gl_weights_first_terms():
    alpha = 0.5
    w = gl_weights(FractionalOrder(alpha), 3)
    np.testing.assert_allclose(w, [1.0, -0.5, -0.125, -0.0625])
    assert w[0] == 1.0
    assert w[1] == -alpha


def test_gl_weights_match_binomial_form():
    alpha = 0.73
    w = gl_weights(FractionalOrder(alpha), 8)
    for j in range(8 + 1):
        binom = 1.0
        for i in range(j):
            binom *= (alpha - i) / (i + 1)
        assert w[j] == pytest.approx((-1.0) ** j * binom, rel=1e-13)


def test_gl_weights_tail_sums_to_zero():
    # sum over all j of the signed binomial weights vanishes for 0 < a < 1
    w = gl_weights(FractionalOrder(0.6), 200000)
    assert abs(w.sum()) < 1e-3


def test_gl_weights_rejects_bad_count():
    with pytest.raises(DomainError):
        gl_weights(FractionalOrder(0.5), 0)


# ---------------------------------------------------------------- Adams weights

def test_abm_predictor_weight_first_step_half_order():
    # first step at alpha = 1/2, h = 1: predictor weight (h^a/a) (1^a - 0^a)
    # = 2, and node 0's corrector weight 0^(a+1) - (0 - a) 1^a = a
    dp, d2q, start = adams_tables(FractionalOrder(0.5), 1)
    np.testing.assert_allclose(dp / 0.5, [2.0])
    np.testing.assert_allclose(start, [0.5])


def test_abm_weights_classical_limit_trapezoid():
    h = 0.1
    dp, d2q, start = adams_tables(FractionalOrder(1.0), 3)
    np.testing.assert_allclose(h * dp, [h, h, h])
    # corrector weights of nodes 0, 1, 2 and of the predicted node 3
    weights = np.array([start[2], d2q[1], d2q[0], 1.0]) * h / math.gamma(3.0)
    np.testing.assert_allclose(weights, [h / 2, h, h, h / 2])


@pytest.mark.parametrize("alpha", [0.3, 0.9])
def test_abm_start_weights_match_a_40_digit_reference(alpha):
    # start[j] = j^(a+1) - (j - a)(j+1)^a cancels two terms of size j^(a+1)
    # to about a(a+1)/2 j^(a-1), so each term's few ulps grow by j^2
    n = 400
    with localcontext() as ctx:
        ctx.prec = 40
        a = Decimal(alpha)
        ref = np.array([float(Decimal(j) ** (a + 1) - (Decimal(j) - a) * Decimal(j + 1) ** a)
                        for j in range(n)])
    _, _, start = adams_tables(FractionalOrder(alpha), n)
    bound = 16 * np.finfo(float).eps * np.arange(1, n + 1) ** 2 / (alpha * (alpha + 1))
    assert (np.abs(start - ref) <= bound * ref).all()


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.9, 0.99])
def test_abm_corrector_tables_match_a_50_digit_reference_to_step_20000(alpha):
    # d2q and start cancel powers of size i^(a+1) down to about i^(a-1),
    # which loses about i^2 eps / a; from i = 16 on they are summed from
    # series with terms of one sign, so the worst loss is at i = 15
    n = 20000
    idx = sorted(set(range(40)) | {int(i) for i in np.geomspace(40, n - 1, 60)})
    with localcontext() as ctx:
        ctx.prec = 50
        a = Decimal(alpha)
        q = {i: Decimal(i) ** (a + 1) for i in {int(j) + k for j in idx for k in range(3)}}
        d2q_ref = np.array([float(q[i + 2] + q[i] - 2 * q[i + 1]) for i in idx])
        start_ref = np.array([float(q[i] - (i - a) * Decimal(i + 1) ** a) for i in idx])
    _, d2q, start = adams_tables(FractionalOrder(alpha), n)
    np.testing.assert_allclose(d2q[idx], d2q_ref, rtol=5e-12, atol=0)
    np.testing.assert_allclose(start[idx], start_ref, rtol=5e-12, atol=0)


def _power_steps_decimal(e: float, idx) -> np.ndarray:
    """(i+1)^e - i^e at each i of ``idx``, from 50-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 50
        return np.array([float(Decimal(i + 1) ** Decimal(e) - Decimal(i) ** Decimal(e)) for i in idx])


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.9, 0.99])
def test_power_differences_match_a_50_digit_reference_to_step_20000(alpha):
    # (i+1)^e - i^e cancels powers of size i^e down to about e i^(e-1),
    # losing about i eps / e; the Adams predictor table has e = alpha and
    # the L1 weights e = 1 - alpha
    n = 20000
    idx = sorted(set(range(40)) | {int(i) for i in np.geomspace(40, n - 1, 60)})
    dp, _, _ = adams_tables(FractionalOrder(alpha), n)
    np.testing.assert_allclose(dp[idx], _power_steps_decimal(alpha, idx), rtol=1e-15, atol=0)
    np.testing.assert_allclose(caputo._power_steps(1.0 - alpha, n)[idx],
                               _power_steps_decimal(1.0 - alpha, idx), rtol=1e-15, atol=0)


@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99])
def test_l1_response_to_a_unit_step_is_its_weights(alpha):
    # u jumps from 0 to 1 at t = h, so out[k] = c[k-1] / Gamma(2 - alpha) at
    # h = 1; the FFT's rounding, about 1e-12 of c at alpha = 0.99, bounds rtol
    n = 20000
    idx = sorted(set(range(40)) | {int(i) for i in np.geomspace(40, n - 1, 60)})
    u = np.ones(n + 1)
    u[0] = 0.0
    out = l1_caputo(SampledSignal(UniformGrid(0.0, 1.0, n), u), FractionalOrder(alpha)).values
    np.testing.assert_allclose(out[1:][idx] * math.gamma(2.0 - alpha),
                               _power_steps_decimal(1.0 - alpha, idx), rtol=1e-11, atol=0)


def test_abm_classical_tables_are_exact_integers():
    dp, d2q, start = adams_tables(FractionalOrder(1.0), 20000)
    assert (dp == 1.0).all() and (d2q == 2.0).all() and (start == 1.0).all()


def test_abm_corrector_weights_positive():
    for k in (1, 2, 5, 17):
        dp, d2q, start = adams_tables(FractionalOrder(0.35), k)
        assert (dp > 0).all() and (d2q > 0).all() and (start > 0).all()
        assert len(dp) == len(d2q) == len(start) == k
