import math

import numpy as np
import pytest

from fracstab import (
    DomainError,
    FractionalOrder,
    GridError,
    SampledSignal,
    UniformGrid,
    abm_weights,
    gamma_fn,
    gl_weights,
    l1_caputo,
)
from fracstab.caputo import fft_size


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


# ---------------------------------------------------------------- gamma

def test_gamma_known_values():
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma_fn(5.0) == 24.0
    assert gamma_fn(1.0) == 1.0


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_gamma_rejects_non_positive(bad):
    with pytest.raises(DomainError):
        gamma_fn(bad)


# ---------------------------------------------------------------- L1 operator

def test_l1_constant_signal_has_zero_derivative():
    sig = make_signal(lambda t: np.full_like(t, 3.7), h=0.01, n=50)
    out = l1_caputo(sig, FractionalOrder(0.4))
    np.testing.assert_allclose(out.values, 0.0, atol=1e-12)
    assert out.node0_copied


def test_l1_exact_for_linear_signal():
    # the scheme interpolates piecewise linearly, so u(t) = t is resolved
    # exactly: derivative of order a is t^(1-a)/Gamma(2-a)
    alpha = 0.3
    sig = make_signal(lambda t: t, h=0.02, n=40)
    out = l1_caputo(sig, FractionalOrder(alpha))
    t = sig.grid.times()[1:]
    expected = t ** (1.0 - alpha) / gamma_fn(2.0 - alpha)
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
        exact = 2.0 * t ** (2.0 - alpha) / gamma_fn(3.0 - alpha)
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
    scale = h ** (-alpha) / gamma_fn(2.0 - alpha)
    assert np.all(np.abs(out.values[1:] - scale * direct) <= 1e-12 * scale * magnitude)


def test_fft_size_is_smallest_5_smooth_length():
    def smooth(x):
        for p in (2, 3, 5):
            while x % p == 0:
                x //= p
        return x == 1

    for m in range(1, 3000):
        size = fft_size(m)
        assert size >= m and smooth(size)
        assert not any(smooth(k) for k in range(m, size))


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
    b, a = abm_weights(FractionalOrder(0.5), 1)
    np.testing.assert_allclose(b, [2.0])
    assert a.shape == (2,)


def test_abm_weights_classical_limit_trapezoid():
    h = 0.1
    b, a = abm_weights(FractionalOrder(1.0), 3, h=h)
    np.testing.assert_allclose(b, [h, h, h])
    np.testing.assert_allclose(a, [h / 2, h, h, h / 2])


def test_abm_corrector_weights_positive():
    for k in (1, 2, 5, 17):
        b, a = abm_weights(FractionalOrder(0.35), k, h=0.01)
        assert (b > 0).all()
        assert (a > 0).all()
        assert len(b) == k and len(a) == k + 1


def test_abm_weights_rejects_bad_step():
    with pytest.raises(DomainError):
        abm_weights(FractionalOrder(0.5), 0)
