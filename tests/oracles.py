"""Independent reference implementations that the tests compare the package against.

None of these runs in the program.  Each computes the same quantity as a
package function by a different method: adaptive quadrature in place of
the fixed Gauss-Legendre profile, pointwise sums in place of the
vectorized functional and its chain rule, direct Grunwald-Letnikov or
Runge-Kutta sums in place of the block-FFT Adams solver, that solver's
one-row-at-a-time ndarray form with per-column far-field transforms in
place of its list-valued block loop, and bisection on the stationarity
equation, in floats and in 60-digit decimals, in place of TEIV's
closed-form chronic equilibrium.  ``baseline_params`` is the published SICA
parameter set that the tests build their models from.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
from scipy.integrate import quad

from fracstab import DivergenceError, DomainError, FractionalOrder, Trajectory, identity_g
from fracstab.caputo import adams_tables
from fracstab.errors import NewtonError
from fracstab.lyapunov import _X_FLOOR
from fracstab.models.sica import SicaParams
from fracstab.models.teiv import teiv_incidence
from fracstab.solver import _BLOCK, _stencils


def baseline_params(beta: float = 0.066, incidence: str = "standard") -> SicaParams:
    """SICA's published baseline parameter set (beta = 0.866 for the endemic case)."""
    return SicaParams(
        lambda_=10724.0, mu=1.0 / 69.54, beta=beta, rho=0.1, phi=1.0,
        alpha_t=0.33, omega=0.09, d=1.0, incidence=incidence,
    )


def _check_positive_x(x: float, xstar: float) -> None:
    if x <= 0:
        raise DomainError(f"psi with positive anchor needs x > 0, got {x}")
    if xstar > 0 and x < _X_FLOOR:
        raise DomainError(f"psi evaluation at x = {x} is inside the singular guard band")


def psi(g, xstar: float, x: float) -> float:
    """Anchored component x - xstar - integral_{xstar}^{x} g(xstar)/g(s) ds.

    Reduces to ``x`` exactly when xstar = 0; uses the closed log form for
    the shared ``identity_g()`` instance and adaptive quadrature (1e-10
    absolute) for any other g.
    """
    if xstar == 0.0:
        return float(x)
    _check_positive_x(x, xstar)
    if g is identity_g():
        return x - xstar - xstar * math.log(x / xstar)
    gbar = g(xstar)
    integral, _ = quad(lambda s: gbar / g(s), xstar, x, epsabs=1e-10, epsrel=1e-10, limit=200)
    return x - xstar - integral


def functional_value(fn, state) -> float:
    """A LyapunovFunctional at one state, summed component by component with scalar ``psi``."""
    state = np.asarray(state, dtype=float)
    total = 0.0
    for i, (a, xstar) in enumerate(zip(fn.weights, fn.anchor)):
        total += a * psi(identity_g(), xstar, state[i])
    dev = sum(state[i] - fn.anchor[i] for i in fn.cross_indices)
    return total + 0.5 * fn.cross_weight * dev ** 2


def orbital_derivative(fn, model, state) -> float:
    """Classical orbital derivative of a LyapunovFunctional at one state,
    summed component by component: w_i (1 - xstar_i/x_i) rhs_i (w_i rhs_i for a
    zero anchor coordinate), plus the chain rule of the cross quadratic."""
    state = np.asarray(state, dtype=float)
    fx = model.rhs(state.tolist())
    total = 0.0
    for i, (a, xstar) in enumerate(zip(fn.weights, fn.anchor)):
        if xstar == 0.0:
            mult = 1.0
        else:
            _check_positive_x(state[i], xstar)
            mult = 1.0 - xstar / state[i]
        total += a * mult * fx[i]
    dev = sum(state[i] - fn.anchor[i] for i in fn.cross_indices)
    return total + fn.cross_weight * dev * sum(fx[i] for i in fn.cross_indices)


def _array_rhs(model):
    """The model's rhs from a float ndarray state to a float ndarray of rates.
    Model fields take and return lists of Python floats; the oracles below
    do array arithmetic."""
    return lambda x: np.asarray(model.rhs(x.tolist()), dtype=float)


def _guard_finite(x: np.ndarray, node: int, order: float) -> None:
    if not np.isfinite(x).all():
        raise DivergenceError(node, order)


def gl_weights(order: FractionalOrder, count: int) -> np.ndarray:
    """Grunwald-Letnikov weights w_0..w_count, w_j = (-1)^j C(alpha, j)."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    alpha = order.alpha
    w = np.empty(count + 1)
    w[0] = 1.0
    for j in range(1, count + 1):
        w[j] = w[j - 1] * (1.0 - (alpha + 1.0) / j)
    return w


def solve_fde_gl(model, order: FractionalOrder, x0, grid) -> Trajectory:
    """Explicit Grunwald-Letnikov solution with direct O(N^2) history sums."""
    x0 = np.asarray(x0, dtype=float)
    n = grid.n_steps
    w = gl_weights(order, n)
    ha = grid.h ** order.alpha
    f = _array_rhs(model)
    # v_k = u_k - u_0; shifted GL form of the Caputo operator:
    #   h^-alpha * sum_j w_j v_{k-j} = rhs(u_{k-1})
    v = np.zeros((n + 1, model.dimension))
    for k in range(1, n + 1):
        conv = np.tensordot(w[1: k + 1], v[k - 1:: -1], axes=1)
        v[k] = ha * f(x0 + v[k - 1]) - conv
        _guard_finite(v[k], k, order.alpha)
    return Trajectory(grid, x0 + v, order)


def solve_ode_rk4(model, x0, grid) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta solution of u' = rhs(u)."""
    h = grid.h
    f = _array_rhs(model)
    xs = np.empty((grid.n_nodes, model.dimension))
    xs[0] = np.asarray(x0, dtype=float)
    for k in range(1, grid.n_nodes):
        x = xs[k - 1]
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        xs[k] = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _guard_finite(xs[k], k, 1.0)
    return Trajectory(grid, xs, FractionalOrder(1.0))


def per_column_far_field(xs, fs, kernels, e):
    """The far-field transfer one kernel and one column at a time: the
    reference for the solver's transfer, which shares one source FFT and
    caches the kernel spectra."""
    r = _BLOCK
    while (e // r) % 2 == 0:
        r *= 2
    hi = min(e + r, xs.shape[0])
    size = 2 * r
    out = slice(r - 1, r - 1 + hi - e)
    for acc, kernel in zip((xs, fs), kernels):
        spectrum = np.fft.rfft(kernel[:size], size)
        for c in range(xs.shape[1]):
            product = np.fft.rfft(fs[e - r:e, c], size)
            product *= spectrum
            acc[e:hi, c] += np.fft.irfft(product, size)[out]


def solve_fde_abm_stepwise(model, order: FractionalOrder, x0, grid) -> Trajectory:
    """``solve_fde_abm`` one node at a time on ndarray rows: each step
    assembles its own work matrix from the rows of ``xs`` and ``fs`` at
    that node, reads and writes those rows in place, and the far field is
    added per column.  The same stencil row against the same values in
    the rows it weights, and the same Python-float corrector, so the same
    trajectory and the same ``DivergenceError`` node, bit for bit."""
    x0 = np.asarray(x0, dtype=float)
    alpha, h, n = order.alpha, grid.h, grid.n_steps
    f = model.rhs
    ha = h ** alpha
    cp = ha / (alpha * math.gamma(alpha))
    cq = ha / math.gamma(alpha + 2.0)
    dp, d2q, start = adams_tables(order, n)
    kernels = np.stack([cp * dp, cq * d2q])
    stencils = _stencils(kernels)

    xs = np.empty((n + 1, model.dimension))
    fs = np.empty_like(xs)
    xs[0] = x0
    fs[0] = f(x0.tolist())
    xs[1:] = x0
    np.outer(cq * (start - d2q), fs[0], out=fs[1:])
    fs[1:] += x0

    for k in range(1, n + 1):
        o = k % _BLOCK
        if o == 0:
            per_column_far_field(xs, fs, kernels, k)
        # the rhs at the block's computed nodes, then node k's far-field sums
        work = np.zeros((3 * _BLOCK, model.dimension))
        work[:o] = fs[k - o:k]
        work[_BLOCK + o] = xs[k]
        work[2 * _BLOCK + o] = fs[k]
        pred, base = np.dot(stencils[o], work)
        if not np.isfinite(pred).all():
            raise DivergenceError(k, alpha)
        x = [v * cq + c for v, c in zip(f(pred.tolist()), base.tolist())]
        if not all(map(math.isfinite, x)):
            raise DivergenceError(k, alpha)
        xs[k] = x
        fs[k] = f(xs[k].tolist())
    return Trajectory(grid, xs, order)


def _teiv_reduced(p, T, incidence, num):
    """E, V and the stationarity residual f(T, V) amp - xi at T, on the
    chronic branch.  Adding the T and E equations gives
    E = (lambda - mu_T T)/(mu_E + gamma); the I and V equations give
    V = amp E with amp = k gamma/(mu_I mu_V); the E equation then requires
    f(T, V) amp = xi = rho + mu_E + gamma.  ``num`` converts a float param
    to the arithmetic used (``float`` or ``Decimal``), which ``T`` and
    ``incidence`` use too."""
    lambda_, mu_T, mu_E, mu_I, mu_V, rho, gamma, k = (
        num(x) for x in (p.lambda_, p.mu_T, p.mu_E, p.mu_I, p.mu_V, p.rho, p.gamma, p.k))
    amp = k * gamma / (mu_I * mu_V)
    E = (lambda_ - mu_T * T) / (mu_E + gamma)
    V = amp * E
    return E, V, incidence(T, V) * amp - (rho + mu_E + gamma)


def teiv_chronic_seed_bisect(p) -> np.ndarray:
    """TEIV's chronic equilibrium for R0 > 1 by bisection in T to a bracket
    of width 1e-12 lambda/mu_T: the residual of the stationarity equation
    rises with T on (1e-12 lambda/mu_T, lambda/mu_T)."""
    t0 = p.lambda_ / p.mu_T
    incidence = teiv_incidence(p)

    def resid(T):
        return _teiv_reduced(p, T, incidence, float)[2]

    lo = 1e-12 * t0
    if resid(lo) >= 0 or resid(t0) <= 0:
        raise NewtonError("chronic-equilibrium bracket failed")
    hi = t0
    while hi - lo > 1e-12 * t0:
        mid = 0.5 * (lo + hi)
        if resid(mid) < 0:
            lo = mid
        else:
            hi = mid
    T = 0.5 * (lo + hi)
    E = (p.lambda_ - p.mu_T * T) / (p.mu_E + p.gamma)
    I = p.gamma * E / p.mu_I
    return np.array([T, E, I, p.k * I / p.mu_V])


def teiv_chronic_decimal(p, digits: int = 60) -> tuple:
    """TEIV's chronic equilibrium (T, E, I, V) for R0 > 1 as Decimals: the
    float params taken exactly, the stationarity equation in T bisected on
    (0, lambda/mu_T) in ``digits``-digit arithmetic until the bracket is
    below 10^-digits of its width."""
    with localcontext() as ctx:
        ctx.prec = digits
        beta, alpha1, alpha2, alpha3 = (Decimal(x) for x in (p.beta, p.alpha1, p.alpha2, p.alpha3))

        def incidence(T, V):
            return beta * T / (1 + alpha1 * T + alpha2 * V + alpha3 * T * V)

        lo, hi = Decimal(0), Decimal(p.lambda_) / Decimal(p.mu_T)
        if _teiv_reduced(p, hi, incidence, Decimal)[2] <= 0:
            raise NewtonError("no chronic equilibrium: R0 <= 1")
        for _ in range(math.ceil(digits * math.log2(10)) + 4):
            mid = (lo + hi) / 2
            if _teiv_reduced(p, mid, incidence, Decimal)[2] < 0:
                lo = mid
            else:
                hi = mid
        T = (lo + hi) / 2
        E, V, _ = _teiv_reduced(p, T, incidence, Decimal)
        return T, E, Decimal(p.gamma) * E / Decimal(p.mu_I), V
