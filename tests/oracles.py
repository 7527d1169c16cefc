"""Independent reference implementations that the tests compare the package against.

None of these runs in the program.  Each computes the same quantity as a
package function by a different method: adaptive quadrature in place of
the fixed Gauss-Legendre profile, pointwise sums in place of the
vectorized functional and its chain rule, and direct Grunwald-Letnikov or
Runge-Kutta sums in place of the block-FFT Adams solver.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from fracstab import DivergenceError, DomainError, FractionalOrder, Trajectory
from fracstab.lyapunov import _X_FLOOR


def _check_positive_x(x: float, xstar: float) -> None:
    if x <= 0:
        raise DomainError(f"psi with positive anchor needs x > 0, got {x}")
    if xstar > 0 and x < _X_FLOOR:
        raise DomainError(f"psi evaluation at x = {x} is inside the singular guard band")


def psi(g, xstar: float, x: float) -> float:
    """Anchored component x - xstar - integral_{xstar}^{x} g(xstar)/g(s) ds.

    Reduces to ``x`` exactly when xstar = 0; uses the closed log form for
    the identity g and adaptive quadrature (1e-10 absolute) otherwise.
    """
    if xstar == 0.0:
        return float(x)
    _check_positive_x(x, xstar)
    if g.is_identity:
        return x - xstar - xstar * math.log(x / xstar)
    gbar = g(xstar)
    integral, _ = quad(lambda s: gbar / g(s), xstar, x, epsabs=1e-10, epsrel=1e-10, limit=200)
    return x - xstar - integral


def functional_value(fn, state) -> float:
    """A LyapunovFunctional at one state, summed part by part with scalar ``psi``."""
    state = np.asarray(state, dtype=float)
    total = 0.0
    for part in fn.psi_parts:
        total += part.weight * psi(part.g, part.xstar, state[part.component_index])
    for part in fn.cross_quad_parts:
        dev = sum(state[i] - a for i, a in zip(part.indices, part.anchors))
        total += 0.5 * part.weight * dev ** 2
    return total


def orbital_derivative(fn, model, state) -> float:
    """Classical orbital derivative of a LyapunovFunctional at one state,
    summed part by part: multiplier_i * rhs_i with the multiplier
    1 - g(xstar)/g(x_i) of a psi part (1 for a zero anchor), plus the chain
    rule of each cross-quadratic part."""
    state = np.asarray(state, dtype=float)
    fx = model.rhs(state)
    total = 0.0
    for part in fn.psi_parts:
        x = state[part.component_index]
        if part.xstar == 0.0:
            mult = 1.0
        else:
            gx = part.g(x)
            if gx == 0.0:
                raise DomainError("g vanished at the evaluation state")
            mult = 1.0 - part.g(part.xstar) / gx
        total += part.weight * mult * fx[part.component_index]
    for part in fn.cross_quad_parts:
        dev = sum(state[i] - a for i, a in zip(part.indices, part.anchors))
        total += part.weight * dev * sum(fx[i] for i in part.indices)
    return total


def _array_rhs(model):
    """The model's rhs with its rates as a float ndarray.  Model fields
    return a list of Python floats; the oracles below do array arithmetic."""
    return lambda x: np.asarray(model.rhs(x), dtype=float)


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
    return Trajectory(grid, x0 + v, order, model.name)


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
    return Trajectory(grid, xs, FractionalOrder(1.0), model.name)
