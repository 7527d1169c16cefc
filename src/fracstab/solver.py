"""Time integration of Caputo fractional systems and their classical limits.

Schemes:

* ``solve_fde_abm`` -- fractional Adams-Bashforth-Moulton predictor-corrector
  (one corrector pass, full memory by default), the primary scheme;
* ``solve_fde_gl``  -- explicit Grunwald-Letnikov scheme, kept as an
  independent cross-check oracle;
* ``solve_ode_rk4`` -- classical fixed-step RK4 for the alpha = 1 reference.

A single solve is sequential (each step needs the full history); distinct
solves share nothing and may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .caputo import FractionalOrder, UniformGrid, adams_tables, gamma_fn, gl_weights
from .errors import ContractError, DivergenceError


@dataclass(frozen=True)
class ModelDefinition:
    """Autonomous vector field u' = rhs(u) with labelled components.

    ``rhs`` must be deterministic and side-effect free, mapping a state
    array of length ``dimension`` to an array of the same length.
    """

    dimension: int
    rhs: Callable[[np.ndarray], np.ndarray]
    name: str
    state_labels: tuple

    def __post_init__(self):
        if self.dimension < 1:
            raise ContractError("model dimension must be >= 1")
        if len(self.state_labels) != self.dimension:
            raise ContractError("state_labels length must equal dimension")


@dataclass(frozen=True)
class Trajectory:
    """Solution samples on a uniform grid; states has shape (n_nodes, dim)."""

    grid: UniformGrid
    states: np.ndarray
    order: FractionalOrder
    model_name: str

    def component(self, index: int) -> np.ndarray:
        return self.states[:, index]


def _check_x0(model: ModelDefinition, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.dimension,):
        raise ContractError(
            f"initial state shape {x0.shape} does not match model dimension {model.dimension}"
        )
    if not np.isfinite(x0).all():
        raise ContractError("initial state contains non-finite values")
    return x0


def _guard_finite(x: np.ndarray, node: int) -> None:
    if not np.isfinite(x).all():
        raise DivergenceError(node)


def solve_fde_abm(
    model: ModelDefinition,
    order: FractionalOrder,
    x0,
    grid: UniformGrid,
    memory_window: int | None = None,
) -> Trajectory:
    """Predictor-corrector (PECE) solution of D^alpha u = rhs(u), u(t0) = x0.

    ``memory_window`` optionally truncates the history sums to the last
    ``memory_window`` steps (short-memory principle); the default keeps
    the full O(N^2) memory.
    """
    x0 = _check_x0(model, x0)
    alpha = order.alpha
    h = grid.h
    n = grid.n_steps
    f = model.rhs

    xs = np.empty((n + 1, model.dimension))
    fs = np.empty_like(xs)
    xs[0] = x0
    fs[0] = f(x0)

    ga = gamma_fn(alpha)
    ga2 = gamma_fn(alpha + 2.0)
    ha = h ** alpha
    dp, d2q, start = adams_tables(order, n)

    for k in range(1, n + 1):
        lo = 0 if memory_window is None else max(0, k - memory_window)
        b = (ha / alpha) * dp[k - 1 - lo::-1][: k - lo]
        pred = x0 + np.tensordot(b, fs[lo:k], axes=1) / ga
        _guard_finite(pred, k)

        a = np.empty(k - lo)
        if lo == 0:
            a[0] = start[k - 1]
            if k > 1:
                a[1:] = d2q[k - 2:: -1]
        else:
            a[:] = d2q[k - lo - 1:: -1][: k - lo]
        xs[k] = x0 + (ha / ga2) * (np.tensordot(a, fs[lo:k], axes=1) + f(pred))
        _guard_finite(xs[k], k)
        fs[k] = f(xs[k])

    return Trajectory(grid, xs, order, model.name)


def solve_fde_gl(
    model: ModelDefinition,
    order: FractionalOrder,
    x0,
    grid: UniformGrid,
    memory_window: int | None = None,
) -> Trajectory:
    """Explicit Grunwald-Letnikov solution; independent oracle for ABM."""
    x0 = _check_x0(model, x0)
    alpha = order.alpha
    h = grid.h
    n = grid.n_steps
    f = model.rhs

    w = gl_weights(order, n)
    ha = h ** alpha
    # v_k = u_k - u_0; shifted GL form of the Caputo operator:
    #   h^-alpha * sum_j w_j v_{k-j} = rhs(u_{k-1})
    v = np.zeros((n + 1, model.dimension))
    for k in range(1, n + 1):
        lo = 1 if memory_window is None else max(1, k - memory_window)
        conv = np.tensordot(w[lo: k + 1], v[k - lo:: -1][: k - lo + 1], axes=1)
        v[k] = ha * f(x0 + v[k - 1]) - conv
        _guard_finite(v[k], k)
    return Trajectory(grid, x0 + v, order, model.name)


def solve_ode_rk4(model: ModelDefinition, x0, grid: UniformGrid) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta solution of u' = rhs(u)."""
    x0 = _check_x0(model, x0)
    h = grid.h
    f = model.rhs
    xs = np.empty((grid.n_nodes, model.dimension))
    xs[0] = x0
    for k in range(1, grid.n_nodes):
        x = xs[k - 1]
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        xs[k] = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _guard_finite(xs[k], k)
    return Trajectory(grid, xs, FractionalOrder(1.0), model.name)


def undershoot_report(traj: Trajectory, tol_factor: float = 1e-8) -> list:
    """Nodes where a component undershoots zero beyond discretization noise.

    States are never clamped (clamping would bias Lyapunov certificates);
    instead this post-hoc report lists (node, component) pairs whose value
    lies below -tol_factor times the component's scale over the trajectory.
    """
    scales = np.maximum(np.abs(traj.states).max(axis=0), 1.0)
    bad = np.argwhere(traj.states < -tol_factor * scales)
    return [(int(node), int(comp)) for node, comp in bad]
