"""Damped Newton iteration for small nonlinear systems, and the one residual
test by which Newton's roots and a functional's anchor count as equilibria."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError, NewtonError

_MAX_ITER = 200
_STEP_TOL = 1e-12       # relative step norm that ends the iteration
_RESIDUAL_TOL = 1e-9    # accepted max |f(x)|, relative to max(|x|, 1)


def jacobian(f: Callable, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian at the float ndarray ``x`` of ``f``, an rhs:
    it takes a list of Python floats and may return any float sequence."""
    n = x.size
    J = np.empty((n, n))
    fx_scale = np.maximum(np.abs(x), 1.0)
    for i in range(n):
        step = 1e-7 * fx_scale[i]
        e = np.zeros(n)
        e[i] = step
        J[:, i] = np.subtract(f((x + e).tolist()), f((x - e).tolist())) / (2.0 * step)
    return J


def damped_newton(f: Callable, x0) -> np.ndarray:
    """Equilibrium of ``f`` from the seed ``x0``, by Newton iteration with
    step halving on residual increase.

    ``f`` follows the rhs contract of ``ModelDefinition``: it takes a list
    of Python floats and may return any float sequence.

    The iteration stops when the relative step norm drops below 1e-12.  Its
    point is returned if it is a root, max |f(x)| <= 1e-9 max(max |x|, 1),
    and is positive wherever ``x0`` is.  Otherwise, and after a singular
    Jacobian, a failed line search or 200 iterations, ``x0`` is returned if
    it is a root by the same test; if not, ``NewtonError`` names its residual.
    """
    def residual(x):
        return np.asarray(f(x.tolist()), dtype=float)

    x = seed = np.array(x0, dtype=float)
    fx = seed_fx = residual(seed)
    for _ in range(_MAX_ITER):
        try:
            delta = np.linalg.solve(jacobian(f, x), -fx)
        except np.linalg.LinAlgError:
            break

        lam = 1.0
        base_res = np.linalg.norm(fx)
        for _ in range(60):
            x_new = x + lam * delta
            fx_new = residual(x_new)
            if np.isfinite(fx_new).all() and np.linalg.norm(fx_new) <= base_res:
                break
            lam *= 0.5
        else:
            break

        step = np.linalg.norm(lam * delta) / max(np.linalg.norm(x_new), 1.0)
        x, fx = x_new, fx_new
        if step < _STEP_TOL:
            if _accept_root(fx, x) and (x[seed > 0] > 0).all():
                return x
            break
    if not _accept_root(seed_fx, seed):
        raise NewtonError(f"residual {np.abs(seed_fx).max():.3g} too large at the seed {seed}")
    return seed


def _accept_root(fx, x: np.ndarray) -> bool:
    """Whether ``fx = f(x)`` has max |fx| <= 1e-9 max(max |x|, 1)."""
    return np.abs(fx).max() <= _RESIDUAL_TOL * max(np.abs(x).max(), 1.0)


def require_equilibrium(f: Callable, anchor, dimension: int) -> np.ndarray:
    """``anchor`` as a float array, checked to be a root of the vector field ``f``
    (an rhs, which takes a list of Python floats).

    Raises ``ContractError`` unless it has ``dimension`` components and is a
    root by ``damped_newton``'s test, max |f| <= 1e-9 max(max |anchor|, 1).
    """
    anchor = np.asarray(anchor, dtype=float)
    if anchor.shape != (dimension,):
        raise ContractError(f"anchor must be a {dimension}-component state")
    if not _accept_root(f(anchor.tolist()), anchor):
        raise ContractError("anchor is not an equilibrium of the model")
    return anchor
