"""Damped Newton iteration for small nonlinear systems."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NewtonError

_MAX_ITER = 200
_STEP_TOL = 1e-12       # relative step norm that ends the iteration
_RESIDUAL_TOL = 1e-9    # accepted max |f(x)|, relative to max(|x|, 1)


def _fd_jacobian(f: Callable, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of ``f``, which may return any float sequence."""
    n = x.size
    J = np.empty((n, n))
    fx_scale = np.maximum(np.abs(x), 1.0)
    for i in range(n):
        step = 1e-7 * fx_scale[i]
        e = np.zeros(n)
        e[i] = step
        J[:, i] = np.subtract(f(x + e), f(x - e)) / (2.0 * step)
    return J


def damped_newton(f: Callable, x0) -> np.ndarray:
    """Root of ``f`` by Newton iteration with step halving on residual increase.

    ``f`` takes a float ndarray and may return any float sequence, such as
    a model rhs's list.

    Stops when the relative step norm drops below 1e-12 and returns the
    root only if max |f(x)| <= 1e-9 max(max |x|, 1); raises ``NewtonError``
    otherwise, or after 200 iterations without convergence.
    """
    def residual(x):
        return np.asarray(f(x), dtype=float)

    x = np.asarray(x0, dtype=float).copy()
    fx = residual(x)
    for _ in range(_MAX_ITER):
        try:
            delta = np.linalg.solve(_fd_jacobian(f, x), -fx)
        except np.linalg.LinAlgError as exc:
            raise NewtonError(f"singular Jacobian at {x}") from exc

        lam = 1.0
        base_res = np.linalg.norm(fx)
        for _ in range(60):
            x_new = x + lam * delta
            fx_new = residual(x_new)
            if np.isfinite(fx_new).all() and np.linalg.norm(fx_new) <= base_res:
                break
            lam *= 0.5
        else:
            raise NewtonError("line search failed to reduce the residual")

        step = np.linalg.norm(lam * delta) / max(np.linalg.norm(x_new), 1.0)
        x, fx = x_new, fx_new
        if step < _STEP_TOL:
            residual = np.abs(fx).max()
            if residual > _RESIDUAL_TOL * max(np.abs(x).max(), 1.0):
                raise NewtonError(f"residual {residual:.3g} too large at {x}")
            return x
    raise NewtonError(f"no convergence after {_MAX_ITER} iterations")
