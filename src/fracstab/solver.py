"""Time integration of Caputo fractional systems.

``solve_fde_abm`` is the fractional Adams-Bashforth-Moulton
predictor-corrector: one corrector pass, exact full memory, block-FFT
history sums, O(N log^2 N).  The Grunwald-Letnikov and classical RK4
solvers that cross-check it live with the tests, in ``tests/oracles.py``.

The rhs contract: a model's rhs takes the state as a float ndarray and
returns its d rates as a list of Python floats or as a float ndarray; the
solver gives the same trajectory, bit for bit, for either.  The shipped
models return lists, because at d = 4 one numpy call costs more than the
scalar arithmetic it would replace, and a step makes two rhs calls.

A single solve is sequential (each step needs the full history); distinct
solves share nothing and may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma, isfinite
from typing import Callable, Sequence

import numpy as np

from .caputo import FractionalOrder, UniformGrid, adams_tables, fft_size
from .errors import ContractError, DivergenceError


@dataclass(frozen=True)
class ModelDefinition:
    """Autonomous vector field u' = rhs(u) with labelled components.

    ``rhs`` must be deterministic and side-effect free.  It takes a float
    ndarray of length ``dimension`` and returns ``dimension`` rates, as a
    list of Python floats (the shipped models) or as a float ndarray; code
    that does array arithmetic on them converts with ``np.asarray``.  A
    division by zero inside it gives inf or nan rather than raising, so
    that the solver's finiteness guard reports the solve as a
    ``DivergenceError`` at that node.
    """

    dimension: int
    rhs: Callable[[np.ndarray], Sequence[float]]
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


# Length of the near-field blocks of the ABM history sums.
_BLOCK = 64


def solve_fde_abm(
    model: ModelDefinition,
    order: FractionalOrder,
    x0,
    grid: UniformGrid,
) -> Trajectory:
    """Predictor-corrector (PECE) solution of D^alpha u = rhs(u), u(t0) = x0.

    Exact full memory, block-FFT history sums, O(N log^2 N).  With node
    0's corrector weight folded in up front, the predictor and corrector
    history sums at node k are Toeplitz sums over the rhs at nodes 0..k-1.
    Sources in the current block of ``_BLOCK`` nodes are summed directly;
    older ones were added by FFT at block boundaries (``_add_far_field``,
    after Hairer, Lubich & Schlichte 1985) to the rows of ``xs`` and
    ``fs`` that are not yet computed.  A step is one ``np.dot`` for the
    near field, two rhs calls and Python-float arithmetic for the rest.
    """
    x0 = _check_x0(model, x0)
    alpha = order.alpha
    h = grid.h
    n = grid.n_steps
    f = model.rhs

    ha = h ** alpha
    cp = ha / (alpha * gamma(alpha))
    cq = ha / gamma(alpha + 2.0)
    dp, d2q, start = adams_tables(order, n)
    # Scaled predictor (row 0) and corrector (row 1) kernels, reversed: the
    # weights of the m nodes before node k are the last m columns.
    reversed_kernels = np.stack([cp * dp[::-1], cq * d2q[::-1]])
    near_kernels = [reversed_kernels[:, n - m:] for m in range(_BLOCK)]

    xs = np.empty((n + 1, model.dimension))
    fs = np.empty_like(xs)
    xs[0] = x0
    fs[0] = f(x0)
    # Until node k is computed, xs[k] and fs[k] hold x0 plus the scaled
    # far-field predictor and corrector sums.  The corrector kernel gives
    # node 0 the weight d2q[k-1] in place of start[k-1]; the difference
    # starts in fs[k].
    xs[1:] = x0
    np.outer(cq * (start - d2q), fs[0], out=fs[1:])
    fs[1:] += x0
    del dp, d2q, start  # free before the FFTs, which set the peak memory

    for k in range(1, n + 1):
        m = k % _BLOCK
        if m == 0:
            _add_far_field(xs, fs, reversed_kernels[:, ::-1], k)
        # Predictor xs[k] + near[0]; corrector cq * f(pred) + (near[1] + fs[k]).
        near = np.dot(near_kernels[m], fs[k - m:k])
        pred = near[0]
        pred += xs[k]
        if not all(map(isfinite, pred.tolist())):
            raise DivergenceError(k, alpha)
        x = [v * cq + (c + s) for v, c, s in zip(f(pred), near[1].tolist(), fs[k].tolist())]
        if not all(map(isfinite, x)):
            raise DivergenceError(k, alpha)
        xs[k] = x
        fs[k] = f(xs[k])

    return Trajectory(grid, xs, order, model.name)


def _add_far_field(xs: np.ndarray, fs: np.ndarray, kernels: np.ndarray, e: int) -> None:
    """Add the sources at nodes [e - r, e) to the sums of targets [e, e + r).

    ``e`` is a multiple of ``_BLOCK``, and r = _BLOCK * 2^j is the block
    size at which e / r is odd, so each earlier source reaches each later
    block through exactly one such transfer.  Of the T = min(r, N + 1 - e)
    targets, target e + t takes source e - r + i with kernel entry
    r - 1 + t - i < r + T - 1, so a real FFT of at least that length gives
    the sums without wrap-around.  Both kernels share one transform of
    the (r, d) source block; each kernel's product is freed before the
    next one's, which keeps the temporaries small.
    """
    r = _BLOCK
    while (e // r) % 2 == 0:
        r *= 2
    hi = min(e + r, xs.shape[0])
    size = fft_size(r + hi - e - 1)
    out = slice(r - 1, r - 1 + hi - e)
    sources = np.fft.rfft(fs[e - r:e], size, axis=0)
    for acc, spectrum in zip((xs, fs), np.fft.rfft(kernels[:, :size], size)):
        product = sources * spectrum[:, None]
        acc[e:hi] += np.fft.irfft(product, size, axis=0)[out]
        del product
