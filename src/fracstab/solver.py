"""Time integration of Caputo fractional systems.

``solve_fde_abm`` is the fractional Adams-Bashforth-Moulton
predictor-corrector: one corrector pass, exact full memory, block-FFT
history sums, O(N log^2 N).  A step is one product of a stencil row with
its block's work matrix, which gives both the predictor and the corrector
base, plus two rhs calls.  The Grunwald-Letnikov and classical RK4
solvers that cross-check it live with the tests, in ``tests/oracles.py``.

The rhs contract: a model's rhs takes the state as a list of d Python
floats and returns its d rates as a list of Python floats or as a float
ndarray; the solver gives the same trajectory, bit for bit, for either.
A caller that holds the state as an ndarray passes ``state.tolist()``.
The shipped models unpack the state and return lists, because at d = 4
one numpy call costs more than the scalar arithmetic it would replace,
and a step makes two rhs calls.

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

    ``rhs`` must be deterministic and side-effect free.  It takes a list
    of ``dimension`` Python floats and returns ``dimension`` rates, as a
    list of Python floats (the shipped models) or as a float ndarray; code
    that does array arithmetic on them converts with ``np.asarray``.  An
    inf or nan rate ends a solve as a ``DivergenceError`` at its node.  A
    field may raise a package error outside its domain, as ``sica_field``
    does at zero population (the CLI's psi floor rejects that start first).
    """

    dimension: int
    rhs: Callable[[list], Sequence[float]]
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


def _stencils(kernels: np.ndarray) -> list:
    """The ``_BLOCK`` stencil rows of a block's work matrix, as (2, 3 _BLOCK)
    arrays.  Row o gives node b + o's predictor (row 0) and corrector base
    (row 1): the reversed kernels on the rhs at nodes b..b + o - 1, and a
    weight of 1 on node b + o's far-field predictor and corrector sums."""
    table = np.zeros((_BLOCK, 2, 3 * _BLOCK))
    for o in range(1, min(_BLOCK, kernels.shape[1] + 1)):
        table[o, :, :o] = kernels[:, o - 1::-1]
    node = np.arange(_BLOCK)
    table[node, 0, _BLOCK + node] = 1.0
    table[node, 1, 2 * _BLOCK + node] = 1.0
    return list(table)


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
    Sources older than the current block of ``_BLOCK`` nodes are added by
    FFT at block boundaries (``_add_far_field``, after Hairer, Lubich &
    Schlichte 1985) to the rows of ``xs`` and ``fs`` that are not yet
    computed.  Each block then gets a work matrix of 3 ``_BLOCK`` rows:
    the rhs at the block's computed nodes (zero until computed), and the
    far-field predictor and corrector sums of its nodes.  Node b + o's
    predictor and corrector base are one product of stencil row o with
    that matrix; the rest of a step is two rhs calls and Python-float
    arithmetic.  The block's states and rhs rows are written to ``xs``
    and ``fs`` once, at its end.
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
    # Scaled predictor (row 0) and corrector (row 1) kernels: entry i
    # weights the rhs i nodes before node k - 1.
    kernels = np.stack([cp * dp, cq * d2q])
    stencils = _stencils(kernels)
    spectra = {}

    # inf and nan are the finiteness guard's to report, as a DivergenceError
    # naming the node; numpy is not to warn about them on the way
    with np.errstate(over="ignore", invalid="ignore"):
        xs = np.empty((n + 1, model.dimension))
        fs = np.empty_like(xs)
        xs[0] = x0
        fs[0] = f(x0.tolist())
        # Until node k is computed, xs[k] and fs[k] hold x0 plus the scaled
        # far-field predictor and corrector sums.  The corrector kernel gives
        # node 0 the weight d2q[k-1] in place of start[k-1]; the difference
        # starts in fs[k].
        xs[1:] = x0
        np.outer(cq * (start - d2q), fs[0], out=fs[1:])
        fs[1:] += x0
        del dp, d2q, start  # free before the FFTs, which set the peak memory

        work = np.empty((3 * _BLOCK, model.dimension))
        bases = np.empty((2, model.dimension))
        for b in range(0, n + 1, _BLOCK):
            if b:
                _add_far_field(xs, fs, kernels, b, spectra)
            end = min(b + _BLOCK, n + 1)
            first = max(b, 1)
            # Rows a stencil weights 0 must be finite (0 * nan is nan): the
            # rhs rows of nodes not yet computed, and the far rows past the
            # last node, start at 0.
            work.fill(0.0)
            work[:first - b] = fs[b:first]  # node 0's rhs, in the first block
            work[_BLOCK:_BLOCK + end - b] = xs[b:end]
            work[2 * _BLOCK:2 * _BLOCK + end - b] = fs[b:end]
            rows = []
            for k, stencil in zip(range(first, end), stencils[first - b:end - b]):
                # Predictor pred; corrector cq * f(pred) + base.  A finite
                # sum clears a guard; only a sum that is not finite (which
                # a finite state can overflow to) tests each value.
                pred, base = stencil.dot(work, bases).tolist()
                if not isfinite(sum(pred)) and not all(map(isfinite, pred)):
                    raise DivergenceError(k, alpha)
                x = [v * cq + c for v, c in zip(f(pred), base)]
                if not isfinite(sum(x)) and not all(map(isfinite, x)):
                    raise DivergenceError(k, alpha)
                rows.append(x)
                work[k - b] = f(x)
            xs[first:end] = rows
            fs[first:end] = work[first - b:end - b]

    return Trajectory(grid, xs, order)


def _add_far_field(xs: np.ndarray, fs: np.ndarray, kernels: np.ndarray, e: int,
                   spectra: dict) -> None:
    """Add the sources at nodes [e - r, e) to the sums of targets [e, e + r).

    ``e`` is a multiple of ``_BLOCK``, and r = _BLOCK * 2^j is the block
    size at which e / r is odd, so each earlier source reaches each later
    block through exactly one such transfer.  Of the T = min(r, N + 1 - e)
    targets, target e + t takes source e - r + i with kernel entry
    r - 1 + t - i < r + T - 1, so a real FFT of at least that length gives
    the sums without wrap-around.  Both kernels share one transform of
    the (r, d) source block; each kernel's product is freed before the
    next one's, which keeps the temporaries small.  ``spectra`` maps an
    FFT size to the kernels' transforms at that size; a solve passes the
    same dict to every transfer, so each size is transformed once.
    """
    r = _BLOCK
    while (e // r) % 2 == 0:
        r *= 2
    hi = min(e + r, xs.shape[0])
    size = fft_size(r + hi - e - 1)
    out = slice(r - 1, r - 1 + hi - e)
    if size not in spectra:
        spectra[size] = np.fft.rfft(kernels[:, :size], size)
    sources = np.fft.rfft(fs[e - r:e], size, axis=0)
    for acc, spectrum in zip((xs, fs), spectra[size]):
        product = sources * spectrum[:, None]
        acc[e:hi] += np.fft.irfft(product, size, axis=0)[out]
        del product
