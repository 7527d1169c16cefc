"""Discrete fractional-calculus primitives on uniform time grids.

Provides the L1 discretization of the Caputo derivative of a sampled
signal, Grunwald-Letnikov binomial weights, and the fractional Adams
(predictor-corrector) quadrature weights.  All arithmetic is 64-bit
floating point; all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridError


@dataclass(frozen=True)
class FractionalOrder:
    """Order alpha of the Caputo operator, restricted to (0, 1]."""

    alpha: float

    def __post_init__(self):
        a = self.alpha
        if not (isinstance(a, (int, float)) and math.isfinite(a) and 0.0 < a <= 1.0):
            raise DomainError(f"fractional order must lie in (0, 1], got {a!r}")
        object.__setattr__(self, "alpha", float(a))

    @property
    def is_classical(self) -> bool:
        return self.alpha == 1.0


@dataclass(frozen=True)
class UniformGrid:
    """Uniform time grid t0 + k*h for k = 0..n_steps."""

    t0: float
    h: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0):
            raise GridError(f"step size must be positive, got {self.h!r}")
        if self.n_steps < 1:
            raise GridError(f"need at least one step, got {self.n_steps}")

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.n_nodes)


@dataclass(frozen=True)
class SampledSignal:
    """Real signal sampled at every node of a uniform grid.

    ``node0_copied`` marks signals whose node-0 value is a convention
    (the L1 stencil does not define the derivative at t0).
    """

    grid: UniformGrid
    values: np.ndarray
    node0_copied: bool = field(default=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size != self.grid.n_nodes:
            raise GridError(
                f"signal length {v.size} does not match grid node count {self.grid.n_nodes}"
            )
        if not np.isfinite(v).all():
            raise GridError("signal contains non-finite values")
        object.__setattr__(self, "values", v)


def fft_size(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m, a length numpy's FFT transforms fast."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            size = p35
            while size < m:
                size *= 2
            best = min(best, size)
            p35 *= 3
        p5 *= 5
    return best


def gamma_fn(x: float) -> float:
    """Gamma function for positive real arguments.

    Relative error is below 1e-12 on (0, 50] (delegates to the platform
    libm implementation, which is accurate to a few ulp).
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x > 0):
        raise DomainError(f"gamma_fn requires a positive finite argument, got {x!r}")
    return math.gamma(x)


def l1_caputo(signal: SampledSignal, order: FractionalOrder) -> SampledSignal:
    """L1-scheme estimate of the Caputo derivative of a sampled signal.

    Returns a signal on the same grid.  Node k >= 1 carries the L1
    stencil value; node 0 copies the node-1 estimate (flagged via
    ``node0_copied``).  For alpha = 1 the scheme degenerates to backward
    first differences divided by h.
    """
    grid = signal.grid
    if grid.n_nodes < 2:
        raise GridError("l1_caputo needs at least 2 nodes")
    h = grid.h
    du = np.diff(signal.values)
    out = np.empty(grid.n_nodes)
    if order.is_classical:
        out[1:] = du / h
    else:
        alpha = order.alpha
        n = grid.n_steps
        j = np.arange(n + 1, dtype=float)
        c = j[1:] ** (1.0 - alpha) - j[:-1] ** (1.0 - alpha)
        scale = h ** (-alpha) / gamma_fn(2.0 - alpha)
        # out[k] = scale * sum_{j=0}^{k-1} c[j] * du[k-1-j], by a real FFT
        # zero-padded to at least 2n - 1 so the circular product does not wrap
        size = fft_size(2 * n - 1)
        spectrum = np.fft.rfft(c, size)
        spectrum *= np.fft.rfft(du, size)
        out[1:] = scale * np.fft.irfft(spectrum, size)[:n]
    out[0] = out[1]
    return SampledSignal(grid, out, node0_copied=True)


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


def adams_tables(order: FractionalOrder, n_steps: int):
    """Unnormalized fractional Adams weights for steps 1..n_steps.

    At step k the right-hand side i nodes before node k-1 has predictor
    weight dp[i] = (i+1)^alpha - i^alpha and, for i < k-1, corrector
    weight d2q[i], the second difference of i^(alpha+1); node 0's corrector
    weight is start[k-1].
    """
    alpha = order.alpha
    p = np.arange(n_steps + 1, dtype=float) ** alpha
    q = np.arange(n_steps + 2, dtype=float) ** (alpha + 1.0)
    start = np.fromiter(((k - 1) ** (alpha + 1.0) - (k - 1 - alpha) * k ** alpha
                         for k in range(1, n_steps + 1)), float, n_steps)
    return np.diff(p), q[2:] + q[:-2] - 2.0 * q[1:-1], start


def abm_weights(order: FractionalOrder, step_index: int, h: float = 1.0):
    """Fractional Adams quadrature weights for advancing to node step_index.

    Returns ``(b, a)`` where ``b`` (length k) are the predictor
    rectangle-type weights b_j = (h^alpha/alpha)((k-j)^alpha - (k-1-j)^alpha)
    and ``a`` (length k+1) the corrector weights including their
    h^alpha/Gamma(alpha+2) normalization; ``a[-1]`` multiplies the
    right-hand side at the predicted node.  A consumer of ``b`` still
    divides the weighted sum by Gamma(alpha).  At alpha = 1 the predictor
    weights are all h and the corrector reduces to the trapezoidal rule.
    Both are slices of ``adams_tables``, the tables the solver uses.
    """
    if step_index < 1:
        raise DomainError(f"step_index must be >= 1, got {step_index}")
    alpha = order.alpha
    k = step_index
    dp, d2q, start = adams_tables(order, k)
    b = (h ** alpha / alpha) * dp[::-1]
    a = np.concatenate([[start[k - 1]], d2q[: k - 1][::-1], [1.0]])
    return b, a * (h ** alpha / gamma_fn(alpha + 2.0))
