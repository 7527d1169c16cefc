"""Discrete fractional-calculus primitives on uniform time grids.

Provides the L1 discretization of the Caputo derivative of a sampled
signal and the fractional Adams (predictor-corrector) quadrature tables.
All arithmetic is 64-bit floating point; all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

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
    """Real signal sampled at every node of a uniform grid."""

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size != self.grid.n_nodes:
            raise GridError(
                f"signal length {v.size} does not match grid node count {self.grid.n_nodes}"
            )
        if not np.isfinite(v).all():
            raise GridError(f"signal is not finite at node {np.argmin(np.isfinite(v))}")
        object.__setattr__(self, "values", v)


@lru_cache(maxsize=128)
def fft_size(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m, a length numpy's FFT transforms fast.

    Memoised: a solve asks for the same few sizes at each of its
    far-field transfers."""
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


def _power_steps(e: float, n: int) -> np.ndarray:
    """(j+1)^e - j^e for j = 0..n-1, as j^e expm1(e log1p(1/j)), which does not cancel."""
    j = np.arange(1.0, n)
    return np.concatenate(([1.0], j ** e * np.expm1(e * np.log1p(1.0 / j))))


def l1_caputo(signal: SampledSignal, order: FractionalOrder) -> SampledSignal:
    """L1-scheme estimate of the Caputo derivative of a sampled signal.

    Returns a signal on the same grid.  Node k >= 1 carries the L1
    stencil value; node 0 copies the node-1 estimate, since the stencil
    does not define the derivative at t0.  For alpha = 1 the scheme
    degenerates to backward first differences divided by h.
    """
    grid = signal.grid
    h = grid.h
    du = np.diff(signal.values)
    out = np.empty(grid.n_nodes)
    if order.is_classical:
        out[1:] = du / h
    else:
        alpha = order.alpha
        n = grid.n_steps
        c = _power_steps(1.0 - alpha, n)
        scale = h ** (-alpha) / math.gamma(2.0 - alpha)
        # out[k] = scale * sum_{j=0}^{k-1} c[j] * du[k-1-j], by a real FFT
        # zero-padded to at least 2n - 1 so the circular product does not wrap
        size = fft_size(2 * n - 1)
        spectrum = np.fft.rfft(c, size)
        spectrum *= np.fft.rfft(du, size)
        out[1:] = scale * np.fft.irfft(spectrum, size)[:n]
    out[0] = out[1]
    return SampledSignal(grid, out)


def adams_tables(order: FractionalOrder, n_steps: int):
    """Unnormalized fractional Adams weights for steps 1..n_steps.

    At step k the right-hand side i nodes before node k-1 has predictor
    weight dp[i] = (i+1)^alpha - i^alpha (``_power_steps`` for alpha < 1)
    and, for i < k-1, corrector weight d2q[i], the second difference of i^P,
    P = alpha+1; node 0's corrector weight is start[k-1], start[i] = i^P -
    (i - alpha)(i+1)^alpha.  d2q and start cancel, losing about i^2 eps; for
    alpha < 1 and i >= 16 they are summed instead from series in u = 1/m,
    m = i+1, with terms of one sign, to u^16 (truncation below 1e-18 relative):
    d2q = 2 m^P sum_{j>=1} C(P,2j) u^2j and start = m^P sum_{j>=2} C(P,j) (-u)^j.
    """
    alpha = order.alpha
    p = np.arange(n_steps + 1, dtype=float) ** alpha
    q = np.arange(n_steps + 2, dtype=float) ** (alpha + 1.0)
    d2q = q[2:] + q[:-2] - 2.0 * q[1:-1]
    start = q[:-2] - (np.arange(n_steps) - alpha) * p[1:]
    if not order.is_classical and n_steps > 16:
        c = [1.0]  # C(P, j) (-1)^j for j = 0..16
        for j in range(1, 17):
            c.append(-c[-1] * (alpha + 2.0 - j) / j)
        u = 1.0 / np.arange(17, n_steps + 1, dtype=float)
        u2 = u * u
        scale = q[17:-1] * u2  # m^P u^2
        # Horner's rule, from u^16 down
        d2q[16:] = 2.0 * scale * reduce(lambda s, cj: s * u2 + cj, c[:1:-2])
        start[16:] = scale * reduce(lambda s, cj: s * u + cj, c[:1:-1])
    dp = np.diff(p) if order.is_classical else _power_steps(alpha, n_steps)
    return dp, d2q, start
