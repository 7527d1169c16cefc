"""Construction, evaluation, and certification of Lyapunov functionals.

The functionals are weighted sums of anchored components

    psi(x) = x - xstar - integral_{xstar}^{x} g(xstar)/g(s) ds

with g non-negative and strictly increasing, optionally combined with
quadratic forms over sums of coordinates.  Certificates check, along
sampled signals, the fractional comparison inequality

    D^alpha psi(x(t))  <=  (1 - g(xbar)/g(x(t))) D^alpha x(t)

and the decrescence of a discrete Caputo-derivative signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .caputo import FractionalOrder, SampledSignal, UniformGrid, l1_caputo
from .errors import ContractError, DomainError
from .solver import Trajectory

_X_FLOOR = 1e-30  # below this, psi with a positive anchor is treated as singular
_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(12)


@dataclass(frozen=True)
class GFunction:
    """Scalar shape function g used inside psi components.

    Admissibility (non-negative and strictly increasing on the positive
    reals) is checked probabilistically at construction over 64 log-spaced
    sample points in [1e-6, 1e6].
    """

    eval: Callable[[float], float]
    label: str

    def __post_init__(self):
        s = np.logspace(-6.0, 6.0, 64)
        v = np.array([self.eval(x) for x in s], dtype=float)
        if not np.isfinite(v).all() or (v < 0).any():
            raise DomainError(f"g function {self.label!r} is not non-negative on R+")
        if not (np.diff(v) > 0).all():
            raise DomainError(f"g function {self.label!r} is not strictly increasing")

    def __call__(self, x):
        return self.eval(x)

    @property
    def is_identity(self) -> bool:
        return self.label == "identity"


def identity_g() -> GFunction:
    return GFunction(lambda s: s, "identity")


@dataclass(frozen=True)
class PsiComponent:
    """Weighted anchored component a * psi(x[component_index])."""

    weight: float
    g: GFunction
    xstar: float
    component_index: int

    def __post_init__(self):
        if self.weight <= 0:
            raise ContractError("psi component weight must be positive")
        if self.xstar < 0:
            raise ContractError("psi anchor must be non-negative")


@dataclass(frozen=True)
class CrossQuadComponent:
    """Quadratic form w/2 (sum_i (x_i - anchor_i))^2 over an index set."""

    weight: float
    indices: tuple
    anchors: tuple

    def __post_init__(self):
        if self.weight < 0:
            raise ContractError("cross-quadratic weight must be non-negative")
        if len(self.indices) != len(self.anchors):
            raise ContractError("indices and anchors must have equal length")


@dataclass(frozen=True)
class LyapunovFunctional:
    """Immutable weighted sum of psi and cross-quadratic parts."""

    psi_parts: tuple
    cross_quad_parts: tuple = ()

    def values_along(self, states: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over a (n_nodes, dim) state array."""
        states = np.asarray(states, dtype=float)
        total = np.zeros(states.shape[0])
        for part in self.psi_parts:
            total += part.weight * psi_profile(part.g, part.xstar, states[:, part.component_index])
        for part in self.cross_quad_parts:
            total += 0.5 * part.weight * _deviation(states, part) ** 2
        return total

    def rate_along(self, states: np.ndarray, rates: np.ndarray) -> np.ndarray:
        """Chain rule over (n_nodes, dim) arrays: the functional's rate of change
        at each row of ``states`` when the state moves at that row of ``rates``,
        sum_i a_i psi_i'(x_i) rate_i plus w dev sum(rates) per cross-quadratic part.
        """
        states = np.asarray(states, dtype=float)
        rates = np.asarray(rates, dtype=float)
        if rates.shape != states.shape:
            raise ContractError("states and rates shapes differ")
        total = np.zeros(states.shape[0])
        for part in self.psi_parts:
            i = part.component_index
            total += part.weight * psi_slope(part.g, part.xstar, states[:, i]) * rates[:, i]
        for part in self.cross_quad_parts:
            total += part.weight * _deviation(states, part) * sum(rates[:, i] for i in part.indices)
        return total


def _deviation(states: np.ndarray, part: CrossQuadComponent) -> np.ndarray:
    """sum_i (x_i - anchor_i) over a cross-quadratic part's indices, per row."""
    dev = np.zeros(states.shape[0])
    for i, a in zip(part.indices, part.anchors):
        dev += states[:, i] - a
    return dev


@dataclass(frozen=True)
class Certificate:
    """Outcome of a pointwise inequality check along a sampled signal."""

    kind: str
    max_violation: float
    tolerance: float
    passed: bool
    violating_node: Optional[int] = None
    grid: Optional[UniformGrid] = None
    order: Optional[FractionalOrder] = None

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "violating_node": self.violating_node,
        }
        if self.grid is not None:
            out["grid"] = {"t0": self.grid.t0, "h": self.grid.h, "n": self.grid.n_steps}
        if self.order is not None:
            out["order"] = self.order.alpha
        return out


def _require_positive(xs: np.ndarray) -> None:
    """psi with a positive anchor is singular at or below the floor: name the first such sample."""
    bad = np.flatnonzero(xs < _X_FLOOR)
    if bad.size:
        k = int(bad[0])
        raise DomainError(f"psi requires strictly positive samples; sample {k} is {float(xs[k])!r}")


def psi_profile(g: GFunction, xstar: float, xs: np.ndarray) -> np.ndarray:
    """psi evaluated at every entry of ``xs`` (vectorized).

    For a general g the integral is accumulated once over the sorted
    sample points with a fixed 12-point Gauss-Legendre rule per segment,
    which is exact to rounding for the smooth integrands used here.
    """
    xs = np.asarray(xs, dtype=float)
    if xstar == 0.0:
        return xs.copy()
    _require_positive(xs)
    if g.is_identity:
        return xs - xstar - xstar * np.log(xs / xstar)

    knots = np.unique(np.concatenate([xs, [xstar]]))
    gbar = g(xstar)
    # Per-segment Gauss-Legendre integral of gbar/g over [knots[i], knots[i+1]].
    left, right = knots[:-1], knots[1:]
    mid = 0.5 * (left + right)
    half = 0.5 * (right - left)
    pts = mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]
    vals = np.vectorize(g.eval, otypes=[float])(pts)
    seg = half * ((gbar / vals) @ _GAUSS_WEIGHTS)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    anchor_pos = np.searchsorted(knots, xstar)
    integral_at_knot = cum - cum[anchor_pos]
    idx = np.searchsorted(knots, xs)
    return xs - xstar - integral_at_knot[idx]


def psi_slope(g: GFunction, xstar: float, xs: np.ndarray) -> np.ndarray:
    """psi'(x) = 1 - g(xstar)/g(x) at every entry of ``xs``; ones for a zero anchor."""
    xs = np.asarray(xs, dtype=float)
    if xstar == 0.0:
        return np.ones_like(xs)
    _require_positive(xs)
    gx = np.vectorize(g.eval, otypes=[float])(xs)
    if (gx == 0).any():
        raise DomainError("g vanished along the samples")
    return 1.0 - g(xstar) / gx


def caputo_of_functional(values: np.ndarray, traj: Trajectory) -> SampledSignal:
    """Discrete Caputo derivative (L1 scheme) of a functional's values along a
    trajectory, as ``LyapunovFunctional.values_along(traj.states)`` gives them."""
    return l1_caputo(SampledSignal(traj.grid, values), traj.order)


def default_tolerance(grid: UniformGrid, order: FractionalOrder, scale: float) -> float:
    """Default certificate tolerance 10 h^(2-alpha) * scale.

    The L1 scheme carries O(h^(2-alpha)) truncation error, so violations
    below this level are attributable to discretization alone.
    """
    return 10.0 * grid.h ** (2.0 - order.alpha) * scale


def lemma_certificate(
    x: SampledSignal, g: GFunction, xbar: float, order: FractionalOrder
) -> Certificate:
    """Certify D^alpha psi(x) <= (1 - g(xbar)/g(x)) D^alpha x along a signal.

    Both sides are discretized with the same L1 operator; the reported
    max_violation is the largest signed gap LHS - RHS over nodes k >= 1.
    """
    if not 0.0 < xbar < np.inf:
        raise DomainError(f"xbar must be finite and strictly positive, got {xbar!r}")
    tolerance = default_tolerance(x.grid, order, float(np.abs(x.values).max()))

    psi_vals = psi_profile(g, xbar, x.values)
    lhs = l1_caputo(SampledSignal(x.grid, psi_vals), order).values
    rhs = psi_slope(g, xbar, x.values) * l1_caputo(x, order).values

    gap = lhs[1:] - rhs[1:]
    max_violation = float(gap.max())
    passed = max_violation <= tolerance
    violating = None if passed else int(np.argmax(gap > tolerance)) + 1
    return Certificate("lemma_inequality", max_violation, tolerance, passed, violating, x.grid, order)


def decrescence_certificate(signal: SampledSignal, tolerance: float) -> Certificate:
    """Certify that every node of the signal lies at or below the tolerance."""
    values = signal.values
    max_violation = float(values.max())
    passed = max_violation <= tolerance
    violating = None if passed else int(np.argmax(values > tolerance))
    return Certificate("decrescence", max_violation, tolerance, passed, violating, signal.grid)


def build_log_volterra(parts: Sequence[tuple]) -> LyapunovFunctional:
    """Functional sum_i a_i * (x_i - xstar_i - xstar_i log(x_i/xstar_i)).

    ``parts`` is a sequence of (weight, anchor) pairs, one per coordinate
    in order; a zero anchor degenerates that component to x_i.
    """
    g = identity_g()
    psi_parts = tuple(
        PsiComponent(weight=a, g=g, xstar=xstar, component_index=i)
        for i, (a, xstar) in enumerate(parts)
    )
    return LyapunovFunctional(psi_parts=psi_parts)
