"""Construction, evaluation, and certification of Lyapunov functionals.

The anchored component

    psi(x) = x - xstar - integral_{xstar}^{x} g(xstar)/g(s) ds

takes any g non-negative and strictly increasing.  A functional is its
weights and its anchor: a weighted sum of identity-g components, the
log-Volterra form, plus an optional quadratic over a sum of coordinates.
Certificates check, along sampled signals, the fractional comparison
inequality

    D^alpha psi(x(t))  <=  (1 - g(xbar)/g(x(t))) D^alpha x(t)

and the decrescence of a discrete Caputo-derivative signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .caputo import FractionalOrder, SampledSignal, UniformGrid, l1_caputo
from .errors import ContractError, DomainError
from .solver import Trajectory

_X_FLOOR = 1e-30  # below this, psi with a positive anchor is treated as singular
_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(12)


@dataclass(frozen=True)
class GFunction:
    """Shape function g used inside psi components, numpy-style elementwise:
    ``eval`` maps a float ndarray to one of its shape (``np.sqrt``, not
    ``math.sqrt``).  One call on 64 log-spaced points in [1e-6, 1e6] checks
    at construction that g is non-negative and strictly increasing there; a
    float-only ``eval`` fails that call.  Only the shared ``identity_g()``
    selects psi's closed log form, whatever another g's label.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    label: str

    def __post_init__(self):
        s = np.logspace(-6.0, 6.0, 64)
        v = np.asarray(self.eval(s), dtype=float)
        if not np.isfinite(v).all() or (v < 0).any():
            raise DomainError(f"g function {self.label!r} is not non-negative on R+")
        if not (np.diff(v) > 0).all():
            raise DomainError(f"g function {self.label!r} is not strictly increasing")

    def __call__(self, x):
        return self.eval(x)


_IDENTITY = GFunction(lambda s: s, "identity")


def identity_g() -> GFunction:
    """The shared g(s) = s, the one g for which psi takes the closed log form."""
    return _IDENTITY


@dataclass(frozen=True)
class LyapunovFunctional:
    """Weighted log-Volterra sum with an optional cross quadratic,

        V(x) = sum_i w_i psi(x_i) + w/2 (sum_{i in J} (x_i - xstar_i))^2,

    psi the identity-g component at ``anchor[i]`` (x_i itself for a zero
    anchor coordinate).  One positive weight and one non-negative anchor
    coordinate per state component; the quadratic over ``cross_indices``
    takes its anchors from ``anchor``.
    """

    weights: tuple
    anchor: tuple
    cross_weight: float = 0.0
    cross_indices: tuple = ()

    def __post_init__(self):
        if len(self.weights) != len(self.anchor):
            raise ContractError("weights and anchor must have equal length")
        if any(a <= 0 for a in self.weights):
            raise ContractError("functional weights must be positive")
        if any(x < 0 for x in self.anchor):
            raise ContractError("anchor coordinates must be non-negative")
        if self.cross_weight < 0:
            raise ContractError("cross-quadratic weight must be non-negative")
        object.__setattr__(self, "weights", tuple(map(float, self.weights)))
        object.__setattr__(self, "anchor", tuple(map(float, self.anchor)))

    def values_along(self, states: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over a (n_nodes, dim) state array."""
        states = np.asarray(states, dtype=float)
        total = np.zeros(states.shape[0])
        for i, (a, xstar) in enumerate(zip(self.weights, self.anchor)):
            total += a * psi_profile(identity_g(), xstar, states[:, i])
        if self.cross_indices:
            total += 0.5 * self.cross_weight * self._cross_deviation(states) ** 2
        return total

    def rate_along(self, states: np.ndarray, rates: np.ndarray) -> np.ndarray:
        """Chain rule over (n_nodes, dim) arrays: the functional's rate of change
        at each row of ``states`` when the state moves at that row of ``rates``,
        sum_i w_i psi'(x_i) rate_i plus w dev sum_{i in J} rate_i.
        """
        states = np.asarray(states, dtype=float)
        rates = np.asarray(rates, dtype=float)
        if rates.shape != states.shape:
            raise ContractError("states and rates shapes differ")
        total = np.zeros(states.shape[0])
        for i, (a, xstar) in enumerate(zip(self.weights, self.anchor)):
            total += a * psi_slope(identity_g(), xstar, states[:, i]) * rates[:, i]
        if self.cross_indices:
            total += (self.cross_weight * self._cross_deviation(states)
                      * sum(rates[:, i] for i in self.cross_indices))
        return total

    def _cross_deviation(self, states: np.ndarray) -> np.ndarray:
        """sum_{i in J} (x_i - xstar_i) per row."""
        return sum(states[:, i] - self.anchor[i] for i in self.cross_indices)


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


def below_psi_floor(xs) -> np.ndarray:
    """Where psi with a positive anchor is singular: a mask of the entries below its floor."""
    return np.asarray(xs, dtype=float) < _X_FLOOR


def _require_positive(xs: np.ndarray) -> None:
    """DomainError naming the first sample ``below_psi_floor``."""
    bad = np.flatnonzero(below_psi_floor(xs))
    if bad.size:
        k = int(bad[0])
        raise DomainError(f"psi requires strictly positive samples; sample {k} is {float(xs[k])!r}")


def psi_profile(g: GFunction, xstar: float, xs: np.ndarray) -> np.ndarray:
    """psi evaluated at every entry of ``xs`` (vectorized).

    The shared ``identity_g()`` gives the closed log form.  For any other g
    the integral is accumulated once over the sorted sample points, with g
    called once on all nodes of a fixed 12-point Gauss-Legendre rule per
    segment, which is exact to rounding for the smooth integrands used here.
    """
    xs = np.asarray(xs, dtype=float)
    if xstar == 0.0:
        return xs.copy()
    _require_positive(xs)
    if g is _IDENTITY:
        return xs - xstar - xstar * np.log(xs / xstar)

    knots = np.unique(np.concatenate([xs, [xstar]]))
    gbar = g(xstar)
    # Per-segment Gauss-Legendre integral of gbar/g over [knots[i], knots[i+1]].
    left, right = knots[:-1], knots[1:]
    mid = 0.5 * (left + right)
    half = 0.5 * (right - left)
    pts = mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]
    seg = half * ((gbar / g(pts)) @ _GAUSS_WEIGHTS)
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
    gx = g(xs)
    if (gx == 0).any():
        raise DomainError("g vanished along the samples")
    return 1.0 - g(xstar) / gx


def caputo_of_functional(values: np.ndarray, traj: Trajectory) -> SampledSignal:
    """Discrete Caputo derivative (L1 scheme) of a functional's values along a
    trajectory, as ``LyapunovFunctional.values_along(traj.states)`` gives them."""
    return l1_caputo(SampledSignal(traj.grid, values), traj.order)


def default_tolerance(grid: UniformGrid, order: FractionalOrder, values: np.ndarray) -> float:
    """Default certificate tolerance 10 h^(2-alpha) * scale for a certificate
    on the samples ``values``, with scale = max(max |values|, 1).

    The L1 scheme carries O(h^(2-alpha)) truncation error, so violations
    below this level are attributable to discretization alone.
    """
    return 10.0 * grid.h ** (2.0 - order.alpha) * max(float(np.abs(values).max()), 1.0)


def lemma_certificate(
    x: SampledSignal, g: GFunction, xbar: float, order: FractionalOrder
) -> Certificate:
    """Certify D^alpha psi(x) <= (1 - g(xbar)/g(x)) D^alpha x along a signal.

    Both sides are discretized with the same L1 operator; the reported
    max_violation is the largest signed gap LHS - RHS over nodes k >= 1.
    """
    if not 0.0 < xbar < np.inf:
        raise DomainError(f"xbar must be finite and strictly positive, got {xbar!r}")
    tolerance = default_tolerance(x.grid, order, x.values)

    psi_vals = psi_profile(g, xbar, x.values)
    lhs = l1_caputo(SampledSignal(x.grid, psi_vals), order).values
    rhs = psi_slope(g, xbar, x.values) * l1_caputo(x, order).values

    return _certificate("lemma_inequality", lhs[1:] - rhs[1:], tolerance, 1, x.grid, order)


def decrescence_certificate(signal: SampledSignal, tolerance: float) -> Certificate:
    """Certify that every node of the signal lies at or below the tolerance."""
    return _certificate("decrescence", signal.values, tolerance, 0, signal.grid)


def _certificate(kind, gap, tolerance, offset, grid, order=None) -> Certificate:
    """The largest entry of ``gap``, whether it is at most ``tolerance``, and
    the first entry above it, as a node number: its index plus ``offset``."""
    max_violation = float(gap.max())
    passed = max_violation <= tolerance
    violating = None if passed else int(np.argmax(gap > tolerance)) + offset
    return Certificate(kind, max_violation, tolerance, passed, violating, grid, order)

