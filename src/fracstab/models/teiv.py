"""TEIV HIV cellular model: saturated incidence, equilibria, Lyapunov functional.

Compartments: uninfected target cells T, eclipse-stage infected cells E,
productive infected cells I, free virus V.  Infection follows the saturated
incidence f(T, V) = beta*T / (1 + alpha1*T + alpha2*V + alpha3*T*V); cells
in the eclipse stage revert to the uninfected pool at rate rho.  The
chronic equilibrium is a quadratic's root in the infected level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, NewtonError, NoEndemicEquilibriumError
from ..lyapunov import LyapunovFunctional
from ..newton import accept_root, damped_newton, require_equilibrium
from ..solver import ModelDefinition

STATE_LABELS = ("T", "E", "I", "V")


@dataclass(frozen=True)
class TeivParams:
    """Rate constants of the TEIV model."""

    lambda_: float   # recruitment of uninfected cells
    mu_T: float      # death rate of uninfected cells
    mu_E: float      # death rate of eclipse-stage cells
    mu_I: float      # death rate of productive infected cells
    mu_V: float      # virus clearance rate
    rho: float       # eclipse -> uninfected reversion rate
    gamma: float     # eclipse -> productive transition rate
    k: float         # virion production rate per infected cell
    beta: float      # infection rate
    alpha1: float = 0.0   # incidence saturation in T
    alpha2: float = 0.0   # incidence saturation in V
    alpha3: float = 0.0   # joint incidence saturation

    def __post_init__(self):
        for name in ("lambda_", "mu_T", "mu_E", "mu_I", "mu_V", "rho", "gamma", "k", "beta"):
            if getattr(self, name) <= 0:
                raise ContractError(f"parameter {name} must be positive")
        for name in ("alpha1", "alpha2", "alpha3"):
            if getattr(self, name) < 0:
                raise ContractError(f"parameter {name} must be non-negative")

    @property
    def eclipse_exit_rate(self) -> float:
        """Total exit rate from the eclipse compartment."""
        return self.rho + self.mu_E + self.gamma


def teiv_incidence(p: TeivParams):
    """Saturated incidence (T, V) -> beta*T / (1 + alpha1*T + alpha2*V + alpha3*T*V).

    Elementwise on float ndarrays, with the operations of the Python-float
    case in its order, so at a fixed V it is also the paper's array-valued
    g of psi's T-part.  The params are read once, here.  A zero denominator
    (reachable only through an undershoot, T or V below 0) gives nan for
    Python floats (and inf or nan, as numpy's division does, for arrays): a
    solve through it then ends in a divergence, not an exception.
    """
    beta, alpha1, alpha2, alpha3 = p.beta, p.alpha1, p.alpha2, p.alpha3

    def incidence(T: float, V: float) -> float:
        num = beta * T
        den = 1.0 + alpha1 * T + alpha2 * V + alpha3 * T * V
        try:
            return num / den
        except ZeroDivisionError:
            return math.nan

    return incidence


def teiv_field(p: TeivParams):
    """The four-compartment field at ``p``, as an rhs for ``ModelDefinition``.

    The rhs takes a state (T, E, I, V) as four Python floats and returns the
    four rates as a list of Python floats: the same IEEE double arithmetic
    as numpy's scalars at a fraction of the cost.  A caller holding an
    ndarray passes ``state.tolist()``.  The params are read once, here,
    not at every evaluation.
    """
    incidence = teiv_incidence(p)
    lambda_, mu_T, rho, gamma, mu_I, k, mu_V = (
        p.lambda_, p.mu_T, p.rho, p.gamma, p.mu_I, p.k, p.mu_V)
    e_exit = p.eclipse_exit_rate

    def rhs(state) -> list:
        T, E, I, V = state
        fv = incidence(T, V) * V
        return [
            lambda_ - mu_T * T - fv + rho * E,
            fv - e_exit * E,
            gamma * E - mu_I * I,
            k * I - mu_V * V,
        ]

    return rhs


def teiv_model(p: TeivParams) -> ModelDefinition:
    return ModelDefinition(
        dimension=len(STATE_LABELS),
        rhs=teiv_field(p),
        name="teiv",
        state_labels=STATE_LABELS,
    )


def teiv_r0(p: TeivParams) -> float:
    """Basic reproduction number lambda*beta*k*gamma /
    (mu_I*mu_V*(lambda*alpha1 + mu_T)*(rho + mu_E + gamma))."""
    return (p.lambda_ * p.beta * p.k * p.gamma) / (
        p.mu_I * p.mu_V * (p.lambda_ * p.alpha1 + p.mu_T) * p.eclipse_exit_rate
    )


def teiv_infection_free(p: TeivParams) -> np.ndarray:
    """Infection-free equilibrium (lambda/mu_T, 0, 0, 0)."""
    return np.array([p.lambda_ / p.mu_T, 0.0, 0.0, 0.0])


def _chronic_seed(p: TeivParams) -> np.ndarray:
    """Chronic equilibrium for R0 > 1, in closed form.  With u = lambda -
    mu_T T = (mu_E + gamma) E (the T and E equations summed) and V = c u,
    the E equation is a u^2 + b u + q = 0 with a >= 0, b < 0 and
    q = xi (mu_T + alpha1 lambda)(R0 - 1) > 0.  Its root in (0, lambda) is
    the smaller one, 2q/(sqrt(b^2 - 4aq) - b), a form with no cancellation.
    """
    xi, lambda_, mu_T = p.eclipse_exit_rate, p.lambda_, p.mu_T
    amp = p.k * p.gamma / (p.mu_I * p.mu_V)
    c = amp / (p.mu_E + p.gamma)
    a = xi * p.alpha3 * c
    b = xi * (p.alpha1 - p.alpha2 * c * mu_T - p.alpha3 * c * lambda_) - p.beta * amp
    q = xi * (mu_T + p.alpha1 * lambda_) * (teiv_r0(p) - 1.0)
    u = 2.0 * q / (math.sqrt(b * b - 4.0 * a * q) - b)
    if not 0.0 < u < lambda_:
        raise NewtonError(f"chronic-equilibrium seed u = {u!r} outside (0, {lambda_!r})")
    E = u / (p.mu_E + p.gamma)
    I = p.gamma * E / p.mu_I
    return np.array([(lambda_ - u) / mu_T, E, I, p.k * I / p.mu_V])


def teiv_equilibria(p: TeivParams) -> list:
    """All equilibria: always the infection-free point, plus the chronic
    equilibrium (positive E, I, V) when the reproduction number exceeds 1.

    Each has residual at most 1e-9 of its state scale.  The chronic one is
    Newton's polish of the seed, or the seed where Newton fails or goes non-positive.
    """
    out = [teiv_infection_free(p)]
    if teiv_r0(p) > 1.0:
        f, seed = teiv_field(p), _chronic_seed(p)
        try:
            x = damped_newton(f, seed)
            if not (x > 0).all():
                raise NewtonError(f"Newton left the positive orthant at {x}")
        except NewtonError:
            x = accept_root(f(seed.tolist()), seed)
        out.append(x)
    return out


def teiv_chronic(p: TeivParams) -> np.ndarray:
    """Chronic equilibrium; raises NoEndemicEquilibriumError when R0 <= 1."""
    eqs = teiv_equilibria(p)
    if len(eqs) == 1:
        raise NoEndemicEquilibriumError(f"no chronic equilibrium: R0 {teiv_r0(p):.4g} <= 1")
    return eqs[1]


def teiv_r0_document(p: TeivParams) -> dict:
    """Reproduction number and equilibria, as the r0 command prints them."""
    eqs = teiv_equilibria(p)
    return {
        "r0": teiv_r0(p),
        "infection_free": list(eqs[0]),
        "chronic": list(eqs[1]) if len(eqs) > 1 else None,
    }


def teiv_lyapunov(p: TeivParams, anchor) -> LyapunovFunctional:
    """Volterra-type functional anchored at an equilibrium (Tbar, Ebar, Ibar, Vbar).

    The T-part's shape function is the incidence at the anchor's virus level,
    g(s) = beta s / (c0 + c1 s) with c0 = 1 + alpha2 Vbar, c1 = alpha1 + alpha3 Vbar.
    As g(Tbar)/g(s) = Tbar (c0/s + c1) / (c0 + c1 Tbar), its psi is closed:
    psi_g(T) = w (T - Tbar - Tbar log(T/Tbar)) with w = c0 / (c0 + c1 Tbar).
    So the functional is a log-Volterra sum with weights w, 1, xi/gamma and
    mu_I xi/(k gamma), xi = rho + mu_E + gamma, plus the quadratic form
    rho w/2 (T - Tbar + E - Ebar)^2.  Zero anchor coordinates give linear terms.
    Raises ``ContractError`` for an anchor that is not an equilibrium.
    """
    anchor = require_equilibrium(teiv_field(p), anchor, len(STATE_LABELS))
    tbar, _, _, vbar = anchor
    c0 = 1.0 + p.alpha2 * vbar
    w = c0 / (c0 + (p.alpha1 + p.alpha3 * vbar) * tbar)
    xi = p.eclipse_exit_rate
    weights = (w, 1.0, xi / p.gamma, p.mu_I * xi / (p.k * p.gamma))
    return LyapunovFunctional(weights, anchor, p.rho * w, (0, 1))
