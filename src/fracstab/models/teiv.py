"""TEIV HIV cellular model: saturated incidence, equilibria, Lyapunov functional.

Compartments: uninfected target cells T, eclipse-stage infected cells E,
productive infected cells I, free virus V.  Infection follows the saturated
incidence f(T, V) = beta*T / (1 + alpha1*T + alpha2*V + alpha3*T*V); cells
in the eclipse stage revert to the uninfected pool at rate rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, NewtonError, NoEndemicEquilibriumError
from ..lyapunov import (
    CrossQuadComponent,
    GFunction,
    LyapunovFunctional,
    PsiComponent,
    identity_g,
)
from ..newton import damped_newton
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

    The params are read once, here.  A zero denominator (reachable only
    through an undershoot, T or V below 0) gives inf or nan, as numpy's
    division does, for Python floats too: a solve through it then ends in
    a divergence, not an exception.
    """
    beta, alpha1, alpha2, alpha3 = p.beta, p.alpha1, p.alpha2, p.alpha3

    def incidence(T: float, V: float) -> float:
        num = beta * T
        den = 1.0 + alpha1 * T + alpha2 * V + alpha3 * T * V
        try:
            return num / den
        except ZeroDivisionError:
            with np.errstate(divide="ignore", invalid="ignore"):
                return float(np.float64(num) / den)

    return incidence


def teiv_field(p: TeivParams):
    """The four-compartment field at ``p``, as an rhs for ``ModelDefinition``.

    The rhs takes a state (T, E, I, V), unpacks it to Python floats and
    returns the four rates as a list of Python floats: the same IEEE double
    arithmetic as numpy's scalars at a fraction of the cost.  The params
    are read once, here, not at every evaluation.
    """
    incidence = teiv_incidence(p)
    lambda_, mu_T, rho, gamma, mu_I, k, mu_V = (
        p.lambda_, p.mu_T, p.rho, p.gamma, p.mu_I, p.k, p.mu_V)
    e_exit = p.eclipse_exit_rate

    def rhs(state) -> list:
        T, E, I, V = np.asarray(state, dtype=float).tolist()
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
        dimension=4,
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
    # Reduce the stationarity system to one equation in T.  Adding the T and
    # E equations gives E = (lambda - mu_T T)/(mu_E + gamma); the I and V
    # equations give I = gamma E/mu_I and V = k I/mu_V; the E equation then
    # requires f(T, V(T)) * k gamma/(mu_I mu_V) = rho + mu_E + gamma.
    t0 = p.lambda_ / p.mu_T
    amp = p.k * p.gamma / (p.mu_I * p.mu_V)
    incidence = teiv_incidence(p)

    def resid(T):
        E = (p.lambda_ - p.mu_T * T) / (p.mu_E + p.gamma)
        V = amp * E
        return incidence(T, V) * amp - p.eclipse_exit_rate

    lo = 1e-12 * t0
    if resid(lo) >= 0 or resid(t0) <= 0:
        raise NewtonError("chronic-equilibrium bracket failed")
    # resid rises with T on the bracket: bisect to the same 1e-12 t0 width
    hi = t0
    while hi - lo > 1e-12 * t0:
        mid = 0.5 * (lo + hi)
        if resid(mid) < 0:
            lo = mid
        else:
            hi = mid
    T = 0.5 * (lo + hi)
    E = (p.lambda_ - p.mu_T * T) / (p.mu_E + p.gamma)
    I = p.gamma * E / p.mu_I
    return np.array([T, E, I, p.k * I / p.mu_V])


def teiv_equilibria(p: TeivParams) -> list:
    """All equilibria: always the infection-free point, plus the chronic
    equilibrium (positive E, I, V) when the reproduction number exceeds 1.

    Every returned equilibrium has residual at most 1e-9 relative to its
    state scale.
    """
    out = [teiv_infection_free(p)]
    if teiv_r0(p) > 1.0:
        out.append(damped_newton(teiv_field(p), _chronic_seed(p)))
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


def _incidence_in_t(p: TeivParams, vbar: float) -> GFunction:
    incidence = teiv_incidence(p)
    return GFunction(lambda theta: incidence(theta, vbar), label=f"incidence_V={vbar:g}")


def teiv_lyapunov(p: TeivParams, anchor) -> LyapunovFunctional:
    """Volterra-type functional anchored at an equilibrium.

    Components: an anchored part on T whose shape function is the incidence
    in T at the anchor's virus level; log parts on E, I, V with weights
    1, (rho+mu_E+gamma)/gamma, mu_I(rho+mu_E+gamma)/(k gamma); and a
    quadratic form on (T - Tbar + E - Ebar) weighted by
    rho(1 + alpha2 Vbar)/(1 + alpha1 Tbar + alpha2 Vbar + alpha3 Tbar Vbar).
    Components whose anchor coordinate is zero degenerate to linear terms.
    """
    anchor = np.asarray(anchor, dtype=float)
    if anchor.shape != (4,):
        raise ContractError("anchor must be a 4-component state")
    scale = max(np.abs(anchor).max(), 1.0)
    if np.abs(teiv_field(p)(anchor)).max() > 1e-6 * scale:
        raise ContractError("anchor is not an equilibrium of the model")

    tbar, ebar, ibar, vbar = anchor
    xi = p.eclipse_exit_rate
    weights = (1.0, 1.0, xi / p.gamma, p.mu_I * xi / (p.k * p.gamma))
    log_g = identity_g()
    psi_parts = []
    for idx, (w, xstar) in enumerate(zip(weights, anchor)):
        if idx == 0 and xstar > 0:
            g = _incidence_in_t(p, vbar)
        else:
            g = log_g
        psi_parts.append(PsiComponent(weight=w, g=g, xstar=float(xstar), component_index=idx))

    cross_w = p.rho * (1.0 + p.alpha2 * vbar) / (
        1.0 + p.alpha1 * tbar + p.alpha2 * vbar + p.alpha3 * tbar * vbar
    )
    cross = (CrossQuadComponent(weight=cross_w, indices=(0, 1), anchors=(float(tbar), float(ebar))),)
    return LyapunovFunctional(psi_parts=tuple(psi_parts), cross_quad_parts=cross)
