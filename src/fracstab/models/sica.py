"""SICA HIV population model: rates, reproduction number, equilibria, functionals.

Compartments: susceptible S, infected I, under-treatment C, AIDS A.
Two incidence variants are supported:

* ``mass_action``: transmission beta*S*I, a literal transcription of the
  model equations;
* ``standard`` (default): transmission beta*S*I/(S+I+C+A), the variant
  consistent with the published reproduction number and the stability of
  the disease-free point at the baseline parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, DomainError, NoEndemicEquilibriumError
from ..lyapunov import LyapunovFunctional
from ..newton import damped_newton, require_equilibrium
from ..solver import ModelDefinition

INCIDENCE_VARIANTS = ("mass_action", "standard")

STATE_LABELS = ("S", "I", "C", "A")


@dataclass(frozen=True)
class SicaParams:
    """Rate constants of the SICA model (time unit: years)."""

    lambda_: float   # recruitment into S
    mu: float        # natural death rate
    beta: float      # transmission coefficient
    rho: float       # progression I -> A
    phi: float       # treatment uptake I -> C
    alpha_t: float   # reversal A -> I
    omega: float     # treatment failure C -> I
    d: float         # AIDS-induced death rate
    incidence: str = "standard"

    def __post_init__(self):
        for name in ("lambda_", "mu", "beta", "rho", "phi", "alpha_t", "omega", "d"):
            if getattr(self, name) <= 0:
                raise ContractError(f"parameter {name} must be positive")
        if self.incidence not in INCIDENCE_VARIANTS:
            raise ContractError(f"incidence must be one of {INCIDENCE_VARIANTS}")

    @property
    def a_exit_rate(self) -> float:
        """Total exit rate from the AIDS compartment."""
        return self.alpha_t + self.mu + self.d

    @property
    def c_exit_rate(self) -> float:
        """Total exit rate from the treatment compartment."""
        return self.omega + self.mu

    @property
    def clearance_factor(self) -> float:
        """Composite clearance term in the reproduction-number denominator."""
        x1, x2 = self.a_exit_rate, self.c_exit_rate
        return self.mu * (x2 * (self.rho + x1) + x1 * self.phi + self.rho * self.d) + self.rho * self.omega * self.d


def sica_field(p: SicaParams):
    """The four-compartment field at ``p``, as an rhs for ``ModelDefinition``.

    The rhs takes a state (S, I, C, A) as four Python floats and returns the
    four rates as a list of Python floats: the same IEEE double arithmetic
    as numpy's scalars at a fraction of the cost.  A caller holding an
    ndarray passes ``state.tolist()``.  The params are read once, here,
    not at every evaluation.
    """
    lambda_, mu, beta, phi, rho, alpha_t, omega = (
        p.lambda_, p.mu, p.beta, p.phi, p.rho, p.alpha_t, p.omega)
    i_exit, c_exit, a_exit = p.rho + p.phi + p.mu, p.c_exit_rate, p.a_exit_rate
    standard = p.incidence == "standard"

    def rhs(state) -> list:
        S, I, C, A = state
        if standard:
            total = S + I + C + A
            if total == 0.0:
                raise DomainError("standard incidence undefined at zero total population")
            inc = beta * S * I / total
        else:
            inc = beta * S * I
        return [
            lambda_ - mu * S - inc,
            inc - i_exit * I + alpha_t * A + omega * C,
            phi * I - c_exit * C,
            rho * I - a_exit * A,
        ]

    return rhs


def sica_model(p: SicaParams) -> ModelDefinition:
    return ModelDefinition(
        dimension=len(STATE_LABELS),
        rhs=sica_field(p),
        name=f"sica_{p.incidence}",
        state_labels=STATE_LABELS,
    )


def sica_r0(p: SicaParams) -> float:
    """Basic reproduction number beta * xi1 * xi2 / N (published form)."""
    return p.beta * p.a_exit_rate * p.c_exit_rate / p.clearance_factor


def endemic_threshold(p: SicaParams) -> float:
    """Persistence threshold under the configured incidence.

    Equals sica_r0 for standard incidence; mass action rescales by the
    disease-free susceptible pool S0.
    """
    r0 = sica_r0(p)
    if p.incidence == "mass_action":
        return r0 * p.lambda_ / p.mu
    return r0


def sica_disease_free(p: SicaParams) -> np.ndarray:
    """Disease-free equilibrium (lambda/mu, 0, 0, 0)."""
    return np.array([p.lambda_ / p.mu, 0.0, 0.0, 0.0])


def _endemic_seed(p: SicaParams) -> np.ndarray:
    # Closed-form equilibrium via the stationarity relations C = phi I/xi2,
    # A = rho I/xi1 and the removal balance lambda - mu S = q I with
    # q = clearance/(xi1 xi2).
    q = p.clearance_factor / (p.a_exit_rate * p.c_exit_rate)
    mult = 1.0 + p.phi / p.c_exit_rate + p.rho / p.a_exit_rate
    if p.incidence == "mass_action":
        S = q / p.beta
        I = (p.lambda_ - p.mu * S) / q
    else:
        # beta S = q (S + mult I)  =>  S = q mult I / (beta - q)
        ratio = q * mult / (p.beta - q)
        I = p.lambda_ / (q + p.mu * ratio)
        S = ratio * I
    return np.array([S, I, p.phi * I / p.c_exit_rate, p.rho * I / p.a_exit_rate])


def sica_endemic(p: SicaParams) -> np.ndarray:
    """Endemic equilibrium via damped Newton, residual below 1e-9 relative."""
    if endemic_threshold(p) <= 1.0:
        raise NoEndemicEquilibriumError(
            f"no endemic equilibrium: threshold {endemic_threshold(p):.4g} <= 1"
        )
    return damped_newton(sica_field(p), _endemic_seed(p))


def sica_r0_document(p: SicaParams) -> dict:
    """Reproduction number, threshold and equilibria, as the r0 command prints them."""
    doc = {
        "r0": sica_r0(p),
        "endemic_threshold": endemic_threshold(p),
        "disease_free": list(sica_disease_free(p)),
    }
    try:
        doc["endemic"] = list(sica_endemic(p))
    except NoEndemicEquilibriumError:
        doc["endemic"] = None
    return doc


def sica_v1(p: SicaParams, anchor) -> LyapunovFunctional:
    """Log-Volterra functional anchored at an equilibrium.

    Weights (1, 1, omega/xi2, alpha_t/xi1) on (S, I, C, A).  Anchored at
    the endemic equilibrium this is V1; a zero anchor coordinate
    degenerates to a linear term, so at the disease-free point it is V0.
    Raises ``ContractError`` for an anchor that is not an equilibrium.
    """
    anchor = require_equilibrium(sica_field(p), anchor, len(STATE_LABELS))
    weights = (1.0, 1.0, p.omega / p.c_exit_rate, p.alpha_t / p.a_exit_rate)
    return LyapunovFunctional(weights, anchor)


def sica_v0(p: SicaParams) -> LyapunovFunctional:
    """``sica_v1`` anchored at the disease-free equilibrium (S0, 0, 0, 0)."""
    return sica_v1(p, sica_disease_free(p))


def baseline_params(beta: float = 0.066, incidence: str = "standard") -> SicaParams:
    """Published baseline parameter set (beta = 0.866 for the endemic case)."""
    return SicaParams(
        lambda_=10724.0, mu=1.0 / 69.54, beta=beta, rho=0.1, phi=1.0,
        alpha_t=0.33, omega=0.09, d=1.0, incidence=incidence,
    )
