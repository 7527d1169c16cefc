"""Model registry: the one place that lists the models.

Entries call model functions through lambdas that look them up on the
module at call time, so a function replaced there (by a test or a
tracer) is the one that runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..newton import jacobian
from . import sica, teiv

# A threshold within this distance of 1 counts as consistent without a spectral test.
_THRESHOLD_MARGIN = 1e-6


@dataclass(frozen=True)
class ModelSpec:
    """One model: params type, vector field, threshold, equilibria, functionals."""

    params: type                  # frozen params dataclass
    functionals: dict             # functional kind -> anchor: "free", "endemic" or "predicted"
    model: Callable               # params -> ModelDefinition
    r0: Callable                  # params -> reproduction number (printed; decides nothing)
    threshold: Callable           # params -> persistence threshold: decides the regime
    free: Callable                # params -> disease-free equilibrium; its zero
                                  # components are the infected subsystem
    endemic: Callable             # params -> endemic equilibrium; raises at threshold <= 1
    functional_at: Callable       # (params, equilibrium) -> LyapunovFunctional anchored there

    def regime(self, params) -> str:
        """The regime the threshold predicts: "endemic" above 1, "disease-free" otherwise."""
        return "endemic" if self.threshold(params) > 1.0 else "disease-free"

    def predicted(self, params) -> np.ndarray:
        """The equilibrium of the predicted ``regime``."""
        return self.endemic(params) if self.regime(params) == "endemic" else self.free(params)

    def anchor(self, kind: str, params) -> np.ndarray:
        """The equilibrium a functional kind is anchored at."""
        return getattr(self, self.functionals[kind])(params)

    def spectral_consistent(self, params) -> bool:
        """Whether ``regime`` is "disease-free" exactly when the free equilibrium is
        linearly stable: the eigenvalues of the rhs Jacobian (central differences) on
        the components that are zero there, which checks the threshold formula against
        the vector field itself.  Within 1e-6 of threshold 1 it is True without that test."""
        if abs(self.threshold(params) - 1.0) <= _THRESHOLD_MARGIN:
            return True
        free = self.free(params)
        infected = np.flatnonzero(free == 0.0)
        jac = jacobian(self.model(params).rhs, free)[np.ix_(infected, infected)]
        eigs = np.linalg.eigvals(jac)
        return bool((eigs.real < 0).all()) == (self.regime(params) == "disease-free")

    def r0_document(self, params) -> dict:
        """The r0 command's document after the model name; endemic None when disease-free."""
        endemic = list(self.endemic(params)) if self.regime(params) == "endemic" else None
        return {"r0": self.r0(params), "threshold": self.threshold(params),
                "free": list(self.free(params)), "endemic": endemic}


MODELS: dict[str, ModelSpec] = {
    "sica": ModelSpec(
        params=sica.SicaParams,
        functionals={"v0": "free", "v1": "endemic"},
        model=lambda p: sica.sica_model(p),
        r0=lambda p: sica.sica_r0(p),
        threshold=lambda p: sica.endemic_threshold(p),
        free=lambda p: sica.sica_disease_free(p),
        endemic=lambda p: sica.sica_endemic(p),
        functional_at=lambda p, eq: sica.sica_v1(p, eq),
    ),
    "teiv": ModelSpec(
        params=teiv.TeivParams,
        functionals={"teiv_at_anchor": "predicted"},
        model=lambda p: teiv.teiv_model(p),
        r0=lambda p: teiv.teiv_r0(p),
        threshold=lambda p: teiv.teiv_r0(p),
        free=lambda p: teiv.teiv_infection_free(p),
        endemic=lambda p: teiv.teiv_chronic(p),
        functional_at=lambda p, eq: teiv.teiv_lyapunov(p, eq),
    ),
}
