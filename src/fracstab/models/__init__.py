"""Model registry: the one place that lists the models.

Entries call model functions through lambdas that look them up on the
module at call time, so a function replaced there (by a test or a
tracer) is the one that runs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from ..errors import ContractError
from ..newton import _fd_jacobian
from . import sica, teiv


@dataclass(frozen=True)
class ModelSpec:
    """One model: params codec, vector field, threshold, equilibria, functionals."""

    params: type                  # frozen params dataclass
    functionals: dict             # functional kind -> anchor: "free", "endemic" or "predicted"
    model: Callable               # params -> ModelDefinition
    r0: Callable                  # params -> reproduction number
    threshold: Callable           # params -> persistence threshold (endemic above 1)
    free: Callable                # params -> disease-free equilibrium; its zero
                                  # components are the infected subsystem
    endemic: Callable             # params -> endemic equilibrium; raises below threshold 1
    functional_at: Callable       # (params, equilibrium) -> LyapunovFunctional anchored there
    r0_document: Callable         # params -> dict printed by the r0 command

    def params_from_json(self, doc: dict):
        """Params from a JSON object; unknown, missing or mistyped fields are errors.

        No field is a flag, so a JSON boolean is mistyped wherever it
        appears, although Python would take it as the number 0 or 1.
        """
        if not isinstance(doc, dict):
            raise ContractError(f"{self.params.__name__} must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(self.params)}
        if unknown:
            raise ContractError(f"unknown {self.params.__name__} fields: {sorted(unknown)}")
        booleans = sorted(name for name, value in doc.items() if isinstance(value, bool))
        if booleans:
            raise ContractError(f"{self.params.__name__} fields given a boolean: {booleans}")
        try:
            return self.params(**doc)
        except TypeError as exc:
            raise ContractError(str(exc)) from exc

    def predicted(self, params) -> np.ndarray:
        """The equilibrium the threshold predicts: endemic above 1, free otherwise."""
        return self.endemic(params) if self.threshold(params) > 1.0 else self.free(params)

    def anchor(self, kind: str, params) -> np.ndarray:
        """The equilibrium a functional kind is anchored at."""
        return getattr(self, self.functionals[kind])(params)

    def spectral_consistent(self, params, margin: float = 1e-6) -> bool:
        """Whether R0 < 1 agrees with linear stability of the free equilibrium.

        The stability test takes the eigenvalues of the rhs Jacobian (central
        differences) restricted to the components that are zero at the free
        equilibrium, so it checks the R0 formula against the vector field
        itself.  Parameters within ``margin`` of R0 = 1 count as consistent
        (the spectral test is not meaningful there).
        """
        r0 = self.r0(params)
        if abs(r0 - 1.0) <= margin:
            return True
        free = self.free(params)
        infected = np.flatnonzero(free == 0.0)
        jac = _fd_jacobian(self.model(params).rhs, free)[np.ix_(infected, infected)]
        eigs = np.linalg.eigvals(jac)
        return bool((eigs.real < 0).all()) == (r0 < 1.0)


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
        r0_document=lambda p: sica.sica_r0_document(p),
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
        r0_document=lambda p: teiv.teiv_r0_document(p),
    ),
}
