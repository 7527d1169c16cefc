"""fracstab: Caputo fractional-order solvers with Lyapunov certification.

Integrates Caputo fractional dynamical systems (Adams-Bashforth-Moulton
predictor-corrector), builds Volterra-type Lyapunov functionals, and
numerically certifies stability inequalities along computed trajectories.
Ships two four-compartment HIV models (population-level SICA,
cellular-level TEIV) and a CLI for reproducing the associated convergence
experiments.
"""

from .caputo import (
    FractionalOrder,
    SampledSignal,
    UniformGrid,
    l1_caputo,
)
from .errors import (
    ConfigError,
    ContractError,
    DivergenceError,
    DomainError,
    FracstabError,
    GridError,
    NewtonError,
    NoEndemicEquilibriumError,
)
from .lyapunov import (
    GFunction,
    LyapunovFunctional,
    caputo_of_functional,
    decrescence_certificate,
    default_tolerance,
    identity_g,
    lemma_certificate,
    psi_profile,
)
from .newton import damped_newton
from .solver import (
    ModelDefinition,
    Trajectory,
    solve_fde_abm,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractError",
    "DivergenceError",
    "DomainError",
    "FracstabError",
    "FractionalOrder",
    "GFunction",
    "GridError",
    "LyapunovFunctional",
    "ModelDefinition",
    "NewtonError",
    "NoEndemicEquilibriumError",
    "SampledSignal",
    "Trajectory",
    "UniformGrid",
    "caputo_of_functional",
    "damped_newton",
    "decrescence_certificate",
    "default_tolerance",
    "identity_g",
    "l1_caputo",
    "lemma_certificate",
    "psi_profile",
    "solve_fde_abm",
]
