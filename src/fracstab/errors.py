"""Exception types shared across the package."""


class FracstabError(Exception):
    """Base class for all package errors."""


class DomainError(FracstabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class GridError(FracstabError, ValueError):
    """A time grid or sampled signal is malformed."""


class ContractError(FracstabError, ValueError):
    """Inputs violate a structural contract (dimension mismatch, bad anchor)."""


class DivergenceError(FracstabError, RuntimeError):
    """A solve produced a non-finite state (``kind`` "divergence") or, as the
    CLI checks, a component below zero beyond rounding ("undershoot").

    Carries the index of the first failing node and the order of the solve.
    """

    def __init__(self, node: int, order: float, kind: str = "divergence"):
        self.node, self.order, self.kind = node, order, kind
        super().__init__(f"{kind} at node {node} (order {order:g})")


class NewtonError(FracstabError, RuntimeError):
    """Damped Newton iteration failed to converge."""


class NoEndemicEquilibriumError(FracstabError, ValueError):
    """Requested an endemic equilibrium below the persistence threshold."""


class ConfigError(FracstabError, ValueError):
    """An experiment configuration failed validation."""
