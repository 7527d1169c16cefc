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
    """A solver produced a non-finite state.

    Carries the index of the first failing node and the order of the solve.
    """

    def __init__(self, node: int, order: float):
        self.node = node
        self.order = order
        super().__init__(f"non-finite state at node {node} (order {order:g})")


class NewtonError(FracstabError, RuntimeError):
    """Damped Newton iteration failed to converge."""


class NoEndemicEquilibriumError(FracstabError, ValueError):
    """Requested an endemic equilibrium below the persistence threshold."""


class ConfigError(FracstabError, ValueError):
    """An experiment configuration failed validation."""
