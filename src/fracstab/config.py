"""Experiment configuration: strict JSON parsing.

Unknown fields are hard errors — a silently ignored typo in a rate name
would invalidate every certificate downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .caputo import FractionalOrder
from .errors import ConfigError, ContractError, FracstabError
from .models import MODELS, ModelSpec

_TOP_FIELDS = {
    "model", "params", "orders", "initial_state",
    "t_end", "steps", "functionals",
}


def _number(value, name: str):
    """``value`` itself, unless it is a JSON boolean, which Python counts as
    the integer 0 or 1 but the schema does not count as a number."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got the boolean {json.dumps(value)}")
    return value


def _spec_of(model: str) -> ModelSpec:
    if model not in MODELS:
        raise ConfigError(f"model must be one of {tuple(MODELS)}, got {model!r}")
    return MODELS[model]


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation/certification experiment."""

    model: str                # a key of MODELS
    params: object            # that model's params dataclass
    orders: tuple             # of FractionalOrder
    initial_state: tuple      # 4 floats
    t_end: float
    steps: int
    functionals: tuple        # functional kinds of the model

    def __post_init__(self):
        spec = _spec_of(self.model)
        if not self.orders:
            raise ConfigError("orders must be non-empty")
        if self.steps < 10:
            raise ConfigError(f"steps must be >= 10, got {self.steps}")
        if not (np.isfinite(self.t_end) and self.t_end > 0):
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if len(self.initial_state) != 4:
            raise ConfigError("initial_state must have 4 components")
        for f in self.functionals:
            if f not in spec.functionals:
                raise ConfigError(f"model {self.model!r} has no functional {f!r}")

    @property
    def spec(self) -> ModelSpec:
        return MODELS[self.model]


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    missing = {"model", "params", "orders", "initial_state", "t_end", "steps"} - set(doc)
    if missing:
        raise ConfigError(f"missing config fields: {sorted(missing)}")

    model = doc["model"]
    try:
        steps = int(_number(doc["steps"], "steps"))
        if steps != doc["steps"]:  # a fraction or a string, not truncated
            raise ConfigError(f"steps must be an integer, got {doc['steps']!r}")
        return ExperimentConfig(
            model=model,
            params=_spec_of(model).params_from_json(doc["params"]),
            orders=tuple(FractionalOrder(_number(a, "orders")) for a in doc["orders"]),
            initial_state=tuple(float(_number(x, "initial_state")) for x in doc["initial_state"]),
            t_end=float(_number(doc["t_end"], "t_end")),
            steps=steps,
            functionals=tuple(doc.get("functionals", ())),
        )
    except ContractError as exc:
        raise ConfigError(str(exc)) from exc
    except FracstabError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"mistyped config value: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    return config_from_dict(doc)

