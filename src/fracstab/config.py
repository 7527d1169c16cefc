"""Experiment configuration: strict JSON parsing.

Unknown fields are hard errors — a silently ignored typo in a rate name
would invalidate every certificate downstream.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields

from .caputo import FractionalOrder
from .errors import ConfigError, ContractError, FracstabError
from .models import MODELS, ModelSpec


def _number(value, name: str):
    """``value`` itself, unless it is a JSON boolean, which Python counts as
    the integer 0 or 1 but the schema does not count as a number, or one of
    the non-finite numbers ``NaN``, ``Infinity`` and ``-Infinity``, which
    Python's json reads but no rate, order, time or state can be."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got the boolean {json.dumps(value)}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {json.dumps(value)}")
    return value


def _json_number(value, name: str):
    """``_number(value, name)`` where ``value`` must also be a JSON number, not
    a string that ``float`` would parse."""
    if not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a JSON number, got {json.dumps(value)}")
    return _number(value, name)


def _array(value, name: str) -> list:
    """``value`` itself, which must be a JSON array: ``tuple`` would split a string."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a JSON array, got {json.dumps(value)}")
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
    orders: tuple             # of FractionalOrder, distinct under the format "g"
    initial_state: tuple      # one float >= 0 per state component of the model
    t_end: float
    steps: int
    functionals: tuple = ()   # functional kinds of the model

    def __post_init__(self):
        spec = _spec_of(self.model)
        if not self.orders:
            raise ConfigError("orders must be non-empty")
        if self.steps < 10:
            raise ConfigError(f"steps must be >= 10, got {self.steps}")
        if not self.t_end > 0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        names = [f"{o.alpha:g}" for o in self.orders]
        clash = [o.alpha for o, n in zip(self.orders, names) if names.count(n) > 1]
        if clash:
            raise ConfigError(f"orders {clash} share a file name under the format 'g'")
        labels = spec.model(self.params).state_labels
        if len(self.initial_state) != len(labels):
            raise ConfigError(f"initial_state must have {len(labels)} components")
        negative = [label for label, x in zip(labels, self.initial_state) if x < 0]
        if negative:
            raise ConfigError(f"initial_state must be non-negative; {negative} below 0")
        for f in self.functionals:
            if f not in spec.functionals:
                raise ConfigError(f"model {self.model!r} has no functional {f!r}")

    @property
    def spec(self) -> ModelSpec:
        return MODELS[self.model]


def _check_object(doc, cls: type, name: str) -> None:
    """``doc`` must be a JSON object with no field unknown to the dataclass
    ``cls`` and none of the fields that have no default missing."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {name} fields: {sorted(unknown)}")
    missing = {f.name for f in fields(cls) if f.default is MISSING} - set(doc)
    if missing:
        raise ConfigError(f"missing {name} fields: {sorted(missing)}")


def config_from_dict(doc: dict) -> ExperimentConfig:
    _check_object(doc, ExperimentConfig, "config")
    model = doc["model"]
    try:
        spec = _spec_of(model)
        _check_object(doc["params"], spec.params, "params")
        steps = int(_number(doc["steps"], "steps"))
        if steps != doc["steps"]:  # a fraction or a string, not truncated
            raise ConfigError(f"steps must be an integer, got {doc['steps']!r}")
        return ExperimentConfig(
            model=model,
            params=spec.params(**{k: _number(v, f"params.{k}") for k, v in doc["params"].items()}),
            orders=tuple(FractionalOrder(_json_number(a, "orders"))
                         for a in _array(doc["orders"], "orders")),
            initial_state=tuple(float(_json_number(x, "initial_state"))
                                for x in _array(doc["initial_state"], "initial_state")),
            t_end=float(_json_number(doc["t_end"], "t_end")),
            steps=steps,
            functionals=tuple(_array(doc.get("functionals", []), "functionals")),
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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: byte {exc.start}: {exc.reason}") from exc
    return config_from_dict(doc)

