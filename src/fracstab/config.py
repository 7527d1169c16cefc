"""Experiment configuration: strict JSON parsing, by one rule read from the
dataclass fields of the config and of its model's params: no field unknown,
none without a default missing, and each value of the JSON type that its
annotation stands for, read as that type.  A silently ignored typo, or a
rate that only looks like a number, would invalidate every certificate."""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields

from .caputo import FractionalOrder
from .errors import ConfigError, ContractError
from .models import MODELS, ModelSpec

_JSON_TYPES = {"float": ("number", (int, float)), "int": ("number", (int, float)),
               "str": ("string", str), "tuple": ("array", list), "object": ("object", dict)}


def _json_value(value, annotation, name: str):
    """``value`` converted to the type of the field annotation ``annotation``
    (a class, or its name under postponed evaluation).  It must be of the
    JSON type that the annotation stands for, or a ``ConfigError`` names
    ``name``: no number is a boolean (Python's 0 or 1), ``NaN``, ``Infinity``
    or an integer too large for a float, and an ``int`` is integral.  Any
    other annotation is a ``ContractError``."""
    kind = getattr(annotation, "__name__", annotation)
    if kind not in _JSON_TYPES:
        raise ContractError(f"{name} is annotated {kind!r}, which stands for no JSON type")
    label, cls = _JSON_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, cls):
        got = f"the boolean {json.dumps(value)}" if isinstance(value, bool) else json.dumps(value)
        raise ConfigError(f"{name} must be a JSON {label}, got {got}")
    if label != "number":
        return value
    try:
        x = float(value)
    except OverflowError:
        raise ConfigError(f"{name} must be a finite number, got an integer too large "
                          "for a float") from None
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be a finite number, got {json.dumps(value)}")
    if kind == "float":
        return x
    if not x.is_integer():
        raise ConfigError(f"{name} must be an integer, got {json.dumps(value)}")
    return int(value)


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


def _json_fields(doc, cls: type, name: str, prefix: str = "") -> dict:
    """The fields of the dataclass ``cls`` that the JSON object ``doc`` sets, each
    read by ``_json_value`` as ``prefix`` + field; none may be unknown, nor any
    without a default missing."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {name} fields: {sorted(unknown)}")
    missing = {f.name for f in fields(cls) if f.default is MISSING} - set(doc)
    if missing:
        raise ConfigError(f"missing {name} fields: {sorted(missing)}")
    return {f.name: _json_value(doc[f.name], f.type, prefix + f.name)
            for f in fields(cls) if f.name in doc}


def config_from_dict(doc: dict) -> ExperimentConfig:
    top = _json_fields(doc, ExperimentConfig, "config")
    spec = _spec_of(top["model"])
    params = _json_fields(top["params"], spec.params, "params", "params.")
    for name, kind in (("orders", float), ("initial_state", float), ("functionals", str)):
        if name in top:
            top[name] = tuple(_json_value(x, kind, f"{name}[{i}]") for i, x in enumerate(top[name]))
    try:
        return ExperimentConfig(**dict(top, params=spec.params(**params),
                                       orders=tuple(map(FractionalOrder, top["orders"]))))
    except ContractError as exc:
        raise ConfigError(str(exc)) from exc


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
    except ValueError as exc:  # valid JSON that Python refuses: an integer of over 4,300 digits
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(doc)

