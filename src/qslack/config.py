"""Experiment configuration: JSON loading, validation and defaults.

A config file is a JSON document; only ``problem`` is required.  The document
is laid over the row of ``problems.DEFAULTS`` for its (problem, ansatz type)
pair, which holds the layer counts, the penalty constant, the learning-rate
scheme, gradient normalization and the iteration cap; the ansatz type itself
defaults to ``problems.default_ansatz_type``.  A key in neither takes the
default of its dataclass field.  Values are checked as written, not
converted: an integer field takes an integer, a real field a finite number,
a flag a JSON boolean and a name a string.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass, field
from typing import get_type_hints

from .estimate import ShotModel
from .optimizer import LrSchedule, SpsaConfig
from .pauli import is_finite_real
from .problems import INSTANCE_SEED, N_SYSTEM, PROBLEM_TAGS, check_problem, default_ansatz_type, problem_defaults


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class AnsatzConfig:
    type: str
    layers: int
    born_layers: int

    def __post_init__(self) -> None:
        if self.layers < 1 or self.born_layers < 1:
            raise ConfigError("layer counts must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    """A campaign.  The per-pair settings have no default here: a config
    document takes them from ``DEFAULTS``, and a (problem, ansatz type) pair
    without a row there is rejected."""

    problem: str
    ansatz: AnsatzConfig
    penalty: float
    spsa: SpsaConfig
    schedule: LrSchedule
    n_system: int = N_SYSTEM
    shots: ShotModel = field(default_factory=ShotModel)
    n_runs: int = 5
    seed: int = 7
    instance_seed: int = INSTANCE_SEED
    output_dir: str = "qslack_out"
    workers: int = 1
    instance: dict | None = None

    def __post_init__(self) -> None:
        try:
            check_problem(self.problem, self.n_system, self.penalty, self.instance)
            problem_defaults(self.problem, self.ansatz.type)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.n_runs < 1 or self.workers < 1:
            raise ConfigError("n_runs and workers must be positive")


# Each sub-document of a config: its key, and the field and class it builds.
_SECTIONS = {
    "ansatz": ("ansatz", AnsatzConfig),
    "shots": ("shots", ShotModel),
    "optimizer": ("spsa", SpsaConfig),
    "schedule": ("schedule", LrSchedule),
}


# What a field of each checked type takes, as an error message names it.
_TAKES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def _checked(name: str, key: str, kind: type, value):
    """``value`` as the ``kind`` field ``key`` of section ``name`` takes it
    as written: an int field takes an integer, a float field a finite real
    (an integer is converted), a bool field a boolean and a str field a
    string.  A boolean is no number."""
    if kind is float:
        ok = is_finite_real(value)
    elif kind is int:
        ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{name} key {key!r} must be {_TAKES[kind]}, not {value!r}")
    return kind(value)


def _build(cls, doc: dict, name: str, **built):
    """``cls`` from the fields in ``built`` and the document ``doc``, whose
    keys must name the other fields; a value for an int, float, bool or str
    field is checked by ``_checked``."""
    types = get_type_hints(cls)
    unknown = sorted(set(doc) - (set(types) - set(built)))
    if unknown:
        raise ConfigError(f"unknown {name} keys: {unknown}")
    return cls(**{k: _checked(name, k, types[k], v) if types[k] in _TAKES else v for k, v in doc.items()}, **built)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a JSON document laid over the ``DEFAULTS`` row of
    its pair: a sub-document key by key, any other key whole."""
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    if "problem" not in raw:
        raise ConfigError("config is missing the required 'problem' field")
    if raw["problem"] not in PROBLEM_TAGS:
        raise ConfigError(f"unknown problem tag {raw['problem']!r}")
    for key in _SECTIONS:
        if not isinstance(raw.get(key, {}), dict):
            raise ConfigError(f"config key {key!r} must hold a JSON object")
    try:
        ansatz_type = raw.get("ansatz", {}).get("type", default_ansatz_type(raw["problem"]))
        row = problem_defaults(raw["problem"], ansatz_type)
        row = {**row, "ansatz": {"type": ansatz_type, **row["ansatz"]}}
        doc = {**row, **raw, **{key: {**row.get(key, {}), **raw.get(key, {})} for key in _SECTIONS}}
        built = {name: _build(cls, doc.pop(key), key) for key, (name, cls) in _SECTIONS.items()}
        return _build(ExperimentConfig, doc, "config", **built)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key written twice in it is an error, where
    ``json`` would keep the last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"key {key!r} appears twice in one JSON object")
        doc[key] = value
    return doc


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh, object_pairs_hook=_json_object)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return config_from_dict(raw)


def resolve_output_dir(cfg: ExperimentConfig) -> str:
    root = os.environ.get("QSLACK_OUTPUT_ROOT")
    if root and not os.path.isabs(cfg.output_dir):
        return os.path.join(root, cfg.output_dir)
    return cfg.output_dir
