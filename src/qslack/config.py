"""Experiment configuration: JSON loading, validation, per-problem defaults.

A config file is a flat JSON document; every field except ``problem`` has a
default.  Defaults for layers, penalty constant, learning-rate scheme, and
gradient normalization follow the per-problem simulation settings, keyed by
ansatz type.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, dataclass, field, fields

from .estimate import ShotModel
from .optimizer import LrSchedule, SpsaConfig
from .problems import CLASSICAL_TAGS, PROBLEM_TAGS


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class AnsatzConfig:
    type: str = "purification"
    layers: int = 2
    born_layers: int = 2

    def __post_init__(self) -> None:
        if self.type not in ("purification", "convex_combination", "born"):
            raise ConfigError(f"unknown ansatz type {self.type!r}")
        if self.layers < 1 or self.born_layers < 1:
            raise ConfigError("layer counts must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    n_system: int = 2
    ansatz: AnsatzConfig = field(default_factory=AnsatzConfig)
    shots: ShotModel = field(default_factory=ShotModel)
    penalty: float = 10.0
    spsa: SpsaConfig = field(default_factory=SpsaConfig)
    schedule: LrSchedule = field(default_factory=LrSchedule)
    n_runs: int = 5
    seed: int = 7
    instance_seed: int = 921
    output_dir: str = "qslack_out"
    workers: int = 1
    instance: dict | None = None

    def __post_init__(self) -> None:
        if self.problem not in PROBLEM_TAGS:
            raise ConfigError(f"unknown problem tag {self.problem!r}")
        if self.penalty <= 0:
            raise ConfigError("penalty constant must be positive")
        if self.n_runs < 1 or self.workers < 1:
            raise ConfigError("n_runs and workers must be positive")
        if self.n_system < 1:
            raise ConfigError("n_system must be positive")
        if self.problem.startswith("negativity") and self.n_system % 2 != 0:
            raise ConfigError("negativity problems need an even qubit count")


# Simulation settings per (problem, ansatz type): layers (+ Born layers for
# convex-combination states), penalty constant, learning-rate scheme, and
# whether the SPSA direction is normalized.  Iteration counts and initial
# rates are chosen so the exact-mode runs settle inside the acceptance
# tolerances.
_REG = lambda window, lr=0.1, min_lr=1e-3, iters=4000: dict(
    schedule=dict(kind="regression_window", window=window, min_lr=min_lr), lr=lr, max_iters=iters)
_REG2 = lambda window, factor, lr=0.1, min_lr=1e-3, iters=4000: dict(
    schedule=dict(kind="regression_window_bidir", window=window, factor=factor, min_lr=min_lr), lr=lr, max_iters=iters)
_HALVE = lambda period, lr, min_lr=1e-5, iters=4000: dict(
    schedule=dict(kind="halve_every", period=period, min_lr=min_lr), lr=lr, max_iters=iters)
_FIXED = lambda lr, iters=4000: dict(schedule=dict(kind="fixed"), lr=lr, max_iters=iters)

DEFAULTS: dict[tuple[str, str], dict] = {
    ("trace_distance_primal", "purification"): dict(layers=3, c=10.0, normalize=True, **_REG(500)),
    ("trace_distance_dual", "purification"): dict(layers=3, c=100.0, normalize=True, **_REG(500)),
    ("fidelity_primal", "purification"): dict(layers=4, c=45.0, normalize=True, **_REG(500, iters=6000)),
    ("fidelity_dual", "purification"): dict(layers=3, c=5.0, normalize=True, **_REG(300, iters=6000)),
    ("negativity_primal", "purification"): dict(layers=3, c=5.0, normalize=True, **_REG(500)),
    ("negativity_dual", "purification"): dict(layers=3, c=100.0, normalize=True, **_REG(500)),
    ("cham_primal", "purification"): dict(layers=2, c=100.0, normalize=True, **_HALVE(10000, 0.05, iters=5000)),
    ("cham_dual", "purification"): dict(layers=2, c=100.0, normalize=False, **_HALVE(1000, 0.001, iters=5000)),
    ("cham_interior_point", "purification"): dict(layers=2, c=1.0, normalize=True, **_REG(300, iters=2000)),
    ("trace_distance_primal", "convex_combination"): dict(layers=4, born_layers=2, c=10.0, normalize=True, **_FIXED(0.005, iters=6000)),
    ("trace_distance_dual", "convex_combination"): dict(layers=3, born_layers=2, c=100.0, normalize=True, **_HALVE(1000, 0.05, iters=5000)),
    ("fidelity_primal", "convex_combination"): dict(layers=8, born_layers=3, c=50.0, normalize=True, **_REG2(500, 1.1, iters=6000)),
    ("fidelity_dual", "convex_combination"): dict(layers=4, born_layers=3, c=5.0, normalize=True, **_REG2(500, 1.1, iters=6000)),
    ("negativity_primal", "convex_combination"): dict(layers=2, born_layers=1, c=5.0, normalize=True, **_REG(500)),
    ("negativity_dual", "convex_combination"): dict(layers=3, born_layers=2, c=100.0, normalize=True, **_REG(500)),
    ("cham_primal", "convex_combination"): dict(layers=15, born_layers=2, c=100.0, normalize=True, **_HALVE(1000, 0.05, iters=5000)),
    ("cham_dual", "convex_combination"): dict(layers=15, born_layers=2, c=100.0, normalize=True, **_HALVE(1000, 0.05, iters=5000)),
    ("cham_interior_point", "convex_combination"): dict(layers=2, born_layers=2, c=1.0, normalize=True, **_REG(300, iters=2000)),
    ("tvd_primal", "born"): dict(layers=2, born_layers=2, c=10.0, normalize=True, **_REG(300, iters=3000)),
    ("tvd_dual", "born"): dict(layers=2, born_layers=2, c=100.0, normalize=True, **_REG(300, iters=3000)),
    ("classical_cham_primal", "born"): dict(layers=3, born_layers=3, c=10.0, normalize=True, **_REG(300, iters=3000)),
    ("classical_cham_dual", "born"): dict(layers=3, born_layers=3, c=10.0, normalize=True, **_REG(300, iters=3000)),
}


def problem_defaults(problem: str, ansatz_type: str) -> dict:
    try:
        return DEFAULTS[(problem, ansatz_type)]
    except KeyError:
        raise ConfigError(f"no defaults for problem {problem!r} with ansatz {ansatz_type!r}") from None


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


def _section(raw: dict, name: str, cls) -> dict:
    """Pop the sub-document ``name``; its keys must be fields of ``cls``."""
    sub = dict(raw.pop(name, {}))
    unknown = sorted(set(sub) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {name} keys: {unknown}")
    return sub


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a JSON document; a missing key takes the problem
    default from ``DEFAULTS`` or else the default of its dataclass field."""
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    raw = dict(raw)
    try:
        problem = raw.pop("problem")
    except KeyError:
        raise ConfigError("config is missing the required 'problem' field") from None
    if problem not in PROBLEM_TAGS:
        raise ConfigError(f"unknown problem tag {problem!r}")

    ansatz_raw = _section(raw, "ansatz", AnsatzConfig)
    ansatz_type = ansatz_raw.get("type", "born" if problem in CLASSICAL_TAGS else "purification")
    defaults = problem_defaults(problem, ansatz_type)
    ansatz = AnsatzConfig(
        type=ansatz_type,
        layers=int(ansatz_raw.get("layers", defaults["layers"])),
        born_layers=int(ansatz_raw.get("born_layers", defaults.get("born_layers", AnsatzConfig.born_layers))),
    )

    shots_raw = _section(raw, "shots", ShotModel)
    shots = ShotModel(mode=shots_raw.get("mode", ShotModel.mode), n=int(float(shots_raw.get("n", ShotModel.n))))

    spsa_raw = _section(raw, "optimizer", SpsaConfig)
    spsa = SpsaConfig(
        learning_rate=float(spsa_raw.get("learning_rate", defaults["lr"])),
        perturbation=float(spsa_raw.get("perturbation", SpsaConfig.perturbation)),
        normalize=bool(spsa_raw.get("normalize", defaults["normalize"])),
        max_iters=int(spsa_raw.get("max_iters", defaults["max_iters"])),
    )

    sched_raw = {**defaults["schedule"], **_section(raw, "schedule", LrSchedule)}
    schedule = LrSchedule(**{
        name: type(default)(sched_raw.get(name, default))
        for name, default in _field_defaults(LrSchedule).items()
    })

    penalty = float(raw.pop("penalty", defaults["c"]))
    known = {
        name: type(default)(raw.pop(name, default))
        for name, default in _field_defaults(ExperimentConfig).items()
        if name not in ("penalty", "instance")
    }
    known["instance"] = raw.pop("instance", None)
    if raw:
        raise ConfigError(f"unknown config keys: {sorted(raw)}")
    try:
        return ExperimentConfig(problem=problem, ansatz=ansatz, shots=shots, penalty=penalty,
                                spsa=spsa, schedule=schedule, **known)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
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
