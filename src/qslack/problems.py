"""Problem registry: builds ready-to-train objectives with frozen inputs.

Each builder fixes the problem inputs (states drawn from a seeded input
ansatz, or observables in text form) and the penalty constant, picks the
optimization ansatz templates and names the scalar blocks (with the
documented initial values and the form in which the objective takes each),
and attaches the matching oracle.  ``PenaltyObjective`` lays the angles of
the templates out first and the scalar blocks after them.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from . import objective as obj
from . import oracle as orc
from .ansatz import (
    BornDistribution,
    ConvexCombinationState,
    Prepared,
    PurificationState,
    layered_unitary_circuit,
    qcbm_circuit,
)
from .estimate import as_prepared, prepare
from .objective import ParamBlock, PenaltyObjective
from .pauli import Expansion, is_finite_real

INPUT_LAYERS = 2

# Preconditioning of the scalar blocks: the coefficient-norm penalty terms
# are a factor ~c 2^(n+1) stiffer than the circuit angles, and the
# constrained-Hamiltonian dual multipliers travel several units from their
# initial values, so those coordinates are rescaled relative to the angles.
ALPHA_SCALE = 0.25
ALPHA_SCALE_STIFF = 0.125
FD_LM_SCALE = 1.5
FD_NU_SCALE = 2.5
NEG_P_LAM_SCALE = 2.0
NEG_P_MU_SCALE = 3.0
MU_SCALE = 2.0
NU_SCALE = 4.0


@dataclass
class Problem:
    objective: PenaltyObjective
    oracle: orc.OracleResult


# -- ansatz construction -------------------------------------------------

def make_purification(n_system: int, layers: int) -> PurificationState:
    """A reference register as wide as the system, traced out."""
    return PurificationState(layered_unitary_circuit(2 * n_system, layers), n_system, n_system)


def make_cc(n_system: int, layers: int, born_layers: int) -> ConvexCombinationState:
    return ConvexCombinationState(qcbm_circuit(n_system, born_layers), layered_unitary_circuit(n_system, layers))


def make_opt_template(ansatz_type: str, n_system: int, layers: int, born_layers: int):
    """The template to train for an ansatz type that ``problem_defaults`` accepted."""
    if ansatz_type == "purification":
        return make_purification(n_system, layers)
    if ansatz_type == "convex_combination":
        return make_cc(n_system, layers, born_layers)
    return BornDistribution(qcbm_circuit(n_system, born_layers))


def frozen_quantum_input(ansatz_type: str, n: int, seed_key: list[int]) -> Prepared:
    """Input state of the same form as the optimization ansatz, with random
    parameters frozen under the given seed."""
    rng = np.random.default_rng(seed_key)
    if ansatz_type == "convex_combination":
        template = make_cc(n, INPUT_LAYERS, INPUT_LAYERS)
    else:
        template = make_purification(n, INPUT_LAYERS)
    theta = rng.uniform(0.0, 2.0 * np.pi, template.n_params)
    return prepare(template, theta)


def frozen_born_input(n: int, seed_key: list[int]) -> np.ndarray:
    rng = np.random.default_rng(seed_key)
    template = BornDistribution(qcbm_circuit(n, INPUT_LAYERS))
    phi = rng.uniform(0.0, 2.0 * np.pi, template.n_params)
    return template.realize(phi).dist


def _scalar(name: str, size: int, init, nonneg: bool = True, scale: float = 1.0,
            passed_as: str = "number") -> ParamBlock:
    kind = "scalar_nonneg" if nonneg else "scalar"
    if np.isscalar(init):
        init = (float(init),) * size
    return ParamBlock(name, size, kind, passed_as, tuple(float(v) for v in init), scale)


# -- observable parsing ---------------------------------------------------

def _check_keys(doc: dict, name: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    missing = [k for k in required if k not in doc]
    if missing:
        raise ValueError(f"{name} is missing keys: {missing}")
    unknown = sorted(set(doc) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"unknown {name} keys: {unknown}")


def instance_from_dict(walsh: bool, n: int, instance: dict) -> tuple[Expansion, list[Expansion], np.ndarray]:
    """The objective ``h``, the constraint observables A_i and the bounds b_i
    of a constrained-Hamiltonian instance document, over Pauli strings or,
    if ``walsh``, over Walsh vectors.  It is an object that holds ``h`` and
    optionally ``constraints``, a list of objects that each hold ``coeffs``
    and ``b``; any other key or type is an error.  ``h`` and each
    ``coeffs`` map label text to a coefficient (``Expansion.from_text``
    checks them), and every coefficient and bound must be a finite real
    number."""
    if not isinstance(instance, Mapping):
        raise ValueError(f"an instance must be a JSON object, not {instance!r}")
    _check_keys(instance, "instance", ("h",), ("constraints",))
    constraints = instance.get("constraints", [])
    if not isinstance(constraints, list) or not all(isinstance(con, Mapping) for con in constraints):
        raise ValueError(f"instance key 'constraints' must hold a list of JSON objects, not {constraints!r}")
    for con in constraints:
        _check_keys(con, "constraint", ("coeffs", "b"))
        if not is_finite_real(con["b"]):
            raise ValueError(f"constraint bound b = {con['b']!r} is not a finite real number")
    h = Expansion.from_text(n, instance["h"], walsh)
    a_list = [Expansion.from_text(n, con["coeffs"], walsh) for con in constraints]
    b = np.array([float(con["b"]) for con in constraints])
    return h, a_list, b


def default_cham_instance() -> dict:
    return {
        "h": {"ZZ": 1.0, "XI": 1.0, "IX": 1.0},
        "constraints": [
            {"coeffs": {"YI": 1.0}, "b": 0.2},
            {"coeffs": {"IZ": 1.0}, "b": 0.1},
        ],
    }


def default_classical_cham_instance() -> dict:
    return {
        "h": {"11": 1.0},
        "constraints": [
            {"coeffs": {"10": 0.5}, "b": 0.1},
            {"coeffs": {"01": 0.7}, "b": 0.3},
        ],
    }


def _slack_init(ell: int) -> tuple[float, ...]:
    base = (0.1, 0.5)
    return tuple(base[i] if i < len(base) else 0.1 for i in range(ell))


# -- defaults -------------------------------------------------------------

# The system size and the seed of the frozen problem inputs, unless named.
N_SYSTEM = 2
INSTANCE_SEED = 921


def _row(layers: int, born_layers: int, penalty: float, learning_rate: float, normalize: bool,
         max_iters: int, **schedule) -> dict:
    """One row of ``DEFAULTS``, in the shape of a config document."""
    return {"ansatz": {"layers": layers, "born_layers": born_layers}, "penalty": penalty,
            "optimizer": {"learning_rate": learning_rate, "normalize": normalize, "max_iters": max_iters},
            "schedule": schedule}


# The simulation settings of each (problem, ansatz type) pair: layers, Born
# layers (of convex-combination states and Born machines), penalty constant,
# initial learning rate, whether the SPSA direction is normalized, iteration
# cap and learning-rate schedule.  Rates and schedules were tuned at the
# default SPSA perturbation, 0.02.  The exact-mode runs of tvd_dual and the
# classical_cham rows settle inside acceptance criterion 7's 2e-2; those of
# the quantum rows do not yet settle inside criterion 3's 5e-2.  A penalized
# cham primal minimum lies up to |y*|^2 / (4c) below the optimum, y* the
# optimal multipliers: 1.51 / c for classical_cham_primal, hence c = 100.
# The keys are exactly the pairs a problem can be built with.
DEFAULTS: dict[tuple[str, str], dict] = {
    ("trace_distance_primal", "purification"): _row(3, 2, 10.0, 0.1, True, 4000, kind="regression_window", window=500),
    ("trace_distance_dual", "purification"): _row(3, 2, 100.0, 0.1, True, 4000, kind="regression_window", window=500),
    ("fidelity_primal", "purification"): _row(4, 2, 45.0, 0.1, True, 6000, kind="regression_window", window=500),
    ("fidelity_dual", "purification"): _row(3, 2, 5.0, 0.1, True, 6000, kind="regression_window", window=300),
    ("negativity_primal", "purification"): _row(3, 2, 5.0, 0.1, True, 4000, kind="regression_window", window=500),
    ("negativity_dual", "purification"): _row(3, 2, 100.0, 0.1, True, 4000, kind="regression_window", window=500),
    ("cham_primal", "purification"): _row(2, 2, 100.0, 0.05, True, 5000, kind="halve_every", period=10000, min_lr=1e-5),
    ("cham_dual", "purification"): _row(2, 2, 100.0, 0.001, False, 5000, kind="halve_every", period=1000, min_lr=1e-5),
    ("trace_distance_primal", "convex_combination"): _row(4, 2, 10.0, 0.005, True, 6000, kind="fixed"),
    ("trace_distance_dual", "convex_combination"): _row(3, 2, 100.0, 0.05, True, 5000, kind="halve_every", period=1000, min_lr=1e-5),
    ("fidelity_primal", "convex_combination"): _row(8, 3, 50.0, 0.1, True, 6000, kind="regression_window_bidir", window=500),
    ("fidelity_dual", "convex_combination"): _row(4, 3, 5.0, 0.1, True, 6000, kind="regression_window_bidir", window=500),
    ("negativity_primal", "convex_combination"): _row(2, 1, 5.0, 0.1, True, 4000, kind="regression_window", window=500),
    ("negativity_dual", "convex_combination"): _row(3, 2, 100.0, 0.1, True, 4000, kind="regression_window", window=500),
    ("cham_primal", "convex_combination"): _row(15, 2, 100.0, 0.05, True, 5000, kind="halve_every", period=1000, min_lr=1e-5),
    ("cham_dual", "convex_combination"): _row(15, 2, 100.0, 0.05, True, 5000, kind="halve_every", period=1000, min_lr=1e-5),
    ("tvd_primal", "born"): _row(2, 2, 10.0, 0.1, True, 3000, kind="regression_window", window=300),
    ("tvd_dual", "born"): _row(2, 2, 100.0, 0.1, True, 3000, kind="regression_window", window=300),
    ("classical_cham_primal", "born"): _row(3, 3, 100.0, 0.1, True, 3000, kind="regression_window", window=300),
    ("classical_cham_dual", "born"): _row(3, 3, 10.0, 0.1, True, 3000, kind="regression_window", window=300),
}

# The distribution problems: those whose pairs take Born machines.
CLASSICAL_TAGS = tuple(tag for tag, ansatz_type in DEFAULTS if ansatz_type == "born")


def default_ansatz_type(tag: str) -> str:
    """Born machines for the distribution problems, purifications for the state problems."""
    return "born" if tag in CLASSICAL_TAGS else "purification"


def problem_defaults(tag: str, ansatz_type: str) -> dict:
    """The ``DEFAULTS`` row of the pair; a pair without one cannot be built."""
    try:
        return DEFAULTS[(tag, ansatz_type)]
    except KeyError:
        types = [a for t, a in DEFAULTS if t == tag]
        raise ValueError(f"{tag} takes ansatz type {' or '.join(types)}, not {ansatz_type!r}") from None


# -- builders -------------------------------------------------------------

def build_problem(tag: str, n_system: int = N_SYSTEM, ansatz_type: str | None = None,
                  layers: int | None = None, born_layers: int | None = None, c: float | None = None,
                  instance_seed: int = INSTANCE_SEED, instance: dict | None = None) -> Problem:
    """The problem ``tag`` with its oracle.  The ansatz type defaults to
    ``default_ansatz_type(tag)``, and the layer counts and the penalty constant
    ``c`` to the pair's ``DEFAULTS`` row: the problem ``qslack run`` trains."""
    check_problem(tag, n_system, c, instance)
    if ansatz_type is None:
        ansatz_type = default_ansatz_type(tag)
    row = problem_defaults(tag, ansatz_type)
    layers = row["ansatz"]["layers"] if layers is None else layers
    born_layers = row["ansatz"]["born_layers"] if born_layers is None else born_layers
    c = row["penalty"] if c is None else c
    builder = _BUILDERS[tag]
    return builder(n_system, ansatz_type, layers, born_layers, c, instance_seed, instance)


def check_problem(tag: str, n_system: int, c: float | None, instance: dict | None) -> None:
    """Raise ValueError unless the problem ``tag`` can be built on ``n_system``
    qubits with the penalty constant ``c`` (None: the pair's default) and
    ``instance``: None, or an instance document that the problem reads.
    Only the constrained-Hamiltonian problems take one."""
    if tag not in PROBLEM_TAGS:
        raise ValueError(f"unknown problem tag {tag!r}")
    if c is not None and c <= 0:
        raise ValueError("penalty constant must be positive")
    if n_system < 1:
        raise ValueError("n_system must be positive")
    if tag.startswith("negativity") and n_system % 2 != 0:
        raise ValueError("negativity problems need an even qubit count for the A|B split")
    if instance is None:
        return
    if "cham" not in tag:
        raise ValueError(f"{tag} takes no instance")
    _, a_list, _ = instance_from_dict(tag in CLASSICAL_TAGS, n_system, instance)
    if len(a_list) > orc.MAX_CONSTRAINTS:
        raise ValueError(f"only up to {orc.MAX_CONSTRAINTS} scalar constraints are supported")


def _build_distance(side, classical, n, ansatz_type, layers, born_layers, c, instance_seed, instance) -> Problem:
    """Trace distance of two states, or total variation distance of two
    distributions (``classical``): the same term forms serve both."""
    if classical:
        dense = obj.tvd_primal_dense if side == "primal" else obj.tvd_dual_dense
        rho, sigma = (as_prepared(frozen_born_input(n, [instance_seed, k])) for k in (1, 2))
        oracle = orc.OracleResult(orc.exact_tvd(rho.dist, sigma.dist), "half-l1")
    else:
        dense = obj.td_primal_dense if side == "primal" else obj.td_dual_dense
        rho, sigma = (frozen_quantum_input(ansatz_type, n, [instance_seed, k]) for k in (1, 2))
        oracle = orc.OracleResult(orc.exact_trace_distance(rho.rho, sigma.rho), "trace-norm")
    terms, direction = (obj.td_primal_objective, "max") if side == "primal" else (obj.td_dual_objective, "min")
    template = make_opt_template(ansatz_type, n, layers, born_layers)
    pen_obj = PenaltyObjective(direction, [template, template], [_scalar("lam", 1, 1.0), _scalar("mu", 1, 1.0)],
                               partial(dense, rho.dense, sigma.dense, c=c), partial(terms, rho, sigma, c=c))
    return Problem(pen_obj, oracle)


def _build_fidelity(side, n, ansatz_type, layers, born_layers, c, instance_seed, instance) -> Problem:
    rho = frozen_quantum_input(ansatz_type, n, [instance_seed, 1])
    sigma = frozen_quantum_input(ansatz_type, n, [instance_seed, 2])
    wide = make_opt_template(ansatz_type, n + 1, layers, born_layers)
    if side == "primal":
        templates = [wide]
        blocks = [_scalar("alpha", 2 * 4**n, 0.0, nonneg=False, scale=ALPHA_SCALE, passed_as="complex"),
                  _scalar("lam", 1, 1.0)]
        dense, terms, direction = obj.fidelity_primal_dense, obj.fidelity_primal_objective, "max"
    else:
        template = make_opt_template(ansatz_type, n, layers, born_layers)
        templates = [template, template, wide]
        blocks = [_scalar("lam", 1, 1.0, scale=FD_LM_SCALE), _scalar("mu", 1, 1.0, scale=FD_LM_SCALE),
                  _scalar("nu", 1, 1.0, scale=FD_NU_SCALE)]
        dense, terms, direction = obj.fidelity_dual_dense, obj.fidelity_dual_objective, "min"
    pen_obj = PenaltyObjective(direction, templates, blocks,
                               partial(dense, rho.rho, sigma.rho, c=c), partial(terms, rho, sigma, c=c))
    value = orc.exact_root_fidelity(rho.rho, sigma.rho)
    return Problem(pen_obj, orc.OracleResult(value, "root-fidelity"))


def _build_negativity(side, n, ansatz_type, layers, born_layers, c, instance_seed, instance) -> Problem:
    n_a = n_b = n // 2
    rho = frozen_quantum_input(ansatz_type, n, [instance_seed, 1])
    template = make_opt_template(ansatz_type, n, layers, born_layers)
    alpha_scale = ALPHA_SCALE if side == "primal" else ALPHA_SCALE_STIFF
    blocks = [_scalar("alpha", 4**n, 0.0, nonneg=False, scale=alpha_scale, passed_as="vector")]
    if side == "dual":
        blocks += [_scalar("beta", 4**n, 0.0, nonneg=False, scale=alpha_scale, passed_as="vector"),
                   _scalar("lam", 1, 1.0), _scalar("mu", 1, 1.0)]
        dense, terms, direction = obj.negativity_dual_dense, obj.negativity_dual_objective, "min"
    else:
        blocks += [_scalar("lam", 1, 1.0, scale=NEG_P_LAM_SCALE), _scalar("mu", 1, 1.0, scale=NEG_P_MU_SCALE)]
        dense, terms, direction = obj.negativity_primal_dense, obj.negativity_primal_objective, "max"
    pen_obj = PenaltyObjective(direction, [template, template], blocks,
                               partial(dense, rho.rho, n_a=n_a, n_b=n_b, c=c),
                               partial(terms, rho, n_a=n_a, n_b=n_b, c=c))
    value = orc.exact_negativity(rho.rho, 2**n_a, 2**n_b)
    return Problem(pen_obj, orc.OracleResult(value, "pt-trace-norm"))


def _build_cham(side, classical, n, ansatz_type, layers, born_layers, c, instance_seed, instance) -> Problem:
    """The constrained Hamiltonian problem over Pauli observables and states,
    or over Walsh observables and distributions (``classical``)."""
    if classical:
        default_instance = default_classical_cham_instance
        dense = obj.classical_cham_primal_dense if side == "primal" else obj.classical_cham_dual_dense
    else:
        default_instance = default_cham_instance
        dense = obj.cham_primal_dense if side == "primal" else obj.cham_dual_dense
    inst = instance if instance is not None else default_instance()
    h, a_list, b = instance_from_dict(classical, n, inst)
    ell = len(a_list)
    template = make_opt_template(ansatz_type, n, layers, born_layers)
    if side == "primal":
        blocks = [_scalar("z", ell, 0.0 if classical else _slack_init(ell), passed_as="vector")]
        terms, direction = obj.cham_primal_objective, "min"
    else:
        blocks = [_scalar("y", ell, 0.0 if classical else 0.001, passed_as="vector")]
        if classical:
            blocks += [_scalar("mu", 1, 0.0, nonneg=False), _scalar("nu", 1, 0.0)]
        else:
            blocks += [_scalar("mu", 1, -0.005, nonneg=False, scale=MU_SCALE),
                       _scalar("nu", 1, 0.001, scale=NU_SCALE)]
        terms, direction = obj.cham_dual_objective, "max"
    pen_obj = PenaltyObjective(direction, [template], blocks,
                               partial(dense, h_dense=h.dense(), a_dense=[a.dense() for a in a_list], b=b, c=c),
                               partial(terms, h=h, a_list=a_list, b=b, c=c))
    return Problem(pen_obj, _cham_oracle(classical, n, json.dumps(inst, sort_keys=True)))


@lru_cache(maxsize=32)
def _cham_oracle(classical: bool, n: int, instance_json: str) -> orc.OracleResult:
    """The oracle of a constrained-Hamiltonian instance, given as canonical
    JSON text.  It depends on the instance alone, not on the side or the
    ansatz, so the pairs of one instance share one multiplier search per
    process."""
    h, a_list, b = instance_from_dict(classical, n, json.loads(instance_json))
    return (orc.lp_classical_cham_value if classical else orc.sdp_cham_value)(h, a_list, b)


_BUILDERS: dict[str, Callable[..., Problem]] = {
    "trace_distance_primal": partial(_build_distance, "primal", False),
    "trace_distance_dual": partial(_build_distance, "dual", False),
    "fidelity_primal": partial(_build_fidelity, "primal"),
    "fidelity_dual": partial(_build_fidelity, "dual"),
    "negativity_primal": partial(_build_negativity, "primal"),
    "negativity_dual": partial(_build_negativity, "dual"),
    "cham_primal": partial(_build_cham, "primal", False),
    "cham_dual": partial(_build_cham, "dual", False),
    "tvd_primal": partial(_build_distance, "primal", True),
    "tvd_dual": partial(_build_distance, "dual", True),
    "classical_cham_primal": partial(_build_cham, "primal", True),
    "classical_cham_dual": partial(_build_cham, "dual", True),
}

# Every problem tag, in the order of the builders.
PROBLEM_TAGS = tuple(_BUILDERS)
