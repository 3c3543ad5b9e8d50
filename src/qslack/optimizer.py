"""SPSA training loop, learning-rate schedules, and analytic gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .estimate import Estimator, ShotModel, prepare
from .objective import PenaltyObjective


@dataclass(frozen=True)
class SpsaConfig:
    learning_rate: float = 0.1
    perturbation: float = 0.1
    normalize: bool = True
    max_iters: int = 2000

    def __post_init__(self) -> None:
        if self.learning_rate <= 0 or self.perturbation <= 0:
            raise ValueError("learning rate and perturbation must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")


# Iterations between two learning-rate updates.
CHECK_EVERY = 100


@dataclass(frozen=True)
class LrSchedule:
    """fixed, halve_every (period N), or the regression schemes that fit a
    line to the recent objective history every ``CHECK_EVERY`` iterations and
    halve on an adverse slope; the bidirectional variant also multiplies by
    ``factor`` on a favorable slope.  A slope of exactly zero counts as
    favorable."""

    kind: str = "fixed"
    period: int = 1000
    window: int = 500
    factor: float = 1.1
    min_lr: float = 1e-3

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "halve_every", "regression_window", "regression_window_bidir"):
            raise ValueError(f"unknown schedule kind {self.kind}")
        if self.min_lr <= 0:
            raise ValueError("min_lr must be positive")
        if self.window < 2:
            raise ValueError("regression window must be >= 2")
        if self.kind == "halve_every" and self.period % CHECK_EVERY != 0:
            raise ValueError("halving period must be a multiple of the check period")


@dataclass
class IterationRow:
    iteration: int
    objective: float
    penalty: float
    error: float
    lr: float


@dataclass
class RunRecord:
    rows: list[IterationRow] = field(default_factory=list)
    final_objective: float = math.nan
    final_penalty: float = math.nan
    final_error: float = math.nan
    final_params: np.ndarray | None = None
    aborted: bool = False
    abort_reason: str = ""


def rademacher(rng: np.random.Generator, n: int) -> np.ndarray:
    """A perturbation direction of n independent +-1 entries."""
    return rng.integers(0, 2, size=n) * 2.0 - 1.0


def spsa_gradient(f_plus: float, f_minus: float, delta: np.ndarray, c_pert: float) -> np.ndarray:
    """Single-direction simultaneous-perturbation gradient estimate.

    From f_plus = f(theta + c Delta) and f_minus = f(theta - c Delta) with a
    Rademacher Delta, returns [f_plus - f_minus] / (2 c Delta_k) per
    component (1 / Delta_k = Delta_k).
    """
    return (f_plus - f_minus) / (2.0 * c_pert) * delta


def normalize_gradient(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    norm = float(np.linalg.norm(g))
    if norm < 1e-15:
        return np.zeros_like(g)
    return g / norm


def lr_step(schedule: LrSchedule, history: Sequence[float], direction: str,
            current_lr: float, iteration: int) -> float:
    """New learning rate at a check boundary."""
    if schedule.kind == "fixed":
        return current_lr
    if schedule.kind == "halve_every":
        if iteration % schedule.period == 0:
            return max(current_lr / 2.0, schedule.min_lr)
        return current_lr
    if len(history) < schedule.window:
        return current_lr
    y = np.asarray(history[-schedule.window:], dtype=float)
    x = np.arange(schedule.window, dtype=float)
    slope = float(np.polyfit(x, y, 1)[0])
    if abs(slope) < 1e-12:
        slope = 0.0
    adverse = slope < 0 if direction == "max" else slope > 0
    if adverse:
        return max(current_lr / 2.0, schedule.min_lr)
    if schedule.kind == "regression_window_bidir":
        return current_lr * schedule.factor
    return current_lr


def run_optimization(problem: PenaltyObjective, spsa: SpsaConfig, schedule: LrSchedule,
                     rng, shots: ShotModel | None = None,
                     oracle: float | None = None) -> RunRecord:
    """Train the objective and record one row per iteration.

    Each iteration evaluates the objective at the record point and at the
    SPSA pair theta +- c Delta, then takes a step (ascent for maximization
    problems); sign-constrained scalars are clamped at zero afterwards.  In
    exact mode, which draws nothing from the generator, Delta is drawn first
    and all three points go through one ``evaluate`` call.  In shot mode the
    record point's shots precede Delta in the stream, so it is evaluated
    alone and the pair in a second call.  A non-finite objective (NaN or
    +-inf) at the record point aborts the run with a diagnostic.  The final
    evaluation of the trained parameters is iteration ``max_iters``, checked
    the same way.
    ``rng`` is a Generator or anything ``np.random.default_rng`` accepts.
    """
    rng = np.random.default_rng(rng)
    shots = shots if shots is not None else ShotModel()
    # exact expectations carry no sampling noise, so the dense evaluation mode
    # (numerically identical to the exact term expansion) is used for speed
    est = None if shots.exact else Estimator(shots, rng)
    record = RunRecord()
    params = problem.initial_params(rng)
    lr = spsa.learning_rate
    c = spsa.perturbation
    sign = 1.0 if problem.direction == "max" else -1.0
    history: list[float] = []

    for k in range(spsa.max_iters + 1):
        if est is None and k < spsa.max_iters:
            delta = rademacher(rng, len(params))
            tb, *pair = problem.evaluate(np.stack((params, params + c * delta, params - c * delta)))
        else:
            tb = problem.evaluate(params, est)
        if not math.isfinite(tb.value):
            record.aborted = True
            record.abort_reason = f"non-finite objective ({tb.value}) at iteration {k}"
            break
        err = abs(tb.value - oracle) if oracle is not None else math.nan
        if k == spsa.max_iters:
            record.final_objective, record.final_penalty, record.final_error = tb.value, tb.penalty, err
            break
        if k > 0 and k % CHECK_EVERY == 0:
            lr = lr_step(schedule, history, problem.direction, lr, k)
        record.rows.append(IterationRow(k, tb.value, tb.penalty, err, lr))
        history.append(tb.value)
        if est is not None:
            delta = rademacher(rng, len(params))
            pair = problem.evaluate(np.stack((params + c * delta, params - c * delta)), est)
        grad = spsa_gradient(pair[0].value, pair[1].value, delta, c)
        if spsa.normalize:
            grad = normalize_gradient(grad)
        params = params + sign * lr * grad
        problem.clamp(params)

    record.final_params = params
    return record


def parameter_shift_gradient(problem: PenaltyObjective, params: np.ndarray, k: int) -> float:
    """Exact partial derivative of the exact-mode objective.

    Circuit angles use the +-pi/2 shift rule at the level of the realized
    state; because every penalty objective is a polynomial of degree at most
    two in each state, replacing the state by (base +- shift-difference/2)
    and halving the spread recovers the inner product with the exact state
    derivative.  Scalar coordinates use a unit-scale central difference,
    exact for the same degree-two reason.
    """
    params = np.asarray(params, dtype=float)
    for i, block in enumerate(problem.blocks):
        s = problem.block_slice(block.name)
        if s.start <= k < s.stop:
            break
    else:
        raise IndexError(f"parameter index {k} out of range")
    scalars = problem.scalars(params)
    dense_states = [st.dense for st in problem.realize_states(params)]
    if block.kind == "angle":
        # the angle blocks come first, one per template in template order
        template = problem.state_templates[i]
        local_plus = params[s].copy()
        local_minus = params[s].copy()
        local_plus[k - s.start] += np.pi / 2
        local_minus[k - s.start] -= np.pi / 2
        delta = (prepare(template, local_plus).dense - prepare(template, local_minus).dense) / 2.0
        up = list(dense_states)
        down = list(dense_states)
        up[i] = dense_states[i] + delta
        down[i] = dense_states[i] - delta
        return (problem.dense_value(up, scalars) - problem.dense_value(down, scalars)) / 2.0
    h = 0.5
    plus = params.copy()
    minus = params.copy()
    plus[k] += h
    minus[k] -= h
    return (
        problem.dense_value(dense_states, problem.scalars(plus))
        - problem.dense_value(dense_states, problem.scalars(minus))
    ) / (2.0 * h)


def parameter_shift_gradient_vector(problem: PenaltyObjective, params: np.ndarray) -> np.ndarray:
    return np.array([parameter_shift_gradient(problem, params, k) for k in range(problem.n_params)])


def aggregate_runs(records: Sequence[RunRecord]) -> list[tuple[int, float, float, float]]:
    """Per-iteration (iteration, median, q1, q3) across runs, over the common
    iteration range."""
    if not records:
        raise ValueError("no records to aggregate")
    n = min(len(r.rows) for r in records)
    out = []
    for i in range(n):
        vals = np.array([r.rows[i].objective for r in records])
        q1, med, q3 = np.percentile(vals, [25.0, 50.0, 75.0])
        out.append((records[0].rows[i].iteration, float(med), float(q1), float(q3)))
    return out
