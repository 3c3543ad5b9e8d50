"""SPSA training loop, learning-rate schedules, and analytic gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .estimate import Estimator, ShotModel, prepare
from .objective import PenaltyObjective, TermBreakdown


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


class _Run:
    """One run of the lockstep loop: its generator, Estimator, parameters,
    learning rate, objective history and record."""

    def __init__(self, problem: PenaltyObjective, seed, shots: ShotModel, lr: float):
        self.rng = np.random.default_rng(seed)
        # exact expectations carry no sampling noise, so the dense form
        # (numerically identical to the exact term expansion) serves
        self.est = None if shots.exact else Estimator(shots, self.rng)
        self.record = RunRecord()
        self.params = problem.initial_params(self.rng)
        self.lr = lr
        self.history: list[float] = []
        self.delta: np.ndarray | None = None
        self.pair: list[TermBreakdown] = []

    def draw_delta(self) -> None:
        self.delta = rademacher(self.rng, len(self.params))


def run_optimization(problem: PenaltyObjective, spsa: SpsaConfig, schedule: LrSchedule,
                     seeds: Sequence, shots: ShotModel | None = None,
                     oracle: float | None = None) -> list[RunRecord]:
    """Train the objective once from each of ``seeds``, all runs in lockstep,
    and return one record per run, with one row per iteration.

    Run k draws its initial parameters, its SPSA directions and, in shot
    mode, its shots from one generator seeded by ``seeds[k]`` (a Generator
    or anything ``np.random.default_rng`` accepts).  Each iteration evaluates
    every live run's record point and its SPSA pair theta +- c Delta, then
    takes each run's step (ascent for maximization problems);
    sign-constrained scalars are clamped at zero afterwards.  In exact mode,
    which draws nothing from the generators, each run's Delta is drawn
    first and the three points of every run go through one ``evaluate``
    call.  In shot mode a run's record point draws its shots before Delta,
    so the record points of all runs share one call, then each run draws
    its Delta, and the pairs share a second call; each row draws from its
    own run's Estimator, so every run consumes its stream in the order of a
    run trained alone.  A non-finite objective (NaN or +-inf) at a run's
    record point aborts that run with a diagnostic; it leaves the stack and
    the other runs go on unchanged.  The final evaluation of the trained
    parameters is iteration ``max_iters``, checked the same way.
    """
    shots = shots if shots is not None else ShotModel()
    runs = [_Run(problem, seed, shots, spsa.learning_rate) for seed in seeds]
    c = spsa.perturbation
    sign = 1.0 if problem.direction == "max" else -1.0
    live = runs

    for k in range(spsa.max_iters + 1):
        final = k == spsa.max_iters
        if shots.exact and not final:
            for run in live:
                run.draw_delta()
            points = problem.evaluate(np.concatenate(
                [(run.params, run.params + c * run.delta, run.params - c * run.delta) for run in live]))
            at_records = points[::3]
        else:
            at_records = problem.evaluate(np.stack([run.params for run in live]),
                                          None if shots.exact else [run.est for run in live])
        stepping = []
        for j, (run, tb) in enumerate(zip(live, at_records)):
            rec = run.record
            if not math.isfinite(tb.value):
                rec.aborted = True
                rec.abort_reason = f"non-finite objective ({tb.value}) at iteration {k}"
                continue
            err = abs(tb.value - oracle) if oracle is not None else math.nan
            if final:
                rec.final_objective, rec.final_penalty, rec.final_error = tb.value, tb.penalty, err
                continue
            if k > 0 and k % CHECK_EVERY == 0:
                run.lr = lr_step(schedule, run.history, problem.direction, run.lr, k)
            rec.rows.append(IterationRow(k, tb.value, tb.penalty, err, run.lr))
            run.history.append(tb.value)
            if shots.exact:
                run.pair = points[3 * j + 1:3 * j + 3]
            stepping.append(run)
        live = stepping
        if not live:
            break
        if not shots.exact:
            for run in live:
                run.draw_delta()
            pairs = problem.evaluate(np.concatenate([(run.params + c * run.delta, run.params - c * run.delta)
                                                     for run in live]),
                                     [run.est for run in live for _ in (0, 1)])
            for j, run in enumerate(live):
                run.pair = pairs[2 * j:2 * j + 2]
        for run in live:
            grad = spsa_gradient(run.pair[0].value, run.pair[1].value, run.delta, c)
            if spsa.normalize:
                grad = normalize_gradient(grad)
            run.params = run.params + sign * run.lr * grad
            problem.clamp(run.params)

    for run in runs:
        run.record.final_params = run.params
    return [run.record for run in runs]


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
    vals = np.array([[row.objective for row in r.rows[:n]] for r in records])
    q1, med, q3 = np.percentile(vals, [25.0, 50.0, 75.0], axis=0)
    return list(zip([row.iteration for row in records[0].rows[:n]], med.tolist(), q1.tolist(), q3.tolist()))
