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


# A run's trace at one iteration: the columns of run_<k>.csv after ``iter``.
ROW = np.dtype([("objective", float), ("penalty", float), ("error", float), ("lr", float)])


@dataclass
class RunRecord:
    """One run's outcome.  ``rows`` is its trace: one ``ROW`` per recorded
    iteration, element k iteration k, up to an abort."""

    rows: np.ndarray = field(default_factory=lambda: np.empty(0, ROW))
    final_objective: float = math.nan
    final_penalty: float = math.nan
    final_error: float = math.nan
    final_params: np.ndarray | None = None
    aborted: bool = False
    abort_reason: str = ""


def rademacher(rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
    """Independent +-1 entries: one direction of ``size`` entries, or an
    array of shape ``size`` whose rows are the directions of as many calls."""
    return rng.integers(0, 2, size=size) * 2.0 - 1.0


def spsa_gradient(f_plus, f_minus, delta: np.ndarray, c_pert: float) -> np.ndarray:
    """Single-direction simultaneous-perturbation gradient estimate.

    From f_plus = f(theta + c Delta) and f_minus = f(theta - c Delta) with a
    Rademacher Delta, returns [f_plus - f_minus] / (2 c Delta_k) per
    component (1 / Delta_k = Delta_k).  With one value per row and one Delta
    per row, each row is the estimate of that row.
    """
    return np.asarray((f_plus - f_minus) / (2.0 * c_pert))[..., None] * delta


def normalize_gradient(g: np.ndarray) -> np.ndarray:
    """g / |g| for a vector or for each row of a stack, and zero where the
    norm is below 1e-15.  The norm of each row is sqrt(g . g) with the dot
    product ``np.linalg.norm`` takes of one vector, so every row is bit for
    bit that of its own call (an ``axis=`` reduction rounds differently)."""
    g = np.asarray(g, dtype=float)
    norm = np.sqrt(g[..., None, :] @ g[..., :, None])[..., 0]
    return np.divide(g, norm, out=np.zeros_like(g), where=~(norm < 1e-15))


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
                     seeds: Sequence, shots: ShotModel | None = None,
                     oracle: float | None = None) -> list[RunRecord]:
    """Train the objective once from each of ``seeds``, all runs in lockstep,
    and return one record per run, with one ``ROW`` per iteration.

    Run k draws its initial parameters, its SPSA directions and, in shot
    mode, its shots from one generator seeded by ``seeds[k]`` (a Generator
    or anything ``np.random.default_rng`` accepts).  The live runs'
    parameters, learning rates, directions and gradients are arrays with
    one row per run: each iteration evaluates every run's record point and
    its SPSA pair theta +- c Delta, then steps the whole stack (ascent for
    maximization problems) and clamps its sign-constrained scalars at zero.
    Every row is bit for bit the run trained alone.

    In exact mode, which draws nothing else from the generators, each run
    draws its Deltas for the next ``CHECK_EVERY`` iterations in one call,
    the same stream as one draw per iteration, and the three points of
    every run go through one ``evaluate`` call.  In shot mode a run's
    record point draws its shots before its Delta, so no draw can be
    brought forward: the record points of all runs share one call, then
    each run draws its Delta, and the pairs share a second call; each row
    draws from its own run's Estimator, so every run consumes its stream in
    the order of a run trained alone.  A non-finite objective (NaN or
    +-inf) at a run's record point aborts that run with a diagnostic and
    keeps that point as its final parameters; it leaves the stack and the
    other runs go on unchanged.  The final evaluation of the trained
    parameters is iteration ``max_iters``, checked the same way.
    """
    shots = shots if shots is not None else ShotModel()
    records = [RunRecord() for _ in seeds]
    if not records:
        return records
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # exact expectations carry no sampling noise, so the dense form
    # (numerically identical to the exact term expansion) serves
    ests = None if shots.exact else [Estimator(shots, rng) for rng in rngs]
    start = np.array([problem.initial_params(rng) for rng in rngs])
    n = start.shape[1]
    # each run's record point theta, then its SPSA pair theta +- c Delta
    points = np.empty((len(rngs), 3, n))
    points[:, 0] = start
    params = points[:, 0]
    c, iters = spsa.perturbation, spsa.max_iters
    sign = 1.0 if problem.direction == "max" else -1.0
    lr = np.full(len(rngs), spsa.learning_rate)
    live = np.arange(len(rngs))  # the run of each row of the stack
    ends = np.full(len(rngs), iters)  # each run's number of rows
    # the rows of every run, one column per iteration, and a view per field
    table = np.empty((len(rngs), iters), ROW)
    objective, penalty, error, lrs = (table[name] for name in ROW.names)

    for k in range(iters + 1):
        if shots.exact and k < iters:
            if k % CHECK_EVERY == 0:
                size = (min(CHECK_EVERY, iters - k), n)
                deltas = np.stack([rademacher(rngs[i], size) for i in live])
            delta = deltas[:, k % CHECK_EVERY]
            step = c * delta
            np.add(params, step, out=points[:, 1])
            np.subtract(params, step, out=points[:, 2])
            values, penalties = problem.evaluate(points.reshape(-1, n))
            values, penalties, plus, minus = values[::3], penalties[::3], values[1::3], values[2::3]
        else:
            values, penalties = problem.evaluate(params, None if shots.exact else [ests[i] for i in live])
        bad = ~np.isfinite(values)
        if bad.any():
            for j in np.flatnonzero(bad):
                rec = records[live[j]]
                rec.aborted = True
                rec.abort_reason = f"non-finite objective ({float(values[j])}) at iteration {k}"
                rec.final_params = params[j].copy()
                ends[live[j]] = k
            keep = ~bad
            live, points, lr, values, penalties = live[keep], points[keep], lr[keep], values[keep], penalties[keep]
            params = points[:, 0]
            if shots.exact and k < iters:
                deltas, delta, plus, minus = deltas[keep], delta[keep], plus[keep], minus[keep]
            if not len(live):
                break
        err = np.abs(values - (math.nan if oracle is None else oracle))
        if k == iters:
            for j, i in enumerate(live):
                rec = records[i]
                rec.final_objective, rec.final_penalty, rec.final_error = map(float, (values[j], penalties[j], err[j]))
            break
        if k > 0 and k % CHECK_EVERY == 0:
            for j, i in enumerate(live):
                lr[j] = lr_step(schedule, objective[i, :k], problem.direction, float(lr[j]), k)
        objective[live, k], penalty[live, k], error[live, k], lrs[live, k] = values, penalties, err, lr
        if not shots.exact:
            delta = np.stack([rademacher(rngs[i], n) for i in live])
            step = c * delta
            np.add(params, step, out=points[:, 1])
            np.subtract(params, step, out=points[:, 2])
            pair, _ = problem.evaluate(points[:, 1:].reshape(-1, n), [ests[i] for i in live for _ in (0, 1)])
            plus, minus = pair[::2], pair[1::2]
        grad = spsa_gradient(plus, minus, delta, c)
        if spsa.normalize:
            grad = normalize_gradient(grad)
        np.add(params, (sign * lr)[:, None] * grad, out=params)
        problem.clamp(params)

    for j, i in enumerate(live):
        records[i].final_params = params[j].copy()
    for i, rec in enumerate(records):
        rec.rows = table[i, :ends[i]].copy()
    return records


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
    """Per-iteration (iteration, median, q1, q3) of the runs' ``objective``
    columns, over the iterations every run recorded."""
    if not records:
        raise ValueError("no records to aggregate")
    n = min(len(r.rows) for r in records)
    q1, med, q3 = np.percentile([r.rows["objective"][:n] for r in records], [25.0, 50.0, 75.0], axis=0)
    return list(zip(range(n), med.tolist(), q1.tolist(), q3.tolist()))
