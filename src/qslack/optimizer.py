"""SPSA training loop, learning-rate schedules, and analytic gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .estimate import Estimator, ShotModel
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
# The bidirectional regression scheme's rate multiplier on a favorable slope.
GROWTH = 1.1


@dataclass(frozen=True)
class LrSchedule:
    """fixed, halve_every (period N), or the regression schemes that fit a
    line to the recent objective history every ``CHECK_EVERY`` iterations and
    halve on an adverse slope; the bidirectional variant also multiplies by
    ``GROWTH`` on a favorable slope.  A slope of exactly zero counts as
    favorable.  A halving stops at ``min_lr`` and never raises the rate."""

    kind: str = "fixed"
    period: int = 1000
    window: int = 500
    min_lr: float = 1e-3

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "halve_every", "regression_window", "regression_window_bidir"):
            raise ValueError(f"unknown schedule kind {self.kind}")
        if self.min_lr <= 0:
            raise ValueError("min_lr must be positive")
        if self.window < 2:
            raise ValueError("regression window must be >= 2")
        if self.kind == "halve_every" and (self.period <= 0 or self.period % CHECK_EVERY != 0):
            raise ValueError("halving period must be a positive multiple of the check period")


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
    halved = min(current_lr, max(current_lr / 2.0, schedule.min_lr))
    if schedule.kind == "fixed":
        return current_lr
    if schedule.kind == "halve_every":
        return halved if iteration % schedule.period == 0 else current_lr
    if len(history) < schedule.window:
        return current_lr
    y = np.asarray(history[-schedule.window:], dtype=float)
    x = np.arange(schedule.window, dtype=float)
    slope = float(np.polyfit(x, y, 1)[0])
    if abs(slope) < 1e-12:
        slope = 0.0
    adverse = slope < 0 if direction == "max" else slope > 0
    if adverse:
        return halved
    if schedule.kind == "regression_window_bidir":
        return current_lr * GROWTH
    return current_lr


def run_optimization(problem: PenaltyObjective, spsa: SpsaConfig, schedule: LrSchedule,
                     seeds: Sequence, shots: ShotModel | None = None,
                     oracle: float | None = None) -> list[RunRecord]:
    """Train the objective once from each of ``seeds``, all runs in lockstep,
    and return one record per run, with one ``ROW`` per iteration.

    Run k draws its initial parameters and its SPSA directions from one
    generator seeded by ``seeds[k]`` (a Generator or anything
    ``np.random.default_rng`` accepts), and in shot mode its shots from
    the first child that generator spawns, so the exact-mode and shot-mode
    runs of one seed share their initial parameters and every Delta.  The
    live runs' parameters, learning rates, directions and gradients are
    arrays with one row per run.  Each run draws its Deltas for the next
    ``CHECK_EVERY`` iterations in one call, the same stream as one draw per
    iteration; each iteration then evaluates every run's record point theta
    and its SPSA pair theta +- c Delta in one ``evaluate`` call, with each
    row drawing its shots from its own run's Estimator, and steps the whole
    stack (ascent for maximization problems) and clamps its
    sign-constrained scalars at zero.  Every row is bit for bit the run
    trained alone.  A non-finite objective (NaN or +-inf) at a run's record
    point aborts that run with a diagnostic and keeps that point as its
    final parameters; it leaves the stack and the other runs go on
    unchanged.  The final evaluation of the trained parameters is
    iteration ``max_iters``, checked the same way.
    """
    shots = shots if shots is not None else ShotModel()
    records = [RunRecord() for _ in seeds]
    if not records:
        return records
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # exact expectations carry no sampling noise, so the dense form
    # (numerically identical to the exact term expansion) serves; a run's
    # shots come from the first child its generator spawns
    ests = None if shots.exact else [Estimator(shots, rng.spawn(1)[0]) for rng in rngs]
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
        if k < iters:
            if k % CHECK_EVERY == 0:
                size = (min(CHECK_EVERY, iters - k), n)
                deltas = np.stack([rademacher(rngs[i], size) for i in live])
            step = c * deltas[:, k % CHECK_EVERY]
            np.add(params, step, out=points[:, 1])
            np.subtract(params, step, out=points[:, 2])
        rows = params if k == iters else points.reshape(-1, n)
        m = len(rows) // len(live)  # rows per run: 3, or 1 at the final evaluation
        est = None if ests is None else [ests[i] for i in live for _ in range(m)]
        f, pen = (np.reshape(a, (len(live), m)) for a in problem.evaluate(rows, est))
        bad = ~np.isfinite(f[:, 0])
        if bad.any():
            for j in np.flatnonzero(bad):
                rec = records[live[j]]
                rec.aborted = True
                rec.abort_reason = f"non-finite objective ({float(f[j, 0])}) at iteration {k}"
                rec.final_params = params[j].copy()
                ends[live[j]] = k
            keep = ~bad
            live, points, lr, f, pen = live[keep], points[keep], lr[keep], f[keep], pen[keep]
            params = points[:, 0]
            if k < iters:
                deltas = deltas[keep]
            if not len(live):
                break
        values, penalties = f[:, 0], pen[:, 0]
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
        grad = spsa_gradient(f[:, 1], f[:, 2], deltas[:, k % CHECK_EVERY], c)
        if spsa.normalize:
            grad = normalize_gradient(grad)
        np.add(params, (sign * lr)[:, None] * grad, out=params)
        problem.clamp(params)

    for j, i in enumerate(live):
        records[i].final_params = params[j].copy()
    for i, rec in enumerate(records):
        rec.rows = table[i, :ends[i]].copy()
    return records


# Each coordinate's exact derivative as sum_j w_j D(s_j), from the
# differences D(s) = [f(theta + s) - f(theta - s)] / 2 of shifted points.
# Every penalty objective has degree at most two in each state, and a state
# depends on one circuit angle only through its cosine and sine, so along an
# angle the objective is a trigonometric polynomial of degree two: the
# two-frequency shift rule (Wierichs, Izaac, Wang, Lin, Quantum 6, 677, 2022)
# gives f' = 2 D(pi/4) - (sqrt 2 - 1) D(pi/2).  Along a scalar it is a
# quadratic, so f' = D(1/2) / (1/2).
ANGLE_SHIFTS = ((np.pi / 4, 2.0), (np.pi / 2, 1.0 - math.sqrt(2.0)))
SCALAR_SHIFTS = ((0.5, 2.0),)


def parameter_shift_gradient_vector(problem: PenaltyObjective, params: np.ndarray) -> np.ndarray:
    """Exact gradient of the exact-mode objective at a parameter vector, read
    from ``problem.evaluate`` one coordinate at a time: each call takes that
    coordinate's shifted points, at most four rows."""
    params = np.asarray(params, dtype=float)
    grad = np.empty(problem.n_params)
    for block in problem.blocks:
        shifts, weights = np.transpose(ANGLE_SHIFTS if block.kind == "angle" else SCALAR_SHIFTS)
        s = problem.block_slice(block.name)
        for k in range(s.start, s.stop):
            rows = np.tile(params, (2 * len(shifts), 1))
            rows[:, k] += np.concatenate([shifts, -shifts])
            plus, minus = np.split(problem.evaluate(rows).value, 2)
            grad[k] = weights @ (plus - minus) / 2.0
    return grad


def aggregate_runs(records: Sequence[RunRecord]) -> list[tuple[int, float, float, float]]:
    """Per-iteration (iteration, median, q1, q3) of the runs' ``objective``
    columns, over the iterations every run recorded."""
    if not records:
        raise ValueError("no records to aggregate")
    n = min(len(r.rows) for r in records)
    q1, med, q3 = np.percentile([r.rows["objective"][:n] for r in records], [25.0, 50.0, 75.0], axis=0)
    return list(zip(range(n), med.tolist(), q1.tolist(), q3.tolist()))
