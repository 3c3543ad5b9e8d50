"""Variational penalty-method bounds for small semi-definite and linear programs."""

from .ansatz import Prepared
from .estimate import Estimate, Estimator, ShotModel, hoeffding_shots
from .objective import PenaltyObjective, TermBreakdown
from .optimizer import LrSchedule, RunRecord, SpsaConfig, run_optimization
from .oracle import OracleResult
from .problems import PROBLEM_TAGS, Problem, build_problem

__all__ = [
    "Estimate", "Estimator", "Prepared", "ShotModel", "hoeffding_shots",
    "PenaltyObjective", "TermBreakdown",
    "LrSchedule", "RunRecord", "SpsaConfig", "run_optimization",
    "OracleResult", "PROBLEM_TAGS", "Problem", "build_problem",
]

__version__ = "0.1.0"
