"""Primitive estimators: Pauli and Walsh expectations, trace overlaps, collisions.

Every estimator runs in one of two modes.  Exact mode returns the
infinite-shot value with zero standard error.  Shot mode emulates the
sampling distribution of the corresponding measurement procedure instead of
simulating it shot by shot: a +-1 observable with true mean m is drawn as
2*Binomial(N, (1+m)/2)/N - 1 and a 0/1 collision variable as
Binomial(N, m)/N, exactly, for every shot count N up to ``MAX_SHOTS``, the
largest count numpy's binomial draw takes.

The Pauli and Walsh primitives take a whole observable, an
:class:`~qslack.pauli.Expansion` sum_k a_k B_k, and estimate it as
sum_k a_k <B_k>, one independent estimate per non-zero term: one stacked
contraction gives every mean, one array draw every estimate, in label order,
so the noise stream is the one a call per term would draw.  An expansion
with no non-zero term is worth 0 and draws nothing; callers pass every
expansion through, and this is the one place that skips the zero terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .ansatz import Prepared
from .pauli import Expansion, term_stack

MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True)
class ShotModel:
    """Either {"mode": "exact"} or {"mode": "shots", "n": N}."""

    mode: str = "exact"
    n: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "shots"):
            raise ValueError(f"unknown shot mode {self.mode!r}")
        if self.mode == "exact" and self.n != 0:
            raise ValueError("shots key 'mode' must be 'shots' when 'n' is set, not 'exact'")
        if self.mode == "shots" and not 1 <= self.n <= MAX_SHOTS:
            raise ValueError(f"shots key 'n' must be a count in [1, 2**63 - 1], not {self.n!r}")

    @property
    def exact(self) -> bool:
        return self.mode == "exact"


@dataclass(frozen=True)
class Estimate:
    value: float
    std_err: float = 0.0


def prepare(template, params: np.ndarray) -> Prepared:
    """Realize an ansatz template at a parameter vector, or at every row of a
    2-D array of parameter rows in one circuit pass."""
    return template.realize(np.asarray(params, dtype=float))


def as_prepared(x) -> Prepared:
    if isinstance(x, Prepared):
        return x
    x = np.asarray(x)
    if x.ndim == 1:
        return Prepared(dist=np.asarray(x, dtype=float))
    return Prepared(rho=np.asarray(x, dtype=complex))


class Estimator:
    """Draws estimates of the primitive quantities under a ShotModel.

    A single generator drives all draws, so a seeded estimator yields a
    reproducible noise stream; independent terms consume independent draws.
    ``rng`` is a Generator or anything ``np.random.default_rng`` accepts.
    """

    def __init__(self, shots: ShotModel | None = None, rng=0):
        self.shots = shots if shots is not None else ShotModel()
        self.rng = np.random.default_rng(rng)

    # -- core emulators ----------------------------------------------------
    def _pm_one(self, mean: float) -> Estimate:
        mean = float(mean)
        if self.shots.exact:
            return Estimate(mean)
        n = self.shots.n
        p = min(1.0, max(0.0, (1.0 + mean) / 2.0))
        val = 2.0 * self.rng.binomial(n, p) / n - 1.0
        return Estimate(val, math.sqrt((1.0 - val**2) / n))

    def _pm_sum(self, coeffs: np.ndarray, means: np.ndarray) -> Estimate:
        """sum_k coeffs[k] X_k for independent +-1 estimates X_k of the
        ``means``: the vector form of ``_pm_one``, one draw per mean in
        order, and the terms added left to right."""
        if self.shots.exact:
            vals, var = means, 0.0
        else:
            n = self.shots.n
            # fmax and fmin map a NaN mean to 0, as max and min do in _pm_one
            p = np.fmin(1.0, np.fmax(0.0, (1.0 + means) / 2.0))
            vals = 2.0 * self.rng.binomial(n, p) / n - 1.0
            var = float(np.dot(coeffs * coeffs, 1.0 - vals * vals)) / n
        total = 0.0
        for term in (coeffs * vals).tolist():  # not sum(): it compensates from Python 3.12 on
            total += term
        return Estimate(total, math.sqrt(var))

    def _bernoulli(self, mean: float) -> Estimate:
        mean = float(mean)
        if self.shots.exact:
            return Estimate(mean)
        n = self.shots.n
        val = self.rng.binomial(n, min(1.0, max(0.0, mean))) / n
        return Estimate(val, math.sqrt(val * (1.0 - val) / n))

    # -- primitives --------------------------------------------------------
    def _expansion(self, obs: Expansion, means_of) -> Estimate:
        """sum_k a_k <B_k> over the non-zero terms of ``obs``, from the means
        that ``means_of`` gives for the stack of their basis elements; 0,
        with no draw, if there is none."""
        labels, coeffs = obs.labels, obs.coeffs
        if np.count_nonzero(coeffs) < len(labels):
            keep = coeffs != 0
            labels, coeffs = tuple(compress(labels, keep)), coeffs[keep]
        if not labels:
            return Estimate(0.0)
        return self._pm_sum(coeffs, means_of(term_stack(labels, obs.walsh)))

    def pauli_expect(self, state, obs: Expansion) -> Estimate:
        """Estimate of a Pauli expansion on a state."""
        rho = as_prepared(state).rho
        if rho.shape != (2**obs.n_qubits, 2**obs.n_qubits):
            raise ValueError("state dimension does not match Pauli string length")
        return self._expansion(obs, lambda basis: np.einsum("kij,ji->k", basis, rho).real)

    def overlap(self, a, b) -> Estimate:
        """Destructive-swap-test estimate of Tr[rho_a rho_b]."""
        ra, rb = as_prepared(a).rho, as_prepared(b).rho
        if ra.shape != rb.shape:
            raise ValueError(f"state shape mismatch {ra.shape} vs {rb.shape}")
        mean = float(np.einsum("ij,ji->", ra, rb).real)
        return self._pm_one(mean)

    def purity(self, a) -> Estimate:
        """Tr[rho^2]; convex-combination states use the collision test on
        their eigenvalue distribution, which carries the same mean."""
        a = as_prepared(a)
        if a.dist is not None:
            return self.collision(a.dist, a.dist)
        return self.overlap(a, a)

    def loschmidt(self, first, other) -> Estimate:
        """Trace-overlap estimate that runs one circuit against the other:
        outcome statistics are a collision between p and the distribution of
        basis measurements of the second state in the first state's frame."""
        first = as_prepared(first)
        if not first.is_cc:
            raise ValueError("loschmidt estimation needs a convex-combination first argument")
        other = as_prepared(other)
        u = first.basis
        if other.is_cc:
            r = np.abs(u.conj().T @ other.basis) ** 2
            t = r @ other.dist
        else:
            t = np.real(np.diag(u.conj().T @ other.rho @ u))
        mean = float(first.dist @ t)
        return self._bernoulli(mean)

    def collision(self, p: np.ndarray, q: np.ndarray) -> Estimate:
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        if p.shape != q.shape:
            raise ValueError(f"length mismatch {p.shape} vs {q.shape}")
        return self._bernoulli(float(p @ q))

    def walsh_expect(self, state, obs: Expansion) -> Estimate:
        """Estimate of a Walsh expansion on a distribution: each mean is one
        dot product, the one ``basis[k] @ p`` makes."""
        p = as_prepared(state).dist
        if p.shape != (2**obs.n_qubits,):
            raise ValueError("distribution length does not match Walsh vector length")
        return self._expansion(obs, lambda basis: (basis[:, None, :] @ p[:, None])[:, 0, 0])


def hoeffding_shots(epsilon: float, delta: float) -> int:
    """Smallest T with T >= ln(2/delta) / (2 epsilon^2)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    bound = math.log(2.0 / delta) / (2.0 * epsilon**2)
    return max(1, math.ceil(bound - 1e-12))
