"""Ground-truth values for the example problems, computed without any of the
penalty machinery."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import linalg
from .pauli import PauliObservable, WalshObservable


@dataclass(frozen=True)
class OracleResult:
    value: float
    method: str
    residual: float = 0.0


def exact_trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    return 0.5 * linalg.trace_norm(np.asarray(rho) - np.asarray(sigma))


def exact_root_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr[sqrt(sqrt(rho) sigma sqrt(rho))]."""
    s = linalg.mat_sqrt_psd(rho)
    inner = linalg.hermitianize(s @ np.asarray(sigma, dtype=complex) @ s)
    return float(np.trace(linalg.mat_sqrt_psd(inner)).real)


def exact_negativity(rho_ab: np.ndarray, dim_a: int, dim_b: int) -> float:
    return linalg.trace_norm(linalg.partial_transpose_b(rho_ab, dim_a, dim_b))


def exact_tvd(p: np.ndarray, q: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distribution length mismatch")
    return 0.5 * float(np.sum(np.abs(p - q)))


def _maximize_concave_1d(g, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Ternary search for the maximum of a concave function on [lo, hi]."""
    while hi - lo > tol:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if g(m1) <= g(m2):
            lo = m1
        else:
            hi = m2
    x = (lo + hi) / 2.0
    return x, g(x)


def _maximize_concave_box(g, dim: int, y_max: float, tol: float) -> tuple[np.ndarray, float]:
    """Nested ternary search over [0, y_max]^dim for jointly concave g.

    The partial maximum over the trailing coordinates is itself concave in
    the leading one, so each level is a valid one-dimensional concave
    maximization."""
    if dim == 0:
        return np.array([]), g(np.array([]))
    if dim == 1:
        x, v = _maximize_concave_1d(lambda y: g(np.array([y])), 0.0, y_max, tol)
        return np.array([x]), v

    def tail_max(y0: float) -> float:
        _, v = _maximize_concave_box(lambda rest: g(np.concatenate(([y0], rest))), dim - 1, y_max, tol)
        return v

    x0, _ = _maximize_concave_1d(tail_max, 0.0, y_max, tol)
    rest, v = _maximize_concave_box(lambda r: g(np.concatenate(([x0], r))), dim - 1, y_max, tol)
    return np.concatenate(([x0], rest)), v


def _grid_then_refine(g, dim: int, y_max: float, coarse: int, tol: float) -> tuple[np.ndarray, float]:
    axes = [np.linspace(0.0, y_max, coarse)] * dim
    best_y = np.zeros(dim)
    best_v = g(best_y)
    if dim > 0:
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        for y in pts:
            v = g(y)
            if v > best_v:
                best_v, best_y = v, y.copy()
    y_t, v_t = _maximize_concave_box(g, dim, y_max, tol)
    if v_t > best_v:
        return y_t, v_t
    return best_y, best_v


def sdp_cham_value(h: PauliObservable, a_list: list[PauliObservable], b,
                   y_max: float = 10.0) -> OracleResult:
    """Optimal value of the constrained Hamiltonian problem via its
    multiplier form: max over y >= 0 of sum_i b_i y_i + lambda_min(H - sum_i y_i A_i),
    which matches the primal optimum under strong duality."""
    ell = len(a_list)
    if ell > 3:
        raise ValueError("only up to three scalar constraints are supported")
    b = np.asarray(b, dtype=float)
    h_dense = h.dense()
    a_dense = [a.dense() for a in a_list]
    if ell == 0:
        val = float(np.linalg.eigvalsh(h_dense)[0])
        return OracleResult(val, "min-eigenvalue", 0.0)

    def g(y: np.ndarray) -> float:
        m = h_dense - sum(yi * a for yi, a in zip(y, a_dense))
        return float(np.dot(b, y) + np.linalg.eigvalsh(m)[0])

    tol = 1e-7 if ell <= 2 else 1e-4
    y_star, val = _grid_then_refine(g, ell, y_max, coarse=41 if ell <= 2 else 11, tol=tol)
    boundary_gap = float(np.min(y_max - y_star)) if ell else y_max
    return OracleResult(val, "eigenvalue-dual-search", boundary_gap)


def lp_classical_cham_value(h: WalshObservable, a_list: list[WalshObservable], b,
                            y_max: float = 10.0) -> OracleResult:
    """Classical analogue, by vertex enumeration of the primal polytope.

    The residual is the distance to the multiplier form, max over y >= 0 of
    sum_i b_i y_i + min_j (h - sum_i y_i a_i)_j, found by a ternary search;
    it cross-checks the vertex value."""
    ell = len(a_list)
    if ell > 3:
        raise ValueError("only up to three scalar constraints are supported")
    b = np.asarray(b, dtype=float)
    h_vec = h.dense()
    a_vecs = [a.dense() for a in a_list]
    if ell == 0:
        return OracleResult(float(np.min(h_vec)), "min-entry", 0.0)

    def g(y: np.ndarray) -> float:
        v = h_vec - sum(yi * a for yi, a in zip(y, a_vecs))
        return float(np.dot(b, y) + np.min(v))

    tol = 1e-7 if ell <= 2 else 1e-4
    y_star, val = _grid_then_refine(g, ell, y_max, coarse=41 if ell <= 2 else 11, tol=tol)
    vertex = lp_vertex_value(h_vec, np.array(a_vecs), b)
    return OracleResult(vertex, "lp-vertex", abs(val - vertex))


def lp_vertex_value(h: np.ndarray, a_mat: np.ndarray, b: np.ndarray) -> float:
    """Minimum of h^T p over the probability simplex cut by a_i^T p >= b_i,
    by enumerating basic feasible points."""
    h = np.asarray(h, dtype=float)
    d = len(h)
    ell = a_mat.shape[0] if a_mat.size else 0
    best = math.inf
    for r in range(ell + 1):
        for cuts in combinations(range(ell), r):
            for support in combinations(range(d), r + 1):
                rows = [np.ones(r + 1)]
                rhs = [1.0]
                for i in cuts:
                    rows.append(a_mat[i, list(support)])
                    rhs.append(b[i])
                try:
                    sol = np.linalg.solve(np.array(rows), np.array(rhs))
                except np.linalg.LinAlgError:
                    continue
                if np.any(sol < -1e-12):
                    continue
                p = np.zeros(d)
                p[list(support)] = sol
                if ell and np.any(a_mat @ p < b - 1e-9):
                    continue
                best = min(best, float(h @ p))
    if not math.isfinite(best):
        raise ValueError("infeasible problem: no basic feasible point found")
    return best
