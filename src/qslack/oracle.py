"""Ground-truth values for the example problems, computed without any of the
penalty machinery."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import linalg
from .pauli import Expansion


@dataclass(frozen=True)
class OracleResult:
    """``residual`` is the distance between two independent computations of
    the value, 0.0 where there is one."""

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


# The multiplier searches handle at most this many scalar constraints.
MAX_CONSTRAINTS = 3


def _maximize_concave_box(g, lead: np.ndarray, dim: int, y_max: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Nested ternary search over [0, y_max]^dim for jointly concave g, in lanes.

    Each row of ``lead`` is a lane: fixed values of the leading coordinates,
    followed by the ``dim`` searched ones.  ``g`` maps a (k, ell) array of
    points to their k values.  Returns the maximizing points of the lanes and
    their values.  The partial maximum over the trailing coordinates is
    concave in the first searched one, so each level is a one-dimensional
    ternary search; a step of it evaluates both probes of every unfinished
    lane in one call of the level below, and each lane stops on its own
    width."""

    def best(lanes: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = np.column_stack((lead[lanes], x))
        if dim == 1:
            return pts, g(pts)
        return _maximize_concave_box(g, pts, dim - 1, y_max, tol)

    lo = np.zeros(len(lead))
    hi = np.full(len(lead), y_max)
    active = np.flatnonzero(hi - lo > tol)
    while active.size:
        third = (hi[active] - lo[active]) / 3.0
        m1 = lo[active] + third
        m2 = hi[active] - third
        _, v = best(np.concatenate((active, active)), np.concatenate((m1, m2)))
        up = v[:active.size] <= v[active.size:]
        lo[active[up]] = m1[up]
        hi[active[~up]] = m2[~up]
        active = active[hi[active] - lo[active] > tol]
    return best(np.arange(len(lead)), (lo + hi) / 2.0)


def _grid_then_refine(g, dim: int, y_max: float, coarse: int, tol: float) -> tuple[np.ndarray, float]:
    """The maximizer of g over [0, y_max]^dim, dim >= 1: the first point of a
    coarse grid, in C order, that beats the origin and every earlier point,
    unless the nested ternary search finds a higher value.  The grid is
    evaluated one value of its leading coordinate at a time."""
    best_y = np.zeros(dim)
    best_v = g(best_y[None])[0]
    axes = np.meshgrid(*[np.linspace(0.0, y_max, coarse)] * dim, indexing="ij")
    pts = np.stack([m.ravel() for m in axes], axis=1)
    for chunk in pts.reshape(coarse if dim > 1 else 1, -1, dim):
        v = g(chunk)
        j = int(np.argmax(v))
        if v[j] > best_v:
            best_v, best_y = v[j], chunk[j]
    y_t, v_t = _maximize_concave_box(g, np.zeros((1, 0)), dim, y_max, tol)
    if v_t[0] > best_v:
        return y_t[0], v_t[0]
    return best_y, best_v


def _search_settings(ell: int) -> tuple[int, float]:
    """The grid points per axis and the ternary search's tolerance."""
    if ell > MAX_CONSTRAINTS:
        raise ValueError(f"only up to {MAX_CONSTRAINTS} scalar constraints are supported")
    return (41, 1e-7) if ell <= 2 else (11, 1e-4)


def _row_dots(y: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b . y for each row y, by ``np.dot`` as for a single point: a matrix
    product rounds differently on some BLAS builds, and the oracle values
    must not depend on how the points are stacked."""
    return np.array([np.dot(b, row) for row in y])


def sdp_cham_value(h: Expansion, a_list: list[Expansion], b,
                   y_max: float = 10.0) -> OracleResult:
    """Optimal value of the constrained Hamiltonian problem via its
    multiplier form: max over y >= 0 of sum_i b_i y_i + lambda_min(H - sum_i y_i A_i),
    which matches the primal optimum under strong duality.  The search
    covers [0, y_max]^ell; a maximizer within the search tolerance of y_max
    in any coordinate raises ValueError, since the optimum may lie beyond."""
    ell = len(a_list)
    coarse, tol = _search_settings(ell)
    b = np.asarray(b, dtype=float)
    h_dense = h.dense()
    a_dense = [a.dense() for a in a_list]
    if ell == 0:
        val = float(np.linalg.eigvalsh(h_dense)[0])
        return OracleResult(val, "min-eigenvalue")

    def g(y: np.ndarray) -> np.ndarray:
        m = h_dense - sum(y[:, i, None, None] * a for i, a in enumerate(a_dense))
        return _row_dots(y, b) + np.linalg.eigvalsh(m)[:, 0]

    y_star, val = _grid_then_refine(g, ell, y_max, coarse, tol)
    if np.any(y_max - y_star <= tol):
        raise ValueError(f"the multiplier search stopped at the edge of its box [0, {y_max}]: "
                         f"y = {y_star.tolist()}, so the optimum may lie beyond it")
    return OracleResult(float(val), "eigenvalue-dual-search")


def lp_classical_cham_value(h: Expansion, a_list: list[Expansion], b,
                            y_max: float = 10.0) -> OracleResult:
    """Classical analogue, by vertex enumeration of the primal polytope.

    The residual is the distance to the multiplier form, max over y >= 0 of
    sum_i b_i y_i + min_j (h - sum_i y_i a_i)_j, found by a ternary search;
    it cross-checks the vertex value."""
    ell = len(a_list)
    coarse, tol = _search_settings(ell)
    b = np.asarray(b, dtype=float)
    h_vec = h.dense()
    a_vecs = [a.dense() for a in a_list]
    if ell == 0:
        return OracleResult(float(np.min(h_vec)), "min-entry")

    def g(y: np.ndarray) -> np.ndarray:
        v = h_vec - sum(y[:, i, None] * a for i, a in enumerate(a_vecs))
        return _row_dots(y, b) + np.min(v, axis=1)

    _, val = _grid_then_refine(g, ell, y_max, coarse, tol)
    vertex = lp_vertex_value(h_vec, np.array(a_vecs), b)
    return OracleResult(vertex, "lp-vertex", float(abs(val - vertex)))


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
