"""Penalty objectives for the variational SDP/LP bound estimators.

Every objective exists in two forms that agree to numerical precision in
exact mode:

* a dense form (``*_dense``) that builds the constraint matrix (or vector)
  literally and takes its squared Hilbert-Schmidt (or Euclidean) norm.  The
  dense forms are written out by hand and share no code with the term forms:
  they are the independent reference the term forms are checked against, and
  the input of the analytic gradients;
* a term form (``*_objective``) in which every sampled quantity is an
  ``Estimate`` drawn from an :class:`~qslack.estimate.Estimator`, mirroring
  how it would be measured; this is the form the optimizer trains on in shot
  mode.

The penalties of the term forms are squared norms ||sum_i c_i X_i||^2, and
:func:`sq_norm` evaluates every one of them as sum_ij c_i c_j <X_i, X_j>.
(The constrained-Hamiltonian primal is the exception: its penalty squares
the estimate of each scalar constraint.)  An operand X_i is one of

* a :class:`~qslack.estimate.Prepared` state, or a distribution (no ``rho``);
* ``IDENTITY``: the identity matrix, or the all-ones vector;
* a :class:`~qslack.pauli.Expansion` sum_k a_k B_k with real coefficients
  over Pauli strings or Walsh vectors: the observable type of the package,
  which the problem instances are read into;
* a :class:`Block` P_k (x) rho: a state on diagonal block k of a leading
  qubit, or the :class:`OffDiagonal` block |0><1| (x) X^dag + |1><0| (x) X.

Each inner product, with d the dimension of the space, is

=============  ==============  ============================================
X_i            X_j             <X_i, X_j>
=============  ==============  ============================================
state          itself          ``purity`` (a collision for distributions and
                               convex-combination states)
state          other state     ``overlap``; ``collision`` for distributions
IDENTITY       IDENTITY        d
IDENTITY       state, block    1
IDENTITY       expansion A     d a_0, a_0 the coefficient of the identity
expansion A    expansion B     d sum_k a_k b_k
expansion A    state           sum_k a_k ``pauli_expect`` (or
                               ``walsh_expect``); zero coefficients skipped
block P_k rho  itself          ``purity`` of rho
block P_k rho  block P_l tau   ``overlap`` of rho and tau if k == l, else 0
block P_k rho  expansion A     0 for strings that start with X or Y; for I or
                               Z the ``pauli_expect`` of the rest on rho,
                               negated for Z on block 1
block P_k rho  state           ``overlap`` of P_k (x) rho with the state
off-diagonal   itself          d sum_x |alpha_x|^2
off-diagonal   state           as its expansion over X and Y strings,
                               sum_x Re(alpha_x) X (x) sigma_x +
                               Im(alpha_x) Y (x) sigma_x
off-diagonal   IDENTITY, block 0
off-diagonal   expansion       as its expansion over X and Y strings
=============  ==============  ============================================

Only the entries that name an Estimator primitive sample anything.
:func:`sq_norm` adds the diagonal terms first and then the pairs i < j in
row-major order, so the order of the operands fixes the order of the
Estimator calls, and with it the noise stream a shot-mode run consumes.

The paper's general form, maximize lambda Tr[A rho] subject to
lambda Phi(rho) <= B, is one :class:`SdpInstance`.  A and B are lists of
(coefficient, operand) pairs, and Phi(X) = sum_k f_k Tr[S_k X] T_k is a list
of triples (f_k, S_k, T_k); each operand is a ``Prepared`` state or a Pauli
``Expansion``.  :func:`LcsInstance` builds one from density matrices and
:func:`PauliMapInstance` from Pauli expansions and a map between strings.
The term forms estimate Tr[S_k rho] once for each k and pass the weighted
T_k to :func:`sq_norm`.

Every dense form also takes stacks: each state and each scalar argument
may carry leading axes (rows first), and the form then returns one value
and one penalty per row, each bit-identical to the call on that row alone.
The forms are written with the contractions that keep this identity: a
trace is ``einsum("...ij,...ji->...")``, a dot product or a vector-matrix
product is ``x[..., None, :] @ M`` (one BLAS call per row, as ``np.dot``
and ``np.tensordot`` make on one vector), a squared Hilbert-Schmidt norm is
such a dot of the flattened matrix with its conjugate, and a sum of squares
is ``np.sum`` over the last axis.

``PenaltyObjective`` packages a problem instance with its parameter layout:
it lays out one block of circuit angles per variational state, followed by
the scalar blocks the problem names, and passes each scalar block to both
forms under its own name.  It evaluates either form from a flat parameter
vector or from a 2-D array of parameter rows; in exact mode one call of the
dense form takes all the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import linalg
from .estimate import Estimator, Prepared, as_prepared, prepare
from .pauli import Expansion, PauliString, WalshVector, dense_string_basis, string_order

PROJ0 = np.array([[1, 0], [0, 0]], dtype=complex)
PROJ1 = np.array([[0, 0], [0, 1]], dtype=complex)


@dataclass
class TermBreakdown:
    """Objective value and the bare penalty (the quantity multiplied by c)."""

    value: float
    penalty: float


@dataclass(frozen=True)
class ParamBlock:
    """One contiguous slice of the flat parameter vector.

    ``kind`` is "angle" (the circuit parameters of one state template,
    initialized uniformly on [0, 2pi)), "scalar" (free) or "scalar_nonneg"
    (clamped at zero after every optimizer step).  Both forms of the
    objective receive a scalar block as the keyword argument ``name``, in
    the form ``passed_as`` names: a "number" (the block's one entry), a real
    "vector", or a "complex" vector whose real parts are the first half of
    the block and whose imaginary parts are the second.  ``scale``
    preconditions a scalar block: the objective consumes scale * parameter,
    so one unit of optimizer movement covers ``scale`` units of the
    quantity.  Initial values are given in quantity units.
    """

    name: str
    size: int
    kind: str
    passed_as: str = "number"
    init: tuple[float, ...] | None = None
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("angle", "scalar", "scalar_nonneg"):
            raise ValueError(f"unknown block kind {self.kind}")
        if self.passed_as not in ("number", "vector", "complex"):
            raise ValueError(f"unknown argument form {self.passed_as}")
        if self.kind != "angle":
            if self.passed_as == "number" and self.size != 1:
                raise ValueError("a number block has one entry")
            if self.passed_as == "complex" and self.size % 2:
                raise ValueError("a complex block has an even size")
            if self.init is not None and len(self.init) != self.size:
                raise ValueError("init length does not match block size")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def argument(self, values: np.ndarray):
        """The scaled ``values`` of this scalar block, as the objective receives
        them; rows of values along leading axes give one argument per row."""
        if self.passed_as == "number":
            return np.take(values, 0, axis=-1)
        if self.passed_as == "complex":
            half = self.size // 2
            return values[..., :half] + 1j * values[..., half:]
        return values


class PenaltyObjective:
    """A problem instance bound to ansatz templates, and the owner of the
    parameter layout: one angle block per template, in template order,
    followed by ``scalar_blocks``.

    ``dense`` and ``terms`` are the two forms of the objective with the
    fixed problem inputs, the penalty constant included, already bound.
    Both take the realized states (dense arrays for ``dense``, ``Prepared``
    states for ``terms``) followed by one keyword argument per scalar block;
    ``terms`` also takes the Estimator as ``est``.

    Parameters come as one flat vector or as a 2-D array with one vector per
    row.  All rows are realized together: templates that compare equal (the
    two states of a trace distance, say) share one circuit pass over their
    stacked angle rows.  ``dense`` then takes all rows in one call.
    """

    def __init__(self, direction, state_templates, scalar_blocks, dense, terms):
        if direction not in ("max", "min"):
            raise ValueError(f"unknown direction {direction}")
        self.direction = direction
        self.state_templates = list(state_templates)
        self.blocks = [ParamBlock(f"theta_{i}", t.n_params, "angle") for i, t in enumerate(self.state_templates)]
        self.blocks += scalar_blocks
        self._dense = dense
        self._terms = terms
        self._slices: dict[str, slice] = {}
        off = 0
        for b in self.blocks:
            self._slices[b.name] = slice(off, off + b.size)
            off += b.size
        self.n_params = off
        # each distinct template -> the indices of the templates equal to it
        self._passes: dict[object, list[int]] = {}
        for i, t in enumerate(self.state_templates):
            self._passes.setdefault(t, []).append(i)

    # -- parameter handling --------------------------------------------
    def block_slice(self, name: str) -> slice:
        return self._slices[name]

    def initial_params(self, rng: np.random.Generator) -> np.ndarray:
        out = np.empty(self.n_params)
        for b in self.blocks:
            s = self._slices[b.name]
            if b.kind == "angle":
                out[s] = rng.uniform(0.0, 2.0 * np.pi, b.size)
            else:
                init = np.asarray(b.init if b.init is not None else np.zeros(b.size))
                out[s] = init / b.scale
        return out

    def clamp(self, params: np.ndarray) -> np.ndarray:
        """Clamp the sign-constrained scalars of a parameter vector, or of
        every row of a stack, at zero, in place."""
        for b in self.blocks:
            if b.kind == "scalar_nonneg":
                s = params[..., self._slices[b.name]]
                np.maximum(s, 0.0, out=s)
        return params

    def scalars(self, params: np.ndarray) -> dict[str, np.ndarray]:
        """The scaled values of every scalar block, with the leading axes of ``params``."""
        return {
            b.name: np.asarray(params[..., self._slices[b.name]], dtype=float) * b.scale
            for b in self.blocks
            if b.kind != "angle"
        }

    def _arguments(self, scalars: dict[str, np.ndarray]) -> dict:
        return {b.name: b.argument(scalars[b.name]) for b in self.blocks if b.kind != "angle"}

    def _realize(self, rows: np.ndarray) -> list[Prepared]:
        """The state of every template at every row of a 2-D array: one
        stacked ``Prepared`` per template, rows first."""
        out: list = [None] * len(self.state_templates)
        m = len(rows)
        for template, members in self._passes.items():
            batch = prepare(template, np.concatenate([rows[:, self._slices[self.blocks[i].name]] for i in members]))
            for j, i in enumerate(members):
                out[i] = batch[j * m:(j + 1) * m]
        return out

    def realize_states(self, params: np.ndarray) -> list[Prepared]:
        """The state of every template at a parameter vector."""
        return [st[0] for st in self._realize(np.atleast_2d(np.asarray(params, dtype=float)))]

    # -- evaluation -----------------------------------------------------
    def evaluate(self, params: np.ndarray, estimator: Estimator | list[Estimator] | None = None
                 ) -> TermBreakdown | tuple[np.ndarray, np.ndarray]:
        """The objective at a parameter vector, or, for the rows of a 2-D
        array, the values and the penalties as two arrays, one entry per row.
        Without an ``estimator`` one call of the dense form takes every row:
        the states of each template stacked, and each scalar block with the
        row axis first.  Otherwise ``estimator`` is one Estimator for every
        row or a list of one per row, and the rows are evaluated in order, so
        each Estimator draws the same stream as one call per row."""
        params = np.asarray(params, dtype=float)
        rows = np.atleast_2d(params)
        stacked = self._realize(rows)
        if estimator is None:
            states = [st.dense if params.ndim == 2 else st.dense[0] for st in stacked]
            value, penalty = self._dense(*states, **self._arguments(self.scalars(params)))
            if params.ndim == 1:
                return TermBreakdown(float(value), float(penalty))
            return np.asarray(value, dtype=float), np.asarray(penalty, dtype=float)
        estimators = estimator if isinstance(estimator, list) else [estimator] * len(rows)
        out = [self._terms(*[st[r] for st in stacked], **self._arguments(self.scalars(row)), est=est)
               for r, (row, est) in enumerate(zip(rows, estimators))]
        if params.ndim == 1:
            return out[0]
        return np.array([tb.value for tb in out], dtype=float), np.array([tb.penalty for tb in out], dtype=float)

    def dense_value(self, dense_states: list[np.ndarray], scalars: dict[str, np.ndarray]) -> float:
        return self._dense(*dense_states, **self._arguments(scalars))[0]


# ======================================================================
# The squared-norm expansion
# ======================================================================

class Identity:
    """The identity matrix, or the all-ones vector of a distribution."""


IDENTITY = Identity()


class Block(NamedTuple):
    """P_k (x) state: ``state`` placed on diagonal block ``k`` (0 or 1) of a
    leading qubit."""

    k: int
    state: Prepared


class OffDiagonal(NamedTuple):
    """|0><1| (x) X^dag + |1><0| (x) X for X = sum_x alpha_x sigma_x, with the
    complex coefficients ``alpha`` in the canonical string order.  As a Pauli
    expansion it is sum_x Re(alpha_x) X (x) sigma_x + Im(alpha_x) Y (x) sigma_x."""

    alpha: np.ndarray

    def expansion(self) -> Expansion:
        n = (len(self.alpha).bit_length() - 1) // 2
        return Expansion(n + 1, tuple((q,) + x for x in string_order(n) for q in (1, 2)),
                         np.column_stack((self.alpha.real, self.alpha.imag)).ravel())


_RANK = {Identity: 0, Expansion: 1, Block: 2, OffDiagonal: 3, Prepared: 4}
_PROJ = (PROJ0, PROJ1)


def _dim(x: Prepared) -> int:
    return x.dense.shape[0]


def _expect(a: Expansion, state: Prepared, est: Estimator) -> float:
    """sum_k a_k <B_k>, one Estimator call per non-zero coefficient."""
    pairs = zip(a.labels, a.coeffs)
    if a.walsh:
        return sum(c * est.walsh_expect(state, WalshVector(l)).value for l, c in pairs if c != 0)
    return sum(c * est.pauli_expect(state, PauliString(l)).value for l, c in pairs if c != 0)


def _self_inner(x, d: float, est: Estimator) -> float:
    t = type(x)
    if t is Prepared:
        return est.purity(x).value
    if t is Block:
        return est.purity(x.state).value
    if t is Expansion:
        return d * float(np.dot(x.coeffs, x.coeffs))
    if t is OffDiagonal:
        return d * float(np.sum(np.abs(x.alpha) ** 2))
    return d


def _inner(a, b, d: float, est: Estimator) -> float:
    """Re Tr[a^dag b] (a . b for distributions) of two distinct operands."""
    ta, tb = type(a), type(b)
    if ta is Prepared and tb is Prepared:
        if a.rho is None:
            return est.collision(a.dist, b.dist).value
        return est.overlap(a, b).value
    if _RANK[ta] > _RANK[tb]:
        a, b, ta, tb = b, a, tb, ta
    if tb is OffDiagonal:  # traceless, and zero on the diagonal blocks
        return _inner(a, b.expansion(), d, est) if ta is Expansion or ta is OffDiagonal else 0.0
    if ta is OffDiagonal:
        return _expect(a.expansion(), b, est)
    if ta is Identity:
        if tb is Identity:
            return d
        if tb is Expansion:
            return d * sum(c for l, c in zip(b.labels, b.coeffs) if not any(l))
        return 1.0
    if ta is Expansion:
        if tb is Expansion:
            other = dict(zip(b.labels, b.coeffs))
            return d * sum(c * other.get(l, 0.0) for l, c in zip(a.labels, a.coeffs))
        if tb is Prepared:
            return _expect(a, b, est)
        sign = (1.0, 0.0, 0.0, 1.0 - 2.0 * b.k)  # Tr[P_k s] for s = I, X, Y, Z
        return sum(sign[l[0]] * c * est.pauli_expect(b.state, PauliString(l[1:])).value
                   for l, c in zip(a.labels, a.coeffs) if sign[l[0]] * c != 0)
    if tb is Block:
        return est.overlap(a.state, b.state).value if a.k == b.k else 0.0
    return est.overlap(np.kron(_PROJ[a.k], a.state.rho), b).value


def sq_norm(terms: list[tuple[float, object]], d: float, est: Estimator) -> float:
    """||sum_i c_i X_i||^2 = sum_ij c_i c_j <X_i, X_j> for (c_i, X_i) pairs on
    a space of dimension d: the diagonal terms first, then the pairs i < j in
    row-major order."""
    total = 0.0
    for c, x in terms:
        total += c * c * _self_inner(x, d, est)
    for i, (ci, xi) in enumerate(terms):
        for cj, xj in terms[i + 1:]:
            total += 2.0 * ci * cj * _inner(xi, xj, d, est)
    return float(total)


# ======================================================================
# Broadcasting helpers of the dense forms
# ======================================================================

def _m(x) -> np.ndarray:
    """A number, or one per row, shaped to scale a matrix (or a stack)."""
    return np.asarray(x)[..., None, None]


def _v(x) -> np.ndarray:
    """A number, or one per row, shaped to scale a vector (or a stack)."""
    return np.asarray(x)[..., None]


def _tr(a: np.ndarray, b: np.ndarray):
    """Tr[a b] of two matrices, or of each pair of two stacks: the
    ``einsum`` of one pair, row by row."""
    return np.einsum("...ij,...ji->...", a, b)


def _dot(x, y):
    """x . y along the last axis, or of each pair of two stacks: one BLAS dot
    per row, the one ``np.dot`` makes of two vectors."""
    return (np.asarray(x)[..., None, :] @ np.asarray(y)[..., :, None])[..., 0, 0]


def _blocks(top_left, top_right, bottom_left, bottom_right) -> np.ndarray:
    """The block matrix [[top_left, top_right], [bottom_left, bottom_right]]
    of four d x d blocks, or of each row of stacks of them."""
    parts = (top_left, top_right, bottom_left, bottom_right)
    d = np.shape(top_left)[-1]
    lead = np.broadcast_shapes(*(np.shape(p)[:-2] for p in parts))
    out = np.empty(lead + (2 * d, 2 * d), dtype=complex)
    out[..., :d, :d], out[..., :d, d:] = top_left, top_right
    out[..., d:, :d], out[..., d:, d:] = bottom_left, bottom_right
    return out


# ======================================================================
# Normalized trace distance, and total variation distance
# ======================================================================

def td_dual_dense(rho, sigma, omega, tau, lam, mu, c):
    arg = _m(lam) * omega - rho + sigma - _m(mu) * tau
    pen = linalg.hs_norm_sq(arg)
    return lam + c * pen, pen


def td_dual_objective(rho, sigma, omega, tau, lam, mu, c, est: Estimator) -> TermBreakdown:
    """lambda + c * ||lambda omega - rho + sigma - mu tau||_2^2.  On
    distributions this is the total variation distance dual."""
    rho, sigma, omega, tau = map(as_prepared, (rho, sigma, omega, tau))
    pen = sq_norm([(lam, omega), (-1.0, rho), (1.0, sigma), (-mu, tau)], _dim(rho), est)
    return TermBreakdown(lam + c * pen, pen)


def td_primal_dense(rho, sigma, tau, omega, lam, mu, c):
    eye = np.eye(rho.shape[-1])
    pen = linalg.hs_norm_sq(eye - _m(lam) * tau - _m(mu) * omega)
    val = lam * _tr(tau, rho).real - lam * _tr(tau, sigma).real
    return val - c * pen, pen


def td_primal_objective(rho, sigma, tau, omega, lam, mu, c, est: Estimator) -> TermBreakdown:
    """lambda Tr[tau(rho - sigma)] - c * ||I - lambda tau - mu omega||_2^2.
    On distributions this is the total variation distance primal."""
    rho, sigma, tau, omega = map(as_prepared, (rho, sigma, tau, omega))
    d = _dim(rho)
    gain = lam * (_inner(tau, rho, d, est) - _inner(tau, sigma, d, est))
    pen = sq_norm([(1.0, IDENTITY), (-lam, tau), (-mu, omega)], d, est)
    return TermBreakdown(gain - c * pen, pen)


def tvd_dual_dense(p, q, r, s, lam, mu, c):
    arg = _v(lam) * r - p + q - _v(mu) * s
    pen = np.sum(arg**2, axis=-1)
    return lam + c * pen, pen


def tvd_primal_dense(p, q, r, s, lam, mu, c):
    ones = np.ones_like(p)
    pen = np.sum((ones - _v(lam) * r - _v(mu) * s) ** 2, axis=-1)
    return lam * (_dot(r, p) - _dot(r, q)) - c * pen, pen


# ======================================================================
# Root fidelity
# ======================================================================

def coeffs_to_matrix(coeffs: np.ndarray, n: int) -> np.ndarray:
    """sum_x c_x sigma_x over the canonical string order, for one coefficient
    vector or for each of a stack: one BLAS vector-matrix product per vector,
    the product ``np.tensordot(coeffs, basis, axes=1)`` makes."""
    coeffs = np.ascontiguousarray(coeffs)
    basis = dense_string_basis(n)
    flat = coeffs[..., None, :] @ basis.reshape(len(basis), -1)
    return flat.reshape(coeffs.shape[:-1] + basis.shape[1:])


def fidelity_primal_dense(rho, sigma, omega, alpha: np.ndarray, lam, c):
    n = int(round(math.log2(rho.shape[-1])))
    x_mat = coeffs_to_matrix(alpha, n)
    pen = linalg.hs_norm_sq(_blocks(rho, np.swapaxes(x_mat.conj(), -1, -2), x_mat, sigma) - _m(lam) * omega)
    return 2.0**n * np.asarray(alpha)[..., 0].real - c * pen, pen


def fidelity_primal_objective(rho, sigma, omega, alpha: np.ndarray, lam, c, est: Estimator) -> TermBreakdown:
    """2^n Re[alpha_0] - c * ||P0 (x) rho + P1 (x) sigma - lambda omega + offdiag||_2^2.

    ``alpha`` is the complex coefficient vector of the off-diagonal block X
    in the Pauli basis, ordered lexicographically; ``omega`` lives on n+1
    qubits with qubit 0 indexing the 2x2 block structure.
    """
    rho, sigma, omega = map(as_prepared, (rho, sigma, omega))
    alpha = np.asarray(alpha)
    d = _dim(rho)
    pen = sq_norm([(1.0, Block(0, rho)), (1.0, Block(1, sigma)), (-lam, omega), (1.0, OffDiagonal(alpha))],
                  2 * d, est)
    return TermBreakdown(d * alpha[0].real - c * pen, pen)


def fidelity_dual_dense(rho, sigma, omega, tau, xi, lam, mu, nu, c):
    eye = np.eye(rho.shape[-1])
    arg = _blocks(_m(lam) * omega, eye, eye, _m(mu) * tau) - _m(nu) * xi
    pen = linalg.hs_norm_sq(arg)
    val = 0.5 * lam * _tr(omega, rho).real + 0.5 * mu * _tr(tau, sigma).real
    return val + c * pen, pen


def fidelity_dual_objective(rho, sigma, omega, tau, xi, lam, mu, nu, c, est: Estimator) -> TermBreakdown:
    """(lambda Tr[omega rho] + mu Tr[tau sigma])/2
    + c * ||P0 (x) lambda omega + P1 (x) mu tau + X (x) I - nu xi||_2^2."""
    rho, sigma, omega, tau, xi = map(as_prepared, (rho, sigma, omega, tau, xi))
    d = _dim(rho)
    gain = 0.5 * lam * _inner(omega, rho, d, est) + 0.5 * mu * _inner(tau, sigma, d, est)
    n = int(round(math.log2(d)))
    x_eye = Expansion(n + 1, ((1,) + (0,) * n,), np.ones(1))
    pen = sq_norm([(lam, Block(0, omega)), (mu, Block(1, tau)), (1.0, x_eye), (-nu, xi)], 2 * d, est)
    return TermBreakdown(gain + c * pen, pen)


# ======================================================================
# Entanglement negativity
# ======================================================================

@lru_cache(maxsize=8)
def _pt_signs(n_a: int, n_b: int) -> np.ndarray:
    """(-1)^(number of Y labels on the B factor), lexicographic string order."""
    return np.array([
        (-1) ** sum(1 for l in labels[n_a:] if l == 2)
        for labels in string_order(n_a + n_b)
    ], dtype=float)


def negativity_primal_dense(rho_ab, sigma_ab, tau_ab, alpha: np.ndarray, lam, mu, c, n_a: int, n_b: int):
    n = n_a + n_b
    h = coeffs_to_matrix(alpha, n)
    eye = np.eye(2**n)
    pen = linalg.hs_norm_sq(eye - h - _m(lam) * sigma_ab) + linalg.hs_norm_sq(eye + h - _m(mu) * tau_ab)
    pt_h = linalg.partial_transpose_b(h, 2**n_a, 2**n_b)
    return _tr(pt_h, rho_ab).real - c * pen, pen


def negativity_primal_objective(rho_ab, sigma_ab, tau_ab, alpha: np.ndarray, lam, mu, c,
                                n_a: int, n_b: int, est: Estimator) -> TermBreakdown:
    """Tr[H^T_B rho] - c * (||I - H - lambda sigma||^2 + ||I + H - mu tau||^2)
    for H = sum_x alpha_x sigma_x; the partial transpose acts on the
    coefficients as a sign flip per Y label on B."""
    rho_ab, sigma_ab, tau_ab = map(as_prepared, (rho_ab, sigma_ab, tau_ab))
    n = n_a + n_b
    strings = string_order(n)
    d = 2.0**n
    h = Expansion(n, strings, alpha)
    gain = _expect(Expansion(n, strings, _pt_signs(n_a, n_b) * alpha), rho_ab, est)
    pen = (sq_norm([(1.0, IDENTITY), (-1.0, h), (-lam, sigma_ab)], d, est)
           + sq_norm([(1.0, IDENTITY), (1.0, h), (-mu, tau_ab)], d, est))
    return TermBreakdown(float(gain) - c * pen, pen)


def negativity_dual_dense(rho_ab, sigma_ab, tau_ab, alpha: np.ndarray, beta: np.ndarray,
                          lam, mu, c, n_a: int, n_b: int):
    n = n_a + n_b
    k_mat = coeffs_to_matrix(alpha, n)
    l_mat = coeffs_to_matrix(beta, n)
    pt = linalg.partial_transpose_b(k_mat - l_mat, 2**n_a, 2**n_b)
    pen = (
        linalg.hs_norm_sq(pt - rho_ab)
        + linalg.hs_norm_sq(k_mat - _m(lam) * sigma_ab)
        + linalg.hs_norm_sq(l_mat - _m(mu) * tau_ab)
    )
    return 2.0**n * (np.asarray(alpha)[..., 0] + np.asarray(beta)[..., 0]) + c * pen, pen


def negativity_dual_objective(rho_ab, sigma_ab, tau_ab, alpha: np.ndarray, beta: np.ndarray,
                              lam, mu, c, n_a: int, n_b: int, est: Estimator) -> TermBreakdown:
    """2^n (alpha_0 + beta_0) + c * (||(K - L)^T_B - rho||^2 + ||K - lambda sigma||^2
    + ||L - mu tau||^2) for K, L with Pauli coefficients alpha, beta."""
    rho_ab, sigma_ab, tau_ab = map(as_prepared, (rho_ab, sigma_ab, tau_ab))
    n = n_a + n_b
    strings = string_order(n)
    d = 2.0**n
    pt = Expansion(n, strings, _pt_signs(n_a, n_b) * (alpha - beta))
    pen = (sq_norm([(1.0, pt), (-1.0, rho_ab)], d, est)
           + sq_norm([(1.0, Expansion(n, strings, alpha)), (-lam, sigma_ab)], d, est)
           + sq_norm([(1.0, Expansion(n, strings, beta)), (-mu, tau_ab)], d, est))
    val = d * (alpha[0] + beta[0]) + c * pen
    return TermBreakdown(float(val), pen)


# ======================================================================
# Constrained Hamiltonian optimization: Pauli observables on states, or
# Walsh observables on distributions (the classical problem)
# ======================================================================

def cham_primal_dense(rho, h_dense, a_dense: list[np.ndarray], b: np.ndarray, z: np.ndarray, c):
    viol = _residuals([_tr(a, rho).real for a in a_dense], b, z)
    pen = np.sum(viol**2, axis=-1)
    return _tr(h_dense, rho).real + c * pen, pen


def classical_cham_primal_dense(p, h_dense, a_dense: list[np.ndarray], b: np.ndarray, z: np.ndarray, c):
    viol = _residuals([_dot(a, p) for a in a_dense], b, z)
    pen = np.sum(viol**2, axis=-1)
    return _dot(h_dense, p) + c * pen, pen


def _residuals(expectations: list, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The residuals <A_i> - b_i - z_i along the last axis, from the <A_i>
    (each a number or one per row) and the slacks z (a vector or one per row)."""
    z = np.asarray(z)
    lead = np.broadcast_shapes(z.shape[:-1], *(np.shape(e) for e in expectations))
    out = np.empty(lead + (len(expectations),))
    for i, e in enumerate(expectations):
        out[..., i] = e - b[i] - z[..., i]
    return out


def cham_primal_objective(rho, h: Expansion, a_list: list[Expansion], b: np.ndarray,
                          z: np.ndarray, c, est: Estimator) -> TermBreakdown:
    """<H> + c sum_i (<A_i> - b_i - z_i)^2 from per-string estimates."""
    rho = as_prepared(rho)
    energy = _expect(h, rho, est)
    pen = 0.0
    for a_obs, bi, zi in zip(a_list, b, z):
        pen += (_expect(a_obs, rho, est) - bi - zi) ** 2
    return TermBreakdown(energy + c * pen, pen)


def cham_dual_dense(omega, h_dense, a_dense: list[np.ndarray], b: np.ndarray,
                    y: np.ndarray, mu, nu, c):
    y = np.asarray(y)
    n_dim = h_dense.shape[0]
    arg = (h_dense - sum(_m(y[..., i]) * a for i, a in enumerate(a_dense))
           - _m(mu) * np.eye(n_dim) - _m(nu) * omega)
    pen = linalg.hs_norm_sq(arg)
    return (_dot(b, y) + mu) - c * pen, pen


def classical_cham_dual_dense(w, h_dense, a_dense: list[np.ndarray], b: np.ndarray,
                              y: np.ndarray, mu, nu, c):
    y = np.asarray(y)
    ones = np.ones_like(w)
    arg = h_dense - sum(_v(y[..., i]) * a for i, a in enumerate(a_dense)) - _v(mu) * ones - _v(nu) * w
    pen = np.sum(arg**2, axis=-1)
    return (_dot(b, y) + mu) - c * pen, pen


def cham_dual_objective(omega, h: Expansion, a_list: list[Expansion], b: np.ndarray,
                        y: np.ndarray, mu, nu, c, est: Estimator) -> TermBreakdown:
    """sum_i b_i y_i + mu - c * ||H - sum_i y_i A_i - mu I - nu omega||_2^2."""
    omega = as_prepared(omega)
    terms = ([(1.0, h)] + [(-yi, a) for yi, a in zip(y, a_list)]
             + [(-mu, IDENTITY), (-nu, omega)])
    pen = sq_norm(terms, _dim(omega), est)
    return TermBreakdown(float(np.dot(b, y) + mu) - c * pen, pen)


# ======================================================================
# Generic builders over an explicit SDP instance
# ======================================================================

@dataclass
class SdpInstance:
    """The general form: maximize lambda Tr[A rho] subject to
    lambda Phi(rho) <= B, with A = sum of c X over ``a_terms``, B likewise
    over ``b_terms``, and Phi(X) = sum_k f_k Tr[S_k X] T_k over the
    ``phi_terms`` triples (f_k, S_k, T_k); Phi^dag swaps S and T.  Every
    operand is a ``Prepared`` state or a Pauli ``Expansion``."""

    n_in: int
    n_out: int
    a_terms: list[tuple[float, object]]
    b_terms: list[tuple[float, object]]
    phi_terms: list[tuple[float, object, object]]

    def a_dense(self) -> np.ndarray:
        return _combination(self.a_terms, self.n_in)

    def b_dense(self) -> np.ndarray:
        return _combination(self.b_terms, self.n_out)

    def phi(self, x: np.ndarray) -> np.ndarray:
        return _combination([(f * _tr(_matrix(s), x), t) for f, s, t in self.phi_terms], self.n_out)

    def phi_dag(self, y: np.ndarray) -> np.ndarray:
        return _combination([(f * _tr(_matrix(t), y), s) for f, s, t in self.phi_terms], self.n_in)


def _matrix(x) -> np.ndarray:
    """The dense matrix of a ``Prepared`` state or a Pauli ``Expansion``."""
    return x.dense() if type(x) is Expansion else x.dense


def _combination(terms, n: int) -> np.ndarray:
    """sum of c X over (c, X) pairs, as a 2^n x 2^n matrix; each c is a
    number or one per row, and so is the result."""
    return sum((_m(c) * _matrix(x) for c, x in terms), np.zeros((2**n,) * 2, dtype=complex))


def LcsInstance(n_in: int, n_out: int, a_terms, b_terms, phi_terms) -> SdpInstance:
    """An instance whose operands are linear combinations of states, given
    as density matrices (or ``Prepared`` states)."""
    return SdpInstance(n_in, n_out, [(c, as_prepared(s)) for c, s in a_terms],
                       [(c, as_prepared(s)) for c, s in b_terms],
                       [(f, as_prepared(s), as_prepared(t)) for f, s, t in phi_terms])


def PauliMapInstance(a_obs: Expansion, b_obs: Expansion,
                     phi_map: dict[tuple[tuple[int, ...], tuple[int, ...]], float]) -> SdpInstance:
    """An instance over sparse Pauli expansions; ``phi_map`` maps an (input,
    output) string pair to its coefficient."""
    n_in, n_out, one = a_obs.n_qubits, b_obs.n_qubits, np.ones(1)
    return SdpInstance(n_in, n_out, [(1.0, a_obs)], [(1.0, b_obs)],
                       [(f, Expansion(n_in, (lx,), one), Expansion(n_out, (ly,), one))
                        for (lx, ly), f in phi_map.items()])


def generic_primal_dense(inst: SdpInstance, rho, sigma, lam, mu, c):
    arg = inst.b_dense() - _m(lam) * inst.phi(rho) - _m(mu) * sigma
    pen = linalg.hs_norm_sq(arg)
    return lam * _tr(inst.a_dense(), rho).real - c * pen, pen


def generic_dual_dense(inst: SdpInstance, tau, omega, kappa, nu, c):
    arg = _m(kappa) * inst.phi_dag(tau) - inst.a_dense() - _m(nu) * omega
    pen = linalg.hs_norm_sq(arg)
    return kappa * _tr(inst.b_dense(), tau).real + c * pen, pen


def generic_primal_objective(inst: SdpInstance, rho, sigma, lam, mu, c, est: Estimator) -> TermBreakdown:
    """lambda Tr[A rho] - c ||B - lambda Phi(rho) - mu sigma||_2^2."""
    rho, sigma = as_prepared(rho), as_prepared(sigma)
    d_in = 2.0**inst.n_in
    gain = sum(ca * _inner(a, rho, d_in, est) for ca, a in inst.a_terms)
    phi = [(-lam * f * _inner(s, rho, d_in, est), t) for f, s, t in inst.phi_terms]
    pen = sq_norm(inst.b_terms + phi + [(-mu, sigma)], 2.0**inst.n_out, est)
    return TermBreakdown(lam * gain - c * pen, pen)


def generic_dual_objective(inst: SdpInstance, tau, omega, kappa, nu, c, est: Estimator) -> TermBreakdown:
    """kappa Tr[B tau] + c ||kappa Phi^dag(tau) - A - nu omega||_2^2."""
    tau, omega = as_prepared(tau), as_prepared(omega)
    d_out = 2.0**inst.n_out
    gain = sum(cb * _inner(b, tau, d_out, est) for cb, b in inst.b_terms)
    phi_dag = [(kappa * f * _inner(t, tau, d_out, est), s) for f, s, t in inst.phi_terms]
    pen = sq_norm(phi_dag + [(-ca, a) for ca, a in inst.a_terms] + [(-nu, omega)], 2.0**inst.n_in, est)
    return TermBreakdown(kappa * gain + c * pen, pen)
