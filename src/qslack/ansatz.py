"""Parameterized circuits and mixed-state ansaetze.

Two ways of parameterizing a mixed state are provided: tracing a reference
register out of a parameterized pure state (purification form), and mixing a
parameterized eigenbasis with the output distribution of a quantum circuit
Born machine (convex-combination form).

Qubit 0 is the most significant bit of the basis index.  All rotations use
the half-angle convention exp(-i theta G / 2) with a Pauli generator G, so a
zero parameter vector realizes the identity and the +-pi/2 parameter-shift
rule is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

ONE_QUBIT_KINDS = ("rx", "ry", "rz")
TWO_QUBIT_KINDS = ("rxx", "ryy", "rzz")
FIXED_KINDS = ("cnot",)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


@lru_cache(maxsize=None)
def _zz_signs(n: int, q1: int, q2: int) -> np.ndarray:
    idx = np.arange(2**n)
    z1 = 1 - 2 * ((idx >> (n - 1 - q1)) & 1)
    z2 = 1 - 2 * ((idx >> (n - 1 - q2)) & 1)
    return (z1 * z2).astype(float)


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    param_index: int | None


@dataclass(frozen=True)
class ParamCircuit:
    """An ordered gate sequence over n qubits with contiguous parameter indices."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        indices = [g.param_index for g in self.gates if g.param_index is not None]
        if sorted(indices) != list(range(len(indices))):
            raise ValueError("parameter indices must be contiguous 0..L-1")
        for g in self.gates:
            if any(q < 0 or q >= self.n_qubits for q in g.qubits):
                raise ValueError(f"gate {g} targets an out-of-range qubit")

    @property
    def n_params(self) -> int:
        return sum(1 for g in self.gates if g.param_index is not None)


_PAULI_1Q = {"rx": _X, "ry": _Y, "rz": np.array([[1, 0], [0, -1]], dtype=complex)}


def _apply_2q_dense(psi: np.ndarray, gate: np.ndarray, q1: int, q2: int, n: int) -> np.ndarray:
    m = psi.shape[1]
    t = psi.reshape((2,) * n + (m,))
    t = np.moveaxis(t, (q1, q2), (0, 1))
    rest = t.shape[2:]
    t = gate @ t.reshape(4, -1)
    t = np.moveaxis(t.reshape((2, 2) + rest), (0, 1), (q1, q2))
    return t.reshape(2**n, m)


def _embed_1q(op: np.ndarray, q: int, n: int) -> np.ndarray:
    out = np.eye(2**q, dtype=complex)
    out = np.kron(out, op)
    return np.kron(out, np.eye(2 ** (n - q - 1), dtype=complex))


@lru_cache(maxsize=None)
def _compiled(circuit: ParamCircuit) -> tuple:
    """Precompute the embedded generator of every gate.

    Each rotation exp(-i theta G / 2) with G^2 = I is applied as
    cos(theta/2) psi - i sin(theta/2) (G psi); diagonal generators keep only
    their sign vector.  Fixed gates keep their dense embedding.
    """
    n = circuit.n_qubits
    d = 2**n
    ops = []
    for g in circuit.gates:
        if g.kind in ONE_QUBIT_KINDS:
            ops.append(("rot", _embed_1q(_PAULI_1Q[g.kind], g.qubits[0], n), g.param_index))
        elif g.kind == "rzz":
            ops.append(("diag", _zz_signs(n, *g.qubits).reshape(-1, 1), g.param_index))
        elif g.kind in ("rxx", "ryy"):
            pauli = _X if g.kind == "rxx" else _Y
            gen = _apply_2q_dense(np.eye(d, dtype=complex), np.kron(pauli, pauli), g.qubits[0], g.qubits[1], n)
            ops.append(("rot", gen, g.param_index))
        elif g.kind == "cnot":
            fixed = _apply_2q_dense(np.eye(d, dtype=complex), _CNOT, g.qubits[0], g.qubits[1], n)
            ops.append(("fixed", fixed, None))
        else:
            raise ValueError(f"unknown gate kind {g.kind}")
    return tuple(ops)


def apply_circuit(circuit: ParamCircuit, theta: np.ndarray, psi: np.ndarray | None = None) -> np.ndarray:
    """Apply the circuit to a state vector or a (dim, m) batch of columns."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (circuit.n_params,):
        raise ValueError(f"expected {circuit.n_params} parameters, got {theta.shape}")
    d = 2**circuit.n_qubits
    one_dim = psi is None or psi.ndim == 1
    if psi is None:
        psi = np.zeros(d, dtype=complex)
        psi[0] = 1.0
    else:
        psi = np.asarray(psi, dtype=complex).copy()
    half = theta / 2.0
    cos_h = np.cos(half)
    msin_h = -1j * np.sin(half)
    if one_dim:
        for kind, op, idx in _compiled(circuit):
            if kind == "rot":
                psi = cos_h[idx] * psi + msin_h[idx] * (op @ psi)
            elif kind == "diag":
                psi = (cos_h[idx] + msin_h[idx] * op[:, 0]) * psi
            else:
                psi = op @ psi
        return psi
    for kind, op, idx in _compiled(circuit):
        if kind == "rot":
            psi = cos_h[idx] * psi + msin_h[idx] * (op @ psi)
        elif kind == "diag":
            psi = (cos_h[idx] + msin_h[idx] * op) * psi
        else:
            psi = op @ psi
    return psi


def circuit_unitary(circuit: ParamCircuit, theta: np.ndarray) -> np.ndarray:
    return apply_circuit(circuit, theta, np.eye(2**circuit.n_qubits, dtype=complex))


def _ring_pairs(n: int) -> list[tuple[int, int]]:
    if n < 2:
        return []
    if n == 2:
        return [(0, 1)]
    return [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]


def _layered(n: int, layers: int, rot_kinds: tuple[str, str]) -> ParamCircuit:
    gates: list[Gate] = []
    k = 0
    for _ in range(layers):
        for q in range(n):
            for kind in rot_kinds:
                gates.append(Gate(kind, (q,), k))
                k += 1
        for pair in _ring_pairs(n):
            gates.append(Gate("rzz", pair, k))
            k += 1
    return ParamCircuit(n, tuple(gates))


def layered_unitary_circuit(n: int, layers: int) -> ParamCircuit:
    """Per layer: Ry and Rz on every qubit, then a ring of Rzz couplers."""
    return _layered(n, layers, ("ry", "rz"))


def qcbm_circuit(n: int, layers: int) -> ParamCircuit:
    """Born-machine circuit; per layer Rx and Rz on every qubit, then the Rzz ring."""
    return _layered(n, layers, ("rx", "rz"))


def qcbm_distribution(born_circuit: ParamCircuit, phi: np.ndarray) -> np.ndarray:
    """Output distribution |<x|U(phi)|0...0>|^2 of a Born machine."""
    amps = apply_circuit(born_circuit, phi)
    p = np.abs(amps) ** 2
    return p / p.sum()


@dataclass(frozen=True)
class PurificationState:
    """Mixed state on n_system qubits obtained by tracing out the first n_reference."""

    circuit: ParamCircuit
    n_reference: int
    n_system: int

    def __post_init__(self) -> None:
        if self.circuit.n_qubits != self.n_reference + self.n_system:
            raise ValueError("circuit must act on reference + system qubits")

    @property
    def n_params(self) -> int:
        return self.circuit.n_params

    def pure_state(self, theta: np.ndarray) -> np.ndarray:
        return apply_circuit(self.circuit, theta)

    def realize(self, theta: np.ndarray) -> np.ndarray:
        psi = self.pure_state(theta)
        m = psi.reshape(2**self.n_reference, 2**self.n_system)
        return m.T @ m.conj()


@dataclass(frozen=True)
class ConvexCombinationState:
    """Mixed state sum_x p_phi(x) U(gamma)|x><x|U(gamma)^dag."""

    born_circuit: ParamCircuit
    basis_circuit: ParamCircuit

    def __post_init__(self) -> None:
        if self.born_circuit.n_qubits != self.basis_circuit.n_qubits:
            raise ValueError("Born machine and basis circuit must share the qubit count")

    @property
    def n_system(self) -> int:
        return self.basis_circuit.n_qubits

    @property
    def n_params(self) -> int:
        return self.born_circuit.n_params + self.basis_circuit.n_params

    def split(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        params = np.asarray(params, dtype=float)
        k = self.born_circuit.n_params
        return params[:k], params[k:]

    def distribution(self, params: np.ndarray) -> np.ndarray:
        phi, _ = self.split(params)
        return qcbm_distribution(self.born_circuit, phi)

    def basis_unitary(self, params: np.ndarray) -> np.ndarray:
        _, gamma = self.split(params)
        return circuit_unitary(self.basis_circuit, gamma)

    def realize(self, params: np.ndarray) -> np.ndarray:
        p = self.distribution(params)
        u = self.basis_unitary(params)
        return (u * p) @ u.conj().T


@dataclass(frozen=True)
class BornDistribution:
    """A parameterized probability vector read out of a Born machine."""

    born_circuit: ParamCircuit

    @property
    def n_outcomes(self) -> int:
        return 2**self.born_circuit.n_qubits

    @property
    def n_params(self) -> int:
        return self.born_circuit.n_params

    def realize(self, phi: np.ndarray) -> np.ndarray:
        return qcbm_distribution(self.born_circuit, phi)


def sample_cc(state: ConvexCombinationState, params: np.ndarray, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Draw x ~ p_phi and return it with the prepared pure state U(gamma)|x>."""
    p = state.distribution(params)
    x = int(rng.choice(len(p), p=p))
    u = state.basis_unitary(params)
    return x, u[:, x].copy()


def _shift_gates(circuit: ParamCircuit, qubit_offset: int, param_offset: int) -> list[Gate]:
    out = []
    for g in circuit.gates:
        idx = None if g.param_index is None else g.param_index + param_offset
        out.append(Gate(g.kind, tuple(q + qubit_offset for q in g.qubits), idx))
    return out


def born_cc_as_purification(state: ConvexCombinationState) -> PurificationState:
    """Purification-form equivalent of a Born convex-combination state.

    The Born machine runs on a reference register, a fan of CNOTs copies its
    basis outcome onto the system register, and the basis unitary acts on the
    system; tracing the reference reproduces the convex-combination state.
    """
    n = state.n_system
    gates = _shift_gates(state.born_circuit, 0, 0)
    for i in range(n):
        gates.append(Gate("cnot", (i, n + i), None))
    gates += _shift_gates(state.basis_circuit, n, state.born_circuit.n_params)
    circuit = ParamCircuit(2 * n, tuple(gates))
    return PurificationState(circuit, n_reference=n, n_system=n)
