"""Parameterized circuits and mixed-state ansaetze.

Two ways of parameterizing a mixed state are provided: tracing a reference
register out of a parameterized pure state (purification form), and mixing a
parameterized eigenbasis with the output distribution of a quantum circuit
Born machine (convex-combination form).

Qubit 0 is the most significant bit of the basis index.  All rotations use
the half-angle convention exp(-i theta G / 2) with a Pauli generator G, so a
zero parameter vector realizes the identity and the +-pi/2 parameter-shift
rule is exact.

Circuit engine.  Every gate is a basis permutation and a phase: (G psi)[r]
= phase[r] * psi[perm[r]], an O(2^n) gather along the last axis with no
2^n x 2^n matrix.  An X or Y label flips the qubit's bit; a Y label
contributes -i where the bit of r is 0 and +i where it is 1 (the entries of
sigma_y); a Z label contributes the sign (-1)^bit.  A rotation applies cos(theta/2) psi - i sin(theta/2) (G psi),
since G^2 = I.  Rzz instead applies (cos(theta/2) - i sin(theta/2) s) psi
with the ZZ sign vector s: the two forms round differently, and Rzz keeps
the form that earlier outputs were computed with, so they stay bit-identical.
The ops are compiled once per circuit and kept on it (``ParamCircuit.ops``);
a (dim, k) batch of columns runs through the same loop as a vector,
transposed so that the basis index is the last axis.

Row axis.  ``apply_circuit`` also takes an (m, n_params) array of angle rows:
row i drives entry i of a leading batch axis through the same loop, with the
cos/sin of each gate's angle broadcast over the basis axis, and each entry
equals the call with that row alone bit for bit.  The templates below realize
a 2-D array of parameter rows the same way, so one circuit pass serves every
point an SPSA iteration evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# kind -> (qubit count, Pauli label per qubit of the generator)
GATE_KINDS = {
    "rx": (1, "X"), "ry": (1, "Y"), "rz": (1, "Z"),
    "rxx": (2, "XX"), "ryy": (2, "YY"), "rzz": (2, "ZZ"),
}


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    param_index: int


@dataclass(frozen=True)
class ParamCircuit:
    """An ordered gate sequence over n qubits with contiguous parameter indices."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        for g in self.gates:
            if g.kind not in GATE_KINDS:
                raise ValueError(f"gate {g} has unknown kind; expected one of {sorted(GATE_KINDS)}")
            arity = GATE_KINDS[g.kind][0]
            if len(g.qubits) != arity:
                raise ValueError(f"gate {g} needs {arity} qubit(s)")
            if len(set(g.qubits)) != arity:
                raise ValueError(f"gate {g} repeats a qubit")
            if any(q < 0 or q >= self.n_qubits for q in g.qubits):
                raise ValueError(f"gate {g} targets an out-of-range qubit")
        if sorted(g.param_index for g in self.gates) != list(range(len(self.gates))):
            raise ValueError("parameter indices must be contiguous 0..L-1")

    @property
    def n_params(self) -> int:
        return len(self.gates)

    @cached_property
    def ops(self) -> tuple[tuple, ...]:
        """Per gate (param index, perm, phase, diagonal), compiled on first use;
        perm and phase are None where they are the identity, and ``diagonal``
        marks Rzz, whose phase is its real sign vector."""
        n = self.n_qubits
        r = np.arange(2**n)
        ops = []
        for g in self.gates:
            bits = [(r >> (n - 1 - q)) & 1 for q in g.qubits]
            labels = GATE_KINDS[g.kind][1]
            flip = 0
            phase = np.ones(2**n, dtype=complex)
            for q, a, b in zip(g.qubits, labels, bits):
                if a in "XY":
                    flip |= 1 << (n - 1 - q)
                if a == "Y":
                    phase *= np.where(b, 1j, -1j)
                elif a == "Z":
                    phase *= 1 - 2 * b
            if g.kind == "rzz":
                ops.append((g.param_index, None, phase.real.copy(), True))
            else:
                ops.append((g.param_index, r ^ flip if flip else None,
                            None if np.all(phase == 1) else phase, False))
        return tuple(ops)


def apply_circuit(circuit: ParamCircuit, theta: np.ndarray, psi: np.ndarray | None = None) -> np.ndarray:
    """Apply the circuit to a state vector or a (dim, k) batch of columns.

    A 2-D ``theta`` holds one angle row per output: the result gains a
    leading axis with one entry per row, each the circuit at that row applied
    to the same input.  The input is never modified or returned."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2) or theta.shape[-1] != circuit.n_params:
        raise ValueError(f"expected {circuit.n_params} parameters per row, got {theta.shape}")
    columns = psi is not None and np.ndim(psi) == 2
    if psi is None:
        psi = np.zeros(2**circuit.n_qubits, dtype=complex)
        psi[0] = 1.0
    else:
        psi = np.array(psi, dtype=complex).T
    half = theta.T / 2.0
    if theta.ndim == 2:
        # one batch entry per row; the angles of a gate broadcast over the entry's axes
        psi = np.repeat(psi[None], len(theta), axis=0)
        half = half.reshape(half.shape + (1,) * (psi.ndim - 1))
    cos_h = np.cos(half)
    msin_h = -1j * np.sin(half)
    for idx, perm, phase, diagonal in circuit.ops:
        if diagonal:
            psi = (cos_h[idx] + msin_h[idx] * phase) * psi
            continue
        g = psi if perm is None else psi[..., perm]
        if phase is not None:
            g = phase * g
        psi = cos_h[idx] * psi + msin_h[idx] * g
    return np.swapaxes(psi, -1, -2) if columns else psi


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
    return p / p.sum(axis=-1, keepdims=True)


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

    def realize(self, theta: np.ndarray) -> np.ndarray:
        psi = apply_circuit(self.circuit, theta)
        m = psi.reshape(psi.shape[:-1] + (2**self.n_reference, 2**self.n_system))
        return np.swapaxes(m, -1, -2) @ m.conj()


@dataclass(frozen=True)
class ConvexCombinationState:
    """Mixed state sum_x p_phi(x) U(gamma)|x><x|U(gamma)^dag."""

    born_circuit: ParamCircuit
    basis_circuit: ParamCircuit

    def __post_init__(self) -> None:
        if self.born_circuit.n_qubits != self.basis_circuit.n_qubits:
            raise ValueError("Born machine and basis circuit must share the qubit count")

    @property
    def n_params(self) -> int:
        return self.born_circuit.n_params + self.basis_circuit.n_params

    def split(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        params = np.asarray(params, dtype=float)
        k = self.born_circuit.n_params
        return params[..., :k], params[..., k:]

    def distribution(self, params: np.ndarray) -> np.ndarray:
        phi, _ = self.split(params)
        return qcbm_distribution(self.born_circuit, phi)

    def basis_unitary(self, params: np.ndarray) -> np.ndarray:
        _, gamma = self.split(params)
        return circuit_unitary(self.basis_circuit, gamma)

    def realize(self, params: np.ndarray) -> np.ndarray:
        return mixture(self.distribution(params), self.basis_unitary(params))


def mixture(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_x p(x) u|x><x|u^dag, over any leading axes of p and u."""
    return (u * p[..., None, :]) @ np.swapaxes(u.conj(), -1, -2)


@dataclass(frozen=True)
class BornDistribution:
    """A parameterized probability vector read out of a Born machine."""

    born_circuit: ParamCircuit

    @property
    def n_params(self) -> int:
        return self.born_circuit.n_params

    def realize(self, phi: np.ndarray) -> np.ndarray:
        return qcbm_distribution(self.born_circuit, phi)
