from functools import reduce
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslack import linalg
from qslack.ansatz import (
    BornDistribution,
    ConvexCombinationState,
    Gate,
    ParamCircuit,
    PurificationState,
    apply_circuit,
    circuit_unitary,
    layered_unitary_circuit,
    qcbm_circuit,
    qcbm_distribution,
)


def test_layered_unitary_theta_zero_is_identity():
    for n, layers in [(1, 2), (2, 2), (3, 1)]:
        c = layered_unitary_circuit(n, layers)
        u = circuit_unitary(c, np.zeros(c.n_params))
        assert np.allclose(u, np.eye(2**n))


def test_single_ry_pi_flips_qubit():
    c = ParamCircuit(1, (Gate("ry", (0,), 0),))
    u = circuit_unitary(c, np.array([np.pi]))
    out = u @ np.array([1, 0], dtype=complex)
    assert np.isclose(abs(out[1]), 1.0)
    assert np.isclose(abs(out[0]), 0.0)


def test_unitarity_random_angles(rng):
    c = layered_unitary_circuit(3, 2)
    for _ in range(5):
        u = circuit_unitary(c, rng.uniform(0, 2 * np.pi, c.n_params))
        assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-10


def test_gate_kinds_match_generators(rng):
    # compiled path agrees with exp(-i theta G / 2) built by eigendecomposition
    pauli = {
        "rx": np.array([[0, 1], [1, 0]], dtype=complex),
        "ry": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "rz": np.diag([1.0, -1.0]).astype(complex),
    }
    theta = 0.73
    for kind, g in pauli.items():
        c = ParamCircuit(1, (Gate(kind, (0,), 0),))
        u = circuit_unitary(c, np.array([theta]))
        expected = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * g
        assert np.allclose(u, expected)
    for kind, g in [("rxx", np.kron(pauli["rx"], pauli["rx"])),
                    ("ryy", np.kron(pauli["ry"], pauli["ry"])),
                    ("rzz", np.kron(pauli["rz"], pauli["rz"]))]:
        c = ParamCircuit(2, (Gate(kind, (0, 1), 0),))
        u = circuit_unitary(c, np.array([theta]))
        expected = np.cos(theta / 2) * np.eye(4) - 1j * np.sin(theta / 2) * g
        assert np.allclose(u, expected)


_SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}
_GENERATOR = {"rx": "X", "ry": "Y", "rz": "Z", "rxx": "XX", "ryy": "YY", "rzz": "ZZ"}


def _kron_on(n, factors):
    """Tensor product with factors[q] on qubit q (qubit 0 leftmost), identity elsewhere."""
    return reduce(np.kron, [factors.get(q, _SIGMA["I"]) for q in range(n)])


def _reference_gate(kind, qubits, theta, n):
    g = _kron_on(n, {q: _SIGMA[a] for q, a in zip(qubits, _GENERATOR[kind])})
    return np.cos(theta / 2) * np.eye(2**n) - 1j * np.sin(theta / 2) * g


_PLACEMENTS = ([(k, (q,)) for k in ("rx", "ry", "rz") for q in range(3)]
               + [(k, pair) for k in ("rxx", "ryy", "rzz") for pair in permutations(range(3), 2)])


@pytest.mark.parametrize("kind,qubits", _PLACEMENTS)
def test_gate_placement_matches_kron_reference(kind, qubits, rng):
    n, theta = 3, 0.73
    circuit = ParamCircuit(n, (Gate(kind, qubits, 0),))
    angles = np.array([theta])
    u = _reference_gate(kind, qubits, theta, n)
    batch = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    kept = batch.copy()
    out = apply_circuit(circuit, angles, batch)
    assert np.abs(out - u @ batch).max() < 1e-12
    assert np.array_equal(batch, kept) and not np.shares_memory(out, batch)
    for j in range(batch.shape[1]):
        column = batch[:, j].copy()
        vec = apply_circuit(circuit, angles, column)
        assert vec.tobytes() == out[:, j].tobytes()
        assert np.array_equal(column, kept[:, j]) and not np.shares_memory(vec, column)
    assert np.abs(apply_circuit(circuit, angles) - u[:, 0]).max() < 1e-12


def _every_gate_kind(n):
    """One circuit per gate kind on n qubits, placed on each qubit (pair),
    interleaved with Ry layers so that the inputs of every gate are generic."""
    gates, k = [], 0
    for kind, qubits in [(k, (q,)) for k in ("rx", "ry", "rz") for q in range(n)] + [
            (k, pair) for k in ("rxx", "ryy", "rzz") for pair in permutations(range(n), 2)]:
        for q in range(n):
            gates.append(Gate("ry", (q,), k))
            k += 1
        gates.append(Gate(kind, qubits, k))
        k += 1
    return ParamCircuit(n, tuple(gates))


@pytest.mark.parametrize("start", ["ground", "vector", "columns"])
def test_angle_rows_match_row_by_row_calls(start, rng):
    circuit = _every_gate_kind(3)
    rows = rng.uniform(0, 4 * np.pi, (5, circuit.n_params))
    psi = {"ground": None,
           "vector": rng.standard_normal(8) + 1j * rng.standard_normal(8),
           "columns": rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))}[start]
    kept = None if psi is None else psi.copy()
    out = apply_circuit(circuit, rows, psi)
    assert out.shape == (5,) + (apply_circuit(circuit, rows[0], psi).shape)
    for i, row in enumerate(rows):
        assert np.array_equal(out[i], apply_circuit(circuit, row, psi))
    if psi is not None:
        assert np.array_equal(psi, kept) and not np.shares_memory(out, psi)


def test_angle_rows_of_a_unitary_and_a_distribution(rng):
    circuit = layered_unitary_circuit(3, 2)
    rows = rng.uniform(0, 2 * np.pi, (4, circuit.n_params))
    u = circuit_unitary(circuit, rows)
    p = qcbm_distribution(circuit, rows)
    for i, row in enumerate(rows):
        assert np.array_equal(u[i], circuit_unitary(circuit, row))
        assert np.array_equal(p[i], qcbm_distribution(circuit, row))


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 7), (2, 2, 8), ()])
def test_angle_shape_rejected(shape):
    circuit = layered_unitary_circuit(2, 2)  # 8 parameters
    with pytest.raises(ValueError, match="parameters per row"):
        apply_circuit(circuit, np.zeros(shape))


def test_empty_circuit_returns_a_copy(rng):
    circuit = ParamCircuit(3, ())
    for psi in (rng.standard_normal(8) + 0j, rng.standard_normal((8, 2)) + 0j):
        out = apply_circuit(circuit, np.array([]), psi)
        assert np.array_equal(out, psi) and not np.shares_memory(out, psi)


# cnot is not a gate kind: every gate is a rotation with a parameter
@pytest.mark.parametrize("gate", [
    Gate("rzz", (1, 1), 0),
    Gate("rxx", (1, 1), 0),
    Gate("rx", (0, 1), 0),
    Gate("cnot", (0,), None),
    Gate("cnot", (0, 1), 0),
    Gate("ry", (0,), None),
    Gate("rq", (0,), 0),
    Gate("rz", (3,), 0),
], ids=["repeated-rzz", "repeated-rxx", "two-qubit-rx", "one-qubit-cnot", "cnot-with-param",
        "rotation-without-param", "unknown-kind", "out-of-range"])
def test_invalid_gates_rejected_at_construction(gate):
    with pytest.raises(ValueError):
        ParamCircuit(3, (gate,))


def test_param_indices_must_be_contiguous():
    with pytest.raises(ValueError):
        ParamCircuit(1, (Gate("rx", (0,), 1),))


def test_four_pi_periodicity(rng):
    c = layered_unitary_circuit(2, 2)
    theta = rng.uniform(0, 2 * np.pi, c.n_params)
    u = circuit_unitary(c, theta)
    for k in (0, 3, c.n_params - 1):
        shifted = theta.copy()
        shifted[k] += 4 * np.pi
        assert np.abs(circuit_unitary(c, shifted) - u).max() < 1e-9


class TestQcbm:
    def test_zero_params_point_mass(self):
        c = qcbm_circuit(2, 2)
        p = qcbm_distribution(c, np.zeros(c.n_params))
        assert np.allclose(p, [1, 0, 0, 0])

    def test_single_ry_half(self):
        c = ParamCircuit(1, (Gate("ry", (0,), 0),))
        p = qcbm_distribution(c, np.array([np.pi / 2]))
        assert np.allclose(p, [0.5, 0.5])

    def test_normalization_random(self, rng):
        c = qcbm_circuit(3, 2)
        for _ in range(100):
            p = qcbm_distribution(c, rng.uniform(0, 2 * np.pi, c.n_params))
            assert np.all(p >= 0)
            assert np.isclose(p.sum(), 1.0, atol=1e-12)


class TestRealize:
    def test_pure_when_no_reference(self, rng):
        circ = layered_unitary_circuit(2, 2)
        state = PurificationState(circ, n_reference=0, n_system=2)
        rho = state.realize(rng.uniform(0, 2 * np.pi, circ.n_params))
        assert np.isclose(np.trace(rho @ rho).real, 1.0)

    def test_cc_spectrum_is_born_distribution(self, rng):
        state = ConvexCombinationState(qcbm_circuit(2, 2), layered_unitary_circuit(2, 2))
        params = rng.uniform(0, 2 * np.pi, state.n_params)
        rho = state.realize(params)
        p = state.distribution(params)
        assert np.allclose(np.sort(np.linalg.eigvalsh(rho)), np.sort(p), atol=1e-9)

    def test_purification_rank_bound(self, rng):
        circ = layered_unitary_circuit(3, 2)
        state = PurificationState(circ, n_reference=1, n_system=2)
        rho = state.realize(rng.uniform(0, 2 * np.pi, circ.n_params))
        w = np.linalg.eigvalsh(rho)
        assert np.sum(w > 1e-10) <= 2

    def test_density_invariants_bulk(self, rng):
        pur = PurificationState(layered_unitary_circuit(4, 2), 2, 2)
        cc = ConvexCombinationState(qcbm_circuit(2, 2), layered_unitary_circuit(2, 2))
        for _ in range(500):
            linalg.check_density(pur.realize(rng.uniform(0, 2 * np.pi, pur.n_params)))
            linalg.check_density(cc.realize(rng.uniform(0, 2 * np.pi, cc.n_params)))

    def test_cc_purity_equals_distribution_purity(self, rng):
        state = ConvexCombinationState(qcbm_circuit(2, 2), layered_unitary_circuit(2, 2))
        for _ in range(20):
            params = rng.uniform(0, 2 * np.pi, state.n_params)
            rho = state.realize(params)
            p = state.distribution(params)
            assert abs(np.trace(rho @ rho).real - np.sum(p**2)) < 1e-9


class TestSampleCc:
    def test_empirical_frequencies(self, rng):
        state = ConvexCombinationState(qcbm_circuit(2, 2), layered_unitary_circuit(2, 1))
        params = rng.uniform(0, 2 * np.pi, state.n_params)
        p = state.distribution(params)
        n = 100_000
        counts = np.zeros(4)
        xs = rng.choice(4, size=n, p=p)
        for x in xs:
            counts[x] += 1
        freq = counts / n
        band = 3 * np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(freq - p) <= band + 1e-3)


class TestBornCcAsPurification:
    def test_uniform_distribution_gives_maximally_mixed(self, rng):
        # a Born machine producing the uniform distribution erases the basis choice
        born = ParamCircuit(1, (Gate("ry", (0,), 0),))
        state = ConvexCombinationState(born, layered_unitary_circuit(1, 1))
        gamma = rng.uniform(0, 2 * np.pi, state.basis_circuit.n_params)
        params = np.concatenate([[np.pi / 2], gamma])
        rho = state.realize(params)
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-10)


def test_born_distribution_template(rng):
    t = BornDistribution(qcbm_circuit(2, 2))
    p = t.realize(rng.uniform(0, 2 * np.pi, t.n_params))
    assert p.shape == (4,)
    assert np.isclose(p.sum(), 1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_realized_states_are_density_matrices(seed):
    rng = np.random.default_rng(seed)
    state = PurificationState(layered_unitary_circuit(3, 2), 1, 2)
    rho = state.realize(rng.uniform(0, 2 * np.pi, state.n_params))
    linalg.check_density(rho)
