import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import product

from qslack.estimate import Estimator, Prepared
from qslack.pauli import (
    PauliObservable,
    PauliString,
    WalshObservable,
    WalshVector,
    default_term_cap,
)


def walsh_expect(w: WalshVector, p: np.ndarray) -> float:
    return Estimator().walsh_expect(Prepared(dist=p), w).value


class TestPauliString:
    def test_identity_dense(self):
        assert np.allclose(PauliString((0, 0)).dense(), np.eye(4))

    def test_sigma_y(self):
        assert np.allclose(PauliString((2,)).dense(), np.array([[0, -1j], [1j, 0]]))

    def test_orthogonality_relation(self):
        p = PauliString((1, 3))
        d = p.dense()
        assert np.isclose(np.trace(d @ d), 4.0)
        assert np.isclose(np.trace(d), 0.0)

    def test_text_round_trip(self):
        p = PauliString.from_text("XZIY")
        assert p.labels == (1, 3, 0, 2)

    def test_bad_text(self):
        with pytest.raises(ValueError):
            PauliString.from_text("XQ")

    def test_orthogonality_all_pairs(self):
        # Tr[dense(p)^dag dense(q)] = 2^n [p == q], n <= 3
        for n in (1, 2, 3):
            strings = [PauliString(l) for l in product(range(4), repeat=n)]
            dense = [s.dense() for s in strings]
            for i, di in enumerate(dense):
                for j, dj in enumerate(dense):
                    expected = 2.0**n if i == j else 0.0
                    assert np.isclose(np.vdot(di, dj), expected)

    def test_dense_unitary_hermitian(self):
        for labels in product(range(4), repeat=2):
            d = PauliString(labels).dense()
            assert np.allclose(d @ d.conj().T, np.eye(4))
            assert np.allclose(d, d.conj().T)


class TestPauliObservable:
    def test_identity_observable(self):
        o = PauliObservable.from_text(2, {"II": 1.0})
        assert np.allclose(o.dense(), np.eye(4))

    def test_paper_hamiltonian_ground_energy(self):
        o = PauliObservable.from_text(2, {"ZZ": 1.0, "XI": 1.0, "IX": 1.0})
        w = np.linalg.eigvalsh(o.dense())
        assert np.isclose(w[0], -np.sqrt(5.0))

    def test_anti_hermitian_flagged(self):
        o = PauliObservable(1, {(2,): 1.0j})
        d = o.dense()
        assert np.allclose(d, -d.conj().T)

    def test_hermitian_within_tol(self, rng):
        terms = {l: rng.standard_normal() for l in product(range(4), repeat=2)}
        d = PauliObservable(2, terms).dense()
        assert np.abs(d - d.conj().T).max() < 1e-12

    def test_zero_coefficients_dropped(self):
        o = PauliObservable(1, {(0,): 0.0, (3,): 1.0})
        assert list(o.terms) == [(3,)]

    def test_term_cap(self):
        assert default_term_cap(2) == 16
        assert default_term_cap(3) == 64
        labels = list(product(range(4), repeat=4))
        PauliObservable(4, {l: 1.0 for l in labels[:64]})
        with pytest.raises(ValueError):
            PauliObservable(4, {l: 1.0 for l in labels[:65]})

    def test_canonical_order(self):
        o = PauliObservable(1, {(3,): 1.0, (1,): 2.0})
        assert list(o.terms) == [(1,), (3,)]


class TestWalsh:
    def test_all_zero_vector(self, rng):
        p = np.abs(rng.standard_normal(8))
        p /= p.sum()
        assert np.isclose(walsh_expect(WalshVector((0, 0, 0)), p), 1.0)

    def test_tensor_structure(self):
        w = WalshVector((1, 1))
        assert np.allclose(w.dense(), [1, -1, -1, 1])
        assert np.isclose(walsh_expect(w, np.full(4, 0.25)), 0.0)

    def test_point_mass(self):
        assert np.isclose(walsh_expect(WalshVector((1,)), np.array([1.0, 0.0])), 1.0)

    def test_orthogonality(self):
        for n in (1, 2, 3):
            vecs = [WalshVector(l).dense() for l in product(range(2), repeat=n)]
            for i, vi in enumerate(vecs):
                for j, vj in enumerate(vecs):
                    assert np.isclose(vi @ vj, (2.0**n) * (i == j))

    def test_sign_matches_dense(self):
        # entry i of s_x is (-1)^(x . i), with the bits of i read MSB-first
        w = WalshVector((1, 0, 1))
        d = w.dense()
        for i in range(8):
            bits = [(i >> (2 - j)) & 1 for j in range(3)]
            assert d[i] == (-1) ** sum(l * b for l, b in zip(w.labels, bits))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            walsh_expect(WalshVector((1, 0)), np.array([0.5, 0.5]))

    def test_observable_dense(self):
        o = WalshObservable.from_text(2, {"11": 1.0, "00": 0.5})
        assert np.allclose(o.dense(), 0.5 * np.ones(4) + np.array([1, -1, -1, 1]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3))
def test_dense_matches_kron_of_factors(labels):
    got = PauliString(tuple(labels)).dense()
    expected = np.array([[1.0]], dtype=complex)
    singles = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    for l in labels:
        expected = np.kron(expected, singles[l])
    assert np.allclose(got, expected)
