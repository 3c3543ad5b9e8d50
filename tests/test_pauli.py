import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import product

from qslack.estimate import Estimator, Prepared
from qslack.pauli import Expansion, default_term_cap, term_stack


def one_term(labels, walsh=False) -> Expansion:
    """The basis element labelled ``labels``: the one-term expansion with coefficient 1."""
    return Expansion(len(labels), (tuple(labels),), np.ones(1), walsh)


def walsh_expect(w: Expansion, p: np.ndarray) -> float:
    return Estimator().walsh_expect(Prepared(dist=p), w).value


class TestPauliString:
    def test_identity_dense(self):
        assert np.allclose(one_term((0, 0)).dense(), np.eye(4))

    def test_sigma_y(self):
        assert np.allclose(one_term((2,)).dense(), np.array([[0, -1j], [1j, 0]]))

    def test_orthogonality_relation(self):
        p = one_term((1, 3))
        d = p.dense()
        assert np.isclose(np.trace(d @ d), 4.0)
        assert np.isclose(np.trace(d), 0.0)

    def test_text_round_trip(self):
        assert Expansion.from_text(4, {"XZIY": 1.0}).labels == ((1, 3, 0, 2),)
        assert Expansion.from_text(4, {"xziy": 1.0}).labels == ((1, 3, 0, 2),)

    def test_bad_text(self):
        for text in ("XQ", ""):
            with pytest.raises(ValueError, match=f"invalid Pauli string text {text!r}"):
                Expansion.from_text(2, {text: 1.0})

    @pytest.mark.parametrize("labels, walsh", [((0, 4), False), ((1, -1), False), ((0.5, 0), False),
                                               ((0, 2), True), ((), False), ((), True)])
    def test_bad_labels(self, labels, walsh):
        with pytest.raises(ValueError, match="invalid (Pauli|Walsh) labels"):
            Expansion.from_terms(len(labels), {labels: 1.0}, walsh)

    def test_orthogonality_all_pairs(self):
        # Tr[dense(p)^dag dense(q)] = 2^n [p == q], n <= 3
        for n in (1, 2, 3):
            dense = term_stack(tuple(product(range(4), repeat=n)))
            for i, di in enumerate(dense):
                for j, dj in enumerate(dense):
                    expected = 2.0**n if i == j else 0.0
                    assert np.isclose(np.vdot(di, dj), expected)

    def test_dense_unitary_hermitian(self):
        for labels in product(range(4), repeat=2):
            d = one_term(labels).dense()
            assert np.allclose(d @ d.conj().T, np.eye(4))
            assert np.allclose(d, d.conj().T)


class TestPauliObservable:
    def test_identity_observable(self):
        o = Expansion.from_text(2, {"II": 1.0})
        assert np.allclose(o.dense(), np.eye(4))

    def test_paper_hamiltonian_ground_energy(self):
        o = Expansion.from_text(2, {"ZZ": 1.0, "XI": 1.0, "IX": 1.0})
        w = np.linalg.eigvalsh(o.dense())
        assert np.isclose(w[0], -np.sqrt(5.0))

    @pytest.mark.parametrize("coeff", [1j, "0.5", True, float("nan"), float("inf"), float("-inf")])
    def test_coefficient_must_be_finite_real(self, coeff):
        with pytest.raises(ValueError, match=r"term 'Y' has coefficient .* not a finite real number"):
            Expansion.from_terms(1, {(2,): coeff})

    def test_hermitian_within_tol(self, rng):
        terms = {l: rng.standard_normal() for l in product(range(4), repeat=2)}
        d = Expansion.from_terms(2, terms).dense()
        assert np.abs(d - d.conj().T).max() < 1e-12

    def test_zero_coefficients_dropped(self):
        o = Expansion.from_terms(1, {(0,): 0.0, (3,): 1.0})
        assert o.labels == ((3,),)

    def test_term_cap(self):
        assert default_term_cap(2) == 16
        assert default_term_cap(3) == 64
        labels = list(product(range(4), repeat=4))
        Expansion.from_terms(4, {l: 1.0 for l in labels[:64]})
        with pytest.raises(ValueError):
            Expansion.from_terms(4, {l: 1.0 for l in labels[:65]})

    def test_canonical_order(self):
        o = Expansion.from_terms(1, {(3,): 1.0, (1,): 2.0})
        assert o.labels == ((1,), (3,))


class TestWalsh:
    def test_all_zero_vector(self, rng):
        p = np.abs(rng.standard_normal(8))
        p /= p.sum()
        assert np.isclose(walsh_expect(one_term((0, 0, 0), walsh=True), p), 1.0)

    def test_tensor_structure(self):
        w = one_term((1, 1), walsh=True)
        assert np.allclose(w.dense(), [1, -1, -1, 1])
        assert np.isclose(walsh_expect(w, np.full(4, 0.25)), 0.0)

    def test_point_mass(self):
        assert np.isclose(walsh_expect(one_term((1,), walsh=True), np.array([1.0, 0.0])), 1.0)

    def test_orthogonality(self):
        for n in (1, 2, 3):
            vecs = term_stack(tuple(product(range(2), repeat=n)), walsh=True)
            for i, vi in enumerate(vecs):
                for j, vj in enumerate(vecs):
                    assert np.isclose(vi @ vj, (2.0**n) * (i == j))

    def test_sign_matches_dense(self):
        # entry i of s_x is (-1)^(x . i), with the bits of i read MSB-first
        w = one_term((1, 0, 1), walsh=True)
        d = w.dense()
        for i in range(8):
            bits = [(i >> (2 - j)) & 1 for j in range(3)]
            assert d[i] == (-1) ** sum(l * b for l, b in zip(w.labels[0], bits))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            walsh_expect(one_term((1, 0), walsh=True), np.array([0.5, 0.5]))

    def test_bad_text(self):
        for text in ("12", "0X", ""):
            with pytest.raises(ValueError, match=f"invalid Walsh text {text!r}"):
                Expansion.from_text(2, {text: 1.0}, walsh=True)

    def test_observable_dense(self):
        o = Expansion.from_text(2, {"11": 1.0, "00": 0.5}, walsh=True)
        assert np.allclose(o.dense(), 0.5 * np.ones(4) + np.array([1, -1, -1, 1]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3))
def test_dense_matches_kron_of_factors(labels):
    got = term_stack((tuple(labels),))[0]
    expected = np.array([[1.0]], dtype=complex)
    singles = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    for l in labels:
        expected = np.kron(expected, singles[l])
    assert np.allclose(got, expected)
