import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import product

from qslack import linalg
from qslack.pauli import (
    PauliObservable,
    PauliString,
    WalshObservable,
    WalshVector,
    default_term_cap,
    expect,
    pauli_eigenbasis_sampler,
    walsh_dot,
)
from tests.conftest import bell_state, random_density


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
        assert p.text() == "XZIY"

    def test_bad_text(self):
        with pytest.raises(ValueError):
            PauliString.from_text("XQ")

    def test_orthogonality_all_pairs(self):
        # hs_inner(dense(p), dense(q)) = 2^n [p == q], n <= 3
        for n in (1, 2, 3):
            strings = [PauliString(l) for l in product(range(4), repeat=n)]
            dense = [s.dense() for s in strings]
            for i, di in enumerate(dense):
                for j, dj in enumerate(dense):
                    expected = 2.0**n if i == j else 0.0
                    assert np.isclose(linalg.hs_inner(di, dj), expected)

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
        assert not o.is_hermitian
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
        with pytest.raises(ValueError):
            PauliObservable(1, {(0,): 1.0, (1,): 1.0, (2,): 1.0, (3,): 1.0}, term_cap=3)

    def test_canonical_order(self):
        o = PauliObservable(1, {(3,): 1.0, (1,): 2.0})
        assert list(o.terms) == [(1,), (3,)]


class TestExpect:
    def test_identity(self, rng):
        o = PauliObservable.from_text(2, {"II": 1.0})
        assert np.isclose(expect(o, random_density(4, rng)), 1.0)

    def test_z_basics(self):
        z = PauliObservable.from_text(1, {"Z": 1.0})
        assert np.isclose(expect(z, np.diag([1.0, 0.0])), 1.0)
        assert np.isclose(expect(z, np.eye(2) / 2), 0.0)

    def test_bell_expectation(self):
        h = PauliObservable.from_text(2, {"ZZ": 1.0, "XI": 1.0, "IX": 1.0})
        assert np.isclose(expect(h, bell_state()), 1.0)

    def test_matches_dense_inner(self, rng):
        terms = {l: rng.standard_normal() for l in product(range(4), repeat=2)}
        o = PauliObservable(2, terms)
        rho = random_density(4, rng)
        direct = linalg.hs_inner(o.dense(), rho).real
        assert abs(expect(o, rho) - direct) < 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            expect(PauliObservable.from_text(2, {"ZZ": 1.0}), np.eye(2) / 2)


class TestEigenbasisSampler:
    def test_z_label(self):
        (b0, b1, f), = pauli_eigenbasis_sampler(PauliString((3,)))
        assert np.allclose(b0, [1, 0]) and np.allclose(b1, [0, 1]) and f == 1

    def test_identity_label(self):
        (_, _, f), = pauli_eigenbasis_sampler(PauliString((0,)))
        assert f == 0

    def test_x_label_plus_minus(self):
        (b0, b1, f), = pauli_eigenbasis_sampler(PauliString((1,)))
        assert np.allclose(b0, np.array([1, 1]) / np.sqrt(2))
        assert np.allclose(b1, np.array([1, -1]) / np.sqrt(2))

    def test_sign_rule_reconstructs_expectation(self, rng):
        # sum over outcome strings of (-1)^(y . f) p(y|x) equals Tr[sigma_x rho]
        p = PauliString((1, 2))
        rho = random_density(4, rng)
        bases = pauli_eigenbasis_sampler(p)
        total = 0.0
        for y in product(range(2), repeat=2):
            vec = np.kron(bases[0][y[0]], bases[1][y[1]])
            prob = np.vdot(vec, rho @ vec).real
            sign = (-1) ** sum(yj * bases[j][2] for j, yj in enumerate(y))
            total += sign * prob
        assert abs(total - expect(PauliObservable(2, {p.labels: 1.0}), rho)) < 1e-10


class TestWalsh:
    def test_all_zero_vector(self, rng):
        p = np.abs(rng.standard_normal(8))
        p /= p.sum()
        assert np.isclose(walsh_dot(WalshVector((0, 0, 0)), p), 1.0)

    def test_tensor_structure(self):
        w = WalshVector((1, 1))
        assert np.allclose(w.dense(), [1, -1, -1, 1])
        assert np.isclose(walsh_dot(w, np.full(4, 0.25)), 0.0)

    def test_point_mass(self):
        assert np.isclose(walsh_dot(WalshVector((1,)), np.array([1.0, 0.0])), 1.0)

    def test_orthogonality(self):
        for n in (1, 2, 3):
            vecs = [WalshVector(l).dense() for l in product(range(2), repeat=n)]
            for i, vi in enumerate(vecs):
                for j, vj in enumerate(vecs):
                    assert np.isclose(vi @ vj, (2.0**n) * (i == j))

    def test_sign_matches_dense(self):
        w = WalshVector((1, 0, 1))
        d = w.dense()
        for i in range(8):
            assert w.sign(i) == d[i]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            walsh_dot(WalshVector((1, 0)), np.array([0.5, 0.5]))

    def test_observable_dense(self):
        o = WalshObservable.from_text(2, {"11": 1.0, "00": 0.5})
        assert np.allclose(o.dense(), 0.5 * np.ones(4) + np.array([1, -1, -1, 1]))
        assert np.isclose(o.coeff_norm_sq(), 1.25)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3))
def test_dense_matches_kron_of_factors(labels):
    got = PauliString(tuple(labels)).dense()
    expected = np.array([[1.0]], dtype=complex)
    singles = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    for l in labels:
        expected = np.kron(expected, singles[l])
    assert np.allclose(got, expected)
