import numpy as np
import pytest

from qslack import linalg
from tests.conftest import bell_state, random_density, random_hermitian

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


class TestKron:
    def test_identity(self):
        assert np.allclose(linalg.kron_all(I2, I2), np.eye(4))

    def test_sx_sz_entrywise(self):
        # oracle: (A x B)[i*p + k, j*q + l] = A[i, j] B[k, l]
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        expected[2 * i + k, 2 * j + l] = SX[i, j] * SZ[k, l]
        got = linalg.kron_all(SX, SZ)
        assert np.allclose(got, expected)
        assert got[0, 2] == 1 and got[1, 3] == -1 and got[2, 0] == 1 and got[3, 1] == -1

    def test_diagonal_case(self):
        assert np.allclose(linalg.kron_all(SZ, np.diag([1.0, 1.0])), np.diag([1, 1, -1, -1]))

    def test_associativity_random(self, rng):
        for _ in range(25):
            a = random_hermitian(2, rng)
            b = random_hermitian(3, rng)
            c = random_hermitian(2, rng)
            left = linalg.kron_all(linalg.kron_all(a, b), c)
            right = linalg.kron_all(a, linalg.kron_all(b, c))
            assert np.sqrt(linalg.hs_norm_sq(left - right)) <= 1e-12


class TestPartialTranspose:
    def test_pauli_sign_flip(self):
        # transposing the B factor negates sigma_Y and fixes I, X, Z
        for sa in (I2, SX, SY, SZ):
            assert np.allclose(linalg.partial_transpose_b(np.kron(sa, SY), 2, 2),
                               -np.kron(sa, SY))
            for sb, sign in ((I2, 1), (SX, 1), (SZ, 1)):
                assert np.allclose(linalg.partial_transpose_b(np.kron(sa, sb), 2, 2),
                                   sign * np.kron(sa, sb))

    def test_identity(self):
        assert np.allclose(linalg.partial_transpose_b(np.eye(4), 2, 2), np.eye(4))

    def test_bell_eigenvalues(self):
        # oracle: explicit index swap, then eigenvalues
        bell = bell_state()
        manual = np.zeros((4, 4), dtype=complex)
        for ia in range(2):
            for ja in range(2):
                for ib in range(2):
                    for jb in range(2):
                        manual[2 * ia + ib, 2 * ja + jb] = bell[2 * ia + jb, 2 * ja + ib]
        got = linalg.partial_transpose_b(bell, 2, 2)
        assert np.allclose(got, manual)
        assert np.allclose(np.linalg.eigvalsh(got), [-0.5, 0.5, 0.5, 0.5])

    def test_involution_and_trace(self, rng):
        for _ in range(20):
            m = random_hermitian(8, rng)
            pt = linalg.partial_transpose_b(m, 2, 4)
            assert np.allclose(linalg.partial_transpose_b(pt, 2, 4), m)
            assert np.isclose(np.trace(pt), np.trace(m))


class TestEig:
    def test_sz(self):
        w, v = linalg.eig_hermitian(SZ)
        assert np.allclose(w, [-1, 1])
        assert np.allclose(np.abs(v[:, 0]), [0, 1])
        assert np.allclose(np.abs(v[:, 1]), [1, 0])

    def test_sx(self):
        w, v = linalg.eig_hermitian(SX)
        assert np.allclose(w, [-1, 1])
        minus = np.array([1, -1]) / np.sqrt(2)
        assert np.isclose(abs(np.vdot(v[:, 0], minus)), 1.0)

    def test_trace_identities(self, rng):
        m = random_hermitian(8, rng)
        w, _ = linalg.eig_hermitian(m)
        assert abs(np.sum(w) - np.trace(m).real) < 1e-9
        assert abs(np.sum(w**2) - np.trace(m @ m).real) < 1e-9

    def test_reconstruction_bulk(self, rng):
        # 1000 random Hermitian matrices up to dim 16
        for i in range(1000):
            dim = int(rng.integers(2, 17))
            m = random_hermitian(dim, rng)
            w, v = linalg.eig_hermitian(m)
            err = np.sqrt(linalg.hs_norm_sq(v @ np.diag(w) @ v.conj().T - m))
            assert err <= 1e-9 * dim
            assert np.all(np.diff(w) >= -1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            linalg.eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


class TestNorms:
    def test_trace_norm_sz(self):
        assert np.isclose(linalg.trace_norm(SZ), 2.0)

    def test_trace_norm_density(self, rng):
        for _ in range(10):
            assert np.isclose(linalg.trace_norm(random_density(4, rng)), 1.0)

    def test_trace_norm_pt_bell(self):
        assert np.isclose(linalg.trace_norm(linalg.partial_transpose_b(bell_state(), 2, 2)), 2.0)

    def test_trace_norm_rejects_non_hermitian(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for bad, message in ((m, "not Hermitian"), (np.eye(4)[:3], "square")):
            with pytest.raises(ValueError, match=message):
                linalg.trace_norm(bad)

    def test_hs_norm_sq(self):
        assert np.isclose(linalg.hs_norm_sq(SX), 2.0)
        assert np.isclose(linalg.hs_norm_sq(SX - SZ), 4.0)
        assert np.isclose(linalg.hs_norm_sq(np.eye(8)), 8.0)


class TestSqrt:
    def test_identity(self):
        assert np.allclose(linalg.mat_sqrt_psd(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(linalg.mat_sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_self_consistency(self, rng):
        for _ in range(20):
            rho = random_density(8, rng)
            s = linalg.mat_sqrt_psd(rho)
            assert linalg.hs_norm_sq(s @ s - rho) <= 1e-16

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            linalg.mat_sqrt_psd(np.diag([1.0, -0.5]))


class TestValidators:
    def test_check_density_accepts(self, rng):
        linalg.check_density(random_density(4, rng))

    def test_check_density_rejects_trace(self):
        with pytest.raises(ValueError):
            linalg.check_density(np.eye(2))

    def test_check_hermitian_rejects(self):
        with pytest.raises(ValueError):
            linalg.check_hermitian(np.array([[0, 1], [0.5, 0]], dtype=complex))
