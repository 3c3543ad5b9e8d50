import numpy as np
import pytest

from qslack import linalg
from tests.conftest import bell_state, check_density, random_density, random_hermitian

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


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

    def test_negative_tolerance(self):
        # an eigenvalue within NEG_EIG_ATOL below zero is clamped, one beyond raises
        tol = linalg.NEG_EIG_ATOL
        assert np.allclose(linalg.mat_sqrt_psd(np.diag([1.0, -tol / 2])), np.diag([1.0, 0.0]), rtol=0, atol=0)
        with pytest.raises(ValueError, match="not PSD"):
            linalg.mat_sqrt_psd(np.diag([1.0, -2 * tol]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.mat_sqrt_psd(np.array([[0, 1], [0, 0]], dtype=complex))


class TestValidators:
    def test_check_density_accepts(self, rng):
        check_density(random_density(4, rng))

    def test_check_density_rejects_trace(self):
        with pytest.raises(ValueError):
            check_density(np.eye(2))

    def test_check_hermitian_rejects(self):
        with pytest.raises(ValueError):
            linalg.check_hermitian(np.array([[0, 1], [0.5, 0]], dtype=complex))
