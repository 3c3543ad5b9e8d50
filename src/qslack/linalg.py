"""Dense complex linear algebra for small (dim <= 64) matrices.

Everything operates on plain ``numpy`` arrays in row-major layout.  The
functions that read a matrix through its eigenvalues, ``trace_norm`` and
``mat_sqrt_psd``, check that it is square and Hermitian to ``HERMITIAN_ATOL``
and raise ``ValueError`` otherwise; ``mat_sqrt_psd`` also rejects an
eigenvalue below ``-neg_atol``.  ``partial_transpose_b`` checks the shape.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_ATOL = 1e-10


def check_hermitian(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.allclose(m, m.conj().T, atol=HERMITIAN_ATOL, rtol=0.0):
        raise ValueError("matrix is not Hermitian within tolerance")
    return m


def hermitianize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (m + m^dag) / 2."""
    m = np.asarray(m, dtype=complex)
    return (m + m.conj().T) / 2


def partial_transpose_b(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Transpose the second tensor factor of a (dim_a * dim_b)-dimensional
    matrix, or of each matrix of a stack."""
    m = np.asarray(m, dtype=complex)
    d = dim_a * dim_b
    if m.shape[-2:] != (d, d):
        raise ValueError(f"matrix shape {m.shape} does not match dims ({dim_a}, {dim_b})")
    t = m.reshape(m.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))
    return np.swapaxes(t, -1, -3).reshape(m.shape)


def trace_norm(m: np.ndarray) -> float:
    """Sum of |eigenvalues| of a Hermitian matrix, its sum of singular
    values.  Raises on non-Hermitian input."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(check_hermitian(m)))))


def hs_norm_sq(a: np.ndarray) -> float | np.ndarray:
    """Squared Hilbert-Schmidt norm Tr[a^dag a] (real and non-negative) of a
    matrix, or of each matrix of a stack.  Each is one BLAS dot of the
    flattened matrix with its conjugate, the sum ``np.vdot(a, a)`` takes."""
    flat = np.asarray(a, dtype=complex).reshape(np.shape(a)[:-2] + (1, -1))
    return (flat.conj() @ np.swapaxes(flat, -1, -2))[..., 0, 0].real


def mat_sqrt_psd(m: np.ndarray, neg_atol: float = 1e-8) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix.

    Eigenvalues in [-neg_atol, 0) are clamped to zero; anything below
    -neg_atol raises, as does a non-Hermitian matrix.
    """
    w, v = np.linalg.eigh(check_hermitian(m))
    if w.min() < -neg_atol:
        raise ValueError(f"matrix is not PSD: eigenvalue {w.min():.3e}")
    w = np.maximum(w, 0.0)
    return hermitianize((v * np.sqrt(w)) @ v.conj().T)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (Wishart-style)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return hermitianize(rho / np.trace(rho).real)
